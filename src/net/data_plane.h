// The shared data-plane arena: one RouteTable plus one PayloadArena.
//
// Everything the steady-state cycle references by id — interned routes,
// pooled payload slabs — lives here. Each Network owns one DataPlane for
// its whole lifetime.

#ifndef ASPEN_NET_DATA_PLANE_H_
#define ASPEN_NET_DATA_PLANE_H_

#include "net/payload_pool.h"
#include "net/route_table.h"

namespace aspen {
namespace net {

/// \brief Route table + payload pools shared by one network and the
/// protocol logic running over it.
class DataPlane {
 public:
  RouteTable& routes() { return routes_; }
  const RouteTable& routes() const { return routes_; }
  PayloadArena& payloads() { return payloads_; }
  const PayloadArena& payloads() const { return payloads_; }

 private:
  RouteTable routes_;
  PayloadArena payloads_;
};

}  // namespace net
}  // namespace aspen

#endif  // ASPEN_NET_DATA_PLANE_H_
