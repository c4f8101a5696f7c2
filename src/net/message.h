// Message taxonomy and routing envelope for the simulator.
//
// The network transports opaque payloads hop-by-hop and charges traffic per
// transmitted frame: `size_bytes` per hop in mote mode, one message per hop
// in mesh mode (Appendix F: 802.11/TCP header overhead dominates, so the
// paper counts messages there).
//
// The envelope is plain data: routes travel as RouteIds interned in the
// network's RouteTable (net/route_table.h) and algorithm state travels as a
// PayloadHandle into the pooled payload slabs (net/payload_pool.h), so
// copying or queueing a Message is a memcpy — no allocation, no refcount
// traffic. See Network's header for the payload ownership protocol.

#ifndef ASPEN_NET_MESSAGE_H_
#define ASPEN_NET_MESSAGE_H_

#include <cstdint>
#include <type_traits>

#include "net/payload_pool.h"
#include "net/route_table.h"
#include "net/topology.h"

namespace aspen {
namespace net {

/// \brief Wire-format size constants (mote mode, bytes).
///
/// Derived from the paper's setting: 16-bit integer attributes, TinyOS-style
/// frames. Per-hop link header is charged on every transmission attempt.
struct WireFormat {
  static constexpr int kLinkHeaderBytes = 8;   ///< per-frame link/net header
  static constexpr int kAttributeBytes = 2;    ///< one 16-bit attribute value
  static constexpr int kNodeIdBytes = 2;       ///< node identifier
  static constexpr int kPathEntryBytes = 1;    ///< delta-encoded path vector entry
  static constexpr int kSeqBytes = 2;          ///< sequence number
  static constexpr int kCostEntryBytes = 2;    ///< cost / hop-count entry
};

/// \brief Logical message classes; used for traffic breakdowns and for
/// separating initiation from computation cost (Appendix D's taxonomy).
enum class MessageKind : uint8_t {
  kBeacon = 0,        ///< routing-tree construction beacons
  kQueryDissem,       ///< query flood from the base
  kExploration,       ///< static-predicate path search
  kExplorationReply,  ///< reversed path-vector reply
  kNomination,        ///< join-node nomination (sourceID, targetID, seq)
  kData,              ///< producer sample en route to a join node / base
  kJoinResult,        ///< join output en route to the base
  kCostReport,        ///< MPO ΔCp report to the group coordinator
  kGroupDecision,     ///< MPO decision broadcast within a group
  kMulticastUpdate,   ///< multicast-tree state push
  kCollapseHint,      ///< path-collapse opportunity notification
  kWindowTransfer,    ///< join-window handoff on migration
  kRepair,            ///< failure repair / rejoin traffic
  kControl,           ///< miscellaneous control
  kNumKinds,
};

/// True for the kinds the paper counts as initiation (setup) traffic rather
/// than per-cycle computation traffic.
bool IsInitiationKind(MessageKind kind);

/// \brief How the network resolves each next hop.
enum class RoutingMode : uint8_t {
  kSourcePath,   ///< follow the interned `route` path
  kTreeToRoot,   ///< forward to the primary-tree parent until the root
  kGeoGreedy,    ///< GPSR toward `dest`'s position (net/geo_routing.h)
};

/// \brief A routed message: a POD envelope. Envelope fields are owned by
/// the network layer; algorithm state travels in the pooled `payload`.
struct Message {
  MessageKind kind = MessageKind::kControl;
  RoutingMode mode = RoutingMode::kSourcePath;
  NodeId origin = -1;
  NodeId dest = -1;
  /// Interned route for kSourcePath: origin first, dest last.
  RouteId route = kInvalidRoute;
  /// Payload size excluding per-hop link header.
  int size_bytes = 0;
  /// Unique id assigned by the network on submission.
  uint64_t id = 0;
  /// Owning query when several queries share one medium (SharedMedium
  /// dispatches deliveries by this id); 0 for single-query executors.
  int query_id = 0;
  /// Pooled payload handle (invalid = no payload).
  PayloadHandle payload;
};

static_assert(std::is_trivially_copyable<Message>::value,
              "Message must stay a POD envelope");

}  // namespace net
}  // namespace aspen

#endif  // ASPEN_NET_MESSAGE_H_
