#include "net/message.h"

namespace aspen {
namespace net {

bool IsInitiationKind(MessageKind kind) {
  switch (kind) {
    case MessageKind::kBeacon:
    case MessageKind::kQueryDissem:
    case MessageKind::kExploration:
    case MessageKind::kExplorationReply:
    case MessageKind::kNomination:
      return true;
    default:
      return false;
  }
}

}  // namespace net
}  // namespace aspen
