#include "net/traffic_stats.h"

#include <algorithm>

namespace aspen {
namespace net {

uint64_t TrafficStats::TotalBytesSent() const {
  uint64_t total = 0;
  for (const auto& n : per_node_) total += n.bytes_sent;
  return total;
}

uint64_t TrafficStats::TotalMessagesSent() const {
  uint64_t total = 0;
  for (const auto& n : per_node_) total += n.messages_sent;
  return total;
}

uint64_t TrafficStats::BaseStationBytes() const {
  return per_node_[0].bytes_sent + per_node_[0].bytes_received;
}

uint64_t TrafficStats::BaseStationMessages() const {
  return per_node_[0].messages_sent + per_node_[0].messages_received;
}

uint64_t TrafficStats::MaxNodeBytes() const {
  uint64_t best = 0;
  for (const auto& n : per_node_) {
    best = std::max(best, n.bytes_sent + n.bytes_received);
  }
  return best;
}

uint64_t TrafficStats::MaxNodeMessages() const {
  uint64_t best = 0;
  for (const auto& n : per_node_) {
    best = std::max(best, n.messages_sent + n.messages_received);
  }
  return best;
}

uint64_t TrafficStats::InitiationBytes() const {
  uint64_t total = 0;
  for (size_t k = 0; k < bytes_by_kind_.size(); ++k) {
    if (IsInitiationKind(static_cast<MessageKind>(k))) {
      total += bytes_by_kind_[k];
    }
  }
  return total;
}

uint64_t TrafficStats::ComputationBytes() const {
  uint64_t total = 0;
  for (size_t k = 0; k < bytes_by_kind_.size(); ++k) {
    if (!IsInitiationKind(static_cast<MessageKind>(k))) {
      total += bytes_by_kind_[k];
    }
  }
  return total;
}

std::vector<uint64_t> TrafficStats::TopLoadedNodes(int k) const {
  std::vector<uint64_t> loads;
  loads.reserve(per_node_.size());
  for (const auto& n : per_node_) {
    loads.push_back(n.bytes_sent + n.bytes_received);
  }
  // Select into a k-sized result: callers keep it (departed queries' stats
  // live on in the medium's ledger), so it must not hold n slots.
  std::vector<uint64_t> top(std::min(loads.size(), static_cast<size_t>(k)));
  std::partial_sort_copy(loads.begin(), loads.end(), top.begin(), top.end(),
                         std::greater<>());
  return top;
}

void TrafficStats::Reset() {
  for (auto& n : per_node_) n = NodeTraffic{};
  bytes_by_kind_.fill(0);
  messages_by_kind_.fill(0);
  per_query_.clear();
}

}  // namespace net
}  // namespace aspen
