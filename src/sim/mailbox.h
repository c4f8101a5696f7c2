// Dense-keyed mailboxes for the simulation kernel.
//
// Arrivals buffered during the transmit phase are applied in the deliver
// phase in deterministic (key, then arrival order) order. A key is a small
// dense index chosen by the owner: JoinExecutor keys its boxes by producer
// footprint slot, and producers take slots in ascending node id, so key
// order is producer order. Boxes are contiguous — one vector slot per key —
// so the hot push path is a single index; the active-key list keeps
// draining proportional to the number of boxes that actually received mail,
// not the number of keys.

#ifndef ASPEN_SIM_MAILBOX_H_
#define ASPEN_SIM_MAILBOX_H_

#include <algorithm>
#include <cstdint>
#include <vector>

#include "common/phase.h"

namespace aspen {
namespace sim {

/// \brief Contiguous buffers of `T` keyed by a dense index, drained in
/// ascending key order.
template <typename T>
class NodeMailboxes {
 public:
  NodeMailboxes() = default;

  /// Sizes the table for keys 0..num_keys-1 and empties every box.
  void Reset(int num_keys) ASPEN_REQUIRES_SEQUENTIAL {
    boxes_.assign(num_keys, {});
    active_.clear();
    sorted_ = true;
  }

  /// Pre-grows box `key`'s capacity so steady-state pushes don't chase the
  /// high-water mark with reallocations mid-run.
  void ReserveBox(int32_t key, size_t cap) ASPEN_REQUIRES_SEQUENTIAL { boxes_[key].reserve(cap); }
  /// Pre-grows the active-key list (its high-water is the number of boxes
  /// that receive mail in one batch).
  void ReserveActive(size_t n) ASPEN_REQUIRES_SEQUENTIAL { active_.reserve(n); }

  void Push(int32_t key, T item) ASPEN_REQUIRES_SEQUENTIAL {
    if (boxes_[key].empty()) {
      active_.push_back(key);
      sorted_ = false;
    }
    boxes_[key].push_back(std::move(item));
  }

  bool empty() const { return active_.empty(); }

  /// Invokes `fn(key, items)` for every non-empty box in ascending key
  /// order. Non-destructive: call Clear() when done (ForEach may be run
  /// multiple times over the same mail, e.g. one pass per delivery phase;
  /// the key ordering is computed once per batch, not per pass).
  template <typename Fn>
  void ForEach(Fn&& fn) ASPEN_REQUIRES_SEQUENTIAL {
    Prepare();
    for (int32_t key : active_) fn(key, boxes_[key]);
  }

  /// Sorts the active-key list now so that subsequent concurrent
  /// ForEachConst passes (the sharded deliver phase reads boxes from every
  /// worker) touch no shared mutable state.
  void Prepare() ASPEN_REQUIRES_SEQUENTIAL {
    if (!sorted_) {
      std::sort(active_.begin(), active_.end());
      sorted_ = true;
    }
  }

  /// Read-only ForEach for concurrent passes. Prepare() must have been
  /// called since the last Push.
  template <typename Fn>
  void ForEachConst(Fn&& fn) const {
    for (int32_t key : active_) fn(key, boxes_[key]);
  }

  void Clear() ASPEN_REQUIRES_SEQUENTIAL {
    for (int32_t key : active_) boxes_[key].clear();
    active_.clear();
    sorted_ = true;
  }

 private:
  std::vector<std::vector<T>> boxes_;
  std::vector<int32_t> active_;
  bool sorted_ = true;
};

}  // namespace sim
}  // namespace aspen

#endif  // ASPEN_SIM_MAILBOX_H_
