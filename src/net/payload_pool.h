// Pooled, generation-checked message payloads.
//
// The data plane attaches algorithm state to messages through a POD
// PayloadHandle instead of a shared_ptr: payload objects live in typed
// slabs (one TypedPool<T> per payload type), are reference-counted with a
// plain int (the simulator is single-threaded per network), and are
// returned to a free list on the final Release. Slots are recycled with
// their heap capacity intact — a reused DataPayload keeps its tuple
// buffer — so steady-state cycles allocate nothing.
//
// Safety: every slot carries a generation counter that is bumped when the
// slot is freed. Get/AddRef/Release on a stale handle (an old generation,
// i.e. a use-after-free or double-free) fail softly — Get returns nullptr,
// AddRef/Release return false — in every build mode, so protocol bugs
// surface as visible errors instead of silent aliasing.
//
// Ownership protocol (see also Network's header):
//  - Allocate() returns a handle owning one reference.
//  - Submitting a message transfers that reference to the network; the
//    network releases it when the frame terminates (delivery or drop).
//  - Delivery/drop/snoop handlers borrow the payload; a handler that
//    buffers the handle past its own return must AddRef (and Release when
//    done).

#ifndef ASPEN_NET_PAYLOAD_POOL_H_
#define ASPEN_NET_PAYLOAD_POOL_H_

#include <cstdint>
#include <memory>
#include <typeinfo>
#include <vector>

#include "common/logging.h"

namespace aspen {
namespace net {

/// \brief POD handle to a pooled payload. `pool` is the owning pool's tag
/// (0 = no payload); `slot`/`gen` locate and validate the slab slot.
struct PayloadHandle {
  int32_t slot = -1;
  uint32_t gen = 0;
  uint32_t pool = 0;

  bool valid() const { return pool != 0; }
};

/// \brief Type-erased pool interface: what the network needs to manage
/// payload lifetime without knowing payload types.
class PayloadPoolBase {
 public:
  virtual ~PayloadPoolBase() = default;
  /// False if the handle is stale (freed slot / old generation).
  virtual bool AddRef(PayloadHandle h) = 0;
  /// Drops one reference; frees the slot at zero. False if stale (a
  /// double-free attempt leaves the pool untouched).
  virtual bool Release(PayloadHandle h) = 0;
  virtual size_t live() const = 0;
  virtual size_t capacity() const = 0;
};

/// \brief Typed slab pool for one payload type.
template <typename T>
class TypedPool : public PayloadPoolBase {
 public:
  explicit TypedPool(uint32_t tag) : tag_(tag) { ASPEN_CHECK(tag != 0); }

  /// Returns a handle owning one reference. The slot's T is *reused*, not
  /// reconstructed: the caller must overwrite every field it reads later
  /// (containers keep their old capacity — that is the point).
  PayloadHandle Allocate() {
    int32_t slot;
    if (!free_.empty()) {
      slot = free_.back();
      free_.pop_back();
    } else {
      slot = static_cast<int32_t>(slots_.size());
      slots_.emplace_back();
    }
    Slot& s = slots_[slot];
    s.refs = 1;
    ++live_;
    return PayloadHandle{slot, s.gen, tag_};
  }

  /// The payload behind `h`, or nullptr when `h` is stale, from another
  /// pool, or empty. Pointers are invalidated by the next Allocate (slab
  /// growth); do not hold them across allocations.
  T* Get(PayloadHandle h) {
    if (h.pool != tag_ || h.slot < 0 ||
        h.slot >= static_cast<int32_t>(slots_.size())) {
      return nullptr;
    }
    Slot& s = slots_[h.slot];
    if (s.gen != h.gen || s.refs <= 0) return nullptr;
    return &s.value;
  }
  const T* Get(PayloadHandle h) const {
    return const_cast<TypedPool*>(this)->Get(h);
  }

  bool AddRef(PayloadHandle h) override {
    T* p = Get(h);
    if (p == nullptr) return false;
    ++slots_[h.slot].refs;
    return true;
  }

  bool Release(PayloadHandle h) override {
    T* p = Get(h);
    if (p == nullptr) return false;
    Slot& s = slots_[h.slot];
    if (--s.refs == 0) {
      ++s.gen;
      free_.push_back(h.slot);
      --live_;
    }
    return true;
  }

  /// Grows the slab to at least `total` slots, pushing the new slots onto
  /// the free list so Allocate hands them out in slot order (exactly the
  /// order organic growth would have). `warm` runs once per new slot's
  /// value so callers can pre-size contained buffers; together with slot
  /// recycling this moves the high-water allocations of a steady-state run
  /// to init time. Never shrinks and never touches existing slots.
  template <typename Fn>
  void Reserve(size_t total, Fn&& warm) {
    const size_t old = slots_.size();
    if (total <= old) return;
    slots_.reserve(total);
    free_.reserve(free_.size() + (total - old));
    for (size_t i = old; i < total; ++i) {
      slots_.emplace_back();
      warm(slots_.back().value);
    }
    for (size_t i = total; i > old; --i) {
      free_.push_back(static_cast<int32_t>(i - 1));
    }
  }

  size_t live() const override { return live_; }
  size_t capacity() const override { return slots_.size(); }
  uint32_t tag() const { return tag_; }

 private:
  struct Slot {
    T value{};
    uint32_t gen = 1;  // 0 never matches: a default handle is always stale
    int32_t refs = 0;
  };

  std::vector<Slot> slots_;
  std::vector<int32_t> free_;
  size_t live_ = 0;
  uint32_t tag_;
};

/// \brief Registry of typed pools, addressed by handle tag. Owned by the
/// DataPlane; the network releases/addrefs through it type-erased, the
/// protocol layer allocates/reads through the typed accessors.
class PayloadArena {
 public:
  /// The pool registered under `tag`, created on first use. The (tag, T)
  /// binding is fixed for the arena's lifetime.
  template <typename T>
  TypedPool<T>* GetOrCreate(uint32_t tag) {
    ASPEN_CHECK(tag != 0);
    if (tag >= pools_.size()) pools_.resize(tag + 1);
    Entry& e = pools_[tag];
    if (e.pool == nullptr) {
      e.pool = std::make_unique<TypedPool<T>>(tag);
      e.type = &typeid(T);
    }
    ASPEN_CHECK(*e.type == typeid(T));
    return static_cast<TypedPool<T>*>(e.pool.get());
  }

  void AddRef(PayloadHandle h) {
    if (!h.valid()) return;
    PayloadPoolBase* p = PoolFor(h);
    if (p != nullptr) p->AddRef(h);
  }

  void Release(PayloadHandle h) {
    if (!h.valid()) return;
    PayloadPoolBase* p = PoolFor(h);
    if (p != nullptr) p->Release(h);
  }

  size_t live() const {
    size_t n = 0;
    for (const Entry& e : pools_) {
      if (e.pool != nullptr) n += e.pool->live();
    }
    return n;
  }

  /// Total slab slots across every pool (allocated capacity, never shrinks).
  size_t capacity() const {
    size_t n = 0;
    for (const Entry& e : pools_) {
      if (e.pool != nullptr) n += e.pool->capacity();
    }
    return n;
  }

 private:
  struct Entry {
    std::unique_ptr<PayloadPoolBase> pool;
    const std::type_info* type = nullptr;
  };

  PayloadPoolBase* PoolFor(PayloadHandle h) {
    if (h.pool >= pools_.size()) return nullptr;
    return pools_[h.pool].pool.get();
  }

  std::vector<Entry> pools_;
};

}  // namespace net
}  // namespace aspen

#endif  // ASPEN_NET_PAYLOAD_POOL_H_
