#include "routing/summary.h"

#include <algorithm>
#include <cmath>

#include "common/logging.h"

namespace aspen {
namespace routing {
namespace {

// 64-bit mix (SplitMix64 finalizer); distinct probe index salts the hash.
uint64_t MixHash(int32_t value, int probe) {
  uint64_t z = static_cast<uint64_t>(static_cast<uint32_t>(value)) +
               0x9E3779B97F4A7C15ULL * static_cast<uint64_t>(probe + 1);
  z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9ULL;
  z = (z ^ (z >> 27)) * 0x94D049BB133111EBULL;
  return z ^ (z >> 31);
}

}  // namespace

std::unique_ptr<ScalarSummary> ScalarSummary::Make(SummaryType type) {
  switch (type) {
    case SummaryType::kBloom:
      return std::make_unique<BloomSummary>();
    case SummaryType::kInterval:
      return std::make_unique<IntervalSummary>();
    case SummaryType::kExact:
      return std::make_unique<ExactSummary>();
  }
  return nullptr;
}

// ---------------------------------------------------------------- Bloom --

void BloomSummary::Insert(int32_t value) {
  for (int p = 0; p < kProbes; ++p) {
    uint64_t bit = MixHash(value, p) % kBits;
    bits_[bit / 64] |= (1ULL << (bit % 64));
  }
}

bool BloomSummary::MayContain(int32_t value) const {
  for (int p = 0; p < kProbes; ++p) {
    uint64_t bit = MixHash(value, p) % kBits;
    if ((bits_[bit / 64] & (1ULL << (bit % 64))) == 0) return false;
  }
  return true;
}

void BloomSummary::Merge(const ScalarSummary& other) {
  ASPEN_CHECK(other.type() == SummaryType::kBloom);
  const auto& o = static_cast<const BloomSummary&>(other);
  for (size_t i = 0; i < std::size(bits_); ++i) bits_[i] |= o.bits_[i];
}

std::unique_ptr<ScalarSummary> BloomSummary::Clone() const {
  return std::make_unique<BloomSummary>(*this);
}

// ------------------------------------------------------------- Interval --

void IntervalSummary::Insert(int32_t value) {
  lo_ = std::min(lo_, value);
  hi_ = std::max(hi_, value);
}

bool IntervalSummary::MayContain(int32_t value) const {
  return value >= lo_ && value <= hi_;
}

void IntervalSummary::Merge(const ScalarSummary& other) {
  ASPEN_CHECK(other.type() == SummaryType::kInterval);
  const auto& o = static_cast<const IntervalSummary&>(other);
  if (o.empty()) return;
  Insert(o.lo_);
  Insert(o.hi_);
}

std::unique_ptr<ScalarSummary> IntervalSummary::Clone() const {
  return std::make_unique<IntervalSummary>(*this);
}

// ---------------------------------------------------------------- Exact --

void ExactSummary::Insert(int32_t value) {
  auto it = std::lower_bound(values_.begin(), values_.end(), value);
  if (it == values_.end() || *it != value) values_.insert(it, value);
}

bool ExactSummary::MayContain(int32_t value) const {
  return std::binary_search(values_.begin(), values_.end(), value);
}

void ExactSummary::Merge(const ScalarSummary& other) {
  ASPEN_CHECK(other.type() == SummaryType::kExact);
  const auto& o = static_cast<const ExactSummary&>(other);
  for (int32_t v : o.values_) Insert(v);
}

int ExactSummary::SizeBytes() const {
  return static_cast<int>(values_.size()) * kValueBytes;
}

std::unique_ptr<ScalarSummary> ExactSummary::Clone() const {
  return std::make_unique<ExactSummary>(*this);
}

// ---------------------------------------------------------------- RTree --

void RTreeSummary::Insert(const net::Point& p) {
  rects_.push_back({p.x, p.y, p.x, p.y});
  Compact();
}

void RTreeSummary::Merge(const RTreeSummary& other) {
  for (const Rect& r : other.rects_) rects_.push_back(r);
  Compact();
}

namespace {
double RectArea(const RTreeSummary::Rect& r) {
  return (r.max_x - r.min_x) * (r.max_y - r.min_y);
}
RTreeSummary::Rect Union(const RTreeSummary::Rect& a,
                         const RTreeSummary::Rect& b) {
  return {std::min(a.min_x, b.min_x), std::min(a.min_y, b.min_y),
          std::max(a.max_x, b.max_x), std::max(a.max_y, b.max_y)};
}
}  // namespace

void RTreeSummary::Compact() {
  while (static_cast<int>(rects_.size()) > max_rects_) {
    // Merge the pair whose union wastes the least area.
    size_t best_i = 0, best_j = 1;
    double best_waste = 1e300;
    for (size_t i = 0; i < rects_.size(); ++i) {
      for (size_t j = i + 1; j < rects_.size(); ++j) {
        Rect u = Union(rects_[i], rects_[j]);
        double waste = RectArea(u) - RectArea(rects_[i]) - RectArea(rects_[j]);
        if (waste < best_waste) {
          best_waste = waste;
          best_i = i;
          best_j = j;
        }
      }
    }
    rects_[best_i] = Union(rects_[best_i], rects_[best_j]);
    rects_.erase(rects_.begin() + best_j);
  }
}

bool RTreeSummary::MayIntersectCircle(const net::Point& center,
                                      double radius) const {
  for (const Rect& r : rects_) {
    double dx = std::max({r.min_x - center.x, 0.0, center.x - r.max_x});
    double dy = std::max({r.min_y - center.y, 0.0, center.y - r.max_y});
    if (dx * dx + dy * dy <= radius * radius) return true;
  }
  return false;
}

bool RTreeSummary::MayContainPoint(const net::Point& p) const {
  for (const Rect& r : rects_) {
    if (p.x >= r.min_x && p.x <= r.max_x && p.y >= r.min_y && p.y <= r.max_y) {
      return true;
    }
  }
  return false;
}

}  // namespace routing
}  // namespace aspen
