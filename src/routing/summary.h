// Subtree attribute summaries for semantic routing trees.
//
// Each node of each routing tree keeps, per indexed static attribute and per
// child, a compact summary of the values present in that child's subtree
// (Appendix C: a generalization of TinyDB's semantic routing trees and GiST,
// supporting intervals, Bloom filters and R-trees). Exploration consults the
// summaries to prune subtrees that cannot contain a sought join-key value.

#ifndef ASPEN_ROUTING_SUMMARY_H_
#define ASPEN_ROUTING_SUMMARY_H_

#include <cstdint>
#include <memory>
#include <vector>

#include "net/topology.h"

namespace aspen {
namespace routing {

/// \brief Which summary structure indexes a scalar attribute.
enum class SummaryType : uint8_t {
  kBloom,     ///< bit array with k hash probes; false positives possible
  kInterval,  ///< [min, max] bounds; good for smooth value ranges
  kExact,     ///< exact value set; ablation baseline (unbounded size)
};

/// \brief Summary over scalar (integer) attribute values in a subtree.
///
/// MayContain is conservative: it may return true for absent values (false
/// positive) but never false for present ones — the invariant exploration
/// correctness depends on (tested by property tests).
class ScalarSummary {
 public:
  virtual ~ScalarSummary() = default;
  virtual void Insert(int32_t value) = 0;
  virtual bool MayContain(int32_t value) const = 0;
  virtual void Merge(const ScalarSummary& other) = 0;
  /// Wire size when shipped to the parent during tree construction.
  virtual int SizeBytes() const = 0;
  virtual std::unique_ptr<ScalarSummary> Clone() const = 0;
  virtual SummaryType type() const = 0;

  /// Factory for a fresh, empty summary of the given type.
  static std::unique_ptr<ScalarSummary> Make(SummaryType type);
};

/// \brief Bloom filter over int32 values (fixed 128-bit array, 3 probes —
/// sized for mote RAM budgets; ~1% false positives at 16 values).
class BloomSummary : public ScalarSummary {
 public:
  static constexpr int kBits = 128;
  static constexpr int kProbes = 3;

  void Insert(int32_t value) override;
  bool MayContain(int32_t value) const override;
  void Merge(const ScalarSummary& other) override;
  int SizeBytes() const override { return kBits / 8; }
  std::unique_ptr<ScalarSummary> Clone() const override;
  SummaryType type() const override { return SummaryType::kBloom; }

 private:
  uint64_t bits_[kBits / 64] = {0, 0};
};

/// \brief [min, max] interval summary (TinyDB-style 1-D SRT entry).
class IntervalSummary : public ScalarSummary {
 public:
  void Insert(int32_t value) override;
  bool MayContain(int32_t value) const override;
  void Merge(const ScalarSummary& other) override;
  int SizeBytes() const override { return 4; }  // two 16-bit bounds
  std::unique_ptr<ScalarSummary> Clone() const override;
  SummaryType type() const override { return SummaryType::kInterval; }

  bool empty() const { return lo_ > hi_; }
  int32_t lo() const { return lo_; }
  int32_t hi() const { return hi_; }

 private:
  int32_t lo_ = INT32_MAX;
  int32_t hi_ = INT32_MIN;
};

/// \brief Exact value set; ablation baseline for summary precision.
class ExactSummary : public ScalarSummary {
 public:
  /// Wire size of one value (16-bit values).
  static constexpr int kValueBytes = 2;

  void Insert(int32_t value) override;
  bool MayContain(int32_t value) const override;
  void Merge(const ScalarSummary& other) override;
  int SizeBytes() const override;
  std::unique_ptr<ScalarSummary> Clone() const override;
  SummaryType type() const override { return SummaryType::kExact; }

 private:
  std::vector<int32_t> values_;  // kept sorted & deduplicated
};

/// \brief R-tree-style summary of 2D positions: a bounded set of rectangles
/// covering every inserted point. When the rectangle budget is exceeded the
/// two rectangles whose union grows least are merged.
class RTreeSummary {
 public:
  explicit RTreeSummary(int max_rects = 4) : max_rects_(max_rects) {}

  struct Rect {
    double min_x, min_y, max_x, max_y;
  };

  void Insert(const net::Point& p);
  void Merge(const RTreeSummary& other);
  /// Conservative: true if any rectangle intersects the disk
  /// (center, radius). Never false when a covered point lies in the disk.
  bool MayIntersectCircle(const net::Point& center, double radius) const;
  bool MayContainPoint(const net::Point& p) const;
  int num_rects() const { return static_cast<int>(rects_.size()); }
  bool empty() const { return rects_.empty(); }

 private:
  void Compact();

  int max_rects_;
  std::vector<Rect> rects_;
};

}  // namespace routing
}  // namespace aspen

#endif  // ASPEN_ROUTING_SUMMARY_H_
