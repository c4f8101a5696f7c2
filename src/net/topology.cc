#include "net/topology.h"

#include <algorithm>
#include <cmath>
#include <queue>

#include "common/logging.h"

namespace aspen {
namespace net {

double Distance(const Point& a, const Point& b) {
  return std::hypot(a.x - b.x, a.y - b.y);
}

const char* TopologyKindName(TopologyKind kind) {
  switch (kind) {
    case TopologyKind::kSparseRandom:
      return "Sparse Random";
    case TopologyKind::kModerateRandom:
      return "Moderate Random";
    case TopologyKind::kMediumRandom:
      return "Medium Random";
    case TopologyKind::kDenseRandom:
      return "Dense Random";
    case TopologyKind::kGrid:
      return "Grid";
    case TopologyKind::kIntelLab:
      return "Intel Lab";
  }
  return "unknown";
}

double TargetDegree(TopologyKind kind) {
  switch (kind) {
    case TopologyKind::kSparseRandom:
      return 6.0;
    case TopologyKind::kModerateRandom:
      return 7.0;
    case TopologyKind::kMediumRandom:
      return 8.0;
    case TopologyKind::kDenseRandom:
      return 13.0;
    case TopologyKind::kGrid:
      return 7.0;
    case TopologyKind::kIntelLab:
      return 7.0;
  }
  return 7.0;
}

Topology::Topology(std::vector<Point> positions, double radio_range)
    : positions_(std::move(positions)), radio_range_(radio_range) {
  BuildAdjacency();
  BuildGabriel();
}

Topology::Topology(std::vector<Point> positions, double radio_range,
                   DeferGabriel)
    : positions_(std::move(positions)), radio_range_(radio_range) {
  // Generator-internal probe: the binary search over radio ranges only needs
  // degree and connectivity, so the Gabriel planarization is skipped until a
  // candidate is accepted (every publicly obtainable Topology has it built).
  BuildAdjacency();
}

namespace {

/// \brief Uniform-grid spatial index over node positions: cells at least one
/// radio range wide, so every in-range pair lies within one 3x3 cell block.
/// Cell pruning only discards pairs whose coordinate delta already exceeds
/// the range — membership decisions always use the exact Distance()
/// comparison, so index-based generation is byte-identical to the all-pairs
/// scan it replaced (tests/topology_test.cc GoldenEqualsAllPairsReference).
class UniformGrid {
 public:
  UniformGrid(const std::vector<Point>& pts, double range) : pts_(pts) {
    const int n = static_cast<int>(pts.size());
    min_x_ = max_x_ = pts[0].x;
    min_y_ = max_y_ = pts[0].y;
    for (const Point& p : pts) {
      min_x_ = std::min(min_x_, p.x);
      max_x_ = std::max(max_x_, p.x);
      min_y_ = std::min(min_y_, p.y);
      max_y_ = std::max(max_y_, p.y);
    }
    // Larger cells are always correct (they only admit more candidates); the
    // floor keeps the cell count O(n) when the range is tiny relative to the
    // bounding box (early binary-search probes in Random()).
    const double span = std::max(max_x_ - min_x_, max_y_ - min_y_);
    const double min_cell =
        span / (2.0 * std::sqrt(static_cast<double>(n)) + 1.0);
    cell_ = std::max(range, min_cell);
    cols_ = std::max(1, static_cast<int>((max_x_ - min_x_) / cell_) + 1);
    rows_ = std::max(1, static_cast<int>((max_y_ - min_y_) / cell_) + 1);
    // CSR cell index: counts, prefix sums, then a fill pass in ascending
    // node id, so each cell's member list is itself ascending.
    cell_start_.assign(static_cast<size_t>(rows_) * cols_ + 1, 0);
    for (const Point& p : pts) ++cell_start_[CellOf(p) + 1];
    for (size_t c = 1; c < cell_start_.size(); ++c) {
      cell_start_[c] += cell_start_[c - 1];
    }
    cell_nodes_.resize(n);
    std::vector<int32_t> fill(cell_start_.begin(), cell_start_.end() - 1);
    for (NodeId i = 0; i < n; ++i) {
      cell_nodes_[fill[CellOf(pts[i])]++] = i;
    }
  }

  /// Invokes fn(j) for every node j != i in the 3x3 cell block around i,
  /// in ascending node order within each cell (cells scanned row-major).
  template <typename Fn>
  void ForEachCandidate(NodeId i, Fn&& fn) const {
    const Point& pi = pts_[i];
    const int cx =
        std::min(cols_ - 1, static_cast<int>((pi.x - min_x_) / cell_));
    const int cy =
        std::min(rows_ - 1, static_cast<int>((pi.y - min_y_) / cell_));
    for (int dy = -1; dy <= 1; ++dy) {
      const int y = cy + dy;
      if (y < 0 || y >= rows_) continue;
      for (int dx = -1; dx <= 1; ++dx) {
        const int x = cx + dx;
        if (x < 0 || x >= cols_) continue;
        const int c = y * cols_ + x;
        for (int32_t k = cell_start_[c]; k < cell_start_[c + 1]; ++k) {
          const NodeId j = cell_nodes_[k];
          if (j != i) fn(j);
        }
      }
    }
  }

 private:
  int CellOf(const Point& p) const {
    int cx = std::min(cols_ - 1, static_cast<int>((p.x - min_x_) / cell_));
    int cy = std::min(rows_ - 1, static_cast<int>((p.y - min_y_) / cell_));
    return cy * cols_ + cx;
  }

  const std::vector<Point>& pts_;
  double min_x_, max_x_, min_y_, max_y_;
  double cell_;
  int cols_, rows_;
  std::vector<int32_t> cell_start_;
  std::vector<NodeId> cell_nodes_;
};

/// \brief Whether the unit-disk graph over `pts` at `range` has average
/// degree < `target`, deciding exactly as Topology::AverageDegree() would —
/// 2E/n compared in the same double arithmetic — but without materializing
/// adjacency, and stopping early once the degree provably reaches the
/// target. This is what makes each probe of Random()'s range search O(n)
/// instead of O(n^2).
bool DegreeBelowTarget(const std::vector<Point>& pts, double range,
                       double target) {
  const int n = static_cast<int>(pts.size());
  UniformGrid grid(pts, range);
  int64_t half_edges = 0;  // counts each edge twice, as adjacency sizes do
  for (NodeId i = 0; i < n; ++i) {
    grid.ForEachCandidate(i, [&](NodeId j) {
      if (j > i && Distance(pts[i], pts[j]) <= range) half_edges += 2;
    });
    if (static_cast<double>(half_edges) / n >= target) return false;
  }
  return static_cast<double>(half_edges) / n < target;
}

}  // namespace

void Topology::BuildAdjacency() {
  // Uniform-grid spatial index replaces the all-pairs O(n^2) scan with
  // O(n * local density); each neighbor list comes out sorted ascending —
  // exactly the order the all-pairs loop produced — so the generated graphs
  // are byte-identical.
  const int n = num_nodes();
  adjacency_.assign(n, {});
  if (n == 0) return;
  UniformGrid grid(positions_, radio_range_);
  for (NodeId i = 0; i < n; ++i) {
    const Point& pi = positions_[i];
    std::vector<NodeId>& adj = adjacency_[i];
    grid.ForEachCandidate(i, [&](NodeId j) {
      if (Distance(pi, positions_[j]) <= radio_range_) adj.push_back(j);
    });
    std::sort(adj.begin(), adj.end());
  }
}

void Topology::BuildGabriel() {
  const int n = num_nodes();
  gabriel_.assign(n, {});
  // Squared neighbor distances for one u, computed once and reused across
  // that u's edge and witness tests (the all-pairs version recomputed each
  // DistanceBetween per (v, w) pair).
  std::vector<double> d2u;
  for (int u = 0; u < n; ++u) {
    const auto& adj = adjacency_[u];
    d2u.resize(adj.size());
    for (size_t k = 0; k < adj.size(); ++k) {
      const double d = DistanceBetween(u, adj[k]);
      d2u[k] = d * d;
    }
    for (size_t vi = 0; vi < adj.size(); ++vi) {
      const NodeId v = adj[vi];
      if (v < u) continue;  // handle each edge once
      // Keep (u, v) iff no witness w lies inside the circle whose
      // diameter is the segment uv: d(u,w)^2 + d(w,v)^2 < d(u,v)^2.
      const double duv2 = d2u[vi];
      bool witness = false;
      for (size_t wi = 0; wi < adj.size(); ++wi) {
        const NodeId w = adj[wi];
        if (w == v) continue;
        const double dwv = DistanceBetween(w, v);
        if (d2u[wi] + dwv * dwv < duv2) {
          witness = true;
          break;
        }
      }
      if (!witness) {
        gabriel_[u].push_back(v);
        gabriel_[v].push_back(static_cast<NodeId>(u));
      }
    }
  }
  for (auto& adj : gabriel_) std::sort(adj.begin(), adj.end());
}

bool Topology::AreNeighbors(NodeId a, NodeId b) const {
  if (a == b) return false;
  const auto& adj = adjacency_[a];
  return std::find(adj.begin(), adj.end(), b) != adj.end();
}

double Topology::AverageDegree() const {
  if (num_nodes() == 0) return 0.0;
  size_t total = 0;
  for (const auto& adj : adjacency_) total += adj.size();
  return static_cast<double>(total) / num_nodes();
}

bool Topology::IsConnected() const {
  if (num_nodes() == 0) return true;
  auto hops = HopDistancesFrom(0);
  return std::none_of(hops.begin(), hops.end(),
                      [](int h) { return h < 0; });
}

std::vector<int> Topology::HopDistancesFrom(NodeId src) const {
  std::vector<int> dist(num_nodes(), -1);
  std::queue<NodeId> frontier;
  dist[src] = 0;
  frontier.push(src);
  while (!frontier.empty()) {
    NodeId u = frontier.front();
    frontier.pop();
    for (NodeId v : adjacency_[u]) {
      if (dist[v] < 0) {
        dist[v] = dist[u] + 1;
        frontier.push(v);
      }
    }
  }
  return dist;
}

std::vector<NodeId> Topology::ShortestPath(NodeId src, NodeId dst) const {
  std::vector<NodeId> parent(num_nodes(), -1);
  std::vector<bool> seen(num_nodes(), false);
  std::queue<NodeId> frontier;
  seen[src] = true;
  frontier.push(src);
  while (!frontier.empty() && !seen[dst]) {
    NodeId u = frontier.front();
    frontier.pop();
    for (NodeId v : adjacency_[u]) {
      if (!seen[v]) {
        seen[v] = true;
        parent[v] = u;
        frontier.push(v);
      }
    }
  }
  if (!seen[dst]) return {};
  std::vector<NodeId> path;
  for (NodeId u = dst; u != -1; u = parent[u]) path.push_back(u);
  std::reverse(path.begin(), path.end());
  ASPEN_DCHECK(path.front() == src);
  return path;
}

NodeId Topology::NearestNode(const Point& p) const {
  NodeId best = 0;
  double best_d = Distance(positions_[0], p);
  for (int i = 1; i < num_nodes(); ++i) {
    double d = Distance(positions_[i], p);
    if (d < best_d) {
      best_d = d;
      best = i;
    }
  }
  return best;
}

Result<Topology> Topology::FromPositions(std::vector<Point> positions,
                                         double radio_range) {
  if (positions.empty() || !(radio_range > 0.0)) {
    return Status::InvalidArgument(
        "FromPositions needs >= 1 node and a positive radio range");
  }
  return Topology(std::move(positions), radio_range);
}

Result<Topology> Topology::Random(int num_nodes, double target_degree,
                                  uint64_t seed, double field_size) {
  if (num_nodes < 2) {
    return Status::InvalidArgument("Random topology needs >= 2 nodes");
  }
  if (target_degree <= 0 || target_degree >= num_nodes) {
    return Status::InvalidArgument("target_degree out of range");
  }
  Rng rng(seed);
  // Retry placements until a connected graph at (close to) the target degree
  // is found; each retry re-draws all positions.
  for (int attempt = 0; attempt < 64; ++attempt) {
    std::vector<Point> pts(num_nodes);
    pts[0] = {field_size / 2.0, field_size / 2.0};  // base at field center
    for (int i = 1; i < num_nodes; ++i) {
      pts[i] = {rng.UniformDouble() * field_size,
                rng.UniformDouble() * field_size};
    }
    // Binary-search the radio range for the target average degree. Probes
    // only count edges (early-terminated, via the spatial index) — adjacency
    // is materialized once for the accepted range, and the Gabriel
    // planarization only for the accepted candidate.
    double lo = 1.0, hi = field_size * std::sqrt(2.0);
    double best_range = hi;
    for (int iter = 0; iter < 48; ++iter) {
      double mid = 0.5 * (lo + hi);
      if (DegreeBelowTarget(pts, mid, target_degree)) {
        lo = mid;
      } else {
        hi = mid;
        best_range = mid;
      }
    }
    // Accept if connected and close enough; otherwise grow range until
    // connected, then check the degree tolerance (dense targets tolerate
    // more slack because degree moves fast with range).
    Topology t(pts, best_range, DeferGabriel{});
    double range = t.radio_range();
    while (!t.IsConnected() && range < field_size * 2) {
      range *= 1.05;
      t = Topology(t.positions_, range, DeferGabriel{});
    }
    if (t.IsConnected() &&
        std::abs(t.AverageDegree() - target_degree) <= 1.0) {
      t.BuildGabriel();
      return t;
    }
  }
  return Status::Internal("could not generate connected topology at degree");
}

Result<Topology> Topology::Grid(int rows, int cols, double field_size) {
  if (rows < 2 || cols < 2) {
    return Status::InvalidArgument("Grid needs rows, cols >= 2");
  }
  std::vector<Point> pts;
  pts.reserve(static_cast<size_t>(rows) * cols);
  const double dx = field_size / cols;
  const double dy = field_size / rows;
  for (int r = 0; r < rows; ++r) {
    for (int c = 0; c < cols; ++c) {
      pts.push_back({(c + 0.5) * dx, (r + 0.5) * dy});
    }
  }
  // Range covering the 8-neighborhood: just over the diagonal spacing.
  const double range = std::hypot(dx, dy) * 1.01;
  // Base station should be the node nearest the center: swap it to index 0.
  Point center{field_size / 2.0, field_size / 2.0};
  size_t best = 0;
  for (size_t i = 1; i < pts.size(); ++i) {
    if (Distance(pts[i], center) < Distance(pts[best], center)) best = i;
  }
  std::swap(pts[0], pts[best]);
  Topology t(std::move(pts), range);
  if (!t.IsConnected()) {
    return Status::Internal("grid topology unexpectedly disconnected");
  }
  return t;
}

Topology Topology::IntelLab() {
  // 54 nodes on an elongated floor plan (the lab is roughly 40m x 30m with
  // nodes along walls and desks). Deterministic synthesized layout: three
  // horizontal bands with jitter from a fixed-seed generator, scaled to a
  // 48m x 32m footprint. Base station (node 0) near the middle of the
  // south wall, as in the original deployment.
  Rng rng(0xA5C3E1);
  std::vector<Point> pts;
  pts.reserve(54);
  pts.push_back({24.0, 2.0});  // base
  int placed = 1;
  for (int band = 0; band < 3 && placed < 54; ++band) {
    double y0 = 6.0 + band * 10.0;
    for (int k = 0; k < 18 && placed < 54; ++k) {
      double x = 2.0 + k * (44.0 / 17.0) + (rng.UniformDouble() - 0.5) * 2.0;
      double y = y0 + (rng.UniformDouble() - 0.5) * 4.0;
      pts.push_back({x, y});
      ++placed;
    }
  }
  // Choose the smallest range (in 0.25m steps) giving a connected graph with
  // degree >= 6.
  double range = 6.0;
  Topology t(pts, range, DeferGabriel{});
  while ((!t.IsConnected() || t.AverageDegree() < 6.0) && range < 60.0) {
    range += 0.25;
    t = Topology(pts, range, DeferGabriel{});
  }
  t.BuildGabriel();
  return t;
}

Result<Topology> Topology::Make(TopologyKind kind, int num_nodes,
                                uint64_t seed) {
  switch (kind) {
    case TopologyKind::kGrid: {
      int side = static_cast<int>(std::lround(std::sqrt(num_nodes)));
      return Grid(side, side);
    }
    case TopologyKind::kIntelLab:
      return IntelLab();
    default:
      return Random(num_nodes, TargetDegree(kind), seed);
  }
}

}  // namespace net
}  // namespace aspen
