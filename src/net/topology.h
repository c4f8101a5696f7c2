// Physical network topologies: node positions plus radio connectivity.
//
// The paper evaluates on random deployments of varying density (6, 7, 8, 13
// average neighbors), a grid deployment (~7 neighbors), and the Intel
// Research-Berkeley lab layout. All are unit-disk graphs over a 256m x 256m
// field (Table 1: "pos: real-life position (256m by 256m grid)").

#ifndef ASPEN_NET_TOPOLOGY_H_
#define ASPEN_NET_TOPOLOGY_H_

#include <cstdint>
#include <string>
#include <vector>

#include "common/rng.h"
#include "common/status.h"

namespace aspen {
namespace net {

/// Node identifier. The base station is always node 0.
using NodeId = int32_t;

/// \brief A 2D position in meters.
struct Point {
  double x = 0.0;
  double y = 0.0;
};

/// Euclidean distance between two points, in meters.
double Distance(const Point& a, const Point& b);

/// \brief Named deployment densities used throughout the paper's evaluation
/// (Appendix C): random topologies with 6/7/8/13 average neighbors, plus a
/// grid with ~7 neighbors.
enum class TopologyKind {
  kSparseRandom,    ///< ~6 neighbors on average
  kModerateRandom,  ///< ~7 neighbors on average
  kMediumRandom,    ///< ~8 neighbors on average
  kDenseRandom,     ///< ~13 neighbors on average
  kGrid,            ///< regular grid, ~7 neighbors
  kIntelLab,        ///< 54-node Intel Research-Berkeley lab layout
};

/// Human-readable name matching the paper's figures ("Sparse Random", ...).
const char* TopologyKindName(TopologyKind kind);

/// Average neighbor count targeted by a named random density.
double TargetDegree(TopologyKind kind);

/// \brief An immutable unit-disk connectivity graph over positioned nodes.
///
/// The generators guarantee the graph is connected (they retry with new
/// placements or grow the radio range until it is); FromPositions does not.
class Topology {
 public:
  /// \brief The unit-disk graph over explicit node positions (meters) at
  /// `radio_range`, exactly as given: it may be disconnected, which routing
  /// trees (RoutingTree::Build) do not accept. Fails on an empty position
  /// list or a non-positive range.
  static Result<Topology> FromPositions(std::vector<Point> positions,
                                        double radio_range);

  /// \brief Generates a connected random deployment.
  ///
  /// Nodes are placed uniformly at random on `field_size` x `field_size`
  /// meters; the radio range is binary-searched so the average degree is
  /// within 0.5 of `target_degree`. Node 0 (the base station) is placed at
  /// the field center, matching the paper's setup where central nodes carry
  /// the collection load.
  static Result<Topology> Random(int num_nodes, double target_degree,
                                 uint64_t seed, double field_size = 256.0);

  /// \brief Generates a regular grid with `rows` x `cols` nodes and a radio
  /// range covering the 8-neighborhood (~7 average neighbors with border
  /// effects). The base station is the node nearest the grid center.
  static Result<Topology> Grid(int rows, int cols, double field_size = 256.0);

  /// \brief The 54-node Intel Research-Berkeley lab layout (synthesized
  /// coordinates with the lab's elongated aspect ratio; see DESIGN.md,
  /// substitutions). Radio range chosen for ~7 average neighbors.
  static Topology IntelLab();

  /// \brief Convenience dispatcher over the named kinds used in benches.
  static Result<Topology> Make(TopologyKind kind, int num_nodes,
                               uint64_t seed);

  int num_nodes() const { return static_cast<int>(positions_.size()); }
  const Point& position(NodeId id) const { return positions_[id]; }
  double radio_range() const { return radio_range_; }

  /// Neighbors within radio range (excludes the node itself).
  const std::vector<NodeId>& neighbors(NodeId id) const {
    return adjacency_[id];
  }

  /// \brief Gabriel-graph planarization neighbors: radio neighbors v of u
  /// such that no third node lies inside the circle with diameter (u, v).
  /// GPSR's perimeter mode traverses this planar subgraph. Built at
  /// construction — a Topology is fully immutable and safe to share across
  /// threads (parallel RunAveraged repetitions share one deployment). The
  /// Gabriel subgraph of a connected unit-disk graph is connected.
  const std::vector<NodeId>& GabrielNeighbors(NodeId id) const {
    return gabriel_[id];
  }

  bool AreNeighbors(NodeId a, NodeId b) const;

  /// Euclidean distance in meters between two nodes.
  double DistanceBetween(NodeId a, NodeId b) const {
    return Distance(positions_[a], positions_[b]);
  }

  /// Mean over nodes of neighbor-list size.
  double AverageDegree() const;

  /// True iff the connectivity graph is a single component.
  bool IsConnected() const;

  /// BFS hop counts from `src` to every node (-1 if unreachable).
  std::vector<int> HopDistancesFrom(NodeId src) const;

  /// Shortest path (in hops) from `src` to `dst` including both endpoints;
  /// empty if unreachable.
  std::vector<NodeId> ShortestPath(NodeId src, NodeId dst) const;

  /// The node whose position is nearest to `p`.
  NodeId NearestNode(const Point& p) const;

 private:
  /// Tag selecting the generator-internal probe constructor below.
  struct DeferGabriel {};

  Topology(std::vector<Point> positions, double radio_range);
  /// Probe construction for the generators' range searches: adjacency only,
  /// no Gabriel planarization (rebuilt via BuildGabriel before a candidate
  /// escapes to callers).
  Topology(std::vector<Point> positions, double radio_range, DeferGabriel);

  /// Adjacency via a uniform-grid spatial index (cell >= radio range, 3x3
  /// block candidate search); output identical to the all-pairs scan.
  void BuildAdjacency();
  /// Gabriel planarization bounded to each node's radio neighborhood (any
  /// witness for edge (u, v) is strictly closer to u than v is).
  void BuildGabriel();

  std::vector<Point> positions_;
  double radio_range_;
  std::vector<std::vector<NodeId>> adjacency_;
  std::vector<std::vector<NodeId>> gabriel_;
};

}  // namespace net
}  // namespace aspen

#endif  // ASPEN_NET_TOPOLOGY_H_
