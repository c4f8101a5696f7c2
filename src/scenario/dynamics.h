// Scripted network dynamics: the scenario engine.
//
// The paper's failure-recovery experiment (Section 7, Figure 14) kills one
// join node at one moment; real deployments see node churn, link-quality
// drift, correlated interference bursts, regional outages — and *query*
// churn: the set of standing queries a long-running service executes
// changes over the network's lifetime. A DynamicsSchedule scripts such a
// scenario as timed events, and a ScenarioDriver replays it against a
// net::Network (and, for query arrival/departure events, a QueryHost) as a
// sim::CycleParticipant — attach it with CycleScheduler::AttachFront so an
// event scheduled for sampling cycle N mutates the network before any query
// samples at cycle N, and a query arriving (departing) at cycle N takes
// (skips) its first (next) sample exactly at cycle N.
//
// Determinism: a schedule is plain data, stochastic schedules (RandomChurn)
// are pre-generated from their own seed, and the driver never draws from
// the network's RNG — so a scenario run is reproducible bit-for-bit from
// (workload seed, schedule) and is stream-for-stream comparable with its
// unfailed baseline (see the unconditional-draw note in net/network.h).

#ifndef ASPEN_SCENARIO_DYNAMICS_H_
#define ASPEN_SCENARIO_DYNAMICS_H_

#include <cstdint>
#include <vector>

#include "common/phase.h"
#include "common/status.h"
#include "net/network.h"
#include "net/topology.h"
#include "sim/cycle_scheduler.h"

namespace aspen {
namespace scenario {

/// \brief Admits and removes queries on behalf of scripted query-churn
/// events. Implemented by the service layer (core::RunService's adapter
/// over join::SharedMedium); injected into ScenarioDriver to avoid a
/// layering cycle, exactly like net::ParentResolver.
class QueryHost {
 public:
  virtual ~QueryHost() = default;
  /// A scripted query arrives: admit an instance of `template_id` under the
  /// caller-scoped handle `slot` (slots are unique per schedule and name
  /// the instance in the matching departure event).
  virtual Status OnQueryArrival(int slot, int template_id) = 0;
  /// The query admitted under `slot` departs: tear it down.
  virtual Status OnQueryDeparture(int slot) = 0;
  /// A scripted selectivity shift: from `at_cycle` on, every producer of
  /// the hosted queries samples under the shifted generation parameters
  /// (the workload::SelectivityParams triple). Unlike the other events,
  /// shifts are dispatched *eagerly* at host attachment, not when the
  /// clock reaches `at_cycle`: the workload's global switch is
  /// cycle-indexed (Workload::SetGlobalSwitch), so registering it ahead of
  /// time is byte-identical at every pipeline depth — a depth-d scheduler
  /// may sample cycle `at_cycle` before the cycle-`at_cycle` event hooks
  /// run. Hosts that cannot honor shifts keep this default, which fails
  /// any run whose schedule contains one.
  virtual Status OnSelectivityShift(int at_cycle, double sigma_s,
                                    double sigma_t, double sigma_st) {
    (void)at_cycle;
    (void)sigma_s;
    (void)sigma_t;
    (void)sigma_st;
    return Status::FailedPrecondition(
        "scenario: selectivity-shift event but the QueryHost does not "
        "implement OnSelectivityShift");
  }
};

/// \brief One timed mutation of the network or of the query population.
struct DynamicsEvent {
  enum class Kind : uint8_t {
    kFailNode,        ///< kill `node`
    kRecoverNode,     ///< revive `node`
    kLossDrift,       ///< ramp the default loss to `loss` over `duration`
    kLossBurst,       ///< links within `radius_hops` of `node` lose at `loss`
                      ///< for `duration` cycles, then revert to the default
    kRegionBlackout,  ///< nodes within `radius_m` of `node` (base excluded)
                      ///< die for `duration` cycles, then revive
    kQueryArrival,    ///< admit query instance `slot` of `template_id`
    kQueryDeparture,  ///< remove query instance `slot`
    kSelectivityShift ///< producers switch to (sigma_s, sigma_t, sigma_st)
                      ///< from `cycle` on (dispatched eagerly; see QueryHost)
  };

  Kind kind = Kind::kFailNode;
  int cycle = 0;         ///< sampling cycle the event fires at
  net::NodeId node = -1; ///< subject node / burst / blackout center
  double loss = 0.0;     ///< drift target / burst loss probability
  int duration = 0;      ///< drift ramp length / burst / blackout cycles
  double radius_m = 0.0; ///< blackout radius (meters)
  int radius_hops = 0;   ///< burst radius (hops around the center)
  int slot = -1;         ///< query instance handle (arrival/departure)
  int template_id = -1;  ///< workload template index (arrival)
  // Shift target (selectivity shift); defaults mirror
  // workload::SelectivityParams.
  double sigma_s = 1.0;  ///< shifted S producer send rate
  double sigma_t = 1.0;  ///< shifted T producer send rate
  double sigma_st = 0.2; ///< shifted per-(value pair) join probability

  bool operator==(const DynamicsEvent& o) const {
    return kind == o.kind && cycle == o.cycle && node == o.node &&
           loss == o.loss && duration == o.duration &&
           radius_m == o.radius_m && radius_hops == o.radius_hops &&
           slot == o.slot && template_id == o.template_id &&
           sigma_s == o.sigma_s && sigma_t == o.sigma_t &&
           sigma_st == o.sigma_st;
  }
};

/// \brief An ordered script of timed events. Builder methods return *this
/// so scenarios compose fluently:
///
///   DynamicsSchedule sched;
///   sched.FailAt(45, join_node)
///        .DriftLossTo(20, 0.15, /*over_cycles=*/30)
///        .BlackoutAt(60, center, /*radius_m=*/40.0, /*duration=*/10);
class DynamicsSchedule {
 public:
  /// The base station (node 0) is the query sink and is never failed: the
  /// driver ignores fail/recover/blackout effects on it.
  DynamicsSchedule& FailAt(int cycle, net::NodeId node);
  DynamicsSchedule& RecoverAt(int cycle, net::NodeId node);
  /// Linearly ramps the network-wide default loss probability from its
  /// value when the event fires to `target` over `over_cycles` cycles
  /// (immediately when 0).
  DynamicsSchedule& DriftLossTo(int cycle, double target, int over_cycles);
  /// Correlated interference: every link with an endpoint within
  /// `radius_hops` hops of `center` loses at `loss` for `duration` cycles
  /// (duration <= 0 is a no-op).
  DynamicsSchedule& BurstAt(int cycle, net::NodeId center, int radius_hops,
                            double loss, int duration);
  /// Regional outage: every node within `radius_m` meters of `center`
  /// (except the base station) fails for `duration` cycles (duration <= 0
  /// is a no-op).
  DynamicsSchedule& BlackoutAt(int cycle, net::NodeId center, double radius_m,
                               int duration);
  /// Query instance `slot` of workload template `template_id` arrives at
  /// `cycle` (the replaying driver's QueryHost admits and initiates it).
  DynamicsSchedule& ArriveAt(int cycle, int slot, int template_id);
  /// Query instance `slot` departs at `cycle`.
  DynamicsSchedule& DepartAt(int cycle, int slot);
  /// From `cycle` on, every producer samples under the shifted selectivity
  /// triple — the paper's Figure 12(b) mid-run workload change, scriptable.
  /// Drives the continuous re-optimization loop: a divergence past the
  /// replan threshold makes the executor re-place its operators.
  DynamicsSchedule& ShiftSelectivityAt(int cycle, double sigma_s,
                                       double sigma_t, double sigma_st);
  /// Appends a fully-specified event.
  DynamicsSchedule& Add(DynamicsEvent event);

  /// \brief Deterministically generates fail/recover churn: at each
  /// sampling cycle in [0, cycles), every currently-alive non-base node
  /// fails with probability `rate` and recovers `down_cycles` later. Equal
  /// seeds yield equal schedules.
  static DynamicsSchedule RandomChurn(const net::Topology& topology,
                                      int cycles, double rate,
                                      int down_cycles, uint64_t seed);

  /// \brief Parameters of the QueryChurn generator. The process is
  /// wave-structured so a service run has natural occupancy checkpoints:
  /// every query admitted in wave w departs before wave w+1 begins, so the
  /// medium's data-plane occupancy after each wave is directly comparable
  /// across waves (a leak shows up as monotonic growth).
  struct QueryChurnOptions {
    int start_cycle = 0;        ///< first wave begins here
    int waves = 4;              ///< number of churn waves
    int arrivals_per_wave = 8;  ///< query instances admitted per wave
    int wave_period = 100;      ///< cycles from one wave start to the next
    int min_lifetime = 10;      ///< shortest instance lifetime (cycles)
    int max_lifetime = 40;      ///< longest (clamped into the wave window)
    int num_templates = 1;      ///< workload template pool size
    uint64_t seed = 1;
  };

  /// \brief Deterministic arrival/departure process over a query template
  /// pool: per wave, `arrivals_per_wave` instances arrive at seeded
  /// offsets with seeded lifetimes and templates, every instance departing
  /// within its own wave window. Equal options yield equal schedules.
  /// Slots number instances 0, 1, ... in arrival order.
  static DynamicsSchedule QueryChurn(const QueryChurnOptions& options);

  const std::vector<DynamicsEvent>& events() const { return events_; }
  bool empty() const { return events_.empty(); }
  /// Arrival (resp. departure) event count, for sizing service runs.
  int num_query_arrivals() const;
  int num_query_departures() const;

 private:
  std::vector<DynamicsEvent> events_;
};

/// \brief Replays a DynamicsSchedule against one network from the cycle
/// clock. The schedule and network must outlive the driver.
class ScenarioDriver : public sim::CycleParticipant {
 public:
  ScenarioDriver(net::Network* network, const DynamicsSchedule* schedule);

  /// Attaches the query host that query arrival/departure/shift events act
  /// on. Must be set before the first such event fires (a query event with
  /// no host fails the run); network-only schedules need none. The host
  /// must outlive the driver. Selectivity-shift events are dispatched to
  /// the host *here*, eagerly (see QueryHost::OnSelectivityShift for why
  /// that is the pipeline-safe dispatch point); the returned status is
  /// their outcome.
  Status set_query_host(QueryHost* host);

  /// Applies every event due at `cycle`, plus active drifts/expiries.
  Status OnSample(int cycle) override;

  // Applied-mutation counters, for tests and scenario reports.
  int failures_applied() const { return failures_applied_; }
  int recoveries_applied() const { return recoveries_applied_; }
  int arrivals_applied() const { return arrivals_applied_; }
  int departures_applied() const { return departures_applied_; }
  int shifts_applied() const { return shifts_applied_; }

 private:
  struct ActiveDrift {
    int start_cycle = 0;
    int duration = 0;
    double from = 0.0;
    double to = 0.0;
  };
  struct ActiveBurst {
    int end_cycle = 0;
    double loss = 0.0;
    std::vector<std::pair<net::NodeId, net::NodeId>> links;  // directed
  };
  struct ActiveBlackout {
    int end_cycle = 0;
    std::vector<net::NodeId> nodes;  // the nodes this blackout holds down
  };

  Status Apply(const DynamicsEvent& e, int cycle)
      ASPEN_REQUIRES_SEQUENTIAL;
  /// Failures are ownership-counted: a node stays dead until every
  /// scripted failure holding it (explicit FailAt, churn, blackout) has
  /// released it, so overlapping failure sources compose instead of an
  /// early recovery reviving a node another event scripted as dead.
  void FailOne(net::NodeId node) ASPEN_REQUIRES_SEQUENTIAL;
  void RecoverOne(net::NodeId node) ASPEN_REQUIRES_SEQUENTIAL;

  net::Network* net_;
  QueryHost* host_ = nullptr;
  /// Events sorted by (cycle, schedule order); `next_event_` advances
  /// monotonically with the clock.
  std::vector<DynamicsEvent> ordered_;
  size_t next_event_ = 0;
  std::vector<ActiveDrift> drifts_;
  std::vector<ActiveBurst> bursts_;
  std::vector<ActiveBlackout> blackouts_;
  /// Per-node count of scripted failures currently holding the node down.
  std::vector<int> fail_depth_;
  int failures_applied_ = 0;
  int recoveries_applied_ = 0;
  int arrivals_applied_ = 0;
  int departures_applied_ = 0;
  int shifts_applied_ = 0;
};

}  // namespace scenario
}  // namespace aspen

#endif  // ASPEN_SCENARIO_DYNAMICS_H_
