#include "scenario/dynamics.h"

#include <algorithm>
#include <queue>

#include "common/logging.h"
#include "common/rng.h"

namespace aspen {
namespace scenario {

using net::NodeId;

DynamicsSchedule& DynamicsSchedule::FailAt(int cycle, NodeId node) {
  DynamicsEvent e;
  e.kind = DynamicsEvent::Kind::kFailNode;
  e.cycle = cycle;
  e.node = node;
  return Add(e);
}

DynamicsSchedule& DynamicsSchedule::RecoverAt(int cycle, NodeId node) {
  DynamicsEvent e;
  e.kind = DynamicsEvent::Kind::kRecoverNode;
  e.cycle = cycle;
  e.node = node;
  return Add(e);
}

DynamicsSchedule& DynamicsSchedule::DriftLossTo(int cycle, double target,
                                                int over_cycles) {
  DynamicsEvent e;
  e.kind = DynamicsEvent::Kind::kLossDrift;
  e.cycle = cycle;
  e.loss = target;
  e.duration = over_cycles;
  return Add(e);
}

DynamicsSchedule& DynamicsSchedule::BurstAt(int cycle, NodeId center,
                                            int radius_hops, double loss,
                                            int duration) {
  DynamicsEvent e;
  e.kind = DynamicsEvent::Kind::kLossBurst;
  e.cycle = cycle;
  e.node = center;
  e.radius_hops = radius_hops;
  e.loss = loss;
  e.duration = duration;
  return Add(e);
}

DynamicsSchedule& DynamicsSchedule::BlackoutAt(int cycle, NodeId center,
                                               double radius_m,
                                               int duration) {
  DynamicsEvent e;
  e.kind = DynamicsEvent::Kind::kRegionBlackout;
  e.cycle = cycle;
  e.node = center;
  e.radius_m = radius_m;
  e.duration = duration;
  return Add(e);
}

DynamicsSchedule& DynamicsSchedule::ArriveAt(int cycle, int slot,
                                             int template_id) {
  DynamicsEvent e;
  e.kind = DynamicsEvent::Kind::kQueryArrival;
  e.cycle = cycle;
  e.slot = slot;
  e.template_id = template_id;
  return Add(e);
}

DynamicsSchedule& DynamicsSchedule::DepartAt(int cycle, int slot) {
  DynamicsEvent e;
  e.kind = DynamicsEvent::Kind::kQueryDeparture;
  e.cycle = cycle;
  e.slot = slot;
  return Add(e);
}

DynamicsSchedule& DynamicsSchedule::ShiftSelectivityAt(int cycle,
                                                       double sigma_s,
                                                       double sigma_t,
                                                       double sigma_st) {
  DynamicsEvent e;
  e.kind = DynamicsEvent::Kind::kSelectivityShift;
  e.cycle = cycle;
  e.sigma_s = sigma_s;
  e.sigma_t = sigma_t;
  e.sigma_st = sigma_st;
  return Add(e);
}

DynamicsSchedule& DynamicsSchedule::Add(DynamicsEvent event) {
  ASPEN_CHECK_GE(event.cycle, 0);
  events_.push_back(event);
  return *this;
}

int DynamicsSchedule::num_query_arrivals() const {
  int n = 0;
  for (const DynamicsEvent& e : events_) {
    if (e.kind == DynamicsEvent::Kind::kQueryArrival) ++n;
  }
  return n;
}

int DynamicsSchedule::num_query_departures() const {
  int n = 0;
  for (const DynamicsEvent& e : events_) {
    if (e.kind == DynamicsEvent::Kind::kQueryDeparture) ++n;
  }
  return n;
}

DynamicsSchedule DynamicsSchedule::RandomChurn(const net::Topology& topology,
                                               int cycles, double rate,
                                               int down_cycles,
                                               uint64_t seed) {
  ASPEN_CHECK_GE(down_cycles, 1);
  DynamicsSchedule out;
  Rng rng(seed);
  const int n = topology.num_nodes();
  std::vector<int> down_until(n, -1);  // cycle at which the node recovers
  for (int c = 0; c < cycles; ++c) {
    // The base station (node 0) never churns: it is the query sink.
    for (NodeId u = 1; u < n; ++u) {
      if (down_until[u] > c) continue;  // still down this cycle
      if (!rng.Bernoulli(rate)) continue;
      out.FailAt(c, u);
      out.RecoverAt(c + down_cycles, u);
      down_until[u] = c + down_cycles;
    }
  }
  // Recovery events past `cycles` are kept: a run longer than the churn
  // horizon still heals, a shorter one simply never reaches them.
  return out;
}

DynamicsSchedule DynamicsSchedule::QueryChurn(
    const QueryChurnOptions& options) {
  ASPEN_CHECK_GE(options.start_cycle, 0);
  ASPEN_CHECK_GT(options.waves, 0);
  ASPEN_CHECK_GT(options.arrivals_per_wave, 0);
  ASPEN_CHECK_GT(options.wave_period, 1);
  ASPEN_CHECK_GE(options.min_lifetime, 1);
  ASPEN_CHECK_GE(options.max_lifetime, options.min_lifetime);
  ASPEN_CHECK_GT(options.num_templates, 0);
  DynamicsSchedule out;
  Rng rng(options.seed);
  // Every instance must depart strictly inside its own wave window, so the
  // occupancy observed between waves is a steady baseline: clamp lifetimes
  // and arrival offsets accordingly.
  const int max_life =
      std::min(options.max_lifetime, options.wave_period - 1);
  const int min_life = std::min(options.min_lifetime, max_life);
  int slot = 0;
  for (int w = 0; w < options.waves; ++w) {
    const int wave_start = options.start_cycle + w * options.wave_period;
    for (int q = 0; q < options.arrivals_per_wave; ++q) {
      const int life =
          min_life + static_cast<int>(rng.UniformInt(max_life - min_life + 1));
      const int max_offset = options.wave_period - life - 1;
      const int offset =
          max_offset > 0 ? static_cast<int>(rng.UniformInt(max_offset + 1))
                         : 0;
      const int tmpl = static_cast<int>(rng.UniformInt(options.num_templates));
      out.ArriveAt(wave_start + offset, slot, tmpl);
      out.DepartAt(wave_start + offset + life, slot);
      ++slot;
    }
  }
  return out;
}

ScenarioDriver::ScenarioDriver(net::Network* network,
                               const DynamicsSchedule* schedule)
    : net_(network), ordered_(schedule->events()) {
  ASPEN_CHECK(network != nullptr);
  ASPEN_CHECK(schedule != nullptr);
  std::stable_sort(ordered_.begin(), ordered_.end(),
                   [](const DynamicsEvent& a, const DynamicsEvent& b) {
                     return a.cycle < b.cycle;
                   });
  fail_depth_.assign(network->topology().num_nodes(), 0);
}

Status ScenarioDriver::set_query_host(QueryHost* host) {
  host_ = host;
  if (host_ == nullptr) return Status::OK();
  // Selectivity shifts dispatch now, not at their cycle: the workload's
  // global switch is indexed by cycle, so registering it ahead of time
  // yields the same trace at every pipeline depth, whereas waiting for the
  // cycle-N hooks would race a depth-d scheduler that already sampled
  // cycle N. Apply() then treats the event as a no-op.
  for (const DynamicsEvent& e : ordered_) {
    if (e.kind != DynamicsEvent::Kind::kSelectivityShift) continue;
    ASPEN_RETURN_NOT_OK(
        host_->OnSelectivityShift(e.cycle, e.sigma_s, e.sigma_t, e.sigma_st));
    ++shifts_applied_;
  }
  return Status::OK();
}

void ScenarioDriver::FailOne(NodeId node) {
  if (node <= 0 || node >= net_->topology().num_nodes()) return;
  ++fail_depth_[node];
  if (!net_->IsFailed(node)) {
    net_->FailNode(node);
    ++failures_applied_;
  }
}

void ScenarioDriver::RecoverOne(NodeId node) {
  if (node <= 0 || node >= net_->topology().num_nodes()) return;
  if (fail_depth_[node] == 0) return;  // not held down by this driver
  if (--fail_depth_[node] > 0) return;  // another scripted failure holds it
  if (net_->IsFailed(node)) {
    net_->ReviveNode(node);
    ++recoveries_applied_;
  }
}

Status ScenarioDriver::Apply(const DynamicsEvent& e, int cycle) {
  const net::Topology& topo = net_->topology();
  switch (e.kind) {
    case DynamicsEvent::Kind::kFailNode:
      FailOne(e.node);
      break;
    case DynamicsEvent::Kind::kRecoverNode:
      RecoverOne(e.node);
      break;
    case DynamicsEvent::Kind::kQueryArrival:
      if (host_ == nullptr) {
        return Status::FailedPrecondition(
            "scenario: query arrival event but no QueryHost attached");
      }
      ASPEN_RETURN_NOT_OK(host_->OnQueryArrival(e.slot, e.template_id));
      ++arrivals_applied_;
      break;
    case DynamicsEvent::Kind::kQueryDeparture:
      if (host_ == nullptr) {
        return Status::FailedPrecondition(
            "scenario: query departure event but no QueryHost attached");
      }
      ASPEN_RETURN_NOT_OK(host_->OnQueryDeparture(e.slot));
      ++departures_applied_;
      break;
    case DynamicsEvent::Kind::kLossDrift: {
      ActiveDrift d;
      d.start_cycle = cycle;
      d.duration = e.duration;
      d.from = net_->options().loss_prob;
      d.to = e.loss;
      if (d.duration <= 0) {
        net_->set_loss_prob(d.to);
      } else {
        drifts_.push_back(d);
      }
      break;
    }
    case DynamicsEvent::Kind::kLossBurst: {
      if (e.node < 0 || e.node >= topo.num_nodes()) break;
      if (e.duration <= 0) break;  // a zero-cycle burst affects nothing
      // BFS out to radius_hops; afflict every link touching the region.
      std::vector<int> dist(topo.num_nodes(), -1);
      std::queue<NodeId> frontier;
      dist[e.node] = 0;
      frontier.push(e.node);
      while (!frontier.empty()) {
        NodeId u = frontier.front();
        frontier.pop();
        if (dist[u] == e.radius_hops) continue;
        for (NodeId v : topo.neighbors(u)) {
          if (dist[v] < 0) {
            dist[v] = dist[u] + 1;
            frontier.push(v);
          }
        }
      }
      ActiveBurst burst;
      burst.end_cycle = cycle + e.duration;
      burst.loss = e.loss;
      for (NodeId u = 0; u < topo.num_nodes(); ++u) {
        if (dist[u] < 0) continue;
        for (NodeId v : topo.neighbors(u)) {
          // When both endpoints are in the region, enumerate the link only
          // from its lower-id endpoint.
          if (dist[v] >= 0 && v < u) continue;
          net_->SetLinkLoss(u, v, e.loss);
          net_->SetLinkLoss(v, u, e.loss);
          burst.links.push_back({u, v});
          burst.links.push_back({v, u});
        }
      }
      bursts_.push_back(std::move(burst));
      break;
    }
    case DynamicsEvent::Kind::kSelectivityShift:
      // Already dispatched eagerly by set_query_host (pipeline-safe); a
      // schedule with shifts but no host attached cannot honor them.
      if (host_ == nullptr) {
        return Status::FailedPrecondition(
            "scenario: selectivity-shift event but no QueryHost attached");
      }
      break;
    case DynamicsEvent::Kind::kRegionBlackout: {
      if (e.node < 0 || e.node >= topo.num_nodes()) break;
      if (e.duration <= 0) break;  // a zero-cycle blackout affects nothing
      ActiveBlackout bo;
      bo.end_cycle = cycle + e.duration;
      for (NodeId u = 1; u < topo.num_nodes(); ++u) {
        if (topo.DistanceBetween(e.node, u) > e.radius_m) continue;
        // Already-down nodes are held too (fail depth), so an overlapping
        // recovery cannot revive them while the blackout is active.
        FailOne(u);
        bo.nodes.push_back(u);
      }
      blackouts_.push_back(std::move(bo));
      break;
    }
  }
  return Status::OK();
}

Status ScenarioDriver::OnSample(int cycle) {
  // Scenario mutation is a sequential-phase activity: the driver is
  // attached at the front of the scheduler, so its hook runs before any
  // query samples, on the scheduler thread.
  common::SequentialPhaseScope seq;
  // Expire bursts and blackouts first so a same-cycle re-burst of the same
  // region takes effect rather than being immediately cleared.
  bool burst_expired = false;
  for (auto it = bursts_.begin(); it != bursts_.end();) {
    if (cycle >= it->end_cycle) {
      for (const auto& [u, v] : it->links) net_->ClearLinkLoss(u, v);
      it = bursts_.erase(it);
      burst_expired = true;
    } else {
      ++it;
    }
  }
  if (burst_expired) {
    // Re-assert surviving bursts: an expired burst may have cleared links a
    // still-active overlapping burst owns. Activation order, so on shared
    // links the later burst wins — same rule as at application time.
    for (const ActiveBurst& b : bursts_) {
      for (const auto& [u, v] : b.links) net_->SetLinkLoss(u, v, b.loss);
    }
  }
  for (auto it = blackouts_.begin(); it != blackouts_.end();) {
    if (cycle >= it->end_cycle) {
      for (NodeId u : it->nodes) RecoverOne(u);
      it = blackouts_.erase(it);
    } else {
      ++it;
    }
  }
  while (next_event_ < ordered_.size() &&
         ordered_[next_event_].cycle <= cycle) {
    ASPEN_RETURN_NOT_OK(Apply(ordered_[next_event_], cycle));
    ++next_event_;
  }
  // Advance active drifts (linear ramp, exact endpoint on completion).
  for (auto it = drifts_.begin(); it != drifts_.end();) {
    int elapsed = cycle - it->start_cycle;
    if (elapsed >= it->duration) {
      net_->set_loss_prob(it->to);
      it = drifts_.erase(it);
    } else {
      double f = static_cast<double>(elapsed) / it->duration;
      net_->set_loss_prob(it->from + (it->to - it->from) * f);
      ++it;
    }
  }
  return Status::OK();
}

}  // namespace scenario
}  // namespace aspen
