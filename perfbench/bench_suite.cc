// The repository benchmark: four named workloads in one binary.
//
// Every workload hosts its queries on a join::SharedMedium and runs a
// closed loop: one thread runs sampling cycles back to back, and a
// slow cycle (an admission stall, a re-optimization pass) delays every
// later one. Time is measured from outside the library, with public API
// only:
//  - a head probe (AttachFront, ahead of every participant) and a tail
//    probe (Attach, kept last) are sim::CycleParticipants whose phase hooks
//    timestamp the sample, transmit, deliver, reopt and learn phases;
//  - plain timers bracket topology generation, workload construction,
//    medium construction, admission (TryAddQuery), Initiate and
//    RemoveQuery.
// Untraced blocks attach only the head probe, which reads the clock once
// per cycle. With --trace, odd blocks also attach the tail probe and
// record spans; even blocks stay untraced, so one run measures the tracing
// overhead against itself.
//
// A cycle's latency is the distance between two consecutive head-probe
// samples inside one RunCycles block. The last cycle of a block has no
// successor there (the straggler drain and bench bookkeeping follow), so
// it counts toward throughput but not toward latency.
//
// Usage:
//   bench_suite --workload NAME --seed N --seconds S
//               [--trace] [--trace-out FILE] [--smoke]
// The last stdout line is one JSON object: every metric, the attempted and
// failed operation counts, the deterministic digest and the failed checks.
// The exit code is 1 when any operation or check failed.

#include <algorithm>
#include <chrono>
#include <cinttypes>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <functional>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "bench/alloc_audit.h"
#include "bench/bench_util.h"
#include "join/executor.h"
#include "join/medium.h"
#include "net/topology.h"
#include "scenario/dynamics.h"
#include "tests/reference_join.h"
#include "workload/workload.h"

namespace aspen {
namespace perfbench {
namespace {

int64_t NowNs() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

struct Config {
  std::string workload;
  uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  bool smoke = false;
  std::string trace_out;
};

// ---- spans ------------------------------------------------------------------

enum SpanKind : uint8_t {
  kCycle,
  kSample,
  kTransmit,
  kDeliver,
  kReopt,
  kLearn,
  kTopology,
  kWorkloadBuild,
  kMediumBuild,
  kAdmit,
  kInitiate,
  kRemove,
  kNumSpanKinds
};

// Layer names are the library's module names.
constexpr const char* kSpanNames[kNumSpanKinds] = {
    "cycle",          "join.sample",  "net.transmit", "join.deliver",
    "adapt.reopt",    "adapt.learn",  "net.topology", "workload.build",
    "join.medium",    "join.admit",   "join.initiate", "join.remove"};

struct Span {
  int64_t start;
  int64_t dur;
  int32_t cycle;
  SpanKind kind;
};

/// Spans in pre-reserved memory, written as a Chrome trace at exit. Once
/// the reservation is full further spans are counted, not stored, so
/// tracing never allocates inside a measured block.
class Tracer {
 public:
  void Enable(size_t capacity) {
    enabled_ = true;
    spans_.reserve(capacity);
  }

  void Add(SpanKind kind, int64_t start, int64_t end, int cycle) {
    if (!enabled_) return;
    if (spans_.size() == spans_.capacity()) {
      ++dropped_;
      return;
    }
    spans_.push_back({start, end - start, cycle, kind});
  }

  uint64_t dropped() const { return dropped_; }

  /// Chrome trace-event JSON (complete events), which Perfetto opens.
  bool Write(const std::string& path, int64_t origin) const {
    std::FILE* f = std::fopen(path.c_str(), "w");
    if (f == nullptr) return false;
    std::fprintf(f, "{\"displayTimeUnit\":\"ms\",\"traceEvents\":[\n");
    for (size_t i = 0; i < spans_.size(); ++i) {
      const Span& s = spans_[i];
      const char* name = kSpanNames[s.kind];
      const char* dot = std::strchr(name, '.');
      const std::string cat =
          dot == nullptr ? std::string("sim") : std::string(name, dot);
      std::fprintf(f,
                   "{\"name\":\"%s\",\"cat\":\"%s\",\"ph\":\"X\",\"pid\":1,"
                   "\"tid\":1,\"ts\":%.3f,\"dur\":%.3f,\"args\":{\"cycle\":%d}}"
                   "%s\n",
                   name, cat.c_str(), (s.start - origin) / 1e3, s.dur / 1e3,
                   s.cycle, i + 1 < spans_.size() ? "," : "");
    }
    std::fprintf(f, "]}\n");
    return std::fclose(f) == 0;
  }

 private:
  bool enabled_ = false;
  std::vector<Span> spans_;
  uint64_t dropped_ = 0;
};

// ---- per-cycle phase recorder --------------------------------------------------

/// Timestamps written by the probes within one cycle, in phase order.
enum Mark : int {
  kSampleEnd,
  kDeliverBegin,
  kDeliverEnd,
  kReoptBegin,
  kReoptEnd,
  kLearnBegin,
  kLearnEnd,
  kNumMarks
};

/// Linear-interpolated quantile q in [0, 1] of an ascending sample; 0 for
/// an empty one.
template <typename T>
double SortedQuantile(const std::vector<T>& v, double q) {
  if (v.empty()) return 0.0;
  const double pos = q * static_cast<double>(v.size() - 1);
  const size_t lo = static_cast<size_t>(std::floor(pos));
  const size_t hi = std::min(lo + 1, v.size() - 1);
  const double frac = pos - static_cast<double>(lo);
  return static_cast<double>(v[lo]) * (1.0 - frac) +
         static_cast<double>(v[hi]) * frac;
}

template <typename T>
double Quantile(std::vector<T> v, double q) {
  std::sort(v.begin(), v.end());
  return SortedQuantile(v, q);
}

/// Per-phase sums over the traced cycles.
struct PhaseSums {
  int64_t cycles = 0;
  int64_t cycle = 0;
  int64_t sample_self = 0;  ///< sample phase minus admit/initiate/remove
  int64_t children = 0;     ///< admit + initiate + remove inside samples
  int64_t transmit = 0;
  int64_t deliver = 0;
  int64_t reopt = 0;
  int64_t learn = 0;
  int64_t other = 0;  ///< cycle minus the five phases
  int64_t frames = 0; ///< frames in flight at sample end
};

/// The state shared by the head and tail probes. Armed only inside
/// measured blocks; a cycle is committed when the next one starts in the
/// same block.
///
/// Latency quantiles are taken per block and reported as the median over
/// blocks, so a burst of load from outside the process that spoils a few
/// blocks does not move them.
class CycleRecorder {
 public:
  /// Longest block any workload runs, in cycles.
  static constexpr size_t kMaxBlockCycles = 512;

  explicit CycleRecorder(Tracer* tracer) : tracer_(tracer) {
    block_ns_.reserve(kMaxBlockCycles);
    block_p50_.reserve(1 << 12);
    block_p90_.reserve(1 << 12);
  }

  void BeginBlock(bool traced) {
    armed_ = true;
    traced_ = traced;
    open_ = false;
    block_ns_.clear();
  }
  /// Ends the block; runs after the block's timed region.
  void EndBlock() {
    armed_ = false;
    open_ = false;
    if (block_ns_.empty()) return;
    std::sort(block_ns_.begin(), block_ns_.end());
    block_p50_.push_back(SortedQuantile(block_ns_, 0.50));
    block_p90_.push_back(SortedQuantile(block_ns_, 0.90));
  }

  bool armed() const { return armed_; }
  bool traced() const { return armed_ && traced_; }
  /// The cycle whose phases are being stamped, or -1 outside a block.
  int open_cycle() const { return open_ ? cycle_ : -1; }

  void CycleStart(int cycle, int64_t now) {
    if (open_ && cycle == cycle_ + 1) Close(now);
    open_ = true;
    cycle_ = cycle;
    start_ = now;
    children_ = 0;
    frames_ = 0;
  }

  /// A probe hook at `m`. Hooks of another cycle than the open one are the
  /// straggler drain's deliver call after the last cycle; they are ignored.
  void Stamp(int cycle, Mark m) {
    if (!traced() || !open_ || cycle != cycle_) return;
    marks_[m] = NowNs();
  }

  void SetFrames(int cycle, int64_t frames) {
    if (traced() && open_ && cycle == cycle_) frames_ = frames;
  }

  /// Time spent in a bench-timed call (admission, removal) during the open
  /// cycle's sample phase.
  void AddChild(int64_t ns) {
    if (traced() && open_) children_ += ns;
  }

  /// Per-block p50 and p90 cycle latency, in ns.
  const std::vector<double>& block_p50() const { return block_p50_; }
  const std::vector<double>& block_p90() const { return block_p90_; }
  const PhaseSums& sums() const { return sums_; }

 private:
  void Close(int64_t end) {
    const int64_t dur = end - start_;
    block_ns_.push_back(dur);
    if (!traced_) return;
    const int64_t sample = marks_[kSampleEnd] - start_;
    const int64_t transmit = marks_[kDeliverBegin] - marks_[kSampleEnd];
    const int64_t deliver = marks_[kDeliverEnd] - marks_[kDeliverBegin];
    const int64_t reopt = marks_[kReoptEnd] - marks_[kReoptBegin];
    const int64_t learn = marks_[kLearnEnd] - marks_[kLearnBegin];
    ++sums_.cycles;
    sums_.cycle += dur;
    sums_.sample_self += sample - children_;
    sums_.children += children_;
    sums_.transmit += transmit;
    sums_.deliver += deliver;
    sums_.reopt += reopt;
    sums_.learn += learn;
    sums_.other += dur - (sample + transmit + deliver + reopt + learn);
    sums_.frames += frames_;
    tracer_->Add(kCycle, start_, end, cycle_);
    tracer_->Add(kSample, start_, marks_[kSampleEnd], cycle_);
    tracer_->Add(kTransmit, marks_[kSampleEnd], marks_[kDeliverBegin], cycle_);
    tracer_->Add(kDeliver, marks_[kDeliverBegin], marks_[kDeliverEnd], cycle_);
    tracer_->Add(kReopt, marks_[kReoptBegin], marks_[kReoptEnd], cycle_);
    tracer_->Add(kLearn, marks_[kLearnBegin], marks_[kLearnEnd], cycle_);
  }

  Tracer* tracer_;
  bool armed_ = false;
  bool traced_ = false;
  bool open_ = false;
  int cycle_ = 0;
  int64_t start_ = 0;
  int64_t marks_[kNumMarks] = {};
  int64_t children_ = 0;
  int64_t frames_ = 0;
  std::vector<int64_t> block_ns_;
  std::vector<double> block_p50_;
  std::vector<double> block_p90_;
  PhaseSums sums_;
};

/// Attached ahead of every participant: its sample hook opens the cycle.
class HeadProbe : public sim::CycleParticipant {
 public:
  explicit HeadProbe(CycleRecorder* rec) : rec_(rec) {}

  Status OnSample(int cycle) override {
    if (rec_->armed()) rec_->CycleStart(cycle, NowNs());
    return Status::OK();
  }
  Status OnDeliver(int cycle) override {
    rec_->Stamp(cycle, kDeliverBegin);
    return Status::OK();
  }
  Status OnReoptimize(int cycle) override {
    rec_->Stamp(cycle, kReoptBegin);
    return Status::OK();
  }
  Status OnLearn(int cycle) override {
    rec_->Stamp(cycle, kLearnBegin);
    return Status::OK();
  }

 private:
  CycleRecorder* rec_;
};

/// Attached after every participant (re-seated after mid-run admissions):
/// its hooks close each phase. Only attached during traced blocks.
class TailProbe : public sim::CycleParticipant {
 public:
  explicit TailProbe(CycleRecorder* rec) : rec_(rec) {}

  void set_network(const net::Network* net) { net_ = net; }

  Status OnSample(int cycle) override {
    rec_->SetFrames(cycle, net_->frames_in_flight());
    rec_->Stamp(cycle, kSampleEnd);
    return Status::OK();
  }
  Status OnDeliver(int cycle) override {
    rec_->Stamp(cycle, kDeliverEnd);
    return Status::OK();
  }
  Status OnReoptimize(int cycle) override {
    rec_->Stamp(cycle, kReoptEnd);
    return Status::OK();
  }
  Status OnLearn(int cycle) override {
    rec_->Stamp(cycle, kLearnEnd);
    return Status::OK();
  }

 private:
  CycleRecorder* rec_;
  const net::Network* net_ = nullptr;
};

// ---- instruments shared by every workload -------------------------------------

struct OpStat {
  int64_t count = 0;
  int64_t ns = 0;
};

/// Measured wall time and cycle counts of the measured blocks, split by
/// whether the block was traced.
struct Window {
  int blocks = 0;
  int64_t cycles[2] = {0, 0};
  int64_t ns[2] = {0, 0};
  uint64_t allocs = 0;
  /// Cycles per second of each block (in paper_sweep, of each experiment,
  /// set-up included). The reported throughput is their median, so a
  /// burst of load from outside the process moves it only when it covers
  /// half the run.
  std::vector<double> block_rates;

  int64_t total_cycles() const { return cycles[0] + cycles[1]; }
  int64_t total_ns() const { return ns[0] + ns[1]; }
};

class Instruments {
 public:
  explicit Instruments(const Config& cfg) : rec(&tracer), head(&rec),
                                            tail(&rec) {
    admit_ms.reserve(1 << 12);
    if (cfg.trace) tracer.Enable(1 << 16);
  }

  /// Times `fn` as one span of `kind`. Inside a traced cycle the span is a
  /// child of the cycle's sample phase.
  template <typename Fn>
  auto Time(SpanKind kind, Fn&& fn) {
    const int64_t t0 = NowNs();
    auto result = fn();
    const int64_t t1 = NowNs();
    ops[kind].count += 1;
    ops[kind].ns += t1 - t0;
    if (!rec.armed() || rec.traced()) {
      tracer.Add(kind, t0, t1, rec.open_cycle());
    }
    rec.AddChild(t1 - t0);
    return result;
  }

  /// Runs one measured block of `n` cycles on `medium`. Traced blocks
  /// attach the tail probe last for the block's duration. The block's
  /// throughput counts from `rate_since` when given (paper_sweep: the
  /// experiment's set-up), else from the block's start.
  Status RunBlock(join::SharedMedium* medium, int n, bool traced, Window* w,
                  int64_t rate_since = 0) {
    sim::CycleScheduler* sched = medium->scheduler();
    if (traced) {
      tail.set_network(&medium->network());
      sched->Attach(&tail);
    }
    rec.BeginBlock(traced);
    const uint64_t a0 = allocaudit::Count();
    const int64_t t0 = NowNs();
    Status st = medium->RunCycles(n);
    const int64_t t1 = NowNs();
    const uint64_t a1 = allocaudit::Count();
    rec.EndBlock();
    if (traced) sched->Detach(&tail);
    ++w->blocks;
    w->cycles[traced ? 1 : 0] += n;
    w->ns[traced ? 1 : 0] += t1 - t0;
    w->allocs += a1 - a0;
    w->block_rates.push_back(n / ((t1 - (rate_since ? rate_since : t0)) / 1e9));
    return st;
  }

  const int64_t origin = NowNs();
  Tracer tracer;
  CycleRecorder rec;
  HeadProbe head;
  TailProbe tail;
  OpStat ops[kNumSpanKinds];
  /// TryAddQuery + Initiate per admission, in ms, since the workload last
  /// collected them.
  std::vector<double> admit_ms;
};

/// Admits one query: TryAddQuery and Initiate, each timed as its own span.
/// A query that fails to initiate is rolled back.
Result<join::JoinExecutor*> Admit(Instruments* in, join::SharedMedium* medium,
                                  const workload::Workload* wl,
                                  const join::ExecutorOptions& opts) {
  const int64_t t0 = NowNs();
  Result<join::JoinExecutor*> added =
      in->Time(kAdmit, [&] { return medium->TryAddQuery(wl, opts); });
  if (!added.ok()) return added.status();
  join::JoinExecutor* exec = *added;
  Status st = in->Time(kInitiate, [&] { return exec->Initiate(); });
  if (!st.ok()) {
    (void)medium->RemoveQuery(exec->query_id());
    return st;
  }
  in->admit_ms.push_back((NowNs() - t0) / 1e6);
  return exec;
}

// ---- report ----------------------------------------------------------------------

class Report {
 public:
  void Set(const char* name, double value) {
    if (!std::isfinite(value)) value = 0.0;
    metrics_.emplace_back(name, value);
  }

  /// One attempted operation or correctness check.
  void Op(bool ok, const std::string& what) {
    ++attempted_;
    if (!ok) {
      ++failed_;
      failures_.push_back(what);
    }
  }
  void Op(const Status& st, const std::string& what) {
    Op(st.ok(), st.ok() ? what : what + ": " + st.ToString());
  }

  /// Folds a deterministic quantity into the run digest.
  void Mix(uint64_t v) {
    for (int b = 0; b < 8; ++b) {
      digest_ ^= (v >> (8 * b)) & 0xFF;
      digest_ *= 1099511628211ULL;
    }
  }

  bool ok() const { return failed_ == 0; }

  void Print() const {
    std::printf("{\"correct\": %s, \"attempted\": %" PRId64
                ", \"failed\": %" PRId64 ", \"digest\": \"%016" PRIx64
                "\", \"failures\": [",
                ok() ? "true" : "false", attempted_, failed_, digest_);
    for (size_t i = 0; i < failures_.size(); ++i) {
      std::printf("%s\"%s\"", i == 0 ? "" : ", ",
                  JsonEscape(failures_[i]).c_str());
    }
    std::printf("], \"metrics\": {");
    for (size_t i = 0; i < metrics_.size(); ++i) {
      std::printf("%s\"%s\": %.17g", i == 0 ? "" : ", ",
                  metrics_[i].first.c_str(), metrics_[i].second);
    }
    std::printf("}}\n");
  }

 private:
  static std::string JsonEscape(const std::string& s) {
    std::string out;
    for (char c : s) {
      if (c == '"' || c == '\\') {
        out += '\\';
        out += c;
      } else if (static_cast<unsigned char>(c) < 0x20) {
        out += ' ';
      } else {
        out += c;
      }
    }
    return out;
  }

  std::vector<std::pair<std::string, double>> metrics_;
  int64_t attempted_ = 0;
  int64_t failed_ = 0;
  std::vector<std::string> failures_;
  uint64_t digest_ = 1469598103934665603ULL;
};

// ---- statistics -------------------------------------------------------------------

double PeakRssMb() {
  std::FILE* f = std::fopen("/proc/self/status", "r");
  if (f == nullptr) return 0.0;
  char line[256];
  double kb = 0.0;
  while (std::fgets(line, sizeof(line), f) != nullptr) {
    if (std::strncmp(line, "VmHWM:", 6) == 0) {
      kb = std::strtod(line + 6, nullptr);
      break;
    }
  }
  std::fclose(f);
  return kb / 1024.0;
}

/// Work counters sampled at the edges of the measured window.
struct Counters {
  int64_t steps = 0;
  uint64_t msgs = 0;
  uint64_t bytes = 0;
  uint64_t results = 0;

  static Counters Of(const net::Network& net, uint64_t results) {
    Counters c;
    c.steps = net.now();
    c.msgs = net.stats().TotalMessagesSent();
    c.bytes = net.stats().TotalBytesSent();
    c.results = results;
    return c;
  }
};

/// Results-weighted mean result delay over several queries.
struct DelayMean {
  double weighted = 0.0;
  double results = 0.0;

  void Add(const join::RunStats& st) {
    weighted += st.avg_result_delay_cycles * static_cast<double>(st.results);
    results += static_cast<double>(st.results);
  }
  double value() const { return results > 0 ? weighted / results : 0.0; }
};

/// Everything a workload hands to the shared metric emitter.
struct RunSummary {
  Window window;
  std::vector<double> setup_s;
  /// Admission latency samples, in ms; their median is admit_ms_p50.
  std::vector<double> admit_ms;
  /// VmHWM read at a fixed point of the run, in MB; 0 reads it at exit.
  double peak_rss_mb = 0.0;
  Counters before, after;
  double result_delay = 0.0;
  uint64_t reopt_passes = 0;
  uint64_t migrations_planned = 0;
  uint64_t migrations_completed = 0;
  size_t routes_live_peak = 0;
  size_t payload_slots = 0;
  double shared_admit_ratio = 0.0;
  /// Cycles the window's allocation count covers.
  int64_t alloc_cycles = 0;
};

void EmitMetrics(const Instruments& in, const RunSummary& s, Report* out) {
  const Window& w = s.window;
  const double cycles = static_cast<double>(std::max<int64_t>(
      w.total_cycles(), 1));

  // End-to-end metrics.
  out->Set("cycles_per_s", Quantile(w.block_rates, 0.5));
  out->Set("cycle_ms_p50", Quantile(in.rec.block_p50(), 0.5) / 1e6);
  out->Set("cycle_ms_p90", Quantile(in.rec.block_p90(), 0.5) / 1e6);
  out->Set("setup_s", Quantile(s.setup_s, 0.5));
  out->Set("admit_ms_p50", Quantile(s.admit_ms, 0.50));
  out->Set("peak_rss_mb", s.peak_rss_mb > 0.0 ? s.peak_rss_mb : PeakRssMb());

  // Per-layer metrics: per-cycle self time over the traced cycles.
  const PhaseSums& p = in.rec.sums();
  const double traced = static_cast<double>(std::max<int64_t>(p.cycles, 1));
  auto per_cycle_ms = [&](int64_t ns) { return ns / traced / 1e6; };
  out->Set("sim.cycle_ms", per_cycle_ms(p.cycle));
  out->Set("join.sample_ms", per_cycle_ms(p.sample_self));
  out->Set("net.transmit_ms", per_cycle_ms(p.transmit));
  out->Set("join.deliver_ms", per_cycle_ms(p.deliver));
  out->Set("adapt.reopt_ms", per_cycle_ms(p.reopt));
  out->Set("adapt.learn_ms", per_cycle_ms(p.learn));
  out->Set("sim.other_ms", per_cycle_ms(p.other));
  out->Set("join.churn_ms", per_cycle_ms(p.children));
  out->Set("sim.named_phase_pct",
           p.cycle > 0 ? 100.0 * (p.cycle - p.other) / p.cycle : 0.0);
  // Per-call self time of the bench-timed library calls.
  auto per_call_ms = [&](SpanKind k) {
    const OpStat& o = in.ops[k];
    return o.count > 0 ? o.ns / static_cast<double>(o.count) / 1e6 : 0.0;
  };
  out->Set("net.topology_ms", per_call_ms(kTopology));
  out->Set("workload.build_ms", per_call_ms(kWorkloadBuild));
  out->Set("join.medium_ms", per_call_ms(kMediumBuild));
  out->Set("join.admit_ms", per_call_ms(kAdmit));
  out->Set("join.initiate_ms", per_call_ms(kInitiate));
  out->Set("join.remove_ms", per_call_ms(kRemove));
  // Work counts over the measured window.
  out->Set("net.steps_per_cycle", (s.after.steps - s.before.steps) / cycles);
  out->Set("net.frames_per_cycle", p.frames / traced);
  out->Set("net.msgs_per_cycle", (s.after.msgs - s.before.msgs) / cycles);
  out->Set("join.results_per_cycle",
           (s.after.results - s.before.results) / cycles);
  // The paper's own metrics: simulated, so a wall-time change never moves
  // them (the digest pins them exactly).
  out->Set("net.bytes_per_cycle", (s.after.bytes - s.before.bytes) / cycles);
  out->Set("join.result_delay_cycles", s.result_delay);
  out->Set("adapt.passes_per_cycle", s.reopt_passes / cycles);
  out->Set("adapt.migrations_per_cycle", s.migrations_planned / cycles);
  out->Set("adapt.migration_completion",
           s.migrations_planned > 0
               ? static_cast<double>(s.migrations_completed) /
                     static_cast<double>(s.migrations_planned)
               : 0.0);
  out->Set("net.routes_live_peak", static_cast<double>(s.routes_live_peak));
  out->Set("net.payload_slots", static_cast<double>(s.payload_slots));
  out->Set("join.shared_admit_ratio", s.shared_admit_ratio);
  out->Set("alloc.allocs_per_cycle",
           w.allocs / static_cast<double>(std::max<int64_t>(
                          s.alloc_cycles, 1)));
  // Tracing overhead: untraced against traced throughput of the same run.
  double overhead = 0.0;
  if (w.cycles[0] > 0 && w.cycles[1] > 0) {
    const double untraced = w.cycles[0] / static_cast<double>(w.ns[0]);
    const double traced_rate = w.cycles[1] / static_cast<double>(w.ns[1]);
    overhead = 100.0 * (untraced / traced_rate - 1.0);
  }
  out->Set("trace.overhead_pct", overhead);
}

// ---- hosting ------------------------------------------------------------------------

constexpr workload::SelectivityParams kMeshSel{0.5, 0.5, 0.2};

/// One set-up's objects. Members are destroyed medium first, then the
/// workloads it borrows, then the topology they are built over.
struct Hosted {
  std::unique_ptr<net::Topology> topo;
  std::vector<std::unique_ptr<workload::Workload>> workloads;
  std::unique_ptr<join::SharedMedium> medium;
};

net::NetworkOptions NetworkFor(const join::ExecutorOptions& opts,
                               uint64_t seed) {
  net::NetworkOptions net;
  net.enable_merging = opts.features.combining;
  net.seed = seed;
  return net;
}

join::MediumOptions MediumFor(const workload::Workload& wl, int shards,
                              common::TreeMode tree_mode) {
  join::MediumOptions m;
  m.knobs.shards = shards;
  m.knobs.pipeline_depth = 1;
  m.knobs.sample_interval = wl.join_query().window.sample_interval;
  m.knobs.tree_mode = tree_mode;
  return m;
}

/// Builds a topology into `h`, timed as net.topology.
bool BuildTopology(Instruments* in, Report* out, Hosted* h,
                   const std::function<Result<net::Topology>()>& make) {
  Result<net::Topology> topo = in->Time(kTopology, make);
  out->Op(topo.status(), "topology");
  if (!topo.ok()) return false;
  h->topo = std::make_unique<net::Topology>(std::move(topo).ValueOrDie());
  return true;
}

/// Builds a workload into `h`, timed as workload.build.
workload::Workload* BuildWorkload(
    Instruments* in, Report* out, Hosted* h,
    const std::function<Result<workload::Workload>()>& make) {
  Result<workload::Workload> wl = in->Time(kWorkloadBuild, make);
  out->Op(wl.status(), "workload");
  if (!wl.ok()) return nullptr;
  h->workloads.push_back(
      std::make_unique<workload::Workload>(std::move(wl).ValueOrDie()));
  return h->workloads.back().get();
}

void BuildMedium(Instruments* in, Hosted* h, const net::NetworkOptions& net,
                 const join::MediumOptions& medium) {
  h->medium = in->Time(kMediumBuild, [&] {
    return std::make_unique<join::SharedMedium>(h->topo.get(), net, medium);
  });
  h->medium->scheduler()->AttachFront(&in->head);
}

/// Emits every metric and, in traced runs, writes the Chrome trace.
void Finish(const Config& cfg, const Instruments& in, const RunSummary& s,
            Report* out) {
  EmitMetrics(in, s, out);
  if (!cfg.trace) return;
  out->Op(in.tracer.Write(cfg.trace_out, in.origin),
          "cannot write " + cfg.trace_out);
  if (in.tracer.dropped() > 0) {
    std::fprintf(stderr,
                 "trace: %" PRIu64 " spans past the reserved capacity were "
                 "counted, not stored\n",
                 in.tracer.dropped());
  }
}

/// Results a correct executor delivers over `cycles` cycles, by the
/// reference join over the executor's own pairs.
uint64_t ReferenceResults(const workload::Workload& wl,
                          const join::JoinExecutor& exec, int cycles) {
  uint64_t total = 0;
  for (const join::PairKey& p : exec.pairs()) {
    total += testing_util::ReferencePairResults(wl, p.s, p.t, cycles);
  }
  return total;
}

// ---- workloads: mesh10k, mesh100k_4t ------------------------------------------------

struct MeshShape {
  int side;
  double field;
  int pairs;
  bool exact_summaries;
  int shards;
  int setups;  ///< at most 16
  int warmup;
  int block;
  int min_blocks;
  /// Allowed relative difference from the reference join. The reference
  /// assumes every frame of a cycle arrives within that cycle; on the 100k
  /// grid the longest paths outlast the 100-step sampling interval, so a
  /// few tuples join one cycle late.
  double reference_tolerance;
};

/// Blocks after which the digest is taken (fixed, so it is comparable
/// between runs of any length and between traced and untraced runs).
constexpr int kDigestBlocks = 2;

void RunMesh(const Config& cfg, const MeshShape& shape, Report* out) {
  Instruments in(cfg);
  join::ExecutorOptions opts;
  opts.algorithm = join::Algorithm::kInnet;
  opts.features = join::InnetFeatures::Cm();
  opts.assumed = kMeshSel;
  opts.mesh_mode = true;
  opts.seed = cfg.seed;
  if (shape.exact_summaries) {
    // 128-bit Bloom summaries saturate below 5,000 distinct join keys and
    // turn exploration into a network-wide flood.
    opts.summary_type = routing::SummaryType::kExact;
  }

  RunSummary s;
  std::unique_ptr<Hosted> kept;
  join::JoinExecutor* exec = nullptr;
  for (int r = 0; r < shape.setups; ++r) {
    kept.reset();  // tear the previous set-up down before timing the next
    // Each set-up draws its own pair set, so the median set-up time does
    // not hinge on one draw; the last set-up is the one that runs.
    const uint64_t draw = cfg.seed * 16 + static_cast<uint64_t>(r);
    auto h = std::make_unique<Hosted>();
    const int64_t t0 = NowNs();
    if (!BuildTopology(&in, out, h.get(), [&] {
          return net::Topology::Grid(shape.side, shape.side, shape.field);
        })) {
      return;
    }
    workload::Workload* wl = BuildWorkload(&in, out, h.get(), [&] {
      return workload::Workload::MakeQuery0(h->topo.get(), kMeshSel,
                                            shape.pairs, /*window=*/3, draw);
    });
    if (wl == nullptr) return;
    BuildMedium(&in, h.get(), NetworkFor(opts, cfg.seed),
                MediumFor(*wl, shape.shards, common::TreeMode::kPerSource));
    Result<join::JoinExecutor*> admitted =
        Admit(&in, h->medium.get(), wl, opts);
    out->Op(admitted.status(), "admission");
    if (!admitted.ok()) return;
    s.setup_s.push_back((NowNs() - t0) / 1e9);
    exec = *admitted;
    kept = std::move(h);
  }
  join::SharedMedium& medium = *kept->medium;
  const workload::Workload& wl = *kept->workloads[0];

  out->Op(medium.RunCycles(shape.warmup), "warm-up cycles");

  s.before = Counters::Of(medium.network(), exec->results());
  const int64_t start = NowNs();
  Window& w = s.window;
  while (w.blocks < shape.min_blocks ||
         NowNs() - start < static_cast<int64_t>(cfg.seconds * 1e9)) {
    const bool traced = cfg.trace && w.blocks % 2 == 1;
    Status st = in.RunBlock(&medium, shape.block, traced, &w);
    out->Op(st, "cycle block");
    if (!st.ok()) return;
    if (w.blocks == kDigestBlocks) {
      out->Mix(exec->results());
      out->Mix(medium.stats().TotalBytesSent());
      out->Mix(benchutil::TrafficFingerprint(medium.stats()));
    }
  }
  s.after = Counters::Of(medium.network(), exec->results());

  const int cycles = medium.scheduler()->cycle();
  const uint64_t expect = ReferenceResults(wl, *exec, cycles);
  const double diff = std::fabs(static_cast<double>(exec->results()) -
                                static_cast<double>(expect));
  out->Op(diff <= shape.reference_tolerance * static_cast<double>(expect),
          "results " + std::to_string(exec->results()) +
              " differ from the reference join " + std::to_string(expect));
  out->Op(w.allocs == 0, "measured cycles allocated " +
                             std::to_string(w.allocs) + " times");

  // The admission samples are the set-up admissions: one query per set-up.
  s.admit_ms = in.admit_ms;
  s.alloc_cycles = w.total_cycles();
  s.result_delay = exec->Stats().avg_result_delay_cycles;
  s.routes_live_peak = medium.network().routes().live_paths();
  s.payload_slots = medium.network().payloads().capacity();
  Finish(cfg, in, s, out);
}

// ---- workload: churn_shared -----------------------------------------------------------

struct ChurnShape {
  int side;
  double field;
  int templates;
  int pairs;
  int residents;
  int lead_in;
  int per_wave;
  int period;
  int min_life;
  int max_life;
  int min_waves;
  int max_waves;
  int tail;
  int setups;
};

/// Admits and removes the scripted queries. Mid-run admissions are
/// appended after the tail probe, so a traced block re-seats it.
class ChurnHost : public scenario::QueryHost {
 public:
  ChurnHost(Instruments* in, Report* out, join::SharedMedium* medium,
            const Hosted* hosted, const join::ExecutorOptions& opts,
            int max_slots)
      : in_(in), out_(out), medium_(medium), hosted_(hosted), opts_(opts),
        slot_to_query_(max_slots, -1) {}

  Status OnQueryArrival(int slot, int template_id) override {
    if (slot < 0 || static_cast<size_t>(slot) >= slot_to_query_.size() ||
        template_id < 0 ||
        static_cast<size_t>(template_id) >= hosted_->workloads.size()) {
      out_->Op(false, "arrival outside the slot or template range");
      return Status::InvalidArgument("churn: bad slot or template");
    }
    Result<join::JoinExecutor*> exec = Admit(
        in_, medium_, hosted_->workloads[template_id].get(), opts_);
    out_->Op(exec.status(), "admission");
    if (!exec.ok()) return exec.status();
    if (in_->rec.traced()) {
      sim::CycleScheduler* sched = medium_->scheduler();
      sched->Detach(&in_->tail);
      sched->Attach(&in_->tail);
    }
    slot_to_query_[slot] = (*exec)->query_id();
    bool all_subscribed = true;
    for (const auto& pl : (*exec)->placements()) {
      if (pl.shared_owner < 0) all_subscribed = false;
    }
    ++admitted_;
    if (all_subscribed) ++fully_shared_;
    routes_live_peak_ = std::max(routes_live_peak_,
                                 medium_->network().routes().live_paths());
    return Status::OK();
  }

  Status OnQueryDeparture(int slot) override {
    if (slot < 0 || static_cast<size_t>(slot) >= slot_to_query_.size() ||
        slot_to_query_[slot] < 0) {
      out_->Op(false, "departure of an unknown slot");
      return Status::NotFound("churn: unknown slot");
    }
    const int query = slot_to_query_[slot];
    Status st =
        in_->Time(kRemove, [&] { return medium_->RemoveQuery(query); });
    out_->Op(st, "removal");
    slot_to_query_[slot] = -1;
    return st;
  }

  int admitted() const { return admitted_; }
  int fully_shared() const { return fully_shared_; }
  size_t routes_live_peak() const { return routes_live_peak_; }

 private:
  Instruments* in_;
  Report* out_;
  join::SharedMedium* medium_;
  const Hosted* hosted_;
  join::ExecutorOptions opts_;
  std::vector<int> slot_to_query_;
  int admitted_ = 0;
  int fully_shared_ = 0;
  size_t routes_live_peak_ = 0;
};

/// Route-table and payload-pool occupancy at a quiet point between blocks.
struct Occupancy {
  size_t routes = 0;
  size_t mcasts = 0;
  size_t payload_slots = 0;

  static Occupancy Of(join::SharedMedium& medium) {
    Occupancy o;
    o.routes = medium.network().routes().live_paths();
    o.mcasts = medium.network().routes().live_multicasts();
    o.payload_slots = medium.network().payloads().capacity();
    return o;
  }
};

struct ChurnSetup {
  Hosted hosted;
  scenario::DynamicsSchedule schedule;
  std::unique_ptr<scenario::ScenarioDriver> driver;
  std::unique_ptr<ChurnHost> host;
};

void RunChurn(const Config& cfg, const ChurnShape& shape, Report* out) {
  Instruments in(cfg);
  join::ExecutorOptions opts;
  opts.algorithm = join::Algorithm::kInnet;
  opts.features = join::InnetFeatures::Cm();
  opts.assumed = kMeshSel;
  opts.mesh_mode = true;
  opts.seed = cfg.seed;
  opts.knobs.tree_mode = common::TreeMode::kShared;

  scenario::DynamicsSchedule::QueryChurnOptions churn;
  churn.waves = 1;
  churn.arrivals_per_wave = shape.per_wave;
  churn.wave_period = shape.period;
  churn.min_lifetime = shape.min_life;
  churn.max_lifetime = shape.max_life;
  churn.num_templates = shape.templates;
  // The churn script is part of the workload's shape (bench_service_churn
  // uses the same seed); --seed draws the templates' pair sets.
  churn.seed = 42;
  // Every wave replays the same script, so every wave does the same work:
  // the per-wave samples are alike, and a run that fits more waves in its
  // seconds neither changes the admission mix nor reaches a new memory
  // peak.
  const scenario::DynamicsSchedule wave =
      scenario::DynamicsSchedule::QueryChurn(churn);
  scenario::DynamicsSchedule script;
  for (int k = 0; k < shape.max_waves; ++k) {
    for (scenario::DynamicsEvent e : wave.events()) {
      e.cycle += shape.lead_in + k * shape.period;
      e.slot += k * shape.per_wave;
      script.Add(e);
    }
  }

  RunSummary s;
  std::unique_ptr<ChurnSetup> kept;
  for (int r = 0; r < shape.setups; ++r) {
    kept.reset();
    auto c = std::make_unique<ChurnSetup>();
    Hosted* h = &c->hosted;
    const int64_t t0 = NowNs();
    if (!BuildTopology(&in, out, h, [&] {
          return net::Topology::Grid(shape.side, shape.side, shape.field);
        })) {
      return;
    }
    for (int k = 0; k < shape.templates; ++k) {
      // Distinct pair sets per template, all drawn from the run seed.
      const uint64_t seed = cfg.seed * 16 + static_cast<uint64_t>(k);
      if (BuildWorkload(&in, out, h, [&] {
            return workload::Workload::MakeQuery0(h->topo.get(), kMeshSel,
                                                  shape.pairs, /*window=*/3,
                                                  seed);
          }) == nullptr) {
        return;
      }
    }
    BuildMedium(&in, h, NetworkFor(opts, cfg.seed),
                MediumFor(*h->workloads[0], 1, common::TreeMode::kShared));
    c->schedule = script;
    c->driver = std::make_unique<scenario::ScenarioDriver>(
        &h->medium->network(), &c->schedule);
    c->host = std::make_unique<ChurnHost>(
        &in, out, h->medium.get(), h, opts,
        shape.max_waves * shape.per_wave);
    out->Op(c->driver->set_query_host(c->host.get()), "query host");
    // The scenario driver goes ahead of every query, and the head probe
    // ahead of the driver, so admission stalls fall inside the cycle.
    sim::CycleScheduler* sched = h->medium->scheduler();
    sched->Detach(&in.head);
    sched->AttachFront(c->driver.get());
    sched->AttachFront(&in.head);
    for (int k = 0; k < shape.residents; ++k) {
      Result<join::JoinExecutor*> admitted =
          Admit(&in, h->medium.get(), h->workloads[k].get(), opts);
      out->Op(admitted.status(), "resident admission");
      if (!admitted.ok()) return;
    }
    s.setup_s.push_back((NowNs() - t0) / 1e9);
    kept = std::move(c);
  }
  in.admit_ms.clear();  // the latency samples are the churned arrivals
  join::SharedMedium& medium = *kept->hosted.medium;

  auto all_results = [&medium] {
    uint64_t n = 0;
    for (const auto& rec : medium.ledger()) n += rec.stats.results;
    for (int id : medium.live_query_ids()) n += medium.executor(id).results();
    return n;
  };

  out->Op(medium.RunCycles(shape.lead_in), "lead-in cycles");

  // One block per churn wave: every instance of a wave departs inside it,
  // so the occupancy between blocks is a steady checkpoint.
  std::vector<Occupancy> occupancy;
  occupancy.reserve(shape.max_waves + 1);
  s.admit_ms.reserve(shape.max_waves);
  s.before = Counters::Of(medium.network(), all_results());
  const int64_t start = NowNs();
  Window& w = s.window;
  while (w.blocks < shape.max_waves &&
         (w.blocks < shape.min_waves ||
          NowNs() - start < static_cast<int64_t>(cfg.seconds * 1e9))) {
    occupancy.push_back(Occupancy::Of(medium));
    const bool traced = cfg.trace && w.blocks % 2 == 1;
    Status st = in.RunBlock(&medium, shape.period, traced, &w);
    out->Op(st, "churn wave");
    if (!st.ok()) return;
    // Admission latency drifts with the machine over seconds, as cycle
    // latency does: each wave's median admission is one sample, so a slow
    // spell moves admit_ms_p50 only when it covers half the waves.
    if (!in.admit_ms.empty()) {
      s.admit_ms.push_back(Quantile(in.admit_ms, 0.50));
      in.admit_ms.clear();
    }
    // The heap keeps about 80 KB per departed query, so memory grows with
    // every wave; the peak is read after the waves every run makes.
    if (w.blocks == shape.min_waves) s.peak_rss_mb = PeakRssMb();
    if (w.blocks == kDigestBlocks) {
      out->Mix(all_results());
      out->Mix(medium.stats().TotalBytesSent());
      out->Mix(benchutil::TrafficFingerprint(medium.stats()));
    }
  }
  s.after = Counters::Of(medium.network(), all_results());

  // Steady tail: the scenario stops, only the residents serve, and the
  // cycles must not touch the heap.
  medium.scheduler()->Detach(kept->driver.get());
  const uint64_t a0 = allocaudit::Count();
  out->Op(medium.RunCycles(shape.tail), "steady tail");
  const uint64_t tail_allocs = allocaudit::Count() - a0;
  out->Op(tail_allocs == 0, "steady tail allocated " +
                                std::to_string(tail_allocs) + " times");

  // Leak gate: occupancy returns to the post-first-wave baseline and does
  // not grow across every wave.
  const Occupancy fin = Occupancy::Of(medium);
  const Occupancy& base = occupancy[1];
  out->Op(fin.routes == base.routes && fin.mcasts == base.mcasts,
          "route occupancy " + std::to_string(fin.routes) + "+" +
              std::to_string(fin.mcasts) + " != post-first-wave baseline " +
              std::to_string(base.routes) + "+" +
              std::to_string(base.mcasts));
  // Growth across every wave is a leak only over enough waves to rule out
  // a run of ever-larger waves.
  bool routes_grew = occupancy.size() >= 5;
  bool slots_grew = occupancy.size() >= 5;
  for (size_t i = 2; i < occupancy.size(); ++i) {
    if (occupancy[i].routes <= occupancy[i - 1].routes) routes_grew = false;
    if (occupancy[i].payload_slots <= occupancy[i - 1].payload_slots) {
      slots_grew = false;
    }
  }
  out->Op(!routes_grew && !slots_grew,
          "occupancy grows across every churn wave");

  DelayMean delay;
  for (const auto& rec : medium.ledger()) delay.Add(rec.stats);
  for (int id : medium.live_query_ids()) {
    delay.Add(medium.executor(id).Stats());
  }
  s.result_delay = delay.value();
  s.routes_live_peak = kept->host->routes_live_peak();
  s.payload_slots = fin.payload_slots;
  s.shared_admit_ratio =
      kept->host->admitted() > 0
          ? kept->host->fully_shared() /
                static_cast<double>(kept->host->admitted())
          : 0.0;
  // Admissions allocate by design; the allocation gate is the steady tail.
  s.window.allocs = tail_allocs;
  s.alloc_cycles = shape.tail;
  Finish(cfg, in, s, out);
}

// ---- workload: paper_sweep ------------------------------------------------------------

struct SweepShape {
  int nodes;
  double degree;
  int cycles;
  int shift_cycle;
  int reopt_interval;
  int check_every;
  int min_experiments;  ///< also the experiments folded into the digest
};

// The paper's Figure 12(b) rate swap: placements chosen for 1/10:1 become
// exactly wrong at the shift, which drives the 33% re-optimization trigger.
constexpr workload::SelectivityParams kBefore{0.1, 1.0, 0.2};
constexpr workload::SelectivityParams kAfter{1.0, 0.1, 0.2};

void RunSweep(const Config& cfg, const SweepShape& shape, Report* out) {
  Instruments in(cfg);
  join::ExecutorOptions opts;
  opts.algorithm = join::Algorithm::kInnet;
  opts.features = join::InnetFeatures::None();  // no MPO groups
  opts.assumed = kBefore;
  opts.seed = cfg.seed;
  opts.knobs.reopt_interval = shape.reopt_interval;

  RunSummary s;
  Window& w = s.window;
  DelayMean delay;
  const int64_t start = NowNs();
  for (int e = 0;; ++e) {
    if (e >= shape.min_experiments &&
        NowNs() - start >= static_cast<int64_t>(cfg.seconds * 1e9)) {
      break;
    }
    const uint64_t exp_seed = cfg.seed * 1000003ULL + static_cast<uint64_t>(e);
    Hosted h;
    const int64_t t0 = NowNs();
    if (!BuildTopology(&in, out, &h, [&] {
          return net::Topology::Random(shape.nodes, shape.degree, exp_seed);
        })) {
      return;
    }
    workload::Workload* wl = BuildWorkload(&in, out, &h, [&] {
      return workload::Workload::MakeQuery1(h.topo.get(), kBefore,
                                            /*window=*/3, exp_seed);
    });
    if (wl == nullptr) return;
    wl->SetGlobalSwitch(shape.shift_cycle, kAfter);
    BuildMedium(&in, &h, NetworkFor(opts, exp_seed),
                MediumFor(*wl, 1, common::TreeMode::kPerSource));
    Result<join::JoinExecutor*> admitted = Admit(&in, h.medium.get(), wl, opts);
    out->Op(admitted.status(), "admission");
    if (!admitted.ok()) return;
    join::JoinExecutor* exec = *admitted;
    const int64_t t1 = NowNs();
    s.setup_s.push_back((t1 - t0) / 1e9);

    const Counters before = Counters::Of(h.medium->network(), 0);
    const bool traced = cfg.trace && e % 2 == 1;
    Status st = in.RunBlock(h.medium.get(), shape.cycles, traced, &w, t0);
    out->Op(st, "experiment");
    if (!st.ok()) return;
    const Counters after = Counters::Of(h.medium->network(), exec->results());
    s.after.steps += after.steps - before.steps;
    s.after.msgs += after.msgs - before.msgs;
    s.after.bytes += after.bytes - before.bytes;
    s.after.results += after.results;
    s.reopt_passes += exec->reopt().passes();
    s.migrations_planned += exec->reopt().planned();
    s.migrations_completed += exec->reopt().completed();
    delay.Add(exec->Stats());
    s.routes_live_peak = std::max(s.routes_live_peak,
                                  h.medium->network().routes().live_paths());
    s.payload_slots =
        std::max(s.payload_slots, h.medium->network().payloads().capacity());
    if (e < shape.min_experiments) {
      out->Mix(exec->results());
      out->Mix(after.bytes);
      out->Mix(benchutil::TrafficFingerprint(h.medium->stats()));
    }
    if (e % shape.check_every == 0) {
      const uint64_t expect = ReferenceResults(*wl, *exec, shape.cycles);
      out->Op(exec->results() == expect,
              "experiment " + std::to_string(e) + ": results " +
                  std::to_string(exec->results()) + " != reference join " +
                  std::to_string(expect));
    }
  }
  s.result_delay = delay.value();
  s.admit_ms = in.admit_ms;
  // Fresh experiments never reach a steady state: migrations, first-touch
  // pool growth and set-up allocate, so this count is reported, not gated.
  s.alloc_cycles = w.total_cycles();
  Finish(cfg, in, s, out);
}

// ---- shapes and entry point ------------------------------------------------------------

// Full shapes, then --smoke shapes: the same code paths on small inputs.
constexpr MeshShape kMesh10k{100, 2560.0, 500, false, 1, 12, 20, 100, 2, 0.0};
constexpr MeshShape kMesh10kSmoke{40, 1024.0, 60, false, 1, 2, 5, 20, 2, 0.0};
// 316x316 at the 10k grid's 25.6 m spacing: 99,856 nodes.
constexpr MeshShape kMesh100k{316, 8089.6, 5000, true, 4, 3, 30, 50, 2, 0.01};
constexpr MeshShape kMesh100kSmoke{100, 2560.0, 500, true, 4,
                                   2,   5,      10,   2,    0.0};
constexpr ChurnShape kChurn{100, 2560.0, 4,  200, 2,  40, 10,
                            180, 40,     120, 5, 64, 100, 9};
constexpr ChurnShape kChurnSmoke{40, 1024.0, 4, 40, 2, 10, 3,
                                 24, 6,      12, 5, 5, 10, 2};
constexpr SweepShape kSweep{100, 7.0, 300, 60, 10, 25, 25};
constexpr SweepShape kSweepSmoke{100, 7.0, 300, 60, 10, 2, 4};

bool ParseArgs(int argc, char** argv, Config* cfg) {
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    const bool has_value = i + 1 < argc;
    if (arg == "--workload" && has_value) {
      cfg->workload = argv[++i];
    } else if (arg == "--seed" && has_value) {
      char* end = nullptr;
      cfg->seed = std::strtoull(argv[++i], &end, 10);
      if (*end != '\0') return false;
    } else if (arg == "--seconds" && has_value) {
      char* end = nullptr;
      cfg->seconds = std::strtod(argv[++i], &end);
      if (*end != '\0' || !(cfg->seconds >= 0.0 && cfg->seconds <= 3600.0)) {
        return false;
      }
    } else if (arg == "--trace-out" && has_value) {
      cfg->trace_out = argv[++i];
    } else if (arg == "--trace") {
      cfg->trace = true;
    } else if (arg == "--smoke") {
      cfg->smoke = true;
    } else {
      return false;
    }
  }
  if (cfg->trace && cfg->trace_out.empty()) {
    cfg->trace_out = cfg->workload + ".trace.json";
  }
  return !cfg->workload.empty();
}

int Main(int argc, char** argv) {
  Config cfg;
  if (!ParseArgs(argc, argv, &cfg)) {
    std::fprintf(stderr,
                 "usage: bench_suite --workload "
                 "{mesh10k|mesh100k_4t|churn_shared|paper_sweep} --seed N "
                 "--seconds S [--trace] [--trace-out FILE] [--smoke]\n");
    return 2;
  }
  allocaudit::SetCounting(true);
  Report out;
  if (cfg.workload == "mesh10k") {
    RunMesh(cfg, cfg.smoke ? kMesh10kSmoke : kMesh10k, &out);
  } else if (cfg.workload == "mesh100k_4t") {
    RunMesh(cfg, cfg.smoke ? kMesh100kSmoke : kMesh100k, &out);
  } else if (cfg.workload == "churn_shared") {
    RunChurn(cfg, cfg.smoke ? kChurnSmoke : kChurn, &out);
  } else if (cfg.workload == "paper_sweep") {
    RunSweep(cfg, cfg.smoke ? kSweepSmoke : kSweep, &out);
  } else {
    std::fprintf(stderr, "unknown workload '%s'\n", cfg.workload.c_str());
    return 2;
  }
  out.Print();
  return out.ok() ? 0 : 1;
}

}  // namespace
}  // namespace perfbench
}  // namespace aspen

int main(int argc, char** argv) { return aspen::perfbench::Main(argc, argv); }
