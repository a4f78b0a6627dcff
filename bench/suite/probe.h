// Outside-in tracing for wire_bench. Everything here wraps calls into the
// simulator's public surface; nothing inside src/ is instrumented:
//
//   TimedPolicy   a sim::ScalingPolicy decorator that times plan() calls and,
//                 for a WIRE controller, harvests its lookahead / predictor
//                 statistics when the policy is destroyed;
//   stepped_run   the same JobEngine loop as sim::simulate, with each step
//                 timed and the policy time inside it subtracted;
//   Recorder      the in-memory span store and the per-layer totals of one
//                 traced run, written out as a Chrome trace.
#pragma once

#include <atomic>
#include <chrono>
#include <cstdint>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

#include "core/lookahead_cache.h"
#include "sim/driver.h"
#include "sim/scaling_policy.h"

namespace wire::suite {

using Clock = std::chrono::steady_clock;

inline double seconds_between(Clock::time_point a, Clock::time_point b) {
  return std::chrono::duration<double>(b - a).count();
}

/// One closed interval of traced work. Plan spans hang off their op (or off
/// the policies.budget span that wraps them); `events` is set on the
/// aggregated sim.steps span only.
struct Span {
  const char* name = "";
  std::int64_t start_ns = 0;
  std::int64_t end_ns = 0;
  std::uint64_t id = 0;
  std::uint64_t parent = 0;
  std::uint64_t op = 0;
  std::uint64_t events = 0;
  std::uint32_t tid = 0;
};

/// Sums over the traced ops of one run, one block per src/ module.
struct LayerTotals {
  // sim: hand-stepped single runs.
  std::uint64_t events = 0;
  double sim_self_s = 0.0;
  double tick_self_s = 0.0;
  std::uint64_t control_ticks = 0;
  std::uint64_t task_restarts = 0;
  std::uint64_t task_faults = 0;
  std::uint64_t instance_crashes = 0;
  std::uint64_t quarantined_tasks = 0;
  std::uint64_t oom_kills = 0;
  std::uint64_t checkpoints_completed = 0;
  std::uint64_t checkpoints_lost = 0;
  double busy_slot_s = 0.0;
  double wasted_slot_s = 0.0;
  double checkpoint_io_slot_s = 0.0;

  // core: WireController::plan calls and the controller's own statistics.
  std::uint64_t core_calls = 0;
  double core_s = 0.0;
  std::vector<double> core_call_us;
  core::LookaheadCacheStats lookahead;
  std::uint64_t state_bytes_max = 0;

  // predict: read from each controller at the end of its run.
  std::uint64_t task_revisions = 0;
  std::uint64_t bandit_switches = 0;
  std::uint64_t mem_refits = 0;

  // policies: baseline plan calls and the BudgetPolicy wrapper's own time.
  std::uint64_t policy_calls = 0;
  double policy_s = 0.0;
  double budget_self_s = 0.0;
  std::uint64_t jobs_at_budget = 0;

  // ensemble: driver runs seen from the outside.
  double ensemble_run_s = 0.0;
  double ensemble_self_s = 0.0;
  std::uint64_t serial_events = 0;
  std::uint64_t arbiter_fanin = 0;
  std::uint64_t peak_live_tenants = 0;
  double arbiter_replay_s = 0.0;
  std::uint64_t ensemble_jobs = 0;
  double queue_wait_s = 0.0;
  double slowdown = 0.0;
  double allocation_ratio = 0.0;
  std::uint64_t ensemble_ops = 0;

  // workload: DAG instantiation during set-up.
  double make_workflow_s = 0.0;
};

/// Thread-safe store for one traced run. Decorators on the ensemble's worker
/// threads merge into it under the mutex.
class Recorder {
 public:
  /// Spans kept in memory; later spans are counted but dropped so a long
  /// fine-grained run cannot grow the trace file without bound.
  static constexpr std::size_t kMaxSpans = 100000;

  Recorder();

  /// Nanoseconds since the recorder was created (the trace epoch).
  std::int64_t now_ns() const;

  std::uint64_t next_span_id() { return next_id_.fetch_add(1); }
  /// Opens the span every plan call of op `op` hangs off. Call from the
  /// thread that runs the op, before it starts any worker.
  void begin_op(std::uint64_t op);
  void end_op();
  std::uint64_t current_op() const { return op_.load(); }
  std::uint64_t current_op_span() const { return op_span_.load(); }

  void add_span(const Span& span);
  /// Runs `fn(totals)` under the mutex.
  template <typename Fn>
  void update(Fn&& fn) {
    std::lock_guard<std::mutex> lock(mutex_);
    fn(totals_);
  }
  const LayerTotals& totals() const { return totals_; }
  std::size_t dropped_spans() const { return dropped_; }
  /// Policies whose statistics could not be read at destruction.
  void note_lost_harvest() noexcept { lost_harvests_.fetch_add(1); }
  std::uint64_t lost_harvests() const { return lost_harvests_.load(); }

  /// Writes the kept spans in Chrome trace-event format (load the file in
  /// chrome://tracing or ui.perfetto.dev). Returns false on an I/O error.
  bool write_chrome_trace(const std::string& path,
                          const std::string& workload) const;

 private:
  Clock::time_point epoch_;
  std::mutex mutex_;
  LayerTotals totals_;
  std::vector<Span> spans_;
  std::size_t dropped_ = 0;
  std::atomic<std::uint64_t> next_id_{1};
  std::atomic<std::uint64_t> op_{0};
  std::atomic<std::uint64_t> op_span_{0};
  std::atomic<std::uint64_t> lost_harvests_{0};
  std::int64_t op_start_ns_ = 0;
};

/// What a TimedPolicy's plan() calls are charged to.
enum class PolicyLayer {
  kCore,      // core.plan: a WireController
  kBaseline,  // policies.plan: a baseline from src/policies
  kBudget,    // policies.budget: a BudgetPolicy around a timed controller
};

/// Forwards every call to `inner` and times plan(). Result-transparent: the
/// simulator never inspects a policy's dynamic type, so wrapping changes no
/// simulated value (the traced run checks this through sim_digest).
class TimedPolicy final : public sim::ScalingPolicy {
 public:
  TimedPolicy(std::unique_ptr<sim::ScalingPolicy> inner, PolicyLayer layer,
              Recorder& recorder);
  ~TimedPolicy() override;
  TimedPolicy(const TimedPolicy&) = delete;
  TimedPolicy& operator=(const TimedPolicy&) = delete;

  std::string name() const override { return inner_->name(); }
  void on_run_start(const dag::Workflow& workflow,
                    const sim::CloudConfig& config) override;
  sim::PoolCommand plan(const sim::MonitorSnapshot& snapshot) override;

 private:
  /// Adds this policy's call counts and times, and a WIRE controller's own
  /// statistics, to the recorder.
  void harvest();

  std::unique_ptr<sim::ScalingPolicy> inner_;
  PolicyLayer layer_;
  Recorder& recorder_;
  bool started_ = false;
  std::uint64_t calls_ = 0;
  double total_s_ = 0.0;
  double self_s_ = 0.0;
  std::vector<double> call_us_;
};

/// Outermost TimedPolicy::plan calls made on the calling thread since the
/// last reset — what a caller subtracts to get its own self time.
struct ThreadPolicyTime {
  std::uint64_t calls = 0;
  double seconds = 0.0;
};
ThreadPolicyTime thread_policy_time();
void reset_thread_policy_time();

/// sim::simulate's loop with every JobEngine::step timed: adds the run's
/// events, self time (step time minus policy time inside it), tick self time
/// and RunResult counters to the recorder, plus one sim.steps span.
sim::RunResult stepped_run(const dag::Workflow& workflow,
                           sim::ScalingPolicy& policy,
                           const sim::CloudConfig& config,
                           const sim::RunOptions& options, Recorder& recorder);

}  // namespace wire::suite
