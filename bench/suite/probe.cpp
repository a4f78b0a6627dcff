#include "probe.h"

#include <algorithm>
#include <cstdio>

#include "core/controller.h"
#include "sim/engine.h"

namespace wire::suite {

namespace {

std::atomic<std::uint32_t> g_next_tid{1};
thread_local const std::uint32_t tl_tid = g_next_tid.fetch_add(1);

/// Per-thread nesting state of TimedPolicy::plan. Budget wrappers nest a
/// timed controller inside a timed wrapper; only outermost calls count as
/// policy time for the caller, and each call learns how much of its own
/// duration its nested calls took.
thread_local ThreadPolicyTime tl_outer;
thread_local int tl_depth = 0;
thread_local double tl_nested_s = 0.0;
thread_local std::uint64_t tl_parent = 0;

/// Restores the nesting state on every exit from plan(), exceptions too.
struct PlanFrame {
  double saved_nested;
  std::uint64_t saved_parent;
  /// This call's duration, set just before the frame closes.
  double seconds = 0.0;

  explicit PlanFrame(std::uint64_t id)
      : saved_nested(tl_nested_s), saved_parent(tl_parent) {
    tl_nested_s = 0.0;
    tl_parent = id;
    ++tl_depth;
  }
  ~PlanFrame() {
    --tl_depth;
    tl_nested_s = saved_nested + seconds;
    tl_parent = saved_parent;
    if (tl_depth == 0) {
      ++tl_outer.calls;
      tl_outer.seconds += seconds;
    }
  }
  PlanFrame(const PlanFrame&) = delete;
  PlanFrame& operator=(const PlanFrame&) = delete;
};

const char* layer_span_name(PolicyLayer layer) {
  switch (layer) {
    case PolicyLayer::kCore: return "core.plan";
    case PolicyLayer::kBaseline: return "policies.plan";
    case PolicyLayer::kBudget: return "policies.budget";
  }
  return "?";
}

}  // namespace

ThreadPolicyTime thread_policy_time() { return tl_outer; }
void reset_thread_policy_time() { tl_outer = ThreadPolicyTime{}; }

Recorder::Recorder() : epoch_(Clock::now()) {}

std::int64_t Recorder::now_ns() const {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(Clock::now() -
                                                              epoch_)
      .count();
}

void Recorder::begin_op(std::uint64_t op) {
  op_.store(op);
  op_span_.store(next_span_id());
  op_start_ns_ = now_ns();
}

void Recorder::end_op() {
  Span span;
  span.name = "op";
  span.start_ns = op_start_ns_;
  span.end_ns = now_ns();
  span.id = op_span_.load();
  span.op = op_.load();
  span.tid = tl_tid;
  add_span(span);
  op_span_.store(0);
}

void Recorder::add_span(const Span& span) {
  std::lock_guard<std::mutex> lock(mutex_);
  if (spans_.size() < kMaxSpans) {
    spans_.push_back(span);
  } else {
    ++dropped_;
  }
}

bool Recorder::write_chrome_trace(const std::string& path,
                                  const std::string& workload) const {
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) return false;
  std::fprintf(f,
               "{\"displayTimeUnit\": \"ms\", \"otherData\": {\"workload\": "
               "\"%s\", \"dropped_spans\": %zu},\n\"traceEvents\": [\n",
               workload.c_str(), dropped_);
  for (std::size_t i = 0; i < spans_.size(); ++i) {
    const Span& s = spans_[i];
    std::fprintf(f,
                 "{\"name\": \"%s\", \"ph\": \"X\", \"pid\": 1, \"tid\": %u, "
                 "\"ts\": %.3f, \"dur\": %.3f, \"args\": {\"id\": %llu, "
                 "\"parent\": %llu, \"op\": %llu",
                 s.name, s.tid, static_cast<double>(s.start_ns) * 1e-3,
                 static_cast<double>(s.end_ns - s.start_ns) * 1e-3,
                 static_cast<unsigned long long>(s.id),
                 static_cast<unsigned long long>(s.parent),
                 static_cast<unsigned long long>(s.op));
    if (s.events > 0) {
      std::fprintf(f, ", \"events\": %llu",
                   static_cast<unsigned long long>(s.events));
    }
    std::fprintf(f, "}}%s\n", i + 1 < spans_.size() ? "," : "");
  }
  std::fprintf(f, "]}\n");
  return std::fclose(f) == 0;
}

TimedPolicy::TimedPolicy(std::unique_ptr<sim::ScalingPolicy> inner,
                         PolicyLayer layer, Recorder& recorder)
    : inner_(std::move(inner)), layer_(layer), recorder_(recorder) {}

void TimedPolicy::on_run_start(const dag::Workflow& workflow,
                               const sim::CloudConfig& config) {
  inner_->on_run_start(workflow, config);
  started_ = true;
}

sim::PoolCommand TimedPolicy::plan(const sim::MonitorSnapshot& snapshot) {
  Span span;
  span.name = layer_span_name(layer_);
  span.id = recorder_.next_span_id();
  span.parent = tl_parent != 0 ? tl_parent : recorder_.current_op_span();
  span.op = recorder_.current_op();
  span.tid = tl_tid;
  sim::PoolCommand command;
  double seconds = 0.0;
  double nested = 0.0;
  {
    PlanFrame frame(span.id);
    span.start_ns = recorder_.now_ns();
    command = inner_->plan(snapshot);
    span.end_ns = recorder_.now_ns();
    seconds = static_cast<double>(span.end_ns - span.start_ns) * 1e-9;
    frame.seconds = seconds;
    nested = tl_nested_s;
  }
  ++calls_;
  total_s_ += seconds;
  self_s_ += seconds - nested;
  if (layer_ == PolicyLayer::kCore) call_us_.push_back(seconds * 1e6);
  recorder_.add_span(span);
  return command;
}

TimedPolicy::~TimedPolicy() {
  // Statistics are read at destruction: the ensemble driver owns its tenant
  // policies until it is destroyed, so this is the first point at which a
  // tenant's run is known to be over. A failure here is counted, not thrown.
  try {
    harvest();
  } catch (...) {
    recorder_.note_lost_harvest();
  }
}

void TimedPolicy::harvest() {
  const auto* wire =
      started_ ? dynamic_cast<const core::WireController*>(inner_.get())
               : nullptr;
  recorder_.update([&](LayerTotals& t) {
    switch (layer_) {
      case PolicyLayer::kCore:
        t.core_calls += calls_;
        t.core_s += total_s_;
        t.core_call_us.insert(t.core_call_us.end(), call_us_.begin(),
                              call_us_.end());
        break;
      case PolicyLayer::kBaseline:
        t.policy_calls += calls_;
        t.policy_s += total_s_;
        break;
      case PolicyLayer::kBudget:
        t.budget_self_s += self_s_;
        break;
    }
    if (wire == nullptr) return;
    const core::LookaheadCacheStats& s = wire->lookahead_stats();
    t.lookahead.ticks += s.ticks;
    for (std::size_t k = 0; k < core::kAnalyzePathCount; ++k) {
      t.lookahead.by_path[k] += s.by_path[k];
    }
    t.lookahead.memo_hits += s.memo_hits;
    t.lookahead.memo_misses += s.memo_misses;
    t.lookahead.stamped_plan_ticks += s.stamped_plan_ticks;
    t.state_bytes_max = std::max<std::uint64_t>(t.state_bytes_max,
                                                wire->state_bytes());
    t.task_revisions += wire->predictor().revision();
    if (wire->bandit() != nullptr) {
      t.bandit_switches += wire->bandit()->switches();
    }
    if (wire->memory_predictor() != nullptr) {
      t.mem_refits += wire->memory_predictor()->total_refits();
    }
  });
}

sim::RunResult stepped_run(const dag::Workflow& workflow,
                           sim::ScalingPolicy& policy,
                           const sim::CloudConfig& config,
                           const sim::RunOptions& options,
                           Recorder& recorder) {
  Span span;
  span.name = "sim.steps";
  span.id = recorder.next_span_id();
  span.parent = recorder.current_op_span();
  span.op = recorder.current_op();
  span.tid = tl_tid;
  span.start_ns = recorder.now_ns();

  double self_s = 0.0;
  double tick_self_s = 0.0;
  sim::JobEngine engine(workflow, policy, config, options);
  engine.start();
  while (!engine.done()) {
    const ThreadPolicyTime before = tl_outer;
    const Clock::time_point t0 = Clock::now();
    engine.step();
    const double seconds = seconds_between(t0, Clock::now());
    const double own = seconds - (tl_outer.seconds - before.seconds);
    ++span.events;
    self_s += own;
    if (tl_outer.calls != before.calls) tick_self_s += own;
  }
  sim::RunResult result = engine.result();
  span.end_ns = recorder.now_ns();
  recorder.add_span(span);

  recorder.update([&](LayerTotals& t) {
    t.events += span.events;
    t.sim_self_s += self_s;
    t.tick_self_s += tick_self_s;
    t.control_ticks += result.control_ticks;
    t.task_restarts += result.task_restarts;
    t.task_faults += result.task_faults;
    t.instance_crashes += result.instance_crashes;
    t.quarantined_tasks += result.quarantined_tasks.size();
    t.oom_kills += result.oom_kills;
    t.checkpoints_completed += result.checkpoints_completed;
    t.checkpoints_lost += result.checkpoints_lost;
    t.busy_slot_s += result.busy_slot_seconds;
    t.wasted_slot_s += result.wasted_slot_seconds;
    t.checkpoint_io_slot_s += result.checkpoint_io_slot_seconds;
  });
  return result;
}

}  // namespace wire::suite
