#include "sim/faults.h"

#include <cinttypes>
#include <cstdio>

#include "util/check.h"

namespace wire::sim {
namespace {

/// Fixed stream index separating the fault RNG from the variability stream
/// (which uses the raw run seed). Any constant works; it just has to differ
/// from every other derive_seed stream used with the run seed.
constexpr std::uint64_t kFaultStream = 0xFA171u;

/// Separate stream for true-peak-memory noise, so memory draws never perturb
/// the fault schedule (crash delays, exec faults, ...) and vice versa.
constexpr std::uint64_t kMemoryStream = 0x3E30A7u;

constexpr std::size_t kFaultKindCount =
    static_cast<std::size_t>(FaultKind::OomKill) + 1;

}  // namespace

const char* fault_kind_name(FaultKind kind) {
  switch (kind) {
    case FaultKind::ProvisionFailure:
      return "provision_failure";
    case FaultKind::StragglerBoot:
      return "straggler_boot";
    case FaultKind::InstanceCrash:
      return "instance_crash";
    case FaultKind::TaskFault:
      return "task_fault";
    case FaultKind::TaskQuarantine:
      return "task_quarantine";
    case FaultKind::MonitorDropout:
      return "monitor_dropout";
    case FaultKind::OomKill:
      return "oom_kill";
  }
  return "unknown";
}

std::string render_fault_trace(const FaultTrace& trace) {
  std::string out = "time,kind,subject,attempt,detail\n";
  char row[160];
  for (const FaultEvent& e : trace) {
    std::snprintf(row, sizeof(row), "%a,%s,%" PRIu32 ",%" PRIu32 ",%a\n",
                  e.time, fault_kind_name(e.kind), e.subject, e.attempt,
                  e.detail);
    out += row;
  }
  return out;
}

FaultModel::FaultModel(const FaultConfig& config, std::uint64_t run_seed,
                       const MemoryConfig& memory)
    : config_(config),
      memory_(memory),
      enabled_(config.enabled()),
      mem_enabled_(memory.enabled()),
      rng_(util::derive_seed(run_seed, kFaultStream)),
      mem_rng_(util::derive_seed(run_seed, kMemoryStream)),
      counts_(kFaultKindCount, 0) {}

BootPlan FaultModel::plan_boot() {
  WIRE_CHECK(enabled_, "fault draw on a disabled FaultModel");
  BootPlan plan;
  // Fixed draw order keeps the stream replayable regardless of which knobs
  // are active.
  plan.failed = rng_.bernoulli(config_.provision_failure_prob);
  if (rng_.bernoulli(config_.straggler_prob)) {
    plan.lag_multiplier = config_.straggler_lag_multiplier;
  }
  return plan;
}

SimTime FaultModel::sample_crash_delay() {
  WIRE_CHECK(enabled_, "fault draw on a disabled FaultModel");
  if (config_.crash_rate_per_hour <= 0.0) return -1.0;
  return rng_.exponential(3600.0 / config_.crash_rate_per_hour);
}

ExecFaultPlan FaultModel::plan_exec() {
  WIRE_CHECK(enabled_, "fault draw on a disabled FaultModel");
  ExecFaultPlan plan;
  plan.fails = rng_.bernoulli(config_.task_failure_prob);
  if (plan.fails) plan.fraction = rng_.uniform(0.0, 1.0);
  return plan;
}

double FaultModel::sample_peak_mem(double ref_peak_mb) {
  WIRE_CHECK(mem_enabled_, "memory draw on a memory-disabled FaultModel");
  if (memory_.noise_sigma <= 0.0) return ref_peak_mb;
  return mem_rng_.lognormal_median(ref_peak_mb, memory_.noise_sigma);
}

bool FaultModel::drop_monitor_tick() {
  WIRE_CHECK(enabled_, "fault draw on a disabled FaultModel");
  return rng_.bernoulli(config_.monitor_dropout_prob);
}

void FaultModel::record(SimTime time, FaultKind kind, std::uint32_t subject,
                        std::uint32_t attempt, double detail) {
  trace_.push_back(FaultEvent{time, kind, subject, attempt, detail});
  ++counts_[static_cast<std::size_t>(kind)];
}

std::uint32_t FaultModel::count(FaultKind kind) const {
  return counts_[static_cast<std::size_t>(kind)];
}

}  // namespace wire::sim
