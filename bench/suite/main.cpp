// wire_bench: the repository's end-to-end and per-layer benchmark.
//
//   wire_bench --workload NAME [--seed N] [--seconds T] [--trace 0|1]
//              [--smoke] [--check-baseline FILE | --write-baseline FILE]
//
// --trace 0 (default): a closed loop of ops from a single thread. A checked
// pass runs every op once with all outside checks attached; it supplies the
// simulated metrics (exact for a given seed) and the per-op digests, and is
// not timed. Timed passes over the same ops follow until T seconds have
// passed (at least three), each reproducing every digest. An op's host time
// is the fastest of its timed passes; tasks_per_s and the op_ms percentiles
// are taken over those per-op times. setup_s is the median of the set-up
// runs made before each pass.
//
// --trace 1: one pass in which every op runs checked and then through the
// traced path (timing decorators and a hand-stepped engine loop). Reports
// the per-layer metrics and the tracing overhead; every traced op must
// reproduce its untraced digest. Spans are written to
// bench_results/trace_<workload>.json.
//
// Every metric prints as a tab-separated `metric` row (workload, name,
// value, unit, and whether it is a host measurement or an exact,
// machine-independent number). The last line of standard output is one JSON
// object: {"correct", "attempted", "failed", "metrics"}. The exit code is 0
// only when every op passed its checks.
#include <sys/resource.h>
#ifdef __GLIBC__
#include <malloc.h>
#endif

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <limits>
#include <map>
#include <string>
#include <vector>

#include "core/lookahead_cache.h"
#include "probe.h"
#include "util/stats.h"
#include "workloads.h"

namespace {

using namespace wire;
using namespace wire::suite;

struct Metric {
  std::string name;
  double value = 0.0;
  std::string unit;
  /// Machine-independent: must repeat bit-for-bit for a given seed.
  bool exact = false;
};

struct Args {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 20.0;
  bool trace = false;
  bool smoke = false;
  std::string check_baseline;
  std::string write_baseline;
};

/// Passes over the op list in a timed run, at the least. Each op's host time
/// is the fastest of its passes: interference from other processes only ever
/// adds time, so the fastest pass is the least disturbed measurement.
constexpr std::size_t kMinPasses = 3;

std::string format_value(double v) {
  char buf[64];
  std::snprintf(buf, sizeof buf, "%.17g", v);
  return buf;
}

/// State shared by one invocation: counts of ops attempted and failed, the
/// first failure, and the metric rows to print.
struct Run {
  std::string workload;
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  std::string first_error;
  std::vector<Metric> metrics;
  /// sim_digest of the untraced run, trace.sim_digest of the traced one.
  std::map<std::string, std::string> digests;

  void count(const OpResult& r, const char* where) {
    ++attempted;
    if (r.error.empty()) return;
    ++failed;
    if (first_error.empty()) first_error = std::string(where) + ": " + r.error;
  }
  void fail(const std::string& why) {
    ++failed;
    if (first_error.empty()) first_error = why;
  }
  void add(const std::string& name, double value, const char* unit,
           bool exact) {
    metrics.push_back(Metric{name, value, unit, exact});
  }
  /// The machine-independent rows a baseline holds: exact metrics and
  /// digests, by name.
  std::map<std::string, std::string> exact_rows() const {
    std::map<std::string, std::string> rows = digests;
    for (const Metric& m : metrics) {
      if (m.exact) rows[m.name] = format_value(m.value);
    }
    return rows;
  }
};

std::string format_digest(std::uint64_t v) {
  char buf[32];
  std::snprintf(buf, sizeof buf, "%016llx",
                static_cast<unsigned long long>(v));
  return buf;
}

/// Order-sensitive combination of per-op digests (FNV-1a over the digests).
std::uint64_t combine_digests(const std::vector<std::uint64_t>& digests) {
  std::uint64_t h = 14695981039346656037ull;
  for (std::uint64_t d : digests) {
    for (int b = 0; b < 8; ++b) {
      h = (h ^ ((d >> (8 * b)) & 0xffu)) * 1099511628211ull;
    }
  }
  return h;
}

/// Peak resident set of this process image. VmHWM, unlike getrusage's
/// ru_maxrss, restarts at exec, so a launching shell's footprint is not
/// reported as the benchmark's.
double peak_rss_mb() {
  std::ifstream status("/proc/self/status");
  std::string line;
  while (std::getline(status, line)) {
    if (line.rfind("VmHWM:", 0) == 0) {
      return std::strtod(line.c_str() + 6, nullptr) / 1024.0;  // kB
    }
  }
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // KiB
}

double ratio(double num, double den) { return den > 0.0 ? num / den : 0.0; }

/// The untraced run: end-to-end metrics.
void run_untraced(Workload& w, const Args& args, Run& run) {
  // Set-up is timed before every pass, so its median spans the whole run
  // rather than one moment of it. Re-running it rebuilds identical inputs;
  // the per-op digest checks confirm that.
  std::vector<double> setup_s;
  const auto timed_setup = [&] {
    const Clock::time_point t0 = Clock::now();
    w.setup(args.seed, nullptr);
    setup_s.push_back(seconds_between(t0, Clock::now()));
  };
  timed_setup();
  const std::size_t n = w.op_count();

  // The checked pass: every op once with all outside checks attached. It
  // supplies the digests and the simulated metrics, and warms the process
  // up; it is not timed.
  std::vector<std::uint64_t> digests(n, 0);
  std::uint64_t tasks = 0;
  std::uint64_t jobs = 0;
  double response_s = 0.0;
  double cost_units = 0.0;
  double utilization = 0.0;
  for (std::size_t i = 0; i < n; ++i) {
    const OpResult r = w.run(i, OpMode::kChecked);
    run.count(r, ("checked op " + std::to_string(i)).c_str());
    digests[i] = r.digest;
    tasks += r.tasks_completed;
    jobs += r.jobs;
    response_s += r.response_s;
    cost_units += r.cost_units;
    utilization += r.utilization;
  }

  // Timed passes until T seconds have passed.
  std::vector<double> best_ms(n, std::numeric_limits<double>::infinity());
  const std::size_t min_passes = args.seconds > 0.0 ? kMinPasses : 1;
  const Clock::time_point start = Clock::now();
  std::size_t passes = 0;
  for (; passes < min_passes ||
         seconds_between(start, Clock::now()) < args.seconds;
       ++passes) {
    timed_setup();
    for (std::size_t i = 0; i < n; ++i) {
      OpResult r = w.run(i, OpMode::kTimed);
      if (r.error.empty() && r.digest != digests[i]) {
        r.error = "timed run differs from the checked run";
      }
      run.count(r, ("op " + std::to_string(i)).c_str());
      best_ms[i] = std::min(best_ms[i], r.host_s * 1e3);
    }
  }

  double best_s = 0.0;
  for (double ms : best_ms) best_s += ms / 1e3;
  run.add("tasks_per_s", ratio(static_cast<double>(tasks), best_s), "1/s",
          false);
  run.add("op_ms_p50", util::quantile(best_ms, 0.50), "ms", false);
  run.add("op_ms_p75", util::quantile(best_ms, 0.75), "ms", false);
  run.add("op_ms_p95", util::quantile(best_ms, 0.95), "ms", false);
  run.add("setup_s", util::median(setup_s), "s", false);
  run.add("peak_rss_mb", peak_rss_mb(), "MB", false);
  run.add("makespan_s", ratio(response_s, static_cast<double>(jobs)), "s",
          true);
  run.add("cost_units", ratio(cost_units, static_cast<double>(jobs)), "units",
          true);
  run.add("utilization", utilization / static_cast<double>(n), "ratio", true);
  run.digests["sim_digest"] = format_digest(combine_digests(digests));
  std::printf("info\t%s\tops_per_pass\t%zu\n", run.workload.c_str(), n);
  std::printf("info\t%s\ttimed_passes\t%zu\n", run.workload.c_str(), passes);
}

/// The traced run: per-layer metrics.
void run_traced(Workload& w, const Args& args, Run& run) {
  Recorder recorder;
  w.setup(args.seed, &recorder);
  const std::size_t n = w.op_count();
  run.count(w.run(0, OpMode::kChecked), "warm-up op 0");

  // One pass; each op runs checked and then traced, back to back, so both
  // halves of the overhead ratio see the same machine state.
  std::vector<std::uint64_t> digests(n, 0);
  double untraced_s = 0.0;
  double traced_s = 0.0;
  for (std::size_t i = 0; i < n; ++i) {
    const OpResult plain = w.run(i, OpMode::kChecked);
    run.count(plain, ("untraced op " + std::to_string(i)).c_str());
    digests[i] = plain.digest;
    untraced_s += plain.host_s;

    recorder.begin_op(i);
    OpResult traced = w.run(i, OpMode::kTraced, &recorder);
    recorder.end_op();
    if (traced.error.empty() && traced.digest != plain.digest) {
      traced.error = "traced digest differs from the untraced run";
    }
    run.count(traced, ("traced op " + std::to_string(i)).c_str());
    traced_s += traced.host_s;
  }

  const LayerTotals& t = recorder.totals();
  const auto count = [](std::uint64_t v) { return static_cast<double>(v); };
  run.add("workload.make_workflow_s", t.make_workflow_s, "s", false);

  run.add("sim.events", count(t.events), "count", true);
  run.add("sim.self_s", t.sim_self_s, "s", false);
  run.add("sim.ns_per_event", ratio(t.sim_self_s * 1e9, count(t.events)),
          "ns", false);
  run.add("sim.tick_self_s", t.tick_self_s, "s", false);
  run.add("sim.control_ticks", count(t.control_ticks), "count", true);
  run.add("sim.task_restarts", count(t.task_restarts), "count", true);
  run.add("sim.task_faults", count(t.task_faults), "count", true);
  run.add("sim.instance_crashes", count(t.instance_crashes), "count", true);
  run.add("sim.quarantined_tasks", count(t.quarantined_tasks), "count", true);
  run.add("sim.oom_kills", count(t.oom_kills), "count", true);
  run.add("sim.checkpoints_completed", count(t.checkpoints_completed),
          "count", true);
  run.add("sim.checkpoints_lost", count(t.checkpoints_lost), "count", true);
  run.add("sim.useful_slot_ratio",
          ratio(t.busy_slot_s,
                t.busy_slot_s + t.wasted_slot_s + t.checkpoint_io_slot_s),
          "ratio", true);

  const core::LookaheadCacheStats& la = t.lookahead;
  const double ticks = count(la.ticks);
  run.add("core.plan_calls", count(t.core_calls), "count", true);
  run.add("core.plan_s", t.core_s, "s", false);
  run.add("core.plan_us_p50",
          t.core_call_us.empty() ? 0.0 : util::quantile(t.core_call_us, 0.5),
          "us", false);
  run.add("core.plan_us_p99",
          t.core_call_us.empty() ? 0.0 : util::quantile(t.core_call_us, 0.99),
          "us", false);
  run.add("core.analyze_incremental_ratio",
          ratio(count(la.by_path[static_cast<std::size_t>(
                    core::AnalyzePath::kIncremental)]),
                ticks),
          "ratio", true);
  for (core::AnalyzePath path :
       {core::AnalyzePath::kIncremental, core::AnalyzePath::kFirstTick,
        core::AnalyzePath::kNonExactDelta, core::AnalyzePath::kPoolChanged,
        core::AnalyzePath::kRefitDrift, core::AnalyzePath::kMisprediction}) {
    run.add(std::string("core.analyze_path.") + core::analyze_path_label(path),
            count(la.by_path[static_cast<std::size_t>(path)]), "count", true);
  }
  run.add("core.memo_hit_ratio",
          ratio(count(la.memo_hits), count(la.memo_hits + la.memo_misses)),
          "ratio", true);
  run.add("core.stamped_plan_ratio", ratio(count(la.stamped_plan_ticks), ticks),
          "ratio", true);
  run.add("core.state_bytes", count(t.state_bytes_max), "bytes", true);

  run.add("predict.task_revisions", count(t.task_revisions), "count", true);
  run.add("predict.bandit_switches", count(t.bandit_switches), "count", true);
  run.add("predict.mem_refits", count(t.mem_refits), "count", true);

  run.add("policies.plan_calls", count(t.policy_calls), "count", true);
  run.add("policies.plan_s", t.policy_s, "s", false);
  run.add("policies.budget_self_s", t.budget_self_s, "s", false);
  run.add("policies.jobs_at_budget", count(t.jobs_at_budget), "count", true);

  const double jobs = count(t.ensemble_jobs);
  run.add("ensemble.run_s", t.ensemble_run_s, "s", false);
  run.add("ensemble.serial_events", count(t.serial_events), "count", true);
  run.add("ensemble.arbiter_fanin", count(t.arbiter_fanin), "count", true);
  run.add("ensemble.peak_live_tenants", count(t.peak_live_tenants), "count",
          true);
  run.add("ensemble.arbiter_replay_s", t.arbiter_replay_s, "s", false);
  run.add("ensemble.self_s", t.ensemble_self_s, "s", false);
  run.add("ensemble.mean_queue_wait_s", ratio(t.queue_wait_s, jobs), "s",
          true);
  run.add("ensemble.allocation_ratio",
          ratio(t.allocation_ratio, count(t.ensemble_ops)), "ratio", true);
  run.add("ensemble.mean_slowdown", ratio(t.slowdown, jobs), "ratio", true);

  run.add("trace.overhead_ratio", ratio(traced_s, untraced_s) - 1.0, "ratio",
          false);
  run.digests["trace.sim_digest"] = format_digest(combine_digests(digests));

  if (recorder.lost_harvests() > 0) {
    run.fail("policy statistics could not be read");
  }

  std::error_code ignored;  // a failure shows as the write failing below
  std::filesystem::create_directories("bench_results", ignored);
  const std::string path = "bench_results/trace_" + run.workload + ".json";
  if (!recorder.write_chrome_trace(path, run.workload)) {
    run.fail("cannot write " + path);
  }
  std::printf("info\t%s\ttrace_file\t%s\n", run.workload.c_str(),
              path.c_str());
  std::printf("info\t%s\tdropped_spans\t%zu\n", run.workload.c_str(),
              recorder.dropped_spans());
}

// --- Baselines --------------------------------------------------------------
// A baseline file is one flat JSON object, one "workload.field": "value"
// entry per line, holding only machine-independent numbers.

std::map<std::string, std::string> read_baseline(const std::string& path) {
  std::map<std::string, std::string> entries;
  std::ifstream in(path);
  std::string line;
  while (std::getline(in, line)) {
    const std::size_t k0 = line.find('"');
    const std::size_t k1 = line.find('"', k0 + 1);
    const std::size_t v0 = line.find('"', k1 + 1);
    const std::size_t v1 = line.find('"', v0 + 1);
    if (k0 == std::string::npos || k1 == std::string::npos ||
        v0 == std::string::npos || v1 == std::string::npos) {
      continue;
    }
    entries[line.substr(k0 + 1, k1 - k0 - 1)] =
        line.substr(v0 + 1, v1 - v0 - 1);
  }
  return entries;
}

bool write_baseline(const std::string& path,
                    const std::map<std::string, std::string>& entries) {
  std::ofstream out(path);
  out << "{\n";
  std::size_t i = 0;
  for (const auto& [key, value] : entries) {
    out << "  \"" << key << "\": \"" << value << "\""
        << (++i < entries.size() ? "," : "") << "\n";
  }
  out << "}\n";
  return static_cast<bool>(out);
}

/// Diffs this workload's exact rows against the baseline; prints every
/// changed, missing or unexpected field. Returns true when all match.
bool check_baseline(const std::string& path, std::uint64_t seed,
                    const Run& run) {
  const std::map<std::string, std::string> want = read_baseline(path);
  const auto file_seed = want.find("seed");
  if (file_seed == want.end() || file_seed->second != std::to_string(seed)) {
    std::printf("baseline\t%s\tseed\t%s holds no baseline for seed %llu\n",
                run.workload.c_str(), path.c_str(),
                static_cast<unsigned long long>(seed));
    return false;
  }
  const std::map<std::string, std::string> got = run.exact_rows();
  const std::string prefix = run.workload + ".";
  bool ok = true;
  for (const auto& [name, value] : got) {
    const auto it = want.find(prefix + name);
    if (it == want.end()) {
      std::printf("baseline\t%s\t%s\tnot in the baseline\tgot %s\n",
                  run.workload.c_str(), name.c_str(), value.c_str());
      ok = false;
    } else if (it->second != value) {
      std::printf("baseline\t%s\t%s\twant %s\tgot %s\n", run.workload.c_str(),
                  name.c_str(), it->second.c_str(), value.c_str());
      ok = false;
    }
  }
  for (const auto& [key, value] : want) {
    if (key.rfind(prefix, 0) == 0 && got.count(key.substr(prefix.size())) == 0) {
      std::printf("baseline\t%s\t%s\tno longer produced\twant %s\n",
                  run.workload.c_str(), key.substr(prefix.size()).c_str(),
                  value.c_str());
      ok = false;
    }
  }
  return ok;
}

// --- Output -----------------------------------------------------------------

void print_rows(Run& run) {
  for (const Metric& m : run.metrics) {
    if (!std::isfinite(m.value)) run.fail("non-finite metric " + m.name);
    std::printf("metric\t%s\t%s\t%s\t%s\t%s\n", run.workload.c_str(),
                m.name.c_str(), format_value(m.value).c_str(), m.unit.c_str(),
                m.exact ? "exact" : "host");
  }
  for (const auto& [name, value] : run.digests) {
    std::printf("digest\t%s\t%s\t%s\n", run.workload.c_str(), name.c_str(),
                value.c_str());
  }
}

void print_json(const Run& run) {
  std::printf("{\"correct\": %s, \"attempted\": %llu, \"failed\": %llu, "
              "\"metrics\": {",
              run.failed == 0 ? "true" : "false",
              static_cast<unsigned long long>(run.attempted),
              static_cast<unsigned long long>(run.failed));
  for (std::size_t i = 0; i < run.metrics.size(); ++i) {
    const Metric& m = run.metrics[i];
    std::printf("%s\"%s\": {\"value\": %s, \"unit\": \"%s\"}",
                i == 0 ? "" : ", ", m.name.c_str(),
                format_value(std::isfinite(m.value) ? m.value : 0.0).c_str(),
                m.unit.c_str());
  }
  std::printf("}}\n");
}

int usage(const char* why) {
  std::fprintf(stderr,
               "wire_bench: %s\n"
               "usage: wire_bench --workload NAME [--seed N] [--seconds T] "
               "[--trace 0|1] [--smoke]\n"
               "                  [--check-baseline FILE | --write-baseline "
               "FILE]\n"
               "workloads:",
               why);
  for (const std::string& name : workload_names()) {
    std::fprintf(stderr, " %s", name.c_str());
  }
  std::fprintf(stderr, "\n");
  return 2;
}

bool parse_args(int argc, char** argv, Args& args) {
  for (int i = 1; i < argc; ++i) {
    const std::string flag = argv[i];
    if (flag == "--smoke") {
      args.smoke = true;
      continue;
    }
    if (i + 1 >= argc) return false;
    const std::string value = argv[++i];
    char* end = nullptr;
    if (flag == "--workload") {
      args.workload = value;
    } else if (flag == "--seed") {
      args.seed = std::strtoull(value.c_str(), &end, 10);
    } else if (flag == "--seconds") {
      args.seconds = std::strtod(value.c_str(), &end);
    } else if (flag == "--trace") {
      args.trace = value == "1";
      if (value != "0" && value != "1") return false;
    } else if (flag == "--check-baseline") {
      args.check_baseline = value;
    } else if (flag == "--write-baseline") {
      args.write_baseline = value;
    } else {
      return false;
    }
    if (end != nullptr && (*end != '\0' || value.empty())) return false;
  }
  return true;
}

}  // namespace

int main(int argc, char** argv) {
#ifdef __GLIBC__
  // Pin glibc's mmap and trim thresholds near where its dynamic adjustment
  // settles once the largest buffers have been freed. Left dynamic, the
  // adjustment's history, which the seed changes, moved the ~7 MB peak of
  // the single-run workloads by up to 0.7 MB between seeds.
  mallopt(M_MMAP_THRESHOLD, 32 << 20);
  mallopt(M_TRIM_THRESHOLD, 64 << 20);
#endif
  Args args;
  if (!parse_args(argc, argv, args)) return usage("bad arguments");
  std::unique_ptr<Workload> workload = make_workload(args.workload, args.smoke);
  if (workload == nullptr) return usage("unknown or missing --workload");
  const bool baseline_mode =
      !args.check_baseline.empty() || !args.write_baseline.empty();
  if (baseline_mode && args.smoke) {
    return usage("baselines hold full-size runs; drop --smoke");
  }

  Run run;
  run.workload = args.workload;
  if (baseline_mode) {
    // Exact numbers only, so the untraced run makes a single timed pass.
    Args single = args;
    single.seconds = 0.0;
    run_untraced(*workload, single, run);
    run_traced(*workload, single, run);
    if (run.digests.at("sim_digest") != run.digests.at("trace.sim_digest")) {
      run.fail("traced sim_digest differs from the untraced one");
    }
  } else if (args.trace) {
    run_traced(*workload, args, run);
  } else {
    run_untraced(*workload, args, run);
  }
  print_rows(run);

  bool ok = run.failed == 0;
  if (!args.check_baseline.empty()) {
    ok = check_baseline(args.check_baseline, args.seed, run) && ok;
  }
  if (!args.write_baseline.empty()) {
    std::map<std::string, std::string> entries =
        read_baseline(args.write_baseline);
    const std::string prefix = run.workload + ".";
    for (auto it = entries.begin(); it != entries.end();) {
      it = it->first.rfind(prefix, 0) == 0 ? entries.erase(it) : std::next(it);
    }
    for (const auto& [name, value] : run.exact_rows()) {
      entries[prefix + name] = value;
    }
    entries["seed"] = std::to_string(args.seed);
    if (!write_baseline(args.write_baseline, entries)) {
      run.fail("cannot write " + args.write_baseline);
      ok = false;
    }
  }
  if (!run.first_error.empty()) {
    std::fprintf(stderr, "wire_bench: %s: %s\n", run.workload.c_str(),
                 run.first_error.c_str());
  }
  print_json(run);
  return ok ? 0 : 1;
}
