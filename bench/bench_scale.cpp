// Ensemble scale trajectory: the multi-tenant driver's event-at-a-time
// reference mode (shards == 0) vs its windowed engine, swept over tenant
// count on one site.
//
// Each cell runs the identical job stream (same arrivals, same seeds, same
// arbitration) on one driver loop and records the wall-clock of the whole
// run plus the site-sample count. The windowed engine's contract is that
// the EnsembleReport is byte-identical to the shards == 0 reference, so the
// sweep doubles as a large-scale differential check: any windowed cell
// whose report diverges from its reference fails the bench.
//
// Every cell also counts its resident tenants — policies alive at once,
// through a counting policy factory. The driver builds a tenant at admission
// and frees it at retirement, so the count follows the tenants holding a
// share, not the stream length.
//
// `--smoke` runs one reduced tenant-count column as the CI tripwire:
// asserts byte-identical reports and a resident-tenant peak of at most
// site_cap + 1 (a deterministic count, so it holds on any host), and emits
// the JSON series. Exits nonzero on violation.
//
// Both modes emit machine-readable BENCH_scale.json (the recorded scale
// trajectory) in bench_results/, in the same perf-trajectory idiom as
// BENCH_memory.json.
#include <algorithm>
#include <chrono>
#include <cstdio>
#include <cstring>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "bench_common.h"
#include "ensemble/arbiter.h"
#include "ensemble/arrival.h"
#include "ensemble/driver.h"
#include "ensemble/report.h"
#include "exp/settings.h"
#include "sim/config.h"
#include "sim/scaling_policy.h"
#include "workload/profiles.h"

namespace {

using namespace wire;

constexpr std::uint64_t kSeedRoot = 4111;

/// Deterministic quiet site (no stochastic variability) so every cell of the
/// sweep simulates the identical event sequence and wall-clock differences
/// measure the driver loop, nothing else.
sim::CloudConfig scale_site() {
  sim::CloudConfig config;
  config.lag_seconds = 180.0;
  config.charging_unit_seconds = 900.0;
  config.slots_per_instance = 4;
  config.variability.instance_speed_sigma = 0.0;
  config.variability.interference_sigma = 0.0;
  config.variability.transfer_noise_sigma = 0.0;
  config.variability.transfer_latency_seconds = 0.0;
  config.variability.bandwidth_mb_per_s = 1e12;
  return config;
}

/// A dense arrival front: `jobs` tenants land 50 ms apart, so the whole
/// stream arrives well inside the 180 s provisioning lag — before the first
/// tenant can possibly finish. The live tenant population (and with it the
/// arbitration fan-in per serial event) therefore reaches the full stream.
ensemble::ArrivalProcess dense_stream(std::uint32_t jobs) {
  std::vector<ensemble::JobArrival> trace(jobs);
  for (std::uint32_t i = 0; i < jobs; ++i) {
    trace[i].arrival_seconds = 0.05 * i;
    trace[i].profile_index = i % 2;
  }
  return ensemble::ArrivalProcess::fixed_trace(std::move(trace), kSeedRoot);
}

/// Resident-tenant census: policies of one factory alive now, and at most.
struct Residency {
  std::uint32_t live = 0;
  std::uint32_t peak = 0;
};

/// Forwards to the wrapped policy; counted in a Residency while it lives.
class CountedPolicy : public sim::ScalingPolicy {
 public:
  CountedPolicy(std::unique_ptr<sim::ScalingPolicy> inner, Residency* census)
      : inner_(std::move(inner)), census_(census) {
    census_->peak = std::max(census_->peak, ++census_->live);
  }
  ~CountedPolicy() override { --census_->live; }

  std::string name() const override { return inner_->name(); }
  void on_run_start(const dag::Workflow& workflow,
                    const sim::CloudConfig& config) override {
    inner_->on_run_start(workflow, config);
  }
  sim::PoolCommand plan(const sim::MonitorSnapshot& snapshot) override {
    return inner_->plan(snapshot);
  }

 private:
  std::unique_ptr<sim::ScalingPolicy> inner_;
  Residency* census_;
};

enum class Engine { Reference, Windowed };

const char* engine_name(Engine engine) {
  return engine == Engine::Reference ? "reference" : "windowed";
}

struct CellResult {
  std::uint32_t tenants = 0;
  Engine engine = Engine::Reference;
  double wall_ms = 0.0;
  /// Site-listener samples (site events in the windowed engine; every event
  /// in the reference mode — the cadences differ by design, so latency is
  /// compared through wall_ms, not per-sample time).
  std::uint64_t samples = 0;
  /// Largest concurrently live tenant population seen at any sample — the
  /// arbitration fan-in the cell actually sustained.
  std::uint32_t peak_live_tenants = 0;
  /// Most tenants holding a built policy (and engine) at once.
  std::uint32_t peak_resident_tenants = 0;
  std::uint32_t site_cap = 0;
  double speedup_vs_reference = 0.0;
  ensemble::EnsembleReport report;
};

CellResult run_cell(std::uint32_t tenants, Engine engine) {
  ensemble::EnsembleOptions options;
  options.strategy = ensemble::ArbiterStrategy::DemandWeighted;
  // A quarter of the stream can hold instances at once: enough contention
  // that tenants queue at zero share (the population climbs), enough
  // capacity that the stream drains in bounded sim time.
  options.site_cap = std::max(8u, tenants / 4);
  options.dedicated_baseline = false;
  options.shards = engine == Engine::Reference ? 0 : 1;
  CellResult result;
  result.tenants = tenants;
  result.engine = engine;
  result.site_cap = options.site_cap;
  Residency residency;
  ensemble::EnsembleDriver driver(
      {workload::tpch6_profile(workload::Scale::Small),
       workload::pagerank_profile(workload::Scale::Small)},
      dense_stream(tenants),
      [inner = exp::sharded_policy_factory(exp::PolicyKind::PureReactive),
       &residency](std::uint32_t shard) {
        return std::make_unique<CountedPolicy>(inner(shard), &residency);
      },
      scale_site(), options);
  driver.set_site_listener([&result](const ensemble::SiteSample& sample) {
    ++result.samples;
    result.peak_live_tenants =
        std::max(result.peak_live_tenants,
                 static_cast<std::uint32_t>(sample.jobs.size()));
  });
  const auto start = std::chrono::steady_clock::now();
  result.report = driver.run();
  result.wall_ms = std::chrono::duration<double, std::milli>(
                       std::chrono::steady_clock::now() - start)
                       .count();
  result.peak_resident_tenants = residency.peak;
  return result;
}

/// The cells of the recorded scale trajectory BENCH_scale.json, which CI
/// archives and diffs across commits.
std::vector<bench::JsonFields> json_cells(
    const std::vector<CellResult>& cells) {
  std::vector<bench::JsonFields> json;
  for (const CellResult& c : cells) {
    json.push_back({{"tenants", c.tenants},
                    {"engine", engine_name(c.engine)},
                    {"wall_ms", c.wall_ms},
                    {"samples", c.samples},
                    {"peak_live_tenants", c.peak_live_tenants},
                    {"peak_resident_tenants", c.peak_resident_tenants},
                    {"site_cap", c.site_cap},
                    {"speedup_vs_reference", c.speedup_vs_reference},
                    {"horizon_s", c.report.horizon_seconds},
                    {"site_utilization", c.report.site_utilization}});
  }
  return json;
}

/// Runs one tenant-count column: the reference loop, then the windowed
/// engine, differentially checked against it. Returns nonzero if the
/// reports diverged.
int run_column(std::uint32_t tenants, std::vector<CellResult>* cells) {
  CellResult reference = run_cell(tenants, Engine::Reference);
  CellResult windowed = run_cell(tenants, Engine::Windowed);
  const bool identical = windowed.report == reference.report &&
                         windowed.report.render() == reference.report.render();
  windowed.speedup_vs_reference =
      windowed.wall_ms > 0.0 ? reference.wall_ms / windowed.wall_ms : 0.0;
  for (const CellResult* c : {&reference, &windowed}) {
    std::printf(
        "  tenants=%-5u engine=%-9s wall=%9.1f ms  samples=%llu  "
        "peak-live=%u  peak-resident=%u\n",
        tenants, engine_name(c->engine), c->wall_ms,
        static_cast<unsigned long long>(c->samples), c->peak_live_tenants,
        c->peak_resident_tenants);
  }
  std::printf("  speedup=%.2fx%s\n", windowed.speedup_vs_reference,
              identical ? "" : "  REPORT-DIVERGENCE");
  if (!identical) {
    std::printf(
        "    FAIL: the windowed report differs from the sequential "
        "reference\n");
  }
  cells->push_back(std::move(windowed));
  cells->push_back(std::move(reference));
  return identical ? 0 : 1;
}

int run_smoke() {
  std::printf("bench_scale --smoke: windowed-engine tripwire (seed root %llu)\n",
              static_cast<unsigned long long>(kSeedRoot));
  std::vector<CellResult> cells;
  int rc = run_column(192, &cells);
  // Waiting tenants hold no policy and retired ones are freed, so residency
  // follows the tenants holding a share, not the 192 arrivals (the same
  // site_cap + 1 bound test_ensemble holds the driver to).
  for (const CellResult& c : cells) {
    if (c.peak_resident_tenants > c.site_cap + 1) {
      std::printf("    FAIL: %s loop held %u resident tenants on a %u-instance "
                  "site\n",
                  engine_name(c.engine), c.peak_resident_tenants, c.site_cap);
      rc = 1;
    }
  }
  bench::write_study_json("scale", /*smoke=*/true, {{"seed_root", kSeedRoot}},
                          json_cells(cells), "scale trajectory");
  if (rc != 0) std::printf("bench_scale --smoke FAILED\n");
  return rc;
}

}  // namespace

int main(int argc, char** argv) {
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--smoke") == 0) return run_smoke();
  }

  std::printf(
      "Ensemble scale sweep: tenant count x driver loop (seed root %llu)\n\n",
      static_cast<unsigned long long>(kSeedRoot));
  int rc = 0;
  std::vector<CellResult> cells;
  for (std::uint32_t tenants : {256u, 1024u}) {
    rc |= run_column(tenants, &cells);
    std::printf("\n");
  }
  // The headline claim of the sweep: the big column really sustains a
  // four-digit arbitration fan-in (>= 1000 live tenants at one site event).
  std::uint32_t peak = 0;
  for (const CellResult& c : cells) {
    if (c.tenants >= 1024) peak = std::max(peak, c.peak_live_tenants);
  }
  if (peak < 1000) {
    std::printf("FAIL: peak live tenants %u < 1000 — the scale claim does "
                "not hold\n",
                peak);
    rc = 1;
  }
  bench::write_study_json("scale", /*smoke=*/false, {{"seed_root", kSeedRoot}},
                          json_cells(cells), "scale trajectory");
  return rc;
}
