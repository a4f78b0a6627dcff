// Shared helpers for the bench harnesses: output directory handling, the
// idealized §III-E/§IV-A cloud (1 slot per instance, no variability, control
// lag small relative to task length and charging unit), the bitwise run
// comparison behind the off-switch identity checks, and the one writer
// behind every study bench's BENCH_<name>.json.
#pragma once

#include <algorithm>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <string>
#include <utility>
#include <vector>

#include "sim/config.h"
#include "sim/driver.h"

namespace wire::bench {

/// Directory where benches drop their CSV series (created on demand).
inline std::string results_dir() {
  const std::filesystem::path dir = "bench_results";
  std::filesystem::create_directories(dir);
  return dir.string();
}

/// The idealized linear-workflow cloud of §III-E / §IV-A: one slot per
/// instance, deterministic execution, no transfer costs, unlimited site, and
/// a control lag of min(R, U)/20 to approximate continuous monitoring.
inline sim::CloudConfig idealized_cloud(double task_seconds,
                                        double charging_unit) {
  sim::CloudConfig config;
  config.lag_seconds = std::min(task_seconds, charging_unit) / 20.0;
  config.charging_unit_seconds = charging_unit;
  config.slots_per_instance = 1;
  config.max_instances = 0;  // unlimited
  config.variability.instance_speed_sigma = 0.0;
  config.variability.interference_sigma = 0.0;
  config.variability.transfer_noise_sigma = 0.0;
  config.variability.transfer_latency_seconds = 0.0;
  config.variability.bandwidth_mb_per_s = 1e12;
  return config;
}

/// Bitwise run equality over every outcome field a passthrough wrapper (a
/// zero budget, a selector with no arms) could perturb.
inline bool same_run(const sim::RunResult& a, const sim::RunResult& b) {
  if (a.makespan != b.makespan || a.cost_units != b.cost_units ||
      a.ready_instance_seconds != b.ready_instance_seconds ||
      a.busy_slot_seconds != b.busy_slot_seconds ||
      a.wasted_slot_seconds != b.wasted_slot_seconds ||
      a.utilization != b.utilization || a.peak_instances != b.peak_instances ||
      a.task_restarts != b.task_restarts ||
      a.control_ticks != b.control_ticks ||
      a.task_records.size() != b.task_records.size()) {
    return false;
  }
  for (std::size_t i = 0; i < a.task_records.size(); ++i) {
    if (a.task_records[i].completed_at != b.task_records[i].completed_at ||
        a.task_records[i].exec_time != b.task_records[i].exec_time ||
        a.task_records[i].instance != b.task_records[i].instance) {
      return false;
    }
  }
  return true;
}

class JsonValue;
/// An ordered (key, value) list: a study header or one cell.
using JsonFields = std::vector<std::pair<std::string, JsonValue>>;

/// One value of a study record, formatted at construction: strings quoted,
/// doubles as %.17g (round-trips exactly), unsigned integers in decimal,
/// and a field list as a one-line object. Signed
/// integers have no overload, so a bare literal must name its type.
class JsonValue {
 public:
  JsonValue(const char* s) : text_('"' + std::string(s) + '"') {}
  JsonValue(const std::string& s) : text_('"' + s + '"') {}
  JsonValue(double v) : text_(format("%.17g", v)) {}
  JsonValue(std::uint32_t v) : text_(format("%u", v)) {}
  JsonValue(std::uint64_t v)
      : text_(format("%llu", static_cast<unsigned long long>(v))) {}
  JsonValue(const JsonFields& object);

  const std::string& text() const { return text_; }

 private:
  template <typename T>
  static std::string format(const char* spec, T v) {
    char buf[32];
    std::snprintf(buf, sizeof(buf), spec, v);
    return buf;
  }

  std::string text_;
};

inline JsonValue::JsonValue(const JsonFields& object) : text_("{") {
  for (std::size_t i = 0; i < object.size(); ++i) {
    if (i > 0) text_ += ", ";
    text_ += '"' + object[i].first + "\": " + object[i].second.text();
  }
  text_ += '}';
}

/// Writes bench_results/BENCH_<bench>.json, the envelope every study bench
/// shares: bench, schema, mode, then `header` in order, then one `cells`
/// object per line. Prints "(<what> written to <path>)" on success; a file
/// that cannot be written ends the bench with exit code 1, since CI reads
/// the file as the bench's output.
inline void write_study_json(const std::string& bench, bool smoke,
                             const JsonFields& header,
                             const std::vector<JsonFields>& cells,
                             const char* what) {
  const std::string path = results_dir() + "/BENCH_" + bench + ".json";
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) {
    std::fprintf(stderr, "error: cannot write %s\n", path.c_str());
    std::exit(1);
  }
  std::fprintf(f, "{\n  \"bench\": \"%s\",\n  \"schema\": 1,\n",
               bench.c_str());
  std::fprintf(f, "  \"mode\": \"%s\",\n", smoke ? "smoke" : "full");
  for (const auto& [key, value] : header) {
    std::fprintf(f, "  \"%s\": %s,\n", key.c_str(), value.text().c_str());
  }
  std::fprintf(f, "  \"cells\": [\n");
  for (std::size_t i = 0; i < cells.size(); ++i) {
    std::fprintf(f, "    %s%s\n", JsonValue(cells[i]).text().c_str(),
                 i + 1 < cells.size() ? "," : "");
  }
  std::fprintf(f, "  ]\n}\n");
  const bool failed = std::ferror(f) != 0;
  if (std::fclose(f) != 0 || failed) {
    std::fprintf(stderr, "error: cannot write %s\n", path.c_str());
    std::exit(1);
  }
  std::printf("(%s written to %s)\n", what, path.c_str());
}

}  // namespace wire::bench
