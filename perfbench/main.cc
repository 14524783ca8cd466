// Benchmark entry point: runs one workload and prints its result as the last
// line of standard output, a JSON object with the keys correct, attempted,
// failed and metrics. Untraced runs report the end-to-end metrics, traced
// runs (--trace 1) the per-layer metrics.
//
//   colt_perfbench --workload tune_shifting|serve_read|htap_mixed
//                  --seed N --seconds S --trace 0|1
#include <sys/resource.h>

#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <string>

#include "bench.h"
#include "checks.h"

namespace perfbench {
namespace {

struct MetricDef {
  const char* name;
  const char* unit;
};

// Must list the same names and units as BENCHMARK.json (run.py checks).
constexpr MetricDef kEndToEnd[] = {
    {"setup_s", "s"},
    {"stmts_per_s", "stmt/s"},
    {"stmt_p50_us", "us"},
    {"stmt_p99_us", "us"},
    {"model_s_per_stmt", "model-s/stmt"},
    {"peak_rss_mib", "MiB"},
};

// A workload reports 0 for a layer it does not run (README.md lists which
// metric applies to which workload).
constexpr MetricDef kPerLayer[] = {
    {"storage.materialize_s", "s"},
    {"query.trace_gen_s", "s"},
    {"query.parse_us", "us"},
    {"optimizer.plan_us", "us"},
    {"exec.execute_us_p50", "us"},
    {"exec.execute_us_p99", "us"},
    {"exec.tuples_per_read", "tuple/stmt"},
    {"exec.tuples_per_s", "tuple/s"},
    {"exec.heap_pages_per_read", "page/stmt"},
    {"index.pages_per_read", "page/stmt"},
    {"index.built_count_end", "count"},
    {"index.entries_end", "count"},
    {"storage.live_rows_end", "count"},
    {"core.on_query_us_p50", "us"},
    {"core.on_query_us_p99", "us"},
    {"core.epoch_end_us", "us"},
    {"core.epoch_end_share", "ratio"},
    {"core.read_on_query_us", "us"},
    {"core.write_on_query_us", "us"},
    {"core.build_on_query_us", "us"},
    {"core.whatif_calls_per_kstmt", "count/kstmt"},
    {"core.index_builds", "count/kstmt"},
    {"core.index_drops", "count/kstmt"},
    {"core.model_exec_s", "model-s/stmt"},
    {"core.model_profile_s", "model-s/stmt"},
    {"core.model_build_s", "model-s/stmt"},
    {"core.model_maintenance_s", "model-s/stmt"},
    {"serve.epoch_ms_p50", "ms"},
    {"serve.epoch_ms_p99", "ms"},
    {"serve.barrier_wait_ms", "ms"},
    {"serve.client_busy_share", "ratio"},
};

int Usage(const char* why) {
  std::fprintf(stderr,
               "colt_perfbench: %s\nusage: colt_perfbench --workload "
               "tune_shifting|serve_read|htap_mixed --seed N --seconds S "
               "--trace 0|1\n",
               why);
  return 2;
}

double PeakRssMib() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // ru_maxrss is KiB
}

std::string JsonString(const std::string& s) {
  std::string out = "\"";
  for (char c : s) {
    if (c == '"' || c == '\\') out += '\\';
    out += c;
  }
  return out + "\"";
}

}  // namespace

}  // namespace perfbench

int main(int argc, char** argv) {
  using namespace perfbench;
  const int64_t process_start_ns = NowNs();
  Options options;
  bool have_workload = false, have_seed = false, have_seconds = false,
       have_trace = false;
  for (int i = 1; i < argc; ++i) {
    const std::string flag = argv[i];
    if (i + 1 >= argc) return Usage(("missing value for " + flag).c_str());
    const std::string value = argv[++i];
    char* end = nullptr;
    if (flag == "--workload") {
      options.workload = value;
      have_workload = true;
    } else if (flag == "--seed") {
      options.seed = std::strtoull(value.c_str(), &end, 10);
      have_seed = *end == '\0' && !value.empty();
    } else if (flag == "--seconds") {
      options.seconds = std::strtod(value.c_str(), &end);
      have_seconds = *end == '\0' && options.seconds > 0 &&
                     options.seconds <= 600;
    } else if (flag == "--trace") {
      options.trace = value == "1";
      have_trace = value == "0" || value == "1";
    } else {
      return Usage(("unknown flag " + flag).c_str());
    }
  }
  if (!have_workload || !have_seed || !have_seconds || !have_trace) {
    return Usage("--workload, --seed, --seconds and --trace are required");
  }
  if (options.trace) {
    std::error_code ec;
    std::filesystem::create_directories(kSpanDir, ec);
    if (ec) return Usage((std::string("cannot create ") + kSpanDir).c_str());
  }

  RunResult res;
  if (options.workload == "tune_shifting") {
    res = RunTuneShifting(options, process_start_ns);
  } else if (options.workload == "serve_read") {
    res = RunServeRead(options, process_start_ns);
  } else if (options.workload == "htap_mixed") {
    res = RunHtapMixed(options, process_start_ns);
  } else {
    return Usage(("unknown workload " + options.workload).c_str());
  }
  res.end_to_end["peak_rss_mib"] = PeakRssMib();
  for (const std::string& err : SelfTest()) res.Fail("self-test: " + err);
  if (res.attempted < 1) res.Fail("no statement was attempted");

  std::string metrics;
  auto emit = [&metrics, &res](const MetricDef& def,
                               const std::map<std::string, double>& values,
                               bool required) {
    const auto it = values.find(def.name);
    double v = it == values.end() ? 0.0 : it->second;
    if ((required && it == values.end()) || !std::isfinite(v)) {
      res.Fail(std::string("metric ") + def.name + " was not measured");
      v = 0.0;
    }
    char buf[64];
    std::snprintf(buf, sizeof(buf), "%.17g", v);
    if (!metrics.empty()) metrics += ", ";
    metrics += JsonString(def.name) + ": {\"value\": " + buf +
               ", \"unit\": " + JsonString(def.unit) + "}";
  };
  if (options.trace) {
    for (const MetricDef& def : kPerLayer) emit(def, res.per_layer, false);
  } else {
    for (const MetricDef& def : kEndToEnd) emit(def, res.end_to_end, true);
  }
  for (const std::string& err : res.errors) {
    std::fprintf(stderr, "check failed: %s\n", err.c_str());
  }
  std::printf("{\"correct\": %s, \"attempted\": %lld, \"failed\": %lld, "
              "\"metrics\": {%s}}\n",
              res.correct ? "true" : "false",
              static_cast<long long>(res.attempted),
              static_cast<long long>(res.failed), metrics.c_str());
  return 0;
}
