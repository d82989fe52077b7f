// ThetaNet pipeline benchmark: one workload per invocation.
//
//   pipebench --workload build-1e5|route-loaded|route-mac --seed N
//             --seconds S --trace 0|1 [--trace-out FILE]
//
// Prints a line with the host fingerprint and the planned-transmission
// checksums, then as its last stdout line one JSON object
// {"correct", "attempted", "failed", "metrics"}: the end-to-end metrics with
// --trace 0, the per-layer metrics with --trace 1 (whose spans go to
// --trace-out when given). Exits 1 when a correctness check fails, 2 on a
// usage error.

#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <string>
#include <string_view>

#include "pipeline.h"

namespace {

int usage(const char* why) {
  std::fprintf(stderr,
               "pipebench: %s\nusage: pipebench --workload NAME --seed N "
               "--seconds S --trace 0|1 [--trace-out FILE]\n",
               why);
  return 2;
}

}  // namespace

int main(int argc, char** argv) {
  std::string workload;
  std::string trace_out;
  long long seed = -1;
  double seconds = -1.0;
  int trace = -1;
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string_view key = argv[i];
    const char* val = argv[i + 1];
    char* end = nullptr;
    if (key == "--workload") {
      workload = val;
    } else if (key == "--seed") {
      seed = std::strtoll(val, &end, 10);
      if (*end != '\0' || seed < 0) return usage("bad --seed");
    } else if (key == "--seconds") {
      seconds = std::strtod(val, &end);
      if (*end != '\0' || !(seconds > 0.0)) return usage("bad --seconds");
    } else if (key == "--trace") {
      trace = std::string_view(val) == "1" ? 1
              : std::string_view(val) == "0" ? 0
                                             : -1;
      if (trace < 0) return usage("bad --trace");
    } else if (key == "--trace-out") {
      trace_out = val;
    } else {
      return usage("unknown argument");
    }
  }
  if (argc % 2 != 1) return usage("arguments come in pairs");
  const pipebench::Workload* w = pipebench::find_workload(workload);
  if (w == nullptr) return usage("unknown --workload");
  if (seed < 0 || seconds < 0.0 || trace < 0)
    return usage("--seed, --seconds and --trace are required");

  pipebench::RunResult r = pipebench::run_workload(
      *w, static_cast<std::uint64_t>(seed), seconds, trace == 1);
  std::string sums;
  for (const std::uint64_t c : r.plan_checksums) {
    char buf[24];
    std::snprintf(buf, sizeof buf, "%s\"%016llx\"", sums.empty() ? "" : ",",
                  static_cast<unsigned long long>(c));
    sums += buf;
  }
  std::printf("{\"workload\":\"%s\",\"seed\":%lld,\"host\":%s,"
              "\"plan_checksums\":[%s]}\n",
              w->name, seed, pipebench::host_fingerprint_json().c_str(),
              sums.c_str());
  if (trace == 1 && !trace_out.empty()) {
    std::ofstream out(trace_out);
    out << r.trace_json;
    if (!out) r.problems.push_back("cannot write " + trace_out);
  }
  std::string metrics;
  for (const pipebench::Metric& m : r.metrics) {
    double v = m.value;
    if (!std::isfinite(v)) {
      r.problems.push_back("metric " + m.name + " is not finite");
      r.correct = false;
      v = 0.0;
    }
    char buf[256];
    std::snprintf(buf, sizeof buf, "%s\"%s\": {\"value\": %.17g, \"unit\": \"%s\"}",
                  metrics.empty() ? "" : ", ", m.name.c_str(), v, m.unit);
    metrics += buf;
  }
  for (const std::string& p : r.problems)
    std::fprintf(stderr, "pipebench: check failed: %s\n", p.c_str());
  std::printf("{\"correct\": %s, \"attempted\": %llu, \"failed\": %llu, "
              "\"metrics\": {%s}}\n",
              r.correct ? "true" : "false",
              static_cast<unsigned long long>(r.attempted),
              static_cast<unsigned long long>(r.failed), metrics.c_str());
  return r.correct ? 0 : 1;
}
