// cote_perf: one run of one benchmark workload.
//
//   cote_perf --workload <name> --seed <n> --seconds <s> --trace <0|1>
//
// Prints notes and every metric by name with its unit, then, as the last
// line, one JSON object: {"correct", "attempted", "failed", "metrics"}.
// With --trace 0 the metrics are the end-to-end ones; with --trace 1 the
// per-layer ones from the traced run. Exits 1 when any correctness check
// failed, 2 on bad arguments.
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>
#include <vector>

#include "workloads.h"

namespace {

void Usage(const char* argv0) {
  std::fprintf(stderr,
               "usage: %s --workload <sparse-dp|warehouse-batch|"
               "service-openloop|dense-parallel> --seed N --seconds S "
               "--trace 0|1\n",
               argv0);
}

std::string JsonEscape(const std::string& s) {
  std::string out;
  for (char c : s) {
    if (c == '"' || c == '\\') out += '\\';
    out += c;
  }
  return out;
}

void PrintMetric(const perfbench::Metric& m) {
  std::printf("%-32s %16.6f %-10s n=%lld%s%s%s\n", m.name.c_str(), m.value,
              m.unit.c_str(), static_cast<long long>(m.samples),
              m.base.empty() ? "" : "  ", m.base.c_str(),
              m.listed ? "" : "  [not in BENCHMARK.json]");
}

}  // namespace

int main(int argc, char** argv) {
  perfbench::RunOptions options;
  bool have_workload = false;
  for (int i = 1; i < argc; ++i) {
    const bool has_value = i + 1 < argc;
    if (std::strcmp(argv[i], "--workload") == 0 && has_value) {
      options.workload = argv[++i];
      have_workload = true;
    } else if (std::strcmp(argv[i], "--seed") == 0 && has_value) {
      options.seed = std::strtoull(argv[++i], nullptr, 10);
    } else if (std::strcmp(argv[i], "--seconds") == 0 && has_value) {
      options.seconds = std::atof(argv[++i]);
    } else if (std::strcmp(argv[i], "--trace") == 0 && has_value) {
      options.trace = std::atoi(argv[++i]) != 0;
    } else {
      Usage(argv[0]);
      return 2;
    }
  }
  if (!have_workload || options.seconds <= 0) {
    Usage(argv[0]);
    return 2;
  }
  perfbench::Report report;
  if (!perfbench::RunWorkload(options, &report)) {
    std::fprintf(stderr, "unknown workload '%s'\n", options.workload.c_str());
    Usage(argv[0]);
    return 2;
  }

  std::printf("workload %s seed %llu seconds %g trace %d\n",
              options.workload.c_str(),
              static_cast<unsigned long long>(options.seed), options.seconds,
              options.trace ? 1 : 0);
  for (const std::string& note : report.notes) std::printf("%s\n", note.c_str());
  for (const std::string& f : report.failures) {
    std::printf("FAILED CHECK: %s\n", f.c_str());
  }
  std::printf("-- end-to-end%s\n", options.trace ? " (traced run: printed, not in the JSON line)" : "");
  for (const perfbench::Metric& m : report.end_to_end) PrintMetric(m);
  if (options.trace) {
    std::printf("-- per-layer\n");
    for (const perfbench::Metric& m : report.per_layer) PrintMetric(m);
  }

  std::vector<perfbench::Metric> json_metrics;
  for (const perfbench::Metric& m : options.trace ? report.per_layer : report.end_to_end) {
    if (m.listed) json_metrics.push_back(m);
  }
  std::string json = "{\"correct\": ";
  json += report.failed == 0 ? "true" : "false";
  json += ", \"attempted\": " + std::to_string(report.attempted);
  json += ", \"failed\": " + std::to_string(report.failed);
  json += ", \"metrics\": {";
  for (size_t i = 0; i < json_metrics.size(); ++i) {
    char value[64];
    std::snprintf(value, sizeof value, "%.17g", json_metrics[i].value);
    if (i > 0) json += ", ";
    json += "\"" + JsonEscape(json_metrics[i].name) + "\": {\"value\": " + value +
            ", \"unit\": \"" + JsonEscape(json_metrics[i].unit) + "\"}";
  }
  json += "}}";
  std::printf("%s\n", json.c_str());
  std::fflush(stdout);
  return report.failed == 0 ? 0 : 1;
}
