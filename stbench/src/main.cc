// stbench: the composed soft-timer benchmark.
//
//   stbench --workload <web_mixed|conn_1m|timer_fanout> --seed <n>
//           --seconds <s> --trace <0|1> [--smoke] [--trace-out <path>]
//
// Prints a human-readable summary, one "metric value unit" line per metric,
// and as its last line one JSON object {"correct", "attempted", "failed",
// "metrics"}: the end-to-end metrics with --trace 0, the per-layer metrics
// with --trace 1. Exits 1 when a correctness check fails, 2 on bad usage.

#include <cstdio>
#include <cstdlib>
#include <string>

#include "stbench/src/workloads.h"

namespace stbench {
namespace {

int Usage(const char* why) {
  std::fprintf(stderr,
               "stbench: %s\nusage: stbench --workload "
               "<web_mixed|conn_1m|timer_fanout> --seed <n> --seconds <s> "
               "--trace <0|1> [--smoke] [--trace-out <path>]\n",
               why);
  return 2;
}

void PrintJson(const Report& r, bool trace) {
  const std::vector<Metric>& metrics = trace ? r.per_layer : r.end_to_end;
  std::printf("{\"correct\": %s, \"attempted\": %llu, \"failed\": %llu, "
              "\"metrics\": {",
              r.correct() ? "true" : "false",
              static_cast<unsigned long long>(r.attempted),
              static_cast<unsigned long long>(r.failed));
  for (size_t i = 0; i < metrics.size(); ++i) {
    std::printf("%s\"%s\": {\"value\": %.17g, \"unit\": \"%s\"}",
                i == 0 ? "" : ", ", metrics[i].name.c_str(), metrics[i].value,
                metrics[i].unit.c_str());
  }
  std::printf("}}\n");
}

}  // namespace
}  // namespace stbench

int main(int argc, char** argv) {
  using namespace stbench;
  Options opts;
  bool have_seed = false;
  for (int i = 1; i < argc; ++i) {
    std::string a = argv[i];
    auto value = [&]() -> std::string {
      return i + 1 < argc ? argv[++i] : std::string();
    };
    if (a == "--workload") {
      opts.workload = value();
    } else if (a == "--seed") {
      opts.seed = std::strtoull(value().c_str(), nullptr, 10);
      have_seed = true;
    } else if (a == "--seconds") {
      opts.seconds = std::strtod(value().c_str(), nullptr);
    } else if (a == "--trace") {
      opts.trace = value() == "1";
    } else if (a == "--smoke") {
      opts.smoke = true;
    } else if (a == "--trace-out") {
      opts.trace_out = value();
    } else {
      return Usage(("unknown argument " + a).c_str());
    }
  }
  if (!have_seed) {
    return Usage("--seed is required");
  }
  if (!(opts.seconds > 0.0 && opts.seconds <= 600.0)) {
    return Usage("--seconds must be in (0, 600]");
  }
  Report r;
  if (opts.workload == "web_mixed") {
    r = RunWebMixed(opts);
  } else if (opts.workload == "conn_1m") {
    r = RunConn1m(opts);
  } else if (opts.workload == "timer_fanout") {
    r = RunTimerFanout(opts);
  } else {
    return Usage("unknown --workload");
  }

  std::printf("# %s seed=%llu seconds=%g trace=%d%s\n", opts.workload.c_str(),
              static_cast<unsigned long long>(opts.seed), opts.seconds,
              opts.trace ? 1 : 0, opts.smoke ? " smoke" : "");
  for (const std::string& n : r.notes) {
    std::printf("# %s\n", n.c_str());
  }
  std::printf("# error_rate %.6g (%llu failed of %llu attempted)\n",
              r.attempted ? static_cast<double>(r.failed) /
                                static_cast<double>(r.attempted)
                          : 0.0,
              static_cast<unsigned long long>(r.failed),
              static_cast<unsigned long long>(r.attempted));
  for (const Metric& m : r.end_to_end) {
    std::printf("e2e   %-32s %14.6f %s\n", m.name.c_str(), m.value,
                m.unit.c_str());
  }
  for (const auto* set : {&r.per_layer, &r.summary_only}) {
    for (const Metric& m : *set) {
      std::printf("layer %-32s %14.6f %s\n", m.name.c_str(), m.value,
                  m.unit.c_str());
    }
  }
  for (const std::string& f : r.failures) {
    std::printf("# CHECK FAILED: %s\n", f.c_str());
  }
  PrintJson(r, opts.trace);
  std::fflush(stdout);
  return r.correct() ? 0 : 1;
}
