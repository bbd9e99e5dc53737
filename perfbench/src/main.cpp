// perfbench: runs one named workload for a fixed time, checks every answer,
// and prints one JSON result line last on stdout (README.md).
//
//   perfbench --workload paper99|gen-scale|serve-repeat --seed N
//             --seconds S --trace 0|1
//
// --trace 0 reports the end-to-end metrics; --trace 1 reports the
// per-layer metrics of a separate traced run.
#include <sched.h>

#include <cmath>
#include <cstdio>
#include <exception>
#include <string>

#include "bench.hpp"
#include "support/text.hpp"

namespace {

int usage(const char* argv0) {
  std::fprintf(stderr,
               "usage: %s --workload paper99|gen-scale|serve-repeat --seed N "
               "--seconds S --trace 0|1\n",
               argv0);
  return 2;
}

void print_result(const perfbench::RunResult& r) {
  std::string line = "{\"correct\": ";
  line += r.correct ? "true" : "false";
  line += ", \"attempted\": " + std::to_string(r.attempted);
  line += ", \"failed\": " + std::to_string(r.failed);
  line += ", \"metrics\": {";
  for (std::size_t i = 0; i < r.metrics.size(); ++i) {
    const perfbench::Metric& m = r.metrics[i];
    char value[64];
    std::snprintf(value, sizeof value, "%.17g", std::isfinite(m.value) ? m.value : 0.0);
    if (i > 0) line += ", ";
    line += "\"" + m.name + "\": {\"value\": " + value + ", \"unit\": \"" + m.unit + "\"}";
  }
  line += "}}";
  std::printf("%s\n", line.c_str());
}

} // namespace

int main(int argc, char** argv) {
  perfbench::Args args;
  bool have_workload = false, have_seed = false, have_seconds = false, have_trace = false;
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string flag = argv[i];
    const char* value = argv[i + 1];
    long n = 0;
    if (flag == "--workload") {
      args.workload = value;
      have_workload = true;
    } else if (flag == "--seed" && al::parse_long(value, 0, 1L << 62, n)) {
      args.seed = static_cast<std::uint64_t>(n);
      have_seed = true;
    } else if (flag == "--seconds" && al::parse_long(value, 1, 600, n)) {
      args.seconds = static_cast<int>(n);
      have_seconds = true;
    } else if (flag == "--trace" && al::parse_long(value, 0, 1, n)) {
      args.trace = n == 1;
      have_trace = true;
    } else {
      return usage(argv[0]);
    }
  }
  if (argc % 2 != 1 || !have_workload || !have_seed || !have_seconds || !have_trace)
    return usage(argv[0]);

  // The whole process -- pipeline, daemon threads, client and kernel -- runs
  // on the CPU it started on (README.md, "Reference speed").
  if (const int cpu = ::sched_getcpu(); cpu >= 0) {
    cpu_set_t one;
    CPU_ZERO(&one);
    CPU_SET(cpu, &one);
    if (::sched_setaffinity(0, sizeof one, &one) != 0) std::perror("perfbench: sched_setaffinity");
  }
  perfbench::RefKernel kernel;
  kernel.run_ms();  // the first run only touches the kernel's arena
  args.kernel = &kernel;

  perfbench::RunResult result;
  try {
    if (args.workload == "paper99") {
      result = perfbench::run_paper99(args);
    } else if (args.workload == "gen-scale") {
      result = perfbench::run_gen_scale(args);
    } else if (args.workload == "serve-repeat") {
      result = perfbench::run_serve_repeat(args);
    } else {
      return usage(argv[0]);
    }
  } catch (const std::exception& e) {
    std::fprintf(stderr, "perfbench: %s: %s\n", args.workload.c_str(), e.what());
    return 1;
  }
  if (!result.correct) std::fprintf(stderr, "perfbench: check failed: %s\n", result.why.c_str());
  std::fflush(stderr);
  print_result(result);
  return 0;
}
