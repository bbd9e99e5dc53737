// Shared pieces of the end-to-end benchmark: run arguments, the metric
// sink, the reference-speed kernel and the timed-pass bookkeeping that turns
// raw wall times into times at reference speed (README.md, "Reference
// speed").
#pragma once

#include <chrono>
#include <cstddef>
#include <cstdint>
#include <memory>
#include <string>
#include <vector>

namespace al::driver {
struct ToolOptions;
}

namespace perfbench {

using Clock = std::chrono::steady_clock;

[[nodiscard]] inline double elapsed_ms(Clock::time_point from) {
  return std::chrono::duration<double, std::milli>(Clock::now() - from).count();
}

class RefKernel;

struct Args {
  std::string workload;
  std::uint64_t seed = 1;
  int seconds = 10;
  bool trace = false;
  RefKernel* kernel = nullptr;  ///< the process's reference kernel, warmed up
};

struct Metric {
  std::string name;
  double value = 0.0;
  std::string unit;
};

/// What one benchmark run prints as its last line.
struct RunResult {
  bool correct = true;
  std::string why;  ///< first failed check (stderr only)
  long attempted = 0;
  long failed = 0;
  std::vector<Metric> metrics;

  void add(std::string name, double value, std::string unit) {
    metrics.push_back(Metric{std::move(name), value, std::move(unit)});
  }
  /// Records the first failed check; later ones are dropped.
  void fail_check(const std::string& message) {
    if (correct) why = message;
    correct = false;
  }
};

/// One distinct input program of a workload.
struct BenchProgram {
  std::string name;
  std::string source;
  int procs = 16;
  bool column_expected = false;  ///< Tomcatv/Shallow: the paper's (*, BLOCK)
};

/// A fixed unit of work that calls no library code, timed next to every
/// timed pass: page faults and memory fills, ordered-map churn and dense
/// elimination. Each part is timed on its own and the parts are weighed so
/// the kernel's speed follows the pipeline's as a shared host changes speed
/// (README.md, "Reference speed"). Its memory comes from the OS and a
/// private arena through std::pmr resources, never from the global
/// allocator, so a change to the library's allocation (or a replaced global
/// operator new) cannot change the kernel's speed.
class RefKernel {
public:
  RefKernel();

  /// Runs the kernel once and returns its weighed time in ms: kReferenceMs
  /// times the sum over parts of the part's share times its time over its
  /// time on the reference machine.
  double run_ms();

  /// The kernel's time at reference speed. On the machine the reference
  /// figures were taken on (a 4-vCPU VM, README.md) the parts took
  /// kFaultsMs, kMapMs and kEliminationMs. A pass that took `raw` ms next
  /// to a kernel that took `k` ms took raw * kReferenceMs / k ms at
  /// reference speed.
  static constexpr double kReferenceMs = 6.0;
  static constexpr double kFaultsMs = 4.1;
  static constexpr double kMapMs = 0.9;
  static constexpr double kEliminationMs = 1.9;
  static constexpr double kFaultsShare = 0.6;
  static constexpr double kMapShare = 0.1;
  static constexpr double kEliminationShare = 0.3;

private:
  static constexpr std::size_t kArenaBytes = 4u << 20;
  static constexpr int kEliminations = 12;
  static constexpr int kFaultMegabytes = 7;
  std::unique_ptr<std::byte[]> arena_;
  std::uint64_t sink_ = 0;
};

/// One timed pass over a round of operations. The kernel runs before the
/// first operation, after the last, and between segments of a few
/// operations; each segment's operations are scaled by the mean of the two
/// kernel runs around it. Kernel runs are not part of any timing.
struct Pass {
  double raw_ms = 0.0;             ///< wall time of the operations
  double ref_ms = 0.0;             ///< the same at reference speed
  std::vector<double> op_ms;       ///< each operation's raw latency
  std::vector<double> op_ref_ms;   ///< each operation's latency at reference speed
  std::vector<double> kernel_ms;   ///< every kernel run of the pass
  /// Which distinct program each operation laid out (pipeline workloads,
  /// where every pass runs each program once); empty for the service.
  std::vector<std::size_t> op_program;
};

/// Builds one Pass for a workload that runs its operations one at a time.
/// Set-up is timed the same way, its steps standing in for operations.
class PassTimer {
public:
  /// Samples the kernel every `ops_per_segment` operations.
  PassTimer(RefKernel& kernel, int ops_per_segment);

  /// Times one operation.
  template <class Op>
  void time_op(Op&& op) {
    const Clock::time_point t0 = Clock::now();
    op();
    segment_ops_.push_back(elapsed_ms(t0));
    if (static_cast<int>(segment_ops_.size()) == ops_per_segment_) close_segment();
  }

  /// Closes the last segment and returns the pass.
  Pass finish();

private:
  void close_segment();

  RefKernel& kernel_;
  int ops_per_segment_;
  double segment_start_kernel_ms_;
  std::vector<double> segment_ops_;
  Pass pass_;
};

/// A pass whose operations overlap (the service's pipelined loop): the
/// kernel runs only before and after it, and `raw_ms`/`op_ms` are filled
/// by the caller.
void finish_overlapped_pass(Pass& pass, double kernel_before_ms, double kernel_after_ms);

[[nodiscard]] double quantile(std::vector<double> values, double q);
[[nodiscard]] double median(std::vector<double> values);

/// Peak resident set size of this process so far, in MB.
[[nodiscard]] double peak_rss_mb();
/// Current resident set size, in MB.
[[nodiscard]] double current_rss_mb();

/// The end-to-end metrics every workload reports, from its timed passes and
/// its set-up time at reference speed.
void add_end_to_end(RunResult& out, const std::vector<Pass>& passes, double setup_ms,
                    double layout_sim_ms);

/// Raw throughput and kernel time -- the reference figures behind the
/// normalized ones (per-layer "process" metrics of a traced run).
void add_process_layers(RunResult& out, const std::vector<Pass>& passes,
                        double rss_after_setup_mb);

/// Pipeline options of every timed pipeline run: one estimation thread and
/// the run cache off; the estimator memo stays at its default.
[[nodiscard]] al::driver::ToolOptions pipeline_options(int procs);

// Workload entry points (pipeline.cpp, serve.cpp).
[[nodiscard]] RunResult run_paper99(const Args& args);
[[nodiscard]] RunResult run_gen_scale(const Args& args);
[[nodiscard]] RunResult run_serve_repeat(const Args& args);

} // namespace perfbench
