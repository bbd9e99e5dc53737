#include <sys/mman.h>
#include <sys/resource.h>
#include <unistd.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstring>
#include <map>
#include <memory_resource>
#include <stdexcept>
#include <vector>

#include "bench.hpp"
#include "driver/tool.hpp"

namespace perfbench {

namespace {

std::uint64_t splitmix(std::uint64_t& state) {
  std::uint64_t z = (state += 0x9E3779B97F4A7C15ULL);
  z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9ULL;
  z = (z ^ (z >> 27)) * 0x94D049BB133111EBULL;
  return z ^ (z >> 31);
}

} // namespace

RefKernel::RefKernel() : arena_(std::make_unique<std::byte[]>(kArenaBytes)) {}

double RefKernel::run_ms() {
  Clock::time_point t0 = Clock::now();
  std::uint64_t rng = 0x5EEDULL;
  std::uint64_t check = 0;

  // Page faults and memory bandwidth: map fresh pages from the OS, fill
  // them, unmap them.
  for (int i = 0; i < kFaultMegabytes; ++i) {
    constexpr std::size_t kBytes = 1u << 20;
    void* p = ::mmap(nullptr, kBytes, PROT_READ | PROT_WRITE, MAP_PRIVATE | MAP_ANONYMOUS, -1, 0);
    if (p == MAP_FAILED) throw std::runtime_error("reference kernel: mmap failed");
    std::memset(p, i + 1, kBytes);
    check += static_cast<unsigned char*>(p)[splitmix(rng) % kBytes];
    ::munmap(p, kBytes);
  }
  const double faults_ms = elapsed_ms(t0);
  t0 = Clock::now();

  // Everything below allocates from `pool` out of the private arena;
  // exhausting the arena throws (null upstream) rather than falling back to
  // the global heap.
  std::pmr::monotonic_buffer_resource arena(arena_.get(), kArenaBytes,
                                            std::pmr::null_memory_resource());
  std::pmr::unsynchronized_pool_resource pool(&arena);

  // Ordered-map churn: node allocation, pointer chasing.
  std::pmr::map<std::uint32_t, std::pmr::vector<double>> table(&pool);
  for (int round = 0; round < 2; ++round) {
    for (int i = 0; i < 1500; ++i) {
      const auto key = static_cast<std::uint32_t>(splitmix(rng) % 4096);
      table[key].push_back(static_cast<double>(key) * 0.5);
    }
    for (auto it = table.begin(); it != table.end();) {
      if ((it->first + static_cast<std::uint32_t>(round)) % 3 == 0) {
        it = table.erase(it);
      } else {
        check += it->second.size();
        ++it;
      }
    }
  }

  const double map_ms = elapsed_ms(t0);
  t0 = Clock::now();

  // Dense Gaussian elimination with partial pivoting: the
  // floating-point work of the simplex.
  constexpr int n = 72;
  std::pmr::vector<double> a(static_cast<std::size_t>(n * n), &pool);
  for (int rep = 0; rep < kEliminations; ++rep) {
    for (double& x : a) x = static_cast<double>(splitmix(rng) >> 11) * 0x1.0p-53 - 0.5;
    for (int k = 0; k < n; ++k) {
      int piv = k;
      for (int i = k + 1; i < n; ++i)
        if (std::fabs(a[static_cast<std::size_t>(i * n + k)]) >
            std::fabs(a[static_cast<std::size_t>(piv * n + k)]))
          piv = i;
      for (int j = 0; j < n; ++j)
        std::swap(a[static_cast<std::size_t>(k * n + j)],
                  a[static_cast<std::size_t>(piv * n + j)]);
      const double d = a[static_cast<std::size_t>(k * n + k)];
      for (int i = k + 1; i < n; ++i) {
        const double f = a[static_cast<std::size_t>(i * n + k)] / d;
        for (int j = k; j < n; ++j)
          a[static_cast<std::size_t>(i * n + j)] -= f * a[static_cast<std::size_t>(k * n + j)];
      }
    }
    check += static_cast<std::uint64_t>(std::fabs(a[static_cast<std::size_t>(n * n - 1)]) * 1e3);
  }

  const double elimination_ms = elapsed_ms(t0);

  sink_ += check;
  return kReferenceMs * (kFaultsShare * faults_ms / kFaultsMs + kMapShare * map_ms / kMapMs +
                         kEliminationShare * elimination_ms / kEliminationMs);
}

PassTimer::PassTimer(RefKernel& kernel, int ops_per_segment)
    : kernel_(kernel), ops_per_segment_(ops_per_segment),
      segment_start_kernel_ms_(kernel.run_ms()) {
  pass_.kernel_ms.push_back(segment_start_kernel_ms_);
}

void PassTimer::close_segment() {
  if (segment_ops_.empty()) return;
  const double k_end = kernel_.run_ms();
  pass_.kernel_ms.push_back(k_end);
  const double scale = RefKernel::kReferenceMs / (0.5 * (segment_start_kernel_ms_ + k_end));
  for (const double ms : segment_ops_) {
    pass_.op_ms.push_back(ms);
    pass_.op_ref_ms.push_back(ms * scale);
    pass_.raw_ms += ms;
    pass_.ref_ms += ms * scale;
  }
  segment_ops_.clear();
  segment_start_kernel_ms_ = k_end;
}

Pass PassTimer::finish() {
  close_segment();
  return std::move(pass_);
}

void finish_overlapped_pass(Pass& pass, double kernel_before_ms, double kernel_after_ms) {
  pass.kernel_ms = {kernel_before_ms, kernel_after_ms};
  const double scale = RefKernel::kReferenceMs / (0.5 * (kernel_before_ms + kernel_after_ms));
  pass.ref_ms = pass.raw_ms * scale;
  pass.op_ref_ms.clear();
  for (const double ms : pass.op_ms) pass.op_ref_ms.push_back(ms * scale);
}

double quantile(std::vector<double> values, double q) {
  if (values.empty()) return 0.0;
  std::sort(values.begin(), values.end());
  const double rank = std::ceil(q * static_cast<double>(values.size()));
  const auto idx = static_cast<std::size_t>(std::max(rank, 1.0)) - 1;
  return values[std::min(idx, values.size() - 1)];
}

double median(std::vector<double> values) {
  if (values.empty()) return 0.0;
  std::sort(values.begin(), values.end());
  const std::size_t n = values.size();
  return n % 2 == 1 ? values[n / 2] : 0.5 * (values[n / 2 - 1] + values[n / 2]);
}

double peak_rss_mb() {
  rusage usage{};
  ::getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // ru_maxrss is in KiB
}

double current_rss_mb() {
  long pages = 0;
  if (std::FILE* f = std::fopen("/proc/self/statm", "r")) {
    long size = 0;
    if (std::fscanf(f, "%ld %ld", &size, &pages) != 2) pages = 0;
    std::fclose(f);
  }
  return static_cast<double>(pages) * static_cast<double>(::sysconf(_SC_PAGESIZE)) /
         (1024.0 * 1024.0);
}

namespace {

double median_kernel_ms(const std::vector<Pass>& passes) {
  std::vector<double> k;
  for (const Pass& p : passes) k.insert(k.end(), p.kernel_ms.begin(), p.kernel_ms.end());
  return median(k);
}

/// Each program's median time across the passes, raw or at reference
/// speed (pipeline workloads, where every pass lays out every program once).
std::vector<double> program_medians(const std::vector<Pass>& passes, bool at_reference) {
  std::map<std::size_t, std::vector<double>> by_program;
  for (const Pass& p : passes)
    for (std::size_t i = 0; i < p.op_program.size(); ++i)
      by_program[p.op_program[i]].push_back(at_reference ? p.op_ref_ms[i] : p.op_ms[i]);
  std::vector<double> medians;
  for (const auto& [program, ms] : by_program) medians.push_back(median(ms));
  return medians;
}

/// Operations per second, raw or at reference speed. On the pipeline
/// workloads a round takes the sum of the programs' median times, so a pass
/// caught by a change of host speed moves one sample per program rather
/// than the figure; on the service, the median over passes.
double ops_per_s(const std::vector<Pass>& passes, bool at_reference) {
  if (!passes.front().op_program.empty()) {
    const std::vector<double> medians = program_medians(passes, at_reference);
    double round_ms = 0.0;
    for (const double ms : medians) round_ms += ms;
    return static_cast<double>(medians.size()) * 1000.0 / round_ms;
  }
  std::vector<double> rates;
  for (const Pass& p : passes) {
    const double ms = at_reference ? p.ref_ms : p.raw_ms;
    rates.push_back(static_cast<double>(p.op_ms.size()) * 1000.0 / ms);
  }
  return median(rates);
}

} // namespace

void add_end_to_end(RunResult& out, const std::vector<Pass>& passes, double setup_ms,
                    double layout_sim_ms) {
  std::vector<double> ops;
  for (const Pass& p : passes) ops.insert(ops.end(), p.op_ref_ms.begin(), p.op_ref_ms.end());
  // Where every pass lays out the same programs, the median operation is
  // the median over programs of each program's median latency: the same
  // operation, with the noise of single samples filtered out.
  const double op_p50 = passes.front().op_program.empty()
                            ? median(ops)
                            : median(program_medians(passes, true));
  out.add("setup_s", setup_ms / 1000.0, "s");
  out.add("ops_per_s", ops_per_s(passes, true), "1/s");
  out.add("op_p50_ms", op_p50, "ms");
  out.add("layout_sim_ms", layout_sim_ms, "ms");
  out.add("peak_rss_mb", peak_rss_mb(), "MB");
  std::fprintf(stderr,
               "perfbench: %zu passes, %zu ops, op_p99 %.4f ms (ref speed), raw %.3f ops/s, "
               "kernel %.4f ms\n",
               passes.size(), ops.size(), quantile(ops, 0.99), ops_per_s(passes, false),
               median_kernel_ms(passes));
}

void add_process_layers(RunResult& out, const std::vector<Pass>& passes,
                        double rss_after_setup_mb) {
  out.add("rss_after_setup_mb", rss_after_setup_mb, "MB");
  out.add("ref_kernel_ms", median_kernel_ms(passes), "ms");
  out.add("raw_ops_per_s", ops_per_s(passes, false), "1/s");
  std::fprintf(stderr, "perfbench: traced ops_per_s at reference speed %.3f\n",
               ops_per_s(passes, true));
}

al::driver::ToolOptions pipeline_options(int procs) {
  al::driver::ToolOptions opts;
  opts.procs = procs;
  opts.threads = 1;
  opts.run_cache = false;
  return opts;
}

} // namespace perfbench
