// Thread pool unit tests: tasks drain, parallel_for covers every index
// exactly once, exceptions propagate to the caller, nested parallel_for
// degrades to serial instead of deadlocking, and the serial fallbacks
// (null pool, tiny trip counts) behave identically.
#include <gtest/gtest.h>

#if defined(__linux__)
#include <sched.h>
#endif

#include <atomic>
#include <stdexcept>
#include <thread>
#include <vector>

#include "support/thread_pool.hpp"

namespace al::support {
namespace {

TEST(ThreadPool, DefaultThreadsAtLeastOne) {
  EXPECT_GE(ThreadPool::default_threads(), 1);
}

// Regression: on a container pinned to fewer CPUs than the machine has,
// hardware_concurrency() oversells the parallelism and the estimation pool
// defaults SLOWER than serial. The default must respect both the process
// affinity mask and hardware_concurrency().
TEST(ThreadPool, DefaultThreadsClampedToUsableCpus) {
  const int def = ThreadPool::default_threads();
  const unsigned hc = std::thread::hardware_concurrency();
  if (hc > 0) EXPECT_LE(def, static_cast<int>(hc));
#if defined(__linux__)
  cpu_set_t set;
  CPU_ZERO(&set);
  if (sched_getaffinity(0, sizeof(set), &set) == 0) {
    EXPECT_LE(def, CPU_COUNT(&set));
  }
#endif
}

TEST(ThreadPool, DefaultConstructedPoolUsesDefaultThreads) {
  ThreadPool pool;  // threads = 0 picks default_threads()
  EXPECT_EQ(pool.num_threads(), ThreadPool::default_threads());
}

TEST(ThreadPool, SubmittedTasksAllRunBeforeDestruction) {
  std::atomic<int> ran{0};
  {
    ThreadPool pool(4, /*queue_capacity=*/8);
    for (int i = 0; i < 100; ++i) {
      pool.submit([&ran] { ran.fetch_add(1); });
    }
    // The bounded queue (capacity 8 < 100 tasks) forces submit to block and
    // unblock along the way; the destructor drains the rest.
  }
  EXPECT_EQ(ran.load(), 100);
}

TEST(ThreadPool, DestructionRightAfterWorkJoinsEveryWorker) {
  // Stress regression for a lost wakeup in the destructor: workers that have
  // just finished their chunks are re-checking their wait predicate while
  // the pool dies. A stop request made outside the queue mutex could land
  // between that check and the wait, and the join then hung (about once in
  // 30,000 pools on a 4-vCPU machine, so this loop catches it often, not
  // always).
  std::atomic<long> ran{0};
  for (int i = 0; i < 10000; ++i) {
    ThreadPool pool(4);
    parallel_for(&pool, 64, [&ran](std::size_t) { ran.fetch_add(1); });
  }
  EXPECT_EQ(ran.load(), 10000L * 64);
}

TEST(ThreadPool, ParallelForCoversEveryIndexOnce) {
  ThreadPool pool(4);
  constexpr std::size_t kN = 10000;
  std::vector<std::atomic<int>> hits(kN);
  parallel_for(&pool, kN, [&](std::size_t i) { hits[i].fetch_add(1); }, /*grain=*/7);
  for (std::size_t i = 0; i < kN; ++i) {
    ASSERT_EQ(hits[i].load(), 1) << "index " << i;
  }
}

TEST(ThreadPool, ParallelForNullPoolRunsSerially) {
  std::vector<int> hits(64, 0);
  parallel_for(nullptr, hits.size(), [&](std::size_t i) { hits[i] += 1; });
  for (int h : hits) EXPECT_EQ(h, 1);
}

TEST(ThreadPool, ParallelForZeroIterationsIsANoOp) {
  ThreadPool pool(2);
  parallel_for(&pool, 0, [](std::size_t) { FAIL() << "body must not run"; });
}

TEST(ThreadPool, ParallelForPropagatesException) {
  ThreadPool pool(4);
  std::atomic<int> ran{0};
  try {
    parallel_for(&pool, 1000, [&](std::size_t i) {
      ran.fetch_add(1);
      if (i == 137) throw std::runtime_error("boom at 137");
    });
    FAIL() << "expected an exception";
  } catch (const std::runtime_error& e) {
    EXPECT_STREQ(e.what(), "boom at 137");
  }
  // The loop still claims every index (no partial-completion limbo), so the
  // pool is clean for the next call.
  EXPECT_EQ(ran.load(), 1000);
  std::atomic<int> again{0};
  parallel_for(&pool, 10, [&](std::size_t) { again.fetch_add(1); });
  EXPECT_EQ(again.load(), 10);
}

TEST(ThreadPool, NestedParallelForRunsInlineWithoutDeadlock) {
  ThreadPool pool(2);
  constexpr std::size_t kOuter = 16;
  constexpr std::size_t kInner = 32;
  std::vector<std::atomic<int>> hits(kOuter * kInner);
  parallel_for(&pool, kOuter, [&](std::size_t i) {
    // On a worker thread this must degrade to the serial loop; a second
    // fan-out onto the same (fully busy) pool would deadlock.
    parallel_for(&pool, kInner,
                 [&](std::size_t j) { hits[i * kInner + j].fetch_add(1); });
  });
  for (std::size_t k = 0; k < hits.size(); ++k) {
    ASSERT_EQ(hits[k].load(), 1) << "slot " << k;
  }
}

TEST(ThreadPool, OnWorkerThreadDistinguishesPools) {
  ThreadPool a(2);
  ThreadPool b(2);
  EXPECT_FALSE(a.on_worker_thread());
  std::atomic<int> inside_a{0};
  std::atomic<int> inside_b{0};
  parallel_for(&a, 8, [&](std::size_t) {
    if (a.on_worker_thread()) inside_a.fetch_add(1);
    if (b.on_worker_thread()) inside_b.fetch_add(1);
  });
  EXPECT_EQ(inside_b.load(), 0);  // a's workers are never b's
}

} // namespace
} // namespace al::support
