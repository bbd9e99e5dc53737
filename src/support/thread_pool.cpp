#include "support/thread_pool.hpp"

#if defined(__linux__)
#include <sched.h>
#endif

#include <algorithm>
#include <atomic>
#include <exception>
#include <memory>

#include "support/contracts.hpp"
#include "support/metrics.hpp"
#include "support/trace.hpp"

namespace al::support {
namespace {

/// Set while a thread is executing inside any pool's worker loop; lets
/// nested `parallel_for` calls fall back to the serial loop instead of
/// blocking on a queue their own pool can never drain.
thread_local const ThreadPool* g_current_pool = nullptr;

} // namespace

ThreadPool::ThreadPool(int threads, std::size_t queue_capacity)
    : capacity_(std::max<std::size_t>(queue_capacity, 1)) {
  const int n = threads > 0 ? threads : default_threads();
  workers_.reserve(static_cast<std::size_t>(n));
  for (int i = 0; i < n; ++i) {
    workers_.emplace_back([this](const std::stop_token& stop) { worker_loop(stop); });
  }
}

ThreadPool::~ThreadPool() {
  {
    // Under the queue mutex: a worker that has just found its wait predicate
    // false still holds the mutex until it blocks, so a stop request made
    // without it can land in between, its notify finds no waiter, and the
    // join below waits forever for a worker asleep on an empty queue.
    std::lock_guard lock(mutex_);
    for (std::jthread& w : workers_) w.request_stop();
  }
  not_empty_.notify_all();
  not_full_.notify_all();
  // std::jthread joins on destruction; worker_loop drains queued tasks
  // before honouring the stop request.
}

int ThreadPool::default_threads() {
  // hardware_concurrency() reports the machine, not the process: inside a
  // container pinned to one core it can still answer 2+, and every default
  // above the usable-CPU count makes the pool SLOWER than serial (measured
  // in BENCH_layout_graph.json). Prefer the scheduling-affinity count and
  // clamp it by hardware_concurrency() when both are known.
  int n = 0;
#if defined(__linux__)
  cpu_set_t set;
  CPU_ZERO(&set);
  if (sched_getaffinity(0, sizeof(set), &set) == 0) n = CPU_COUNT(&set);
#endif
  const unsigned hc = std::thread::hardware_concurrency();
  if (hc > 0) {
    const int cap = static_cast<int>(hc);
    n = n > 0 ? std::min(n, cap) : cap;
  }
  return std::max(n, 1);
}

bool ThreadPool::on_worker_thread() const { return g_current_pool == this; }

void ThreadPool::submit(std::function<void()> task) {
  AL_EXPECTS(task != nullptr);
  std::unique_lock lock(mutex_);
  not_full_.wait(lock, [this] { return queue_.size() < capacity_; });
  queue_.push_back(std::move(task));
  lock.unlock();
  not_empty_.notify_one();
}

void ThreadPool::worker_loop(const std::stop_token& stop) {
  g_current_pool = this;
  for (;;) {
    std::function<void()> task;
    {
      std::unique_lock lock(mutex_);
      not_empty_.wait(lock, [&] { return !queue_.empty() || stop.stop_requested(); });
      if (queue_.empty()) break;  // stop requested and fully drained
      task = std::move(queue_.front());
      queue_.pop_front();
    }
    not_full_.notify_one();
    // Per-task observability: one counter bump always (hoisted handle, one
    // relaxed fetch_add), a recorded span only while tracing is on.
    static Metrics::Counter& tasks = Metrics::instance().counter("thread_pool.tasks");
    tasks.add();
    if (Tracer::instance().enabled()) {
      TraceSpan span("pool.task");
      task();
    } else {
      task();
    }
  }
  g_current_pool = nullptr;
}

void parallel_for(ThreadPool* pool, std::size_t n,
                  const std::function<void(std::size_t)>& fn, std::size_t grain) {
  grain = std::max<std::size_t>(grain, 1);
  const bool serial = pool == nullptr || pool->num_threads() < 2 || n <= grain ||
                      pool->on_worker_thread();
  if (serial) {
    for (std::size_t i = 0; i < n; ++i) fn(i);
    return;
  }

  // Shared chunk stream: workers and the caller claim [next, next+grain)
  // ranges until the loop is exhausted. `done` counts FINISHED indices, so
  // the caller's wait doubles as the completion barrier.
  struct State {
    std::atomic<std::size_t> next{0};
    std::atomic<std::size_t> done{0};
    std::size_t n = 0;
    std::mutex m;
    std::condition_variable cv;
    std::exception_ptr error;
  };
  auto st = std::make_shared<State>();
  st->n = n;

  static Metrics::Counter& chunks_run = Metrics::instance().counter("thread_pool.parallel_chunks");
  auto drain = [st, &fn, grain] {
    for (;;) {
      const std::size_t begin = st->next.fetch_add(grain);
      if (begin >= st->n) return;
      const std::size_t end = std::min(begin + grain, st->n);
      chunks_run.add();
      try {
        if (Tracer::instance().enabled()) {
          TraceSpan span("pool.chunk");
          for (std::size_t i = begin; i < end; ++i) fn(i);
        } else {
          for (std::size_t i = begin; i < end; ++i) fn(i);
        }
      } catch (...) {
        std::lock_guard lock(st->m);
        if (!st->error) st->error = std::current_exception();
      }
      if (st->done.fetch_add(end - begin) + (end - begin) == st->n) {
        std::lock_guard lock(st->m);
        st->cv.notify_all();
      }
    }
  };

  const std::size_t chunks = (n + grain - 1) / grain;
  const std::size_t helpers =
      std::min<std::size_t>(static_cast<std::size_t>(pool->num_threads()), chunks);
  for (std::size_t t = 0; t < helpers; ++t) pool->submit(drain);
  drain();  // the caller participates instead of idling

  std::unique_lock lock(st->m);
  st->cv.wait(lock, [&] { return st->done.load() == st->n; });
  if (st->error) std::rethrow_exception(st->error);
}

} // namespace al::support
