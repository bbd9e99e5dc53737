// Span-based tracing for the pipeline (DESIGN.md section 9). A TraceSpan is
// an RAII wall-clock scope: it always measures (so StageTimings can be fed
// from the same object), but it only RECORDS into the global Tracer buffer
// when tracing is enabled. Disabled-mode cost is one relaxed atomic load and
// two steady_clock reads -- no allocation, no locking -- so spans can stay
// compiled into hot paths permanently.
//
// Recording is thread-safe (one mutex around the span buffer; spans are
// finalized once, at close, so the lock is off every hot loop's fast path)
// and nesting-aware: each span carries its per-thread depth and a dense
// thread id, enough to rebuild the tree. The buffer is a bounded ring
// (`kMaxSpans`): once full, each new span overwrites the oldest one, which
// counts as dropped, so a long-lived traced process keeps its newest spans
// instead of growing without limit or going blind.
//
// `chrome_trace_json()` serializes the buffer in the Chrome trace-event
// format (chrome://tracing, Perfetto): complete events ("ph":"X") with
// microsecond timestamps relative to the tracer epoch.
#pragma once

#include <atomic>
#include <chrono>
#include <cstdint>
#include <mutex>
#include <string>
#include <vector>

namespace al::support {

/// One closed span. `name` must point at a string that outlives the tracer
/// buffer (string literals; every call site complies).
struct SpanRecord {
  const char* name = "";
  std::uint64_t start_ns = 0;  ///< offset from the tracer epoch
  std::uint64_t dur_ns = 0;
  std::uint32_t thread = 0;    ///< dense id: 0 = first thread that ever traced
  std::uint16_t depth = 0;     ///< open spans above this one on its thread
};

class Tracer {
public:
  /// The process-wide tracer every TraceSpan records into.
  [[nodiscard]] static Tracer& instance();

  [[nodiscard]] bool enabled() const {
    return enabled_.load(std::memory_order_relaxed);
  }
  void set_enabled(bool on) { enabled_.store(on, std::memory_order_relaxed); }

  /// Drops all recorded spans and restarts the epoch (dropped count too).
  void reset();

  /// Every buffered span, oldest first.
  [[nodiscard]] std::vector<SpanRecord> snapshot() const;
  /// The buffered spans recorded at or after stream position `from` (see
  /// `recorded`) that start inside [begin_ns, end_ns], oldest first. Only
  /// records from `from` on are visited, so the cost follows the spans
  /// recorded since then, not the buffer size.
  [[nodiscard]] std::vector<SpanRecord> snapshot(std::uint64_t from,
                                                 std::uint64_t begin_ns,
                                                 std::uint64_t end_ns) const;
  [[nodiscard]] std::size_t size() const;
  /// Spans recorded since the last reset, overwritten ones included: the
  /// stream position the next span will take.
  [[nodiscard]] std::uint64_t recorded() const;
  /// Spans overwritten because the buffer was full.
  [[nodiscard]] std::uint64_t dropped() const {
    return dropped_.load(std::memory_order_relaxed);
  }

  /// Chrome trace-event document ("traceEvents": complete "X" events).
  [[nodiscard]] std::string chrome_trace_json() const;

  /// Nanoseconds since the tracer epoch (the last reset / construction).
  [[nodiscard]] std::uint64_t now_ns() const;
  /// Dense id of the calling thread (assigned on first use, stable after).
  [[nodiscard]] static std::uint32_t thread_id();

  void record(const SpanRecord& r);

  static constexpr std::size_t kMaxSpans = 1u << 20;

private:
  Tracer();

  std::atomic<bool> enabled_{false};
  std::atomic<std::uint64_t> dropped_{0};
  mutable std::mutex mutex_;
  std::vector<SpanRecord> spans_;  ///< position p lives at p % kMaxSpans
  std::uint64_t recorded_ = 0;
  std::chrono::steady_clock::time_point epoch_;
};

/// RAII scope. Construction starts the clock; destruction (or `stop_ms`)
/// closes the span and, when tracing was enabled at construction, records
/// it. `stop_ms` returns the elapsed wall clock in milliseconds whether or
/// not tracing is on, so timing structs can be fed from the span itself.
class TraceSpan {
public:
  explicit TraceSpan(const char* name);
  ~TraceSpan();

  TraceSpan(const TraceSpan&) = delete;
  TraceSpan& operator=(const TraceSpan&) = delete;

  /// Closes the span now (idempotent) and returns its duration in ms.
  double stop_ms();

private:
  const char* name_;
  std::chrono::steady_clock::time_point t0_;
  std::uint64_t start_ns_ = 0;  ///< epoch offset, only meaningful when armed
  double elapsed_ms_ = 0.0;
  std::uint16_t depth_ = 0;
  bool armed_ = false;  ///< tracing was enabled when the span opened
  bool stopped_ = false;
};

} // namespace al::support
