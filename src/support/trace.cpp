#include "support/trace.hpp"

#include <algorithm>
#include <cinttypes>
#include <cstdio>
#include <limits>

namespace al::support {
namespace {

/// Open-span count of the calling thread (nesting depth of the NEXT span).
thread_local std::uint16_t g_depth = 0;

std::uint32_t next_thread_id() {
  static std::atomic<std::uint32_t> counter{0};
  return counter.fetch_add(1, std::memory_order_relaxed);
}

} // namespace

Tracer::Tracer() : epoch_(std::chrono::steady_clock::now()) {
  spans_.reserve(1024);
}

Tracer& Tracer::instance() {
  static Tracer t;
  return t;
}

void Tracer::reset() {
  std::lock_guard lock(mutex_);
  spans_.clear();
  recorded_ = 0;
  dropped_.store(0, std::memory_order_relaxed);
  epoch_ = std::chrono::steady_clock::now();
}

std::uint64_t Tracer::now_ns() const {
  return static_cast<std::uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(
          std::chrono::steady_clock::now() - epoch_)
          .count());
}

std::uint32_t Tracer::thread_id() {
  thread_local const std::uint32_t id = next_thread_id();
  return id;
}

void Tracer::record(const SpanRecord& r) {
  std::lock_guard lock(mutex_);
  if (spans_.size() < kMaxSpans) {
    spans_.push_back(r);
  } else {
    spans_[static_cast<std::size_t>(recorded_ % kMaxSpans)] = r;
    dropped_.fetch_add(1, std::memory_order_relaxed);
  }
  ++recorded_;
}

std::vector<SpanRecord> Tracer::snapshot() const {
  return snapshot(0, 0, std::numeric_limits<std::uint64_t>::max());
}

std::vector<SpanRecord> Tracer::snapshot(std::uint64_t from, std::uint64_t begin_ns,
                                         std::uint64_t end_ns) const {
  std::lock_guard lock(mutex_);
  std::vector<SpanRecord> out;
  for (std::uint64_t p = std::max(from, recorded_ - spans_.size()); p < recorded_; ++p) {
    const SpanRecord& s = spans_[static_cast<std::size_t>(p % kMaxSpans)];
    if (s.start_ns >= begin_ns && s.start_ns <= end_ns) out.push_back(s);
  }
  return out;
}

std::uint64_t Tracer::recorded() const {
  std::lock_guard lock(mutex_);
  return recorded_;
}

std::size_t Tracer::size() const {
  std::lock_guard lock(mutex_);
  return spans_.size();
}

std::string Tracer::chrome_trace_json() const {
  const std::vector<SpanRecord> spans = snapshot();
  std::string out;
  out.reserve(64 + spans.size() * 96);
  out += "{\n  \"displayTimeUnit\": \"ms\",\n  \"traceEvents\": [\n";
  char buf[256];
  for (std::size_t i = 0; i < spans.size(); ++i) {
    const SpanRecord& s = spans[i];
    // Span names are compile-time literals (identifier-shaped); no escaping
    // is needed beyond what call sites already guarantee.
    std::snprintf(buf, sizeof buf,
                  "    {\"name\": \"%s\", \"ph\": \"X\", \"ts\": %.3f, "
                  "\"dur\": %.3f, \"pid\": 1, \"tid\": %" PRIu32
                  ", \"args\": {\"depth\": %u}}%s\n",
                  s.name, static_cast<double>(s.start_ns) / 1e3,
                  static_cast<double>(s.dur_ns) / 1e3, s.thread,
                  static_cast<unsigned>(s.depth), i + 1 < spans.size() ? "," : "");
    out += buf;
  }
  out += "  ]\n}\n";
  return out;
}

TraceSpan::TraceSpan(const char* name)
    : name_(name), t0_(std::chrono::steady_clock::now()) {
  Tracer& tr = Tracer::instance();
  armed_ = tr.enabled();
  if (armed_) {
    start_ns_ = tr.now_ns();
    depth_ = g_depth++;
  }
}

TraceSpan::~TraceSpan() {
  if (!stopped_) (void)stop_ms();
}

double TraceSpan::stop_ms() {
  if (stopped_) return elapsed_ms_;
  stopped_ = true;
  const auto dt = std::chrono::steady_clock::now() - t0_;
  elapsed_ms_ = std::chrono::duration<double, std::milli>(dt).count();
  if (armed_) {
    --g_depth;
    SpanRecord r;
    r.name = name_;
    r.start_ns = start_ns_;
    r.dur_ns = static_cast<std::uint64_t>(
        std::chrono::duration_cast<std::chrono::nanoseconds>(dt).count());
    r.thread = Tracer::thread_id();
    r.depth = depth_;
    Tracer::instance().record(r);
  }
  return elapsed_ms_;
}

} // namespace al::support
