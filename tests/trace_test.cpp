// Observability-layer tests: span nesting/containment, recording under the
// worker pool (this file lives in the tsan-labelled binary so the same
// suites rerun under -DAL_SANITIZE=thread), disabled-mode zero allocation,
// and the metrics registry's concurrency guarantees.
#include <gtest/gtest.h>

#include <atomic>
#include <cstdlib>
#include <new>
#include <string>
#include <vector>

#include "support/metrics.hpp"
#include "support/thread_pool.hpp"
#include "support/trace.hpp"

// Counting replacements for the global allocator: the disabled-span test
// asserts the hot path performs ZERO allocations. Replacing scalar
// new/delete is enough -- the default array forms forward here.
static std::atomic<long> g_alloc_count{0};

void* operator new(std::size_t n) {
  g_alloc_count.fetch_add(1, std::memory_order_relaxed);
  if (void* p = std::malloc(n)) return p;
  throw std::bad_alloc();
}
void* operator new(std::size_t n, const std::nothrow_t&) noexcept {
  g_alloc_count.fetch_add(1, std::memory_order_relaxed);
  return std::malloc(n);
}
void operator delete(void* p) noexcept { std::free(p); }
void operator delete(void* p, std::size_t) noexcept { std::free(p); }
void operator delete(void* p, const std::nothrow_t&) noexcept { std::free(p); }

namespace al::support {
namespace {

class TraceTest : public ::testing::Test {
protected:
  void SetUp() override {
    Tracer::instance().set_enabled(false);
    Tracer::instance().reset();
  }
  void TearDown() override {
    Tracer::instance().set_enabled(false);
    Tracer::instance().reset();
  }
};

TEST_F(TraceTest, DisabledSpansRecordNothingAndAllocateNothing) {
  const long before = g_alloc_count.load(std::memory_order_relaxed);
  for (int i = 0; i < 1000; ++i) {
    TraceSpan span("disabled");
    (void)span;
  }
  const long after = g_alloc_count.load(std::memory_order_relaxed);
  EXPECT_EQ(before, after);
  EXPECT_EQ(Tracer::instance().size(), 0u);
}

TEST_F(TraceTest, StopMsMeasuresEvenWhenDisabled) {
  TraceSpan span("timed");
  // Burn a little wall clock so the duration is strictly positive.
  volatile double sink = 0.0;
  for (int i = 0; i < 100000; ++i) sink = sink + 1.0;
  const double ms = span.stop_ms();
  EXPECT_GT(ms, 0.0);
  EXPECT_EQ(span.stop_ms(), ms);  // idempotent
  EXPECT_EQ(Tracer::instance().size(), 0u);
}

TEST_F(TraceTest, NestedSpansCarryDepthAndContainment) {
  Tracer::instance().set_enabled(true);
  {
    TraceSpan outer("outer");
    {
      TraceSpan inner("inner");
      TraceSpan leaf("leaf");
    }
    TraceSpan sibling("sibling");
  }
  const std::vector<SpanRecord> spans = Tracer::instance().snapshot();
  ASSERT_EQ(spans.size(), 4u);  // recorded in close order
  EXPECT_STREQ(spans[0].name, "leaf");
  EXPECT_STREQ(spans[1].name, "inner");
  EXPECT_STREQ(spans[2].name, "sibling");
  EXPECT_STREQ(spans[3].name, "outer");
  EXPECT_EQ(spans[3].depth, 0);
  EXPECT_EQ(spans[1].depth, 1);
  EXPECT_EQ(spans[2].depth, 1);
  EXPECT_EQ(spans[0].depth, 2);
  // The outer span contains every other span's interval.
  const SpanRecord& outer = spans[3];
  for (std::size_t i = 0; i < 3; ++i) {
    EXPECT_GE(spans[i].start_ns, outer.start_ns);
    EXPECT_LE(spans[i].start_ns + spans[i].dur_ns, outer.start_ns + outer.dur_ns);
  }
}

TEST_F(TraceTest, RecordsFromPoolWorkersWithoutLossOrRace) {
  Tracer::instance().set_enabled(true);
  constexpr std::size_t kN = 500;
  {
    ThreadPool pool(4);
    parallel_for(&pool, kN, [](std::size_t) { TraceSpan span("work"); });
  }
  Tracer::instance().set_enabled(false);
  std::size_t work_spans = 0;
  for (const SpanRecord& s : Tracer::instance().snapshot()) {
    if (std::string(s.name) == "work") ++work_spans;
  }
  EXPECT_EQ(work_spans, kN);
  EXPECT_EQ(Tracer::instance().dropped(), 0u);
}

TEST_F(TraceTest, ChromeTraceJsonShape) {
  Tracer::instance().set_enabled(true);
  { TraceSpan span("hello"); }
  Tracer::instance().set_enabled(false);
  const std::string doc = Tracer::instance().chrome_trace_json();
  EXPECT_NE(doc.find("\"traceEvents\""), std::string::npos);
  EXPECT_NE(doc.find("\"name\": \"hello\""), std::string::npos);
  EXPECT_NE(doc.find("\"ph\": \"X\""), std::string::npos);
}

TEST_F(TraceTest, ResetDropsSpans) {
  Tracer::instance().set_enabled(true);
  { TraceSpan span("gone"); }
  EXPECT_EQ(Tracer::instance().size(), 1u);
  Tracer::instance().reset();
  EXPECT_EQ(Tracer::instance().size(), 0u);
}

SpanRecord span_at(std::uint64_t start_ns) {
  SpanRecord r;
  r.name = "manual";
  r.start_ns = start_ns;
  return r;
}

TEST_F(TraceTest, SnapshotFromStreamPositionKeepsOnlyLaterSpansInWindow) {
  Tracer& tr = Tracer::instance();
  for (std::uint64_t t = 0; t < 3; ++t) tr.record(span_at(100 + t));
  const std::uint64_t from = tr.recorded();
  EXPECT_EQ(from, 3u);
  for (std::uint64_t t = 0; t < 4; ++t) tr.record(span_at(200 + t));
  // Earlier spans are skipped by position even when they start in window.
  const std::vector<SpanRecord> later = tr.snapshot(from, 0, 1000);
  ASSERT_EQ(later.size(), 4u);
  EXPECT_EQ(later.front().start_ns, 200u);
  EXPECT_EQ(later.back().start_ns, 203u);
  // The time window bounds both ends, inclusively.
  const std::vector<SpanRecord> window = tr.snapshot(0, 102, 201);
  ASSERT_EQ(window.size(), 3u);
  EXPECT_EQ(window[0].start_ns, 102u);
  EXPECT_EQ(window[2].start_ns, 201u);
  EXPECT_TRUE(tr.snapshot(tr.recorded(), 0, 1000).empty());
}

TEST_F(TraceTest, FullBufferOverwritesOldestSpans) {
  Tracer& tr = Tracer::instance();
  constexpr std::uint64_t kExtra = 5;
  for (std::uint64_t t = 0; t < Tracer::kMaxSpans + kExtra; ++t) tr.record(span_at(t));
  EXPECT_EQ(tr.size(), Tracer::kMaxSpans);
  EXPECT_EQ(tr.recorded(), Tracer::kMaxSpans + kExtra);
  EXPECT_EQ(tr.dropped(), kExtra);
  // Oldest first: the first kExtra spans are gone, the newest survive.
  const std::vector<SpanRecord> all = tr.snapshot();
  ASSERT_EQ(all.size(), Tracer::kMaxSpans);
  EXPECT_EQ(all.front().start_ns, kExtra);
  EXPECT_EQ(all.back().start_ns, Tracer::kMaxSpans + kExtra - 1);
  // A position that was overwritten starts at the oldest surviving span.
  EXPECT_EQ(tr.snapshot(0, 0, kExtra).size(), 1u);
  const std::vector<SpanRecord> tail = tr.snapshot(Tracer::kMaxSpans + 3, 0, ~0ull);
  ASSERT_EQ(tail.size(), 2u);
  EXPECT_EQ(tail[0].start_ns, Tracer::kMaxSpans + 3);
  tr.reset();
  EXPECT_EQ(tr.recorded(), 0u);
  EXPECT_EQ(tr.dropped(), 0u);
}

TEST(MetricsTest, ConcurrentAddsSumExactly) {
  Metrics::Counter& c = Metrics::instance().counter("test.concurrent_adds");
  const std::uint64_t base = c.value();
  constexpr std::size_t kN = 10000;
  {
    ThreadPool pool(4);
    parallel_for(&pool, kN, [&c](std::size_t) { c.add(); });
  }
  EXPECT_EQ(c.value(), base + kN);
}

TEST(MetricsTest, ResetZeroesInPlaceKeepingHandles) {
  Metrics::Counter& c = Metrics::instance().counter("test.reset_handle");
  c.add(7);
  EXPECT_GE(c.value(), 7u);
  Metrics::instance().reset();
  EXPECT_EQ(c.value(), 0u);
  c.add(1);  // the old handle still works after reset
  EXPECT_EQ(c.value(), 1u);
  EXPECT_EQ(&c, &Metrics::instance().counter("test.reset_handle"));
}

TEST(MetricsTest, SnapshotIsNameSortedAndTyped) {
  Metrics::instance().reset();
  Metrics::instance().counter("test.b_counter").add(2);
  Metrics::instance().set_gauge("test.a_gauge", 1.5);
  const std::vector<Metrics::Sample> samples = Metrics::instance().snapshot();
  ASSERT_GE(samples.size(), 2u);
  for (std::size_t i = 1; i < samples.size(); ++i) {
    EXPECT_LT(samples[i - 1].name, samples[i].name);
  }
  bool saw_counter = false;
  bool saw_gauge = false;
  for (const auto& s : samples) {
    if (s.name == "test.b_counter") {
      saw_counter = true;
      EXPECT_FALSE(s.is_gauge);
      EXPECT_EQ(s.count, 2u);
    }
    if (s.name == "test.a_gauge") {
      saw_gauge = true;
      EXPECT_TRUE(s.is_gauge);
      EXPECT_DOUBLE_EQ(s.gauge, 1.5);
    }
  }
  EXPECT_TRUE(saw_counter);
  EXPECT_TRUE(saw_gauge);
}

} // namespace
} // namespace al::support
