// JSON run-report tests: the document is well-formed JSON (checked by a
// tiny recursive-descent validator, not by eye), schema-versioned, carries
// the acceptance-critical sections (stage spans, estimator-cache counters,
// ILP solver counters, selected layouts), and stays well-formed for every
// corpus program. Also covers the JsonWriter primitive itself (escaping,
// nesting, non-finite doubles).
#include <gtest/gtest.h>

#include <cctype>
#include <cstdlib>
#include <limits>
#include <sstream>
#include <string>

#include "corpus/corpus.hpp"
#include "driver/json_report.hpp"
#include "driver/tool.hpp"
#include "support/json.hpp"
#include "support/trace.hpp"

namespace al::driver {
namespace {

/// Minimal JSON well-formedness checker (syntax only, no semantics).
class MiniJsonParser {
public:
  static bool valid(std::string_view s) {
    MiniJsonParser p(s);
    p.ws();
    if (!p.value()) return false;
    p.ws();
    return p.i_ == s.size();
  }

private:
  explicit MiniJsonParser(std::string_view s) : s_(s) {}

  [[nodiscard]] char peek() const { return i_ < s_.size() ? s_[i_] : '\0'; }
  bool eat(char c) {
    if (peek() != c) return false;
    ++i_;
    return true;
  }
  void ws() {
    while (i_ < s_.size() && (s_[i_] == ' ' || s_[i_] == '\t' || s_[i_] == '\n' ||
                              s_[i_] == '\r'))
      ++i_;
  }

  bool value() {
    switch (peek()) {
      case '{': return object();
      case '[': return array();
      case '"': return string();
      case 't': return literal("true");
      case 'f': return literal("false");
      case 'n': return literal("null");
      default: return number();
    }
  }

  bool literal(std::string_view word) {
    if (s_.substr(i_, word.size()) != word) return false;
    i_ += word.size();
    return true;
  }

  bool string() {
    if (!eat('"')) return false;
    while (i_ < s_.size() && s_[i_] != '"') {
      if (s_[i_] == '\\') {
        ++i_;
        if (i_ >= s_.size()) return false;
      }
      ++i_;
    }
    return eat('"');
  }

  bool number() {
    const std::size_t start = i_;
    if (peek() == '-') ++i_;
    while (std::isdigit(static_cast<unsigned char>(peek()))) ++i_;
    if (peek() == '.') {
      ++i_;
      while (std::isdigit(static_cast<unsigned char>(peek()))) ++i_;
    }
    if (peek() == 'e' || peek() == 'E') {
      ++i_;
      if (peek() == '+' || peek() == '-') ++i_;
      while (std::isdigit(static_cast<unsigned char>(peek()))) ++i_;
    }
    return i_ > start;
  }

  bool object() {
    if (!eat('{')) return false;
    ws();
    if (eat('}')) return true;
    for (;;) {
      ws();
      if (!string()) return false;
      ws();
      if (!eat(':')) return false;
      ws();
      if (!value()) return false;
      ws();
      if (eat('}')) return true;
      if (!eat(',')) return false;
    }
  }

  bool array() {
    if (!eat('[')) return false;
    ws();
    if (eat(']')) return true;
    for (;;) {
      ws();
      if (!value()) return false;
      ws();
      if (eat(']')) return true;
      if (!eat(',')) return false;
    }
  }

  std::string_view s_;
  std::size_t i_ = 0;
};

std::size_t count_occurrences(const std::string& hay, const std::string& needle) {
  std::size_t count = 0;
  for (std::size_t pos = hay.find(needle); pos != std::string::npos;
       pos = hay.find(needle, pos + needle.size()))
    ++count;
  return count;
}

std::unique_ptr<ToolResult> run_small(const char* prog, long n, int procs) {
  corpus::TestCase c{prog, n,
                     std::string(prog) == "shallow" ? corpus::Dtype::Real
                                                    : corpus::Dtype::DoublePrecision,
                     procs};
  ToolOptions opts;
  opts.procs = procs;
  opts.threads = 1;
  return run_tool(corpus::source_for(c), opts);
}

TEST(JsonWriter, EscapesAndNests) {
  std::ostringstream os;
  support::JsonWriter w(os);
  w.begin_object();
  w.kv("quote\"back\\slash", "line\nbreak\ttab");
  w.key("list").begin_array();
  w.value(1).value(2.5).value(false).null();
  w.end_array();
  w.end_object();
  const std::string doc = os.str();
  EXPECT_TRUE(MiniJsonParser::valid(doc)) << doc;
  EXPECT_NE(doc.find("quote\\\"back\\\\slash"), std::string::npos);
  EXPECT_NE(doc.find("line\\nbreak\\ttab"), std::string::npos);
}

TEST(JsonWriter, NonFiniteDoublesBecomeNull) {
  std::ostringstream os;
  support::JsonWriter w(os);
  w.begin_object();
  w.kv("inf", std::numeric_limits<double>::infinity());
  w.kv("nan", std::numeric_limits<double>::quiet_NaN());
  w.end_object();
  const std::string doc = os.str();
  EXPECT_TRUE(MiniJsonParser::valid(doc)) << doc;
  EXPECT_EQ(count_occurrences(doc, "null"), 2u);
  EXPECT_EQ(doc.find("inf\": null") != std::string::npos, true);
}

TEST(JsonReport, SchemaAndRequiredSections) {
  auto r = run_small("adi", 32, 4);
  const std::string doc = json_report(*r);
  ASSERT_TRUE(MiniJsonParser::valid(doc)) << doc.substr(0, 400);
  EXPECT_NE(doc.find("\"schema\": \"autolayout.run\""), std::string::npos);
  EXPECT_NE(doc.find("\"schema_version\": 3"), std::string::npos);
  // Stage spans.
  for (const char* key :
       {"\"frontend_ms\"", "\"pcfg_ms\"", "\"alignment_ms\"", "\"spaces_ms\"",
        "\"estimation_ms\"", "\"selection_ms\"", "\"total_ms\""}) {
    EXPECT_NE(doc.find(key), std::string::npos) << key;
  }
  // Estimator-cache counters (+ shard occupancy).
  for (const char* key :
       {"\"estimate_hits\"", "\"remap_misses\"", "\"hit_rate\"", "\"occupancy\"",
        "\"max_shard_entries\""}) {
    EXPECT_NE(doc.find(key), std::string::npos) << key;
  }
  // ILP solver counters and the selection.
  for (const char* key : {"\"bb_nodes\"", "\"simplex_pivots\"", "\"variables\"",
                          "\"constraints\"", "\"chosen_layout\"", "\"dynamic\""}) {
    EXPECT_NE(doc.find(key), std::string::npos) << key;
  }
  // Metrics registry sections.
  EXPECT_NE(doc.find("\"counters\""), std::string::npos);
  EXPECT_NE(doc.find("\"gauges\""), std::string::npos);
  // v2: solver resilience data on the selection + alignment summary.
  for (const char* key :
       {"\"solver_status\"", "\"engine\"", "\"fallback\"", "\"budgets\"",
        "\"max_nodes\"", "\"deadline_ms\"", "\"verification\"",
        "\"alignment_ilp\"", "\"greedy_fallbacks\""}) {
    EXPECT_NE(doc.find(key), std::string::npos) << key;
  }
  // v3: the run-cache identity block. A plain run_tool never consulted a
  // cache, so the block says so and carries no key.
  EXPECT_NE(doc.find("\"run_cache\""), std::string::npos);
  EXPECT_NE(doc.find("\"consulted\": false"), std::string::npos);
}

// A starved node budget must still yield a well-formed v2 document that
// records the fallback provenance and a passing checker verdict.
TEST(JsonReport, FallbackProvenanceUnderNodeBudget) {
  corpus::TestCase c{"adi", 32, corpus::Dtype::DoublePrecision, 4};
  ToolOptions opts;
  opts.procs = 4;
  opts.threads = 1;
  opts.mip.max_nodes = 1;
  auto r = run_tool(corpus::source_for(c), opts);
  const std::string doc = json_report(*r);
  ASSERT_TRUE(MiniJsonParser::valid(doc)) << doc.substr(0, 400);
  EXPECT_NE(doc.find("\"max_nodes\": 1"), std::string::npos);
  EXPECT_NE(doc.find("\"verification\""), std::string::npos);
  EXPECT_TRUE(r->verification.ok) << r->verification.message;
  if (r->selection.is_fallback()) {
    EXPECT_NE(doc.find("\"fallback\": true"), std::string::npos);
    EXPECT_NE(doc.find(select::to_string(r->selection.engine)),
              std::string::npos);
  }
}

TEST(JsonReport, PhaseTableMatchesPipeline) {
  auto r = run_small("adi", 32, 4);
  const std::string doc = json_report(*r);
  EXPECT_EQ(count_occurrences(doc, "\"chosen_layout\""),
            static_cast<std::size_t>(r->pcfg.num_phases()));
  EXPECT_EQ(count_occurrences(doc, "\"candidates\""),
            static_cast<std::size_t>(r->pcfg.num_phases()));
  // Every phase's chosen layout string appears verbatim.
  for (int p = 0; p < r->pcfg.num_phases(); ++p) {
    EXPECT_NE(doc.find(support::JsonWriter::escape(
                  r->chosen_layout(p).str(r->program.symbols))),
              std::string::npos);
  }
}

// v3 stays v3: the oracle block is ADDITIVE. Without --validate it is a
// one-field stub; with it, the chosen/rivals/ranking sections appear and the
// document stays well-formed at the same schema version.
TEST(JsonReport, OracleBlockIsAdditive) {
  auto r0 = run_small("adi", 32, 4);
  const std::string d0 = json_report(*r0);
  EXPECT_NE(d0.find("\"oracle\""), std::string::npos);
  EXPECT_NE(d0.find("\"ran\": false"), std::string::npos);
  EXPECT_EQ(d0.find("\"chosen_inversions\""), std::string::npos);

  corpus::TestCase c{"adi", 32, corpus::Dtype::DoublePrecision, 4};
  ToolOptions opts;
  opts.procs = 4;
  opts.threads = 1;
  opts.validate = true;
  opts.validate_rivals = 3;
  auto r = run_tool(corpus::source_for(c), opts);
  EXPECT_TRUE(r->oracle.ran);
  EXPECT_TRUE(r->oracle.ok) << r->oracle.message;
  const std::string doc = json_report(*r);
  ASSERT_TRUE(MiniJsonParser::valid(doc)) << doc.substr(0, 400);
  EXPECT_NE(doc.find("\"schema_version\": 3"), std::string::npos);
  for (const char* key :
       {"\"oracle\"", "\"ran\": true", "\"simulated_us\"", "\"rivals\"",
        "\"ranking\"", "\"inversions\"", "\"chosen_inversions\"",
        "\"worst_rival_gap\"", "\"total_rel_error\"", "\"oracle_ms\""}) {
    EXPECT_NE(doc.find(key), std::string::npos) << key;
  }
}

TEST(JsonReport, WellFormedForWholeCorpus) {
  for (const char* prog : {"adi", "erlebacher", "tomcatv", "shallow"}) {
    auto r = run_small(prog, 24, 4);
    const std::string doc = json_report(*r);
    EXPECT_TRUE(MiniJsonParser::valid(doc)) << prog;
    EXPECT_NE(doc.find("\"program\""), std::string::npos) << prog;
  }
}

TEST(JsonReport, TraceSectionCarriesStageSpansWhenEnabled) {
  support::Tracer& tracer = support::Tracer::instance();
  tracer.set_enabled(true);
  tracer.reset();
  auto r = run_small("adi", 32, 4);
  const std::string doc = json_report(*r);
  tracer.set_enabled(false);
  tracer.reset();
  ASSERT_TRUE(MiniJsonParser::valid(doc));
  for (const char* span : {"stage.frontend", "stage.pcfg", "stage.estimation",
                           "stage.selection", "graph.nodes", "graph.edges",
                           "ilp.solve_mip", "tool.run"}) {
    EXPECT_NE(doc.find(span), std::string::npos) << span;
  }
}

TEST(JsonReport, TraceSectionCarriesOnlyItsOwnRunsSpans) {
  // Two traced runs back to back without a reset: the second report must
  // not carry the first run's spans, although both sit in the buffer.
  support::Tracer& tracer = support::Tracer::instance();
  tracer.set_enabled(true);
  tracer.reset();
  auto first = run_small("adi", 32, 4);
  auto second = run_small("erlebacher", 16, 4);
  const std::string doc1 = json_report(*first);
  const std::string doc2 = json_report(*second);
  tracer.set_enabled(false);
  tracer.reset();
  ASSERT_TRUE(MiniJsonParser::valid(doc2));
  auto count = [](const std::string& doc, const std::string& needle) {
    std::size_t n = 0;
    for (std::size_t at = doc.find(needle); at != std::string::npos;
         at = doc.find(needle, at + 1))
      ++n;
    return n;
  };
  EXPECT_LE(first->trace_end_ns, second->trace_begin_ns);
  for (const char* span : {"\"tool.run\"", "\"stage.frontend\"", "\"stage.selection\""}) {
    EXPECT_EQ(count(doc1, span), 1u) << span;
    EXPECT_EQ(count(doc2, span), 1u) << span;
  }
  // Every span in the second report starts inside the second run.
  const std::string key = "\"start_us\": ";
  std::size_t spans = 0;
  for (std::size_t at = doc2.find(key); at != std::string::npos;
       at = doc2.find(key, at + 1)) {
    const double start_us = std::strtod(doc2.c_str() + at + key.size(), nullptr);
    EXPECT_GE(start_us * 1e3 + 1.0, static_cast<double>(second->trace_begin_ns));
    ++spans;
  }
  EXPECT_GT(spans, 0u);
}

TEST(JsonReport, TraceSectionEmptyWhenDisabled) {
  support::Tracer& tracer = support::Tracer::instance();
  tracer.set_enabled(false);
  tracer.reset();
  auto r = run_small("adi", 32, 4);
  const std::string doc = json_report(*r);
  EXPECT_NE(doc.find("\"enabled\": false"), std::string::npos);
  EXPECT_EQ(doc.find("stage.frontend"), std::string::npos);
}

} // namespace
} // namespace al::driver
