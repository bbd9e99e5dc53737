#include "layers.hpp"

#include <map>

#include "driver/json_report.hpp"
#include "service/protocol.hpp"
#include "support/arena.hpp"
#include "support/json.hpp"
#include "support/metrics.hpp"
#include "support/trace.hpp"

namespace perfbench {

namespace {

std::map<std::string, std::uint64_t> counter_values() {
  std::map<std::string, std::uint64_t> values;
  for (const auto& s : al::support::Metrics::instance().snapshot())
    if (!s.is_gauge) values[s.name] = s.count;
  return values;
}

/// Sum of the durations (ms) of spans named `name` that lie inside some
/// span named `parent` on the same thread.
double span_ms_within(const std::vector<al::support::SpanRecord>& spans, std::string_view name,
                      std::string_view parent) {
  std::uint64_t ns = 0;
  for (const auto& s : spans) {
    if (name != s.name) continue;
    for (const auto& p : spans) {
      if (parent == p.name && p.thread == s.thread && p.start_ns <= s.start_ns &&
          s.start_ns + s.dur_ns <= p.start_ns + p.dur_ns) {
        ns += s.dur_ns;
        break;
      }
    }
  }
  return static_cast<double>(ns) / 1e6;
}

std::string compact_report(const al::driver::ToolResult& result) {
  std::string json;
  al::support::JsonWriter w(json, /*indent_width=*/-1);
  al::driver::write_json_report(result, w);
  return json;
}

} // namespace

std::string request_line(const BenchProgram& program, const std::string& id) {
  std::string line;
  al::support::JsonWriter w(line, /*indent_width=*/-1);
  w.begin_object();
  w.kv("schema", al::service::kRequestSchema);
  w.kv("schema_version", al::service::kProtocolVersion);
  w.kv("id", id);
  w.kv("source", program.source);
  w.key("options").begin_object();
  w.kv("procs", program.procs);
  w.kv("threads", 1);
  w.end_object();
  w.end_object();
  line += '\n';
  return line;
}

void add_pipeline_layers(RunResult& out, const std::vector<BenchProgram>& programs) {
  al::support::Tracer& tracer = al::support::Tracer::instance();
  tracer.reset();
  const auto before = counter_values();
  double frontend = 0, pcfg = 0, alignment = 0, spaces = 0, estimation = 0, selection = 0;
  std::uint64_t align_mips = 0, align_pivots = 0, align_not_optimal = 0, candidates = 0;
  std::uint64_t vars = 0, rows = 0, dominated = 0, presolve_vars = 0, presolve_rows = 0,
                cuts = 0;
  std::map<std::string, std::uint64_t> selection_counts;
  const char* const kSelectionCounters[] = {"ilp.simplex_pivots", "ilp.refactorizations",
                                            "ilp.lp_solves", "ilp.bb_nodes", "ilp.cut_rounds"};
  for (const BenchProgram& program : programs) {
    tracer.set_enabled(true);
    const auto r = al::driver::run_tool(program.source, pipeline_options(program.procs));
    tracer.set_enabled(false);
    const al::driver::StageTimings& t = r->timings;
    frontend += t.frontend_ms;
    pcfg += t.pcfg_ms;
    alignment += t.alignment_ms;
    spaces += t.spaces_ms;
    estimation += t.graph_ms;
    selection += t.selection_ms;
    for (const al::cag::Resolution& res : r->alignment.ilp_resolutions) {
      ++align_mips;
      align_pivots += static_cast<std::uint64_t>(res.lp_iterations);
      if (res.solver_status != al::ilp::SolveStatus::Optimal) ++align_not_optimal;
    }
    for (const auto& space : r->spaces) candidates += space.size();

    // The selection layer on its own: the same MIP, re-solved from the
    // finished graph, under a scope that sees only its counters.
    al::select::SelectionOptions sopts;
    sopts.mip = r->options.mip;
    sopts.dominance = r->options.dominance;
    al::support::MetricsScope scope;
    const al::select::SelectionResult sel = al::select::select_layouts_ilp(r->graph, sopts);
    if (sel.chosen != r->selection.chosen)
      out.fail_check(program.name + ": selection re-solve chose differently");
    for (const char* name : kSelectionCounters) selection_counts[name] += scope.delta(name);
    vars += static_cast<std::uint64_t>(sel.ilp_variables);
    rows += static_cast<std::uint64_t>(sel.ilp_constraints);
    dominated += static_cast<std::uint64_t>(sel.dominated_candidates);
    presolve_vars += static_cast<std::uint64_t>(sel.presolve_fixed_vars);
    presolve_rows += static_cast<std::uint64_t>(sel.presolve_removed_rows);
    cuts += static_cast<std::uint64_t>(sel.cuts_added);
  }
  const std::vector<al::support::SpanRecord> spans = tracer.snapshot();
  tracer.reset();  // run reports embed the buffer; leave it empty
  auto after = counter_values();
  auto delta = [&](const std::string& name) {
    const auto it = before.find(name);
    return static_cast<double>(after[name] - (it == before.end() ? 0 : it->second));
  };

  out.add("frontend_ms", frontend, "ms");
  out.add("pcfg_ms", pcfg, "ms");
  out.add("alignment_ms", alignment, "ms");
  out.add("align_mips", static_cast<double>(align_mips), "count");
  out.add("align_mip_pivots", static_cast<double>(align_pivots), "count");
  out.add("align_mips_not_optimal", static_cast<double>(align_not_optimal), "count");
  out.add("spaces_ms", spaces, "ms");
  out.add("candidates", static_cast<double>(candidates), "count");
  out.add("estimation_ms", estimation, "ms");
  out.add("node_estimates", delta("layout_graph.node_estimates"), "count");
  out.add("edge_cells", delta("layout_graph.edge_cells"), "count");
  for (const char* kind : {"estimate", "remap", "array"}) {
    for (const char* side : {"hits", "misses"}) {
      const std::string metric = std::string(kind) + "_" + side;
      out.add(metric, delta("estimate_cache." + metric), "count");
    }
  }
  out.add("selection_ms", selection, "ms");
  out.add("ilp_solve_mip_ms", span_ms_within(spans, "ilp.solve_mip", "stage.selection"), "ms");
  out.add("ilp_cuts_ms", span_ms_within(spans, "ilp.cuts", "stage.selection"), "ms");
  out.add("selection_vars", static_cast<double>(vars), "count");
  out.add("selection_rows", static_cast<double>(rows), "count");
  out.add("dominated_candidates", static_cast<double>(dominated), "count");
  out.add("simplex_pivots", static_cast<double>(selection_counts["ilp.simplex_pivots"]), "count");
  out.add("refactorizations", static_cast<double>(selection_counts["ilp.refactorizations"]),
          "count");
  out.add("lp_solves", static_cast<double>(selection_counts["ilp.lp_solves"]), "count");
  out.add("bb_nodes", static_cast<double>(selection_counts["ilp.bb_nodes"]), "count");
  out.add("presolve_fixed_vars", static_cast<double>(presolve_vars), "count");
  out.add("presolve_removed_rows", static_cast<double>(presolve_rows), "count");
  out.add("cut_rounds", static_cast<double>(selection_counts["ilp.cut_rounds"]), "count");
  out.add("cuts_added", static_cast<double>(cuts), "count");
}

void add_codec_layers(RunResult& out, const std::vector<BenchProgram>& programs) {
  constexpr int kReps = 5;
  al::support::Arena arena;
  std::vector<double> decode_us, encode_us;
  std::string response;
  for (std::size_t i = 0; i < programs.size(); ++i) {
    const std::string line = request_line(programs[i], "probe-" + std::to_string(i));
    const std::string_view body(line.data(), line.size() - 1);  // without '\n'
    al::service::ParsedRequest parsed;
    for (int rep = 0; rep < kReps; ++rep) {
      const Clock::time_point t0 = Clock::now();
      parsed = al::service::parse_request(body, al::service::kMaxRequestBytes, &arena);
      decode_us.push_back(elapsed_ms(t0) * 1000.0);
      arena.reset();
    }
    if (!parsed.ok) {
      out.fail_check(programs[i].name + ": request did not decode: " + parsed.error);
      continue;
    }
    const auto result = al::driver::run_tool(programs[i].source, parsed.request.options);
    const std::string report = compact_report(*result);
    for (int rep = 0; rep < kReps; ++rep) {
      const Clock::time_point t0 = Clock::now();
      al::service::ok_response_into(response, parsed.request, report, "hit", 0.0, {});
      encode_us.push_back(elapsed_ms(t0) * 1000.0);
    }
  }
  out.add("decode_us", median(decode_us), "us");
  out.add("encode_us", median(encode_us), "us");
}

void add_server_layers(RunResult& out, const al::service::ServiceSummary& summary,
                       const al::perf::RunCacheStats& cache) {
  out.add("hit_p50_ms", summary.hit_p50_ms, "ms");
  out.add("miss_p50_ms", summary.miss_p50_ms, "ms");
  out.add("arena_block_allocs", static_cast<double>(summary.arena_block_allocs), "count");
  out.add("cache_lookup_us", cache.mean_lookup_us(), "us");
  out.add("cache_hits", static_cast<double>(cache.hits), "count");
  out.add("cache_misses", static_cast<double>(cache.misses), "count");
  out.add("cache_evictions", static_cast<double>(cache.evictions), "count");
}

} // namespace perfbench
