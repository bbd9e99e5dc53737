#include "driver/json_report.hpp"

#include <sstream>

#include "perf/run_cache.hpp"
#include "support/json.hpp"
#include "support/metrics.hpp"
#include "support/trace.hpp"

namespace al::driver {
namespace {

const char* strategy_name(distrib::Strategy s) {
  switch (s) {
    case distrib::Strategy::Exhaustive1DBlock: return "exhaustive-1d-block";
    case distrib::Strategy::ExtendedExhaustive: return "extended-exhaustive";
  }
  return "?";
}

void write_phases(support::JsonWriter& w, const ToolResult& r) {
  w.key("phases").begin_array();
  for (int p = 0; p < r.pcfg.num_phases(); ++p) {
    const pcfg::Phase& ph = r.pcfg.phase(p);
    const std::size_t sp = static_cast<std::size_t>(p);
    const int chosen = r.selection.chosen.at(sp);
    const execmodel::PhaseEstimate& est =
        r.graph.estimates.at(sp).at(static_cast<std::size_t>(chosen));
    w.begin_object();
    w.kv("index", p);
    w.kv("label", ph.label);
    w.kv("frequency", r.pcfg.frequency(p));
    w.key("arrays").begin_array();
    for (int a : ph.arrays) w.value(r.program.symbols.at(a).name);
    w.end_array();
    w.kv("candidates", static_cast<std::uint64_t>(r.spaces.at(sp).size()));
    w.kv("chosen", chosen);
    w.kv("chosen_layout", r.chosen_layout(p).str(r.program.symbols));
    w.kv("node_cost_us", r.graph.node_cost_us.at(sp).at(static_cast<std::size_t>(chosen)));
    w.key("estimate").begin_object();
    w.kv("scheme", execmodel::to_string(est.shape));
    w.kv("comp_us", est.comp_us);
    w.kv("comm_us", est.comm_us);
    w.end_object();
    w.end_object();
  }
  w.end_array();
}

void write_selection(support::JsonWriter& w, const ToolResult& r) {
  w.key("selection").begin_object();
  w.kv("dynamic", r.is_dynamic());
  w.kv("total_cost_us", r.selection.total_cost_us);
  w.kv("node_cost_us", r.selection.node_cost_us);
  w.kv("remap_cost_us", r.selection.remap_cost_us);
  w.kv("solver_status", ilp::to_string(r.selection.solver_status));
  w.kv("engine", select::to_string(r.selection.engine));
  w.kv("fallback", r.selection.is_fallback());
  w.key("budgets").begin_object();
  w.kv("max_nodes", r.options.mip.max_nodes);
  w.kv("deadline_ms", r.options.mip.deadline_ms);
  w.end_object();
  w.key("verification").begin_object();
  w.kv("ok", r.verification.ok);
  w.kv("message", r.verification.message);
  w.end_object();
  w.key("ilp").begin_object();
  w.kv("variables", r.selection.ilp_variables);
  w.kv("constraints", r.selection.ilp_constraints);
  w.kv("bb_nodes", r.selection.bb_nodes);
  w.kv("simplex_pivots", r.selection.lp_iterations);
  w.kv("solve_ms", r.selection.solve_ms);
  // MIP engine provenance (DESIGN.md sections 12 and 15).
  w.kv("lp_core", ilp::to_string(r.options.mip.lp_core));
  w.kv("branching", ilp::to_string(r.options.mip.branching));
  w.kv("warm_start", r.options.mip.warm_start);
  w.kv("warm_starts", r.selection.warm_starts);
  w.kv("warm_start_failures", r.selection.warm_start_failures);
  w.kv("presolve", r.options.mip.presolve);
  w.kv("presolve_fixed_vars", r.selection.presolve_fixed_vars);
  w.kv("presolve_removed_rows", r.selection.presolve_removed_rows);
  w.kv("dominance", r.options.dominance);
  w.kv("dominated_candidates", r.selection.dominated_candidates);
  w.kv("cuts", r.options.mip.cuts);
  w.kv("cuts_added", r.selection.cuts_added);
  w.kv("partial_pricing", r.options.mip.partial_pricing);
  w.end_object();
  w.end_object();
}

void write_alignment_ilp(support::JsonWriter& w, const ToolResult& r) {
  std::uint64_t greedy = 0;
  std::uint64_t non_optimal = 0;
  for (const cag::Resolution& res : r.alignment.ilp_resolutions) {
    if (res.greedy_fallback) ++greedy;
    if (res.solver_status != ilp::SolveStatus::Optimal) ++non_optimal;
  }
  w.key("alignment_ilp").begin_object();
  w.kv("resolutions", static_cast<std::uint64_t>(r.alignment.ilp_resolutions.size()));
  w.kv("non_optimal", non_optimal);
  w.kv("greedy_fallbacks", greedy);
  w.end_object();
}

void write_stages(support::JsonWriter& w, const StageTimings& t) {
  w.key("stages").begin_object();
  w.kv("frontend_ms", t.frontend_ms);
  w.kv("pcfg_ms", t.pcfg_ms);
  w.kv("alignment_ms", t.alignment_ms);
  w.kv("spaces_ms", t.spaces_ms);
  w.kv("estimation_ms", t.graph_ms);
  w.kv("selection_ms", t.selection_ms);
  w.kv("oracle_ms", t.oracle_ms);
  w.kv("total_ms", t.total_ms);
  w.kv("threads", t.threads);
  w.key("graph").begin_object();
  w.kv("node_ms", t.graph.node_ms);
  w.kv("edge_ms", t.graph.edge_ms);
  w.kv("threads", t.graph.threads);
  w.end_object();
  w.end_object();
}

void write_cache(support::JsonWriter& w, const ToolResult& r) {
  const perf::CacheStats& c = r.timings.cache;
  w.key("estimator_cache").begin_object();
  w.kv("enabled", r.options.estimator_cache);
  w.kv("estimate_hits", c.estimate_hits);
  w.kv("estimate_misses", c.estimate_misses);
  w.kv("remap_hits", c.remap_hits);
  w.kv("remap_misses", c.remap_misses);
  w.kv("array_hits", c.array_hits);
  w.kv("array_misses", c.array_misses);
  w.kv("hit_rate", c.hit_rate());
  const perf::EstimateCache::Occupancy occ = r.estimator->cache_occupancy();
  w.key("occupancy").begin_object();
  w.kv("estimates", static_cast<std::uint64_t>(occ.estimates));
  w.kv("remaps", static_cast<std::uint64_t>(occ.remaps));
  w.kv("array_remaps", static_cast<std::uint64_t>(occ.array_remaps));
  w.kv("shards", static_cast<std::uint64_t>(occ.shards));
  w.kv("max_shard_entries", static_cast<std::uint64_t>(occ.max_shard_entries));
  w.end_object();
  w.end_object();
}

// Schema v3 (additive): the simulator-as-oracle verdict. Everything beyond
// "ran" appears only when the validation stage actually ran.
void write_oracle(support::JsonWriter& w, const ToolResult& r) {
  const oracle::ValidationReport& o = r.oracle;
  w.key("oracle").begin_object();
  w.kv("ran", o.ran);
  if (o.ran) {
    w.kv("ok", o.ok);
    if (!o.message.empty()) w.kv("message", o.message);
    w.kv("seed", static_cast<std::uint64_t>(r.options.sim_seed));
    w.kv("margin", r.options.validate_margin);
    w.key("chosen").begin_object();
    w.kv("predicted_us", o.chosen.predicted_us);
    w.kv("simulated_us", o.chosen.simulated_us);
    w.kv("total_rel_error", o.total_rel_error);
    w.kv("mean_abs_phase_error", o.mean_abs_phase_error);
    w.kv("max_abs_phase_error", o.max_abs_phase_error);
    w.end_object();
    w.key("phases").begin_array();
    for (const oracle::PhaseValidation& p : o.phases) {
      w.begin_object();
      w.kv("predicted_us", p.predicted_us);
      w.kv("simulated_us", p.simulated_us);
      w.kv("rel_error", p.rel_error);
      w.end_object();
    }
    w.end_array();
    w.key("rivals").begin_array();
    for (const oracle::SimulatedRival& riv : o.rivals) {
      w.begin_object();
      w.kv("label", riv.label);
      w.kv("predicted_us", riv.predicted_us);
      w.kv("simulated_us", riv.simulated_us);
      w.end_object();
    }
    w.end_array();
    w.key("ranking").begin_object();
    w.kv("pairs", o.pairs);
    w.kv("inversions", o.inversions);
    w.kv("inversion_rate", o.inversion_rate());
    w.kv("chosen_inversions", o.chosen_inversions);
    w.kv("worst_rival_gap", o.worst_rival_gap);
    w.end_object();
  }
  w.end_object();
}

// Schema v3: the run's whole-run-cache identity. "key" appears only when a
// cache was consulted (it is the content address the run was filed under).
void write_run_cache(support::JsonWriter& w, const RunCacheInfo& rc) {
  w.key("run_cache").begin_object();
  w.kv("consulted", rc.consulted);
  if (rc.consulted) w.kv("key", perf::RunKey{rc.key_lo, rc.key_hi}.hex());
  w.end_object();
}

void write_metrics(support::JsonWriter& w) {
  const std::vector<support::Metrics::Sample> samples =
      support::Metrics::instance().snapshot();
  w.key("counters").begin_object();
  for (const auto& s : samples) {
    if (!s.is_gauge) w.kv(s.name, s.count);
  }
  w.end_object();
  w.key("gauges").begin_object();
  for (const auto& s : samples) {
    if (s.is_gauge) w.kv(s.name, s.gauge);
  }
  w.end_object();
}

// Only the spans that start inside the run's own [begin, end] window, read
// from the run's first stream position on: a long-lived traced process (the
// daemon) would otherwise copy its whole span buffer into every report.
void write_trace(support::JsonWriter& w, const ToolResult& r) {
  const support::Tracer& tr = support::Tracer::instance();
  w.key("trace").begin_object();
  w.kv("enabled", tr.enabled());
  w.kv("dropped_spans", tr.dropped());
  w.key("spans").begin_array();
  for (const support::SpanRecord& s :
       tr.snapshot(r.trace_first_span, r.trace_begin_ns, r.trace_end_ns)) {
    w.begin_object();
    w.kv("name", s.name);
    w.kv("start_us", static_cast<double>(s.start_ns) / 1e3);
    w.kv("dur_us", static_cast<double>(s.dur_ns) / 1e3);
    w.kv("thread", s.thread);
    w.kv("depth", static_cast<unsigned>(s.depth));
    w.end_object();
  }
  w.end_array();
  w.end_object();
}

} // namespace

void write_json_report(const ToolResult& r, std::ostream& os) {
  support::JsonWriter w(os);
  write_json_report(r, w);
}

void write_json_report(const ToolResult& r, support::JsonWriter& w) {
  w.begin_object();
  w.kv("schema", "autolayout.run");
  w.kv("schema_version", kJsonReportSchemaVersion);
  w.kv("program", r.program.name);
  w.key("machine").begin_object();
  w.kv("name", r.options.machine.name);
  w.kv("procs", r.options.procs);
  w.end_object();
  w.key("options").begin_object();
  w.kv("threads", r.options.threads);
  w.kv("estimator_cache", r.options.estimator_cache);
  w.kv("scalar_expansion", r.options.scalar_expansion);
  w.kv("replicate_unwritten", r.options.replicate_unwritten);
  w.kv("distribution_strategy", strategy_name(r.options.distribution_strategy));
  w.end_object();
  write_phases(w, r);
  w.key("layout_graph").begin_object();
  w.kv("phases", r.graph.num_phases());
  std::uint64_t nodes = 0;
  for (const auto& costs : r.graph.node_cost_us) nodes += costs.size();
  w.kv("nodes", nodes);
  w.kv("edge_blocks", static_cast<std::uint64_t>(r.graph.edges.size()));
  w.end_object();
  write_selection(w, r);
  write_alignment_ilp(w, r);
  write_oracle(w, r);
  write_stages(w, r.timings);
  write_cache(w, r);
  write_run_cache(w, r.run_cache);
  write_metrics(w);
  write_trace(w, r);
  w.end_object();
}

std::string json_report(const ToolResult& r) {
  std::ostringstream os;
  write_json_report(r, os);
  return os.str();
}

} // namespace al::driver
