#include "driver/tool.hpp"

#include <algorithm>

#include "select/layout_graph.hpp"
#include "support/contracts.hpp"
#include "support/metrics.hpp"
#include "support/thread_pool.hpp"
#include "support/trace.hpp"

namespace al::driver {

bool ToolResult::is_dynamic() const {
  for (const pcfg::Transition& t : pcfg.transitions()) {
    if (t.src < 0 || t.dst < 0) continue;
    const pcfg::Phase& sp = pcfg.phase(t.src);
    const pcfg::Phase& dp = pcfg.phase(t.dst);
    std::vector<int> shared;
    std::set_intersection(sp.arrays.begin(), sp.arrays.end(), dp.arrays.begin(),
                          dp.arrays.end(), std::back_inserter(shared));
    for (int a : shared) {
      const int rank = program.symbols.at(a).rank();
      if (layout::classify_remap(chosen_layout(t.src), chosen_layout(t.dst), a, rank) !=
          layout::RemapKind::None)
        return true;
    }
  }
  return false;
}

std::unique_ptr<ToolResult> run_tool(std::string_view source, const ToolOptions& opts) {
  // Each stage runs inside a TraceSpan: the span feeds StageTimings (always)
  // and the trace buffer (when tracing is on), so the printf report and the
  // --trace/--json exports can never disagree about what was measured.
  // The stream position is read before the clock: a span recorded before
  // that read also started before it, so it cannot start inside the window.
  support::Tracer& tracer = support::Tracer::instance();
  const std::uint64_t trace_first_span = tracer.recorded();
  const std::uint64_t trace_begin_ns = tracer.now_ns();
  support::TraceSpan total_span("tool.run");

  auto r = std::make_unique<ToolResult>();
  r->options = opts;

  {
    // 0. Frontend (+ inlining: the analysis itself is intra-procedural, like
    // the paper's prototype, so multi-procedure inputs are inlined first).
    support::TraceSpan span("stage.frontend");
    r->program = fortran::parse_and_check(source);
    if (!r->program.procedures.empty()) {
      DiagnosticEngine diags;
      fortran::inline_calls(r->program, diags);
      if (diags.has_errors())
        throw FatalError("inlining failed:\n" + diags.str());
    }
    if (opts.scalar_expansion) fortran::expand_scalars(r->program);
    r->timings.frontend_ms = span.stop_ms();
  }

  {
    // 1. Phases + PCFG (framework step 1).
    support::TraceSpan span("stage.pcfg");
    r->pcfg = pcfg::Pcfg::build(r->program, opts.phase);
    if (r->pcfg.num_phases() == 0)
      throw FatalError("program contains no phases (no loops subscript any array)");
    r->timings.pcfg_ms = span.stop_ms();
  }

  {
    // 2a. Alignment search spaces (framework step 2, first half).
    support::TraceSpan span("stage.alignment");
    r->templ = layout::ProgramTemplate::from_program(r->program);
    r->universe = cag::NodeUniverse::from_program(r->program);
    align::AlignmentAnalysisOptions aopts = opts.alignment;
    aopts.mip = opts.mip;  // one solver budget governs the whole run
    r->alignment = align::analyze_alignment(r->program, r->pcfg, r->universe,
                                            r->templ.rank, aopts);
    r->timings.alignment_ms = span.stop_ms();
  }

  {
    // 2b. Distribution candidates and per-phase layout spaces.
    support::TraceSpan span("stage.spaces");
    distrib::DistributionOptions dopts;
    dopts.strategy = opts.distribution_strategy;
    dopts.procs = opts.procs;
    r->distributions = distrib::make_distribution_candidates(r->templ.rank, dopts);
    for (int p = 0; p < r->pcfg.num_phases(); ++p) {
      // Pinned phases keep exactly the user's layout.
      const auto pin =
          std::find_if(opts.pinned_phases.begin(), opts.pinned_phases.end(),
                       [&](const auto& pr) { return pr.first == p; });
      if (pin != opts.pinned_phases.end()) {
        distrib::LayoutSpace space;
        distrib::LayoutCandidate cand;
        cand.layout = pin->second;
        cand.label = "pinned by user";
        space.add(std::move(cand));
        r->spaces.push_back(std::move(space));
        continue;
      }
      distrib::LayoutSpaceOptions sopts;
      if (opts.replicate_unwritten) {
        // Replication candidates: arrays this phase never writes and that fit
        // comfortably (a quarter of node memory) when fully copied.
        const pcfg::Phase& ph = r->pcfg.phase(p);
        for (int a : ph.arrays) {
          bool written = false;
          for (const pcfg::Reference& ref : ph.refs) {
            if (ref.array == a && ref.is_write) written = true;
          }
          if (written) continue;
          const fortran::Symbol& sym = r->program.symbols.at(a);
          const long bytes = sym.element_count() * fortran::size_in_bytes(sym.type);
          if (bytes * 4 <= opts.machine.node_memory_bytes)
            sopts.replicable_arrays.push_back(a);
        }
      }
      r->spaces.push_back(distrib::build_layout_space(
          r->alignment.phase_spaces[static_cast<std::size_t>(p)], r->distributions,
          r->pcfg.phase(p).arrays, r->program.symbols, sopts));
    }
    r->timings.spaces_ms = span.stop_ms();
  }

  {
    // 3. Performance estimation (framework step 3), fanned out over a worker
    // pool sized by opts.threads. threads == 1 skips the pool entirely -- the
    // exact pre-concurrency code path; the output is bit-identical either way.
    support::TraceSpan span("stage.estimation");
    r->estimator = std::make_unique<perf::Estimator>(r->program, r->pcfg,
                                                     r->options.machine, opts.compiler);
    r->estimator->enable_cache(opts.estimator_cache);
    const int threads =
        opts.threads > 0 ? opts.threads : support::ThreadPool::default_threads();
    if (threads > 1) {
      support::ThreadPool pool(threads);
      r->graph = select::build_layout_graph(*r->estimator, r->spaces, &pool,
                                            &r->timings.graph);
    } else {
      r->graph = select::build_layout_graph(*r->estimator, r->spaces, nullptr,
                                            &r->timings.graph);
    }
    r->timings.threads = threads;
    r->timings.graph_ms = span.stop_ms();
  }

  {
    // 4. Layout selection via 0-1 integer programming (framework step 4),
    // then the independent checker -- every selection is re-validated no
    // matter which engine (ILP, incumbent, DP, greedy) produced it.
    support::TraceSpan span("stage.selection");
    select::SelectionOptions sopts;
    sopts.mip = opts.mip;
    sopts.dominance = opts.dominance;
    r->selection = select::select_layouts_ilp(r->graph, sopts);
    r->verification = select::verify_assignment(r->graph, r->selection);
    r->timings.selection_ms = span.stop_ms();
  }

  if (opts.validate) {
    // 5. Simulator-as-oracle validation (DESIGN.md section 16): ground the
    // selection against the SPMD simulator. Runs after the checker so a
    // broken selection fails fast on the cheap invariant first.
    support::TraceSpan span("stage.oracle");
    oracle::ValidationOptions vopts;
    vopts.rivals = opts.validate_rivals;
    vopts.margin = opts.validate_margin;
    vopts.seed = opts.sim_seed;
    r->oracle = oracle::validate_selection(*r->estimator, r->templ, r->spaces,
                                           r->graph, r->selection, vopts);
    r->timings.oracle_ms = span.stop_ms();
  }

  r->timings.cache = r->estimator->cache_stats();
  r->timings.total_ms = total_span.stop_ms();
  r->trace_first_span = trace_first_span;
  r->trace_begin_ns = trace_begin_ns;
  r->trace_end_ns = tracer.now_ns();

  support::Metrics& m = support::Metrics::instance();
  m.counter("tool.runs").add();
  m.counter("tool.phases").add(static_cast<std::uint64_t>(r->pcfg.num_phases()));
  r->estimator->publish_cache_metrics(m);
  return r;
}

} // namespace al::driver
