// The data layout assistant tool: the end-to-end pipeline of the paper's
// framework (figure 1). Give it Fortran source, a machine model, and a
// processor count; it returns the phase structure, the explicit candidate
// search spaces, every cost estimate, and the optimal layout selection --
// all inspectable, as the tool-oriented design demands.
#pragma once

#include <cstdint>
#include <memory>
#include <string_view>

#include "align/heuristic.hpp"
#include "distrib/candidates.hpp"
#include "distrib/space.hpp"
#include "fortran/inline.hpp"
#include "fortran/scalar_expand.hpp"
#include "fortran/parser.hpp"
#include "ilp/branch_and_bound.hpp"
#include "layout/template_map.hpp"
#include "machine/training_set.hpp"
#include "oracle/validate.hpp"
#include "perf/estimator.hpp"
#include "select/ilp_selection.hpp"
#include "select/verify.hpp"

namespace al::driver {

struct ToolOptions {
  int procs = 16;
  machine::MachineModel machine = machine::make_ipsc860();
  pcfg::PhaseOptions phase;
  compmodel::CompileOptions compiler;
  /// Worker threads for the performance-estimation stage. 0 = one per
  /// hardware core; 1 = run everything on the calling thread (exactly the
  /// old serial behavior). Results are bit-identical for every setting.
  int threads = 0;
  /// Memoize estimator queries across candidates/phases (hit/miss counters
  /// are reported). Off re-runs the full compiler model per query.
  bool estimator_cache = true;
  /// Expand scalar temporaries into arrays before analysis (the paper's
  /// prototype always did; our corpus does not need it, so default off).
  bool scalar_expansion = false;
  /// Generate candidates that REPLICATE the arrays a phase only reads
  /// (when they fit in a quarter of node memory). Off to mirror the
  /// prototype's search spaces.
  bool replicate_unwritten = false;
  distrib::Strategy distribution_strategy = distrib::Strategy::Exhaustive1DBlock;
  align::AlignmentAnalysisOptions alignment;
  /// Budgets for EVERY exact 0-1 solve of the run (alignment conflict
  /// resolution and layout selection). A budget hit never aborts the run:
  /// the solvers degrade to the ILP incumbent, the exact chain DP, or the
  /// greedy heuristics, and the provenance is reported (CLI --mip-nodes /
  /// --mip-deadline-ms).
  ilp::MipOptions mip;
  /// Dominance-prune candidate layouts before the selection ILP (CLI
  /// --no-dominance turns it off). Preserves the optimal objective.
  bool dominance = true;
  /// Partially specified layouts (the abstract's second use case): phases
  /// listed here are pinned to the given layout; the tool extends the
  /// layout to the rest of the program.
  std::vector<std::pair<int, layout::Layout>> pinned_phases;
  /// Consult the whole-run result cache for this run (driver/run_cache;
  /// CLI --no-run-cache, protocol options.run_cache). Observability-only:
  /// the flag never changes the answer, so it is NOT part of the cache key.
  bool run_cache = true;
  /// Run the simulator-as-oracle validation stage after selection (CLI
  /// --validate[=K], protocol options.validate): simulate the chosen
  /// assignment plus `validate_rivals` sampled rivals and grade the
  /// estimator's ranking. Fills ToolResult::oracle and the report's
  /// "oracle" block; part of the run-cache key only while on.
  bool validate = false;
  int validate_rivals = 8;
  /// Chosen-vs-rival slowdown a validation tolerates before flagging
  /// (oracle::ValidationOptions::margin).
  double validate_margin = 0.25;
  /// Seed for every simulator jitter stream and for rival sampling (CLI
  /// --sim-seed, protocol options.sim_seed). Only observable -- and only in
  /// the cache key -- when validation runs; plain runs never simulate.
  std::uint64_t sim_seed = 0x5EED;
};

/// Cache identity of one run, for the JSON report's "run_cache" block.
/// run_tool_cached fills it; a plain run_tool leaves consulted = false.
struct RunCacheInfo {
  bool consulted = false;    ///< a run cache was probed for this run
  std::uint64_t key_lo = 0;  ///< 128-bit content address (valid when consulted)
  std::uint64_t key_hi = 0;
};

/// Wall-clock of each pipeline stage of one run_tool call, plus the
/// estimation stage's parallelism/caching counters -- the data behind the
/// report's "tool stages" block.
struct StageTimings {
  double frontend_ms = 0.0;   ///< parse + sema + inline (+ scalar expansion)
  double pcfg_ms = 0.0;       ///< phase splitting + PCFG
  double alignment_ms = 0.0;  ///< CAG + alignment search spaces
  double spaces_ms = 0.0;     ///< distribution candidates x alignments
  double graph_ms = 0.0;      ///< performance estimation (the hot stage)
  double selection_ms = 0.0;  ///< 0-1 ILP
  double oracle_ms = 0.0;     ///< oracle validation (0 unless --validate)
  double total_ms = 0.0;
  int threads = 1;            ///< workers used by the estimation stage
  select::GraphBuildStats graph;  ///< node/edge split of graph_ms
  perf::CacheStats cache;         ///< estimator memo hits/misses
};

/// Everything the tool produced. Not movable (internal references); returned
/// through unique_ptr.
struct ToolResult {
  ToolOptions options;
  fortran::Program program;
  pcfg::Pcfg pcfg;
  layout::ProgramTemplate templ;
  cag::NodeUniverse universe;
  align::AlignmentAnalysis alignment;
  std::vector<layout::Distribution> distributions;
  std::vector<distrib::LayoutSpace> spaces;   ///< one per phase
  std::unique_ptr<perf::Estimator> estimator; ///< references members above
  select::LayoutGraph graph;
  select::SelectionResult selection;
  /// Independent checker verdict on `selection` (run on every result,
  /// whatever engine produced it).
  select::VerifyResult verification;
  /// Simulator-as-oracle verdict (oracle.ran == false unless
  /// ToolOptions::validate requested the stage).
  oracle::ValidationReport oracle;
  StageTimings timings;
  RunCacheInfo run_cache;
  /// Tracer clock (support::Tracer::now_ns) at run_tool entry and exit, and
  /// the tracer's stream position (support::Tracer::recorded) at entry. The
  /// run report embeds only the spans recorded from that position on that
  /// start inside this window, not the whole process's span buffer. Runs
  /// that overlap in time (several daemon workers) share each other's
  /// spans inside the overlap; the window cannot tell them apart.
  std::uint64_t trace_first_span = 0;
  std::uint64_t trace_begin_ns = 0;
  std::uint64_t trace_end_ns = 0;

  ToolResult() = default;
  ToolResult(const ToolResult&) = delete;
  ToolResult& operator=(const ToolResult&) = delete;

  [[nodiscard]] const layout::Layout& chosen_layout(int phase) const {
    return spaces.at(static_cast<std::size_t>(phase))
        .candidates()
        .at(static_cast<std::size_t>(selection.chosen.at(static_cast<std::size_t>(phase))))
        .layout;
  }
  /// True when the selection remaps between at least one phase pair.
  [[nodiscard]] bool is_dynamic() const;
};

/// Runs the full pipeline. Throws al::FatalError on frontend errors.
[[nodiscard]] std::unique_ptr<ToolResult> run_tool(std::string_view source,
                                                   const ToolOptions& opts = {});

} // namespace al::driver
