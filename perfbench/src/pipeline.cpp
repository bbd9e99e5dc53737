// The two pipeline workloads, paper99 and gen-scale: fixed sets of
// programs laid out by driver::run_tool in whole rounds, one round per
// timed pass, in an order shuffled by the run's seed.
#include <algorithm>
#include <cstdio>
#include <random>

#include "bench.hpp"
#include "checks.hpp"
#include "corpus/corpus.hpp"
#include "gen/generator.hpp"
#include "layers.hpp"
#include "sim/measure.hpp"
#include "support/trace.hpp"

namespace perfbench {

namespace {

/// An exact solve of the run ended without proven optimality: some
/// alignment CAG MIP or the selection MIP stopped on a limit.
bool not_proven_optimal(const al::driver::ToolResult& r) {
  for (const al::cag::Resolution& res : r.alignment.ilp_resolutions)
    if (res.solver_status != al::ilp::SolveStatus::Optimal) return true;
  return r.selection.solver_status != al::ilp::SolveStatus::Optimal ||
         r.selection.is_fallback();
}

std::vector<BenchProgram> paper99_programs() {
  std::vector<BenchProgram> out;
  for (const al::corpus::TestCase& c : al::corpus::all_cases()) {
    const bool column = c.program == "tomcatv" || c.program == "shallow";
    out.push_back(BenchProgram{c.name(), al::corpus::source_for(c), c.procs, column});
  }
  return out;
}

/// gen-scale draws: the first `draws` programs of gen::Rng(7) at exactly
/// `phases` phases, max_arrays 6, n 64, laid out for 16 processors.
void add_generated(std::vector<BenchProgram>& out, int phases, int draws) {
  al::gen::Rng rng(7);
  al::gen::GenOptions gopts;
  gopts.min_phases = gopts.max_phases = phases;
  gopts.max_arrays = 6;
  gopts.n = 64;
  for (int d = 0; d < draws; ++d) {
    out.push_back(BenchProgram{"gen" + std::to_string(phases) + "-seed7-draw" + std::to_string(d),
                               al::gen::random_program(rng, gopts), 16, false});
  }
}

std::vector<BenchProgram> gen_scale_programs() {
  std::vector<BenchProgram> out;
  add_generated(out, 32, 16);
  add_generated(out, 96, 8);
  add_generated(out, 256, 1);
  return out;
}

struct Outcome {
  std::vector<int> chosen;
  double total_cost_us = 0.0;
};

/// Runs a pipeline workload. `ops_per_segment` is how many operations run
/// between two kernel samples: about 40 ms of work on paper99, one program
/// on gen-scale.
RunResult run_programs(const Args& args, std::vector<BenchProgram> (*make_programs)(),
                       int ops_per_segment) {
  RunResult out;
  RefKernel& kernel = *args.kernel;
  if (args.trace) al::support::Tracer::instance().set_enabled(true);

  // Set-up: build the sources and machine models, then a warm-up pass
  // whose answers every timed pass must reproduce.
  PassTimer setup(kernel, ops_per_segment);
  std::vector<BenchProgram> programs;
  std::vector<al::driver::ToolOptions> options;
  setup.time_op([&] {
    programs = make_programs();
    for (const BenchProgram& p : programs) options.push_back(pipeline_options(p.procs));
  });
  std::vector<Outcome> expected;
  for (std::size_t i = 0; i < programs.size(); ++i) {
    setup.time_op([&] {
      const auto r = al::driver::run_tool(programs[i].source, options[i]);
      expected.push_back(Outcome{r->selection.chosen, r->selection.total_cost_us});
    });
  }
  const double setup_ms = setup.finish().ref_ms;
  const double rss_after_setup = current_rss_mb();

  std::mt19937_64 shuffle_rng(args.seed);
  std::vector<std::size_t> order(programs.size());
  for (std::size_t i = 0; i < order.size(); ++i) order[i] = i;
  std::vector<std::unique_ptr<al::driver::ToolResult>> last(programs.size());
  std::vector<Pass> passes;
  const Clock::time_point measure_start = Clock::now();
  while (passes.empty() || elapsed_ms(measure_start) < args.seconds * 1000.0) {
    std::shuffle(order.begin(), order.end(), shuffle_rng);
    PassTimer timer(kernel, ops_per_segment);
    for (const std::size_t i : order) {
      std::unique_ptr<al::driver::ToolResult> r;
      timer.time_op([&] { r = al::driver::run_tool(programs[i].source, options[i]); });
      last[i] = std::move(r);
    }
    Pass pass = timer.finish();
    pass.op_program = order;
    // Every pass must reproduce the warm-up's answers (outside the timing).
    for (std::size_t i = 0; i < programs.size(); ++i) {
      ++out.attempted;
      if (not_proven_optimal(*last[i])) ++out.failed;
      if (last[i]->selection.chosen != expected[i].chosen ||
          last[i]->selection.total_cost_us != expected[i].total_cost_us)
        out.fail_check(programs[i].name + ": answer differs between passes");
    }
    passes.push_back(std::move(pass));
  }

  // Checks and the simulated run time of the chosen layouts, on the last
  // pass's results (outside the timing).
  double sim_us = 0.0;
  bool self_tested = false;
  for (std::size_t i = 0; i < programs.size(); ++i) {
    const al::driver::ToolResult& r = *last[i];
    sim_us += al::sim::measure_program(*r.estimator, r.templ, r.spaces, r.selection.chosen,
                                       args.seed)
                  .total_us;
    if (not_proven_optimal(r)) continue;  // counted in `failed`
    std::string why = check_result(r);
    if (why.empty() && programs[i].column_expected) why = check_column_distribution(r);
    if (!why.empty()) out.fail_check(programs[i].name + ": " + why);
    if (!self_tested && r.pcfg.num_phases() > 1) {
      const std::string st = self_test_perturbed_choice(r);
      if (!st.empty()) out.fail_check(programs[i].name + ": " + st);
      self_tested = true;
    }
  }
  if (!self_tested) out.fail_check("self-test never ran");

  if (!args.trace) {
    add_end_to_end(out, passes, setup_ms, sim_us / 1000.0);
  } else {
    al::support::Tracer::instance().set_enabled(false);
    add_pipeline_layers(out, programs);
    add_service_layers(out, programs);
    add_process_layers(out, passes, rss_after_setup);
  }
  return out;
}

} // namespace

RunResult run_paper99(const Args& args) { return run_programs(args, paper99_programs, 11); }

RunResult run_gen_scale(const Args& args) { return run_programs(args, gen_scale_programs, 1); }

} // namespace perfbench
