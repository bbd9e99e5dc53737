// Stall regressions for the primal simplex's anti-cycling fallback
// (DESIGN.md section 15). Counts only, no timings: a textbook cycling LP
// must reach its optimum through the Bland fallback, and the generated
// 256-phase program whose CAG alignment MIP once cycled to the pivot limit
// must now prove every alignment MIP optimal in a bounded pivot count.
#include <gtest/gtest.h>

#include "driver/tool.hpp"
#include "gen/generator.hpp"
#include "gen/rng.hpp"
#include "ilp/simplex.hpp"

namespace al::ilp {
namespace {

// Beale's example (1955): with Dantzig pricing and the lowest-row tie
// break it cycles through six degenerate bases forever.
//   min -3/4 x4 + 150 x5 - 1/50 x6 + 6 x7
//   s.t. 1/4 x4 -  60 x5 - 1/25 x6 + 9 x7 <= 0
//        1/2 x4 -  90 x5 - 1/50 x6 + 3 x7 <= 0
//                               x6        <= 1,   x >= 0
// Optimum -1/20 at x4 = 1/25, x6 = 1.
//
// `x6_upper` moves the bound x6 <= 1 onto the variable itself, so x6 enters
// with a finite bound range and the ratio test weighs a bound flip against
// the blocking rows. `r3_rhs`, when finite, keeps the row x6 <= r3_rhs.
// `flip_row` prepends a 0-1 column y (cost -1e-6, too small for Dantzig
// pricing to take while the cycle has better candidates, but column 0, so
// the first Bland pivot enters it) with the one row y <= 1 + 5e-13: its
// ratio lands past y's own bound by less than the 1e-12 tie window, before
// any blocking row is picked, and the step must stay a bound flip.
Model beale(double x6_upper = kInfinity, double r3_rhs = 1.0, bool flip_row = false) {
  Model m(Sense::Minimize);
  if (flip_row) {
    const int y = m.add_continuous("y", 0.0, 1.0, -1e-6);
    m.add_constraint("r0", {{y, 1.0}}, Rel::LE, 1.0 + 5e-13);
  }
  const int x4 = m.add_continuous("x4", 0.0, kInfinity, -0.75);
  const int x5 = m.add_continuous("x5", 0.0, kInfinity, 150.0);
  const int x6 = m.add_continuous("x6", 0.0, x6_upper, -0.02);
  const int x7 = m.add_continuous("x7", 0.0, kInfinity, 6.0);
  m.add_constraint("r1", {{x4, 0.25}, {x5, -60.0}, {x6, -0.04}, {x7, 9.0}}, Rel::LE, 0.0);
  m.add_constraint("r2", {{x4, 0.5}, {x5, -90.0}, {x6, -0.02}, {x7, 3.0}}, Rel::LE, 0.0);
  if (r3_rhs < kInfinity) m.add_constraint("r3", {{x6, 1.0}}, Rel::LE, r3_rhs);
  return m;
}

void expect_beale_optimum(const Model& m) {
  // Beale's x4 and x6 sit after the optional y column.
  const bool flip_row = m.num_variables() == 5;
  const auto x4 = static_cast<std::size_t>(flip_row ? 1 : 0);
  for (const LpCore core : {LpCore::Sparse, LpCore::Dense}) {
    SimplexOptions opts;
    opts.core = core;
    const LpResult r = solve_lp(m, opts);
    ASSERT_EQ(r.status, SolveStatus::Optimal) << to_string(core);
    EXPECT_NEAR(r.objective, flip_row ? -0.05 - 1e-6 : -0.05, 1e-9) << to_string(core);
    EXPECT_NEAR(r.x[x4], 0.04, 1e-9) << to_string(core);
    EXPECT_NEAR(r.x[x4 + 2], 1.0, 1e-9) << to_string(core);
    if (flip_row) EXPECT_NEAR(r.x[0], 1.0, 1e-9) << to_string(core);
    // Dantzig pricing cycles until the stall counter passes 2(m+16) pivots;
    // Bland's rule then leaves the cycle within a few pivots.
    EXPECT_GT(r.iterations, 2 * (m.num_constraints() + 16)) << to_string(core);
    EXPECT_LT(r.iterations, 100) << to_string(core);
  }
}

TEST(SimplexStall, BealeCyclingLpReachesOptimumThroughBland) {
  expect_beale_optimum(beale());
}

TEST(SimplexStall, BealeWithBoundedEnteringColumnReachesOptimumThroughBland) {
  // x6 enters in Bland mode with tmax = 1 from its own bound, once without
  // the row r3 and once with r3 just past that bound; a degenerate row
  // blocks first there. In the third model y enters as the first Bland
  // pivot and its only row lands inside the 1e-12 tie window past y's
  // bound with no row picked yet: the step must stay a bound flip rather
  // than be compared against a basis row that does not exist.
  expect_beale_optimum(beale(1.0, kInfinity));
  expect_beale_optimum(beale(1.0, 1.0 + 5e-13));
  expect_beale_optimum(beale(kInfinity, 1.0, true));
}

TEST(SimplexStall, Gen256AlignmentMipsProveOptimal) {
  // gen::Rng(7), 256 phases, max_arrays 6, n 64, 16 processors, draw 0:
  // one of its CAG alignment MIPs used to cycle for 211,654 pivots and fall
  // back to greedy.
  gen::Rng rng(7);
  gen::GenOptions gopts;
  gopts.min_phases = gopts.max_phases = 256;
  gopts.max_arrays = 6;
  gopts.n = 64;
  const std::string source = gen::random_program(rng, gopts);
  driver::ToolOptions opts;
  opts.procs = 16;
  opts.threads = 1;
  const auto r = driver::run_tool(source, opts);
  ASSERT_FALSE(r->alignment.ilp_resolutions.empty());
  long pivots = 0;
  for (const cag::Resolution& res : r->alignment.ilp_resolutions) {
    EXPECT_EQ(res.solver_status, SolveStatus::Optimal);
    pivots += res.lp_iterations;
  }
  EXPECT_LT(pivots, 20000);
  EXPECT_TRUE(r->verification.ok);
}

} // namespace
} // namespace al::ilp
