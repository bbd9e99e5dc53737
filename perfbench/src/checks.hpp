// Correctness checks computed apart from the program: every finished
// selection is re-derived from its layout graph alone and compared with
// the greedy engine, the exact chain/cycle DP and the paper's alternative
// layouts. Each check returns "" when it holds, else a one-line reason.
#pragma once

#include <string>

#include "driver/tool.hpp"

namespace perfbench {

/// The chosen assignment is in range, its total recomputed from node costs
/// plus edge-block remap costs matches `sel.total_cost_us`, it is no worse
/// than select_layouts_greedy, and it equals select_layouts_dp's optimum
/// wherever the DP applies.
[[nodiscard]] std::string check_selection(const al::select::LayoutGraph& graph,
                                          const al::select::SelectionResult& sel);

/// check_selection on a finished run, plus: the chosen total is no worse
/// than any alternative evaluate_alternatives builds.
[[nodiscard]] std::string check_result(const al::driver::ToolResult& result);

/// Every phase is column-distributed, (*, BLOCK) -- the paper's answer for
/// Tomcatv and Shallow.
[[nodiscard]] std::string check_column_distribution(const al::driver::ToolResult& result);

/// Self-test of check_selection: changes one phase's choice in a copy of
/// the finished selection (to a candidate that changes the total) and
/// expects the check to reject it. Returns "" when it was rejected.
[[nodiscard]] std::string self_test_perturbed_choice(const al::driver::ToolResult& result);

/// True when the two totals agree to a relative 1e-9.
[[nodiscard]] bool same_cost(double a, double b);

} // namespace perfbench
