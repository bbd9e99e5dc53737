#include "checks.hpp"

#include <cmath>
#include <cstdio>

#include "driver/testcase.hpp"
#include "select/dp_selection.hpp"

namespace perfbench {

namespace {

constexpr double kRelTol = 1e-9;

std::string format(const char* fmt, double a, double b) {
  char buf[160];
  std::snprintf(buf, sizeof buf, fmt, a, b);
  return buf;
}

/// The assignment's total, summed here rather than by the library's
/// assignment_cost: node costs plus traversals x remap cost of every
/// non-degenerate edge block.
double recompute_total(const al::select::LayoutGraph& graph, const std::vector<int>& chosen) {
  double total = 0.0;
  for (std::size_t p = 0; p < chosen.size(); ++p)
    total += graph.node_cost_us[p][static_cast<std::size_t>(chosen[p])];
  for (const al::select::LayoutEdgeBlock& block : graph.edges) {
    if (block.remap_us.empty()) continue;
    const auto i = static_cast<std::size_t>(chosen[static_cast<std::size_t>(block.src_phase)]);
    const auto j = static_cast<std::size_t>(chosen[static_cast<std::size_t>(block.dst_phase)]);
    total += block.traversals * block.remap_us[i][j];
  }
  return total;
}

bool no_worse(double chosen, double other) {
  return chosen <= other + kRelTol * std::max(1.0, std::fabs(other));
}

} // namespace

bool same_cost(double a, double b) {
  return std::fabs(a - b) <= kRelTol * std::max({1.0, std::fabs(a), std::fabs(b)});
}

std::string check_selection(const al::select::LayoutGraph& graph,
                            const al::select::SelectionResult& sel) {
  if (static_cast<int>(sel.chosen.size()) != graph.num_phases())
    return "chosen assignment has the wrong number of phases";
  for (int p = 0; p < graph.num_phases(); ++p) {
    const int c = sel.chosen[static_cast<std::size_t>(p)];
    if (c < 0 || c >= graph.num_candidates(p))
      return "phase " + std::to_string(p) + " chose a candidate out of range";
  }
  const double total = recompute_total(graph, sel.chosen);
  if (!same_cost(total, sel.total_cost_us))
    return format("recomputed total %.6f != reported total %.6f", total, sel.total_cost_us);
  const al::select::SelectionResult greedy = al::select::select_layouts_greedy(graph);
  if (!no_worse(sel.total_cost_us, greedy.total_cost_us))
    return format("chosen total %.6f worse than greedy %.6f", sel.total_cost_us,
                  greedy.total_cost_us);
  if (const auto dp = al::select::select_layouts_dp(graph)) {
    if (!same_cost(sel.total_cost_us, dp->total_cost_us))
      return format("chosen total %.6f != exact DP optimum %.6f", sel.total_cost_us,
                    dp->total_cost_us);
  }
  return "";
}

std::string check_result(const al::driver::ToolResult& result) {
  std::string why = check_selection(result.graph, result.selection);
  if (!why.empty()) return why;
  const al::driver::CaseReport report = al::driver::evaluate_alternatives(result);
  for (const al::driver::Alternative& alt : report.alternatives) {
    if (!no_worse(result.selection.total_cost_us, alt.est_us))
      return "chosen total worse than alternative '" + alt.name + "'" +
             format(" (%.6f > %.6f)", result.selection.total_cost_us, alt.est_us);
  }
  return "";
}

std::string check_column_distribution(const al::driver::ToolResult& result) {
  for (int p = 0; p < result.pcfg.num_phases(); ++p) {
    const al::layout::Distribution& d = result.chosen_layout(p).distribution();
    if (d.rank() != 2 || d.single_distributed_dim() != 1)
      return "phase " + std::to_string(p) + " chose " + d.str() + ", not (*, BLOCK)";
  }
  return "";
}

std::string self_test_perturbed_choice(const al::driver::ToolResult& result) {
  const al::select::LayoutGraph& graph = result.graph;
  for (int p = 0; p < graph.num_phases(); ++p) {
    for (int c = 0; c < graph.num_candidates(p); ++c) {
      al::select::SelectionResult perturbed = result.selection;
      if (perturbed.chosen[static_cast<std::size_t>(p)] == c) continue;
      perturbed.chosen[static_cast<std::size_t>(p)] = c;
      if (same_cost(recompute_total(graph, perturbed.chosen), perturbed.total_cost_us))
        continue;  // an equal-cost swap is as good an answer; try another
      if (check_selection(graph, perturbed).empty())
        return "self-test: a perturbed choice at phase " + std::to_string(p) +
               " passed the checks";
      return "";
    }
  }
  return "self-test: no phase has a candidate that changes the total";
}

} // namespace perfbench
