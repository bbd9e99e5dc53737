#include "ilp/simplex.hpp"

#include <algorithm>
#include <cmath>
#include <limits>

#include "ilp/basis.hpp"
#include "support/contracts.hpp"
#include "support/metrics.hpp"

namespace al::ilp {
namespace {

// Internal problem form:  A x = b  with per-column bounds, minimize c'x.
// Columns 0..n-1 are the structural variables; then one slack per row
// (GE rows are negated to LE first, EQ slacks are fixed to [0,0]); then
// phase-1 artificials as needed.
struct Column {
  std::vector<int> rows;     // row indices of nonzeros (ascending)
  std::vector<double> vals;  // matching coefficients
  double lower = 0.0;
  double upper = kInfinity;
  double cost = 0.0;   // phase-2 cost (after sense normalization)
};

enum class NonbasicAt : unsigned char { Lower, Upper };

enum class DualOutcome {
  Restored,    // primal feasibility regained; polish with the primal simplex
  Infeasible,  // a row proved no feasible point exists under these bounds
  GiveUp,      // pivot budget or numerics -- fall back to a cold solve
};

// Residual threshold of the sampled drift probe: a basic column whose ftran
// image differs from its unit vector by more than this forces an early
// refactorization.
constexpr double kDriftTol = 1e-6;
// Pivots between drift probes (one ftran_col each -- cheap).
constexpr int kDriftProbeStride = 64;

[[nodiscard]] BasisColumn view_of(const Column& c) {
  return BasisColumn{c.rows.data(), c.vals.data(),
                     static_cast<int>(c.rows.size())};
}

} // namespace

struct SimplexInstance::Impl {
  Impl(const Model& model, SimplexOptions opts) : model_(&model), opts_(opts) {
    if (opts_.core == LpCore::Dense) {
      factor_ = std::make_unique<DenseBasisFactor>();
    } else {
      factor_ = std::make_unique<SparseBasisFactor>();
    }
    refactor_limit_ =
        opts_.refactor_interval > 0 ? opts_.refactor_interval : 512;
    build_base();
  }

  LpResult solve(const std::vector<double>& lower,
                 const std::vector<double>& upper);

  const Model* model_;
  SimplexOptions opts_;
  int m_ = 0;          // rows
  int n_struct_ = 0;   // structural variables
  int n_base_ = 0;     // structural + slack columns (never artificials)
  int n_ = 0;          // total columns incl. any artificials
  std::vector<Column> cols_;
  std::vector<double> b_;
  std::vector<int> basis_;       // basis_[i] = column basic in row i
  std::vector<int> basic_pos_;   // column -> row index in basis, or -1
  std::vector<NonbasicAt> at_;   // nonbasic state (ignored for basic cols)
  std::vector<double> xb_;       // values of basic variables
  std::unique_ptr<BasisFactor> factor_;
  long iterations_ = 0;  // pivots of the solve in progress
  bool unbounded_ = false;
  int first_artificial_ = 0;
  // True when the last solve left an artificial-free optimal basis the next
  // solve can restart from.
  bool have_basis_ = false;
  // Pivots applied to the factorization since it was last rebuilt. The
  // sparse core refactorizes in place (keeping warm chains alive) when this
  // passes refactor_limit_, when its eta file outgrows the factors, or when
  // the sampled drift probe fires; the dense core keeps the legacy policy of
  // starting the next solve cold once the chain is long enough.
  long pivots_since_factor_ = 0;
  long refactor_limit_ = 512;
  long probe_tick_ = 0;   // pivots since construction, drives probe cadence
  int drift_probe_ = 0;   // rotating basis position sampled by the probe
  long refactorizations_ = 0;
  int price_cursor_ = 0;  // partial-pricing section cursor
  long warm_starts_ = 0;
  long warm_failures_ = 0;
  std::vector<double> probe_;  // drift-probe scratch
  std::vector<double> rho_;    // dual pivot-row scratch

  void build_base();
  [[nodiscard]] bool refactor_now();
  [[nodiscard]] bool after_pivot();
  void reset_cold();
  [[nodiscard]] bool crash_applicable() const;
  void reset_crash();
  void compute_basic_values();
  [[nodiscard]] int price(const std::vector<double>& cost,
                          const std::vector<double>& y, bool bland,
                          double& enter_dir);
  bool iterate(const std::vector<double>& cost);
  [[nodiscard]] DualOutcome dual_restore();
  [[nodiscard]] LpResult run_cold();
  [[nodiscard]] LpResult extract_optimal();
  [[nodiscard]] bool sparse_core() const {
    return opts_.core == LpCore::Sparse;
  }
  [[nodiscard]] std::vector<double> phase2_cost() const {
    std::vector<double> cost(static_cast<std::size_t>(n_), 0.0);
    for (int j = 0; j < n_; ++j)
      cost[static_cast<std::size_t>(j)] = cols_[static_cast<std::size_t>(j)].cost;
    return cost;
  }
  [[nodiscard]] double value_of(int j) const {
    int bi = basic_pos_[static_cast<std::size_t>(j)];
    if (bi >= 0) return xb_[static_cast<std::size_t>(bi)];
    return at_[static_cast<std::size_t>(j)] == NonbasicAt::Lower
               ? cols_[static_cast<std::size_t>(j)].lower
               : cols_[static_cast<std::size_t>(j)].upper;
  }
};

void SimplexInstance::Impl::build_base() {
  const Model& model = *model_;
  m_ = model.num_constraints();
  n_struct_ = model.num_variables();

  const double sign = model.sense() == Sense::Minimize ? 1.0 : -1.0;

  cols_.clear();
  cols_.resize(static_cast<std::size_t>(n_struct_));
  for (int j = 0; j < n_struct_; ++j) {
    auto& c = cols_[static_cast<std::size_t>(j)];
    c.lower = model.variable(j).lower;
    c.upper = model.variable(j).upper;
    c.cost = sign * model.variable(j).objective;
  }

  b_.resize(static_cast<std::size_t>(m_));
  for (int i = 0; i < m_; ++i) {
    const Constraint& row = model.constraints()[static_cast<std::size_t>(i)];
    // GE rows are negated so every inequality reads `<=`.
    const double rsign = row.rel == Rel::GE ? -1.0 : 1.0;
    b_[static_cast<std::size_t>(i)] = rsign * row.rhs;
    for (const Term& t : row.terms) {
      if (t.coef == 0.0) continue;
      auto& c = cols_[static_cast<std::size_t>(t.var)];
      // Merge duplicate variable mentions within a row.
      if (!c.rows.empty() && c.rows.back() == i) {
        c.vals.back() += rsign * t.coef;
      } else {
        c.rows.push_back(i);
        c.vals.push_back(rsign * t.coef);
      }
    }
    // Slack column.
    Column s;
    s.rows = {i};
    s.vals = {1.0};
    s.lower = 0.0;
    s.upper = row.rel == Rel::EQ ? 0.0 : kInfinity;
    s.cost = 0.0;
    cols_.push_back(std::move(s));
  }
  n_base_ = static_cast<int>(cols_.size());
  n_ = n_base_;
  first_artificial_ = n_;
}

bool SimplexInstance::Impl::refactor_now() {
  static support::Metrics::Counter& refactor_count =
      support::Metrics::instance().counter("ilp.refactorizations");
  std::vector<BasisColumn> bc(static_cast<std::size_t>(m_));
  for (int i = 0; i < m_; ++i)
    bc[static_cast<std::size_t>(i)] =
        view_of(cols_[static_cast<std::size_t>(basis_[static_cast<std::size_t>(i)])]);
  ++refactorizations_;
  refactor_count.add();
  pivots_since_factor_ = 0;
  if (!factor_->factor(bc, m_)) {
    have_basis_ = false;
    return false;
  }
  return true;
}

// Post-pivot housekeeping: schedules refactorizations (sparse core) and runs
// the sampled basis-residual drift probe (both cores). Every
// kDriftProbeStride pivots one basic column is pushed through ftran; its
// image should be a unit vector, and any residual past kDriftTol means the
// update chain has drifted -- refactorize NOW instead of trusting it for
// another few hundred pivots. Returns false when a needed refactorization
// failed (caller bails out; the cold path rebuilds from the slack basis).
bool SimplexInstance::Impl::after_pivot() {
  static support::Metrics::Counter& drift_count =
      support::Metrics::instance().counter("ilp.drift_refactorizations");
  ++pivots_since_factor_;
  ++probe_tick_;
  bool need = false;
  if (sparse_core()) {
    need = factor_->wants_refactor() || pivots_since_factor_ >= refactor_limit_;
  }
  if (!need && probe_tick_ % kDriftProbeStride == 0 && m_ > 0) {
    const int i = drift_probe_ % m_;
    ++drift_probe_;
    factor_->ftran_col(
        view_of(cols_[static_cast<std::size_t>(basis_[static_cast<std::size_t>(i)])]),
        probe_);
    double resid = 0.0;
    for (int k = 0; k < m_; ++k) {
      const double expect = k == i ? 1.0 : 0.0;
      resid = std::max(resid, std::abs(probe_[static_cast<std::size_t>(k)] - expect));
    }
    if (resid > kDriftTol) {
      need = true;
      drift_count.add();
    }
  }
  if (need) return refactor_now();
  return true;
}

void SimplexInstance::Impl::reset_cold() {
  // Drop any artificials left over from an earlier solve.
  cols_.resize(static_cast<std::size_t>(n_base_));
  n_ = n_base_;

  // Initial point: structurals nonbasic at the finite bound nearest zero,
  // slacks basic.
  at_.assign(static_cast<std::size_t>(n_), NonbasicAt::Lower);
  for (int j = 0; j < n_struct_; ++j) {
    const auto& c = cols_[static_cast<std::size_t>(j)];
    if (std::isfinite(c.upper) && std::abs(c.upper) < std::abs(c.lower)) {
      at_[static_cast<std::size_t>(j)] = NonbasicAt::Upper;
    }
  }

  basis_.resize(static_cast<std::size_t>(m_));
  basic_pos_.assign(static_cast<std::size_t>(n_), -1);
  for (int i = 0; i < m_; ++i) {
    basis_[static_cast<std::size_t>(i)] = n_struct_ + i;
    basic_pos_[static_cast<std::size_t>(n_struct_ + i)] = i;
  }
  // The all-slack basis is the identity; factoring it cannot fail.
  const bool ok = refactor_now();
  AL_ASSERT(ok);

  compute_basic_values();

  // Rows whose slack violates its bounds get a phase-1 artificial that
  // absorbs the violation; the slack is pushed to the violated bound.
  first_artificial_ = n_;
  for (int i = 0; i < m_; ++i) {
    const int sj = n_struct_ + i;
    const auto& sc = cols_[static_cast<std::size_t>(sj)];
    const double v = xb_[static_cast<std::size_t>(i)];
    double coef = 0.0;
    if (v > sc.upper + opts_.tol) {
      // slack forced to its upper bound; artificial with +1 takes the excess
      coef = 1.0;
      at_[static_cast<std::size_t>(sj)] = NonbasicAt::Upper;
    } else if (v < sc.lower - opts_.tol) {
      coef = -1.0;
      at_[static_cast<std::size_t>(sj)] = NonbasicAt::Lower;
    } else {
      continue;
    }
    Column a;
    a.rows = {i};
    a.vals = {coef};
    a.lower = 0.0;
    a.upper = kInfinity;
    a.cost = 0.0;  // phase-2 cost; phase-1 cost handled separately
    cols_.push_back(std::move(a));
    const int aj = static_cast<int>(cols_.size()) - 1;
    basic_pos_.push_back(-1);
    at_.push_back(NonbasicAt::Lower);
    // Swap the artificial into the basis in place of the slack.
    basic_pos_[static_cast<std::size_t>(sj)] = -1;
    basis_[static_cast<std::size_t>(i)] = aj;
    basic_pos_[static_cast<std::size_t>(aj)] = i;
  }
  n_ = static_cast<int>(cols_.size());
  if (first_artificial_ < n_) {
    // Still diagonal (+-1 entries), so this cannot fail either.
    const bool ok2 = refactor_now();
    AL_ASSERT(ok2);
    compute_basic_values();
  }
}

// The dual-crash start needs a dual-feasible slack basis: with every slack
// basic, y = 0 and each column's reduced cost is its own cost, so column j
// must offer a bound where that sign is dual-feasible -- any finite bound for
// cost >= 0 (lower bounds are always finite here), a finite UPPER bound for
// cost < 0.
bool SimplexInstance::Impl::crash_applicable() const {
  for (int j = 0; j < n_struct_; ++j) {
    const auto& c = cols_[static_cast<std::size_t>(j)];
    if (c.cost < 0.0 && !std::isfinite(c.upper)) return false;
  }
  return true;
}

// All-slack basis with every structural column parked on its cost-favorable
// bound (negative cost -> upper, else the finite bound nearest zero). No
// phase-1 artificials: primal infeasibility of this point is repaired by
// dual_restore(), which the parked bounds keep dual-feasible throughout.
void SimplexInstance::Impl::reset_crash() {
  cols_.resize(static_cast<std::size_t>(n_base_));
  n_ = n_base_;
  first_artificial_ = n_;

  at_.assign(static_cast<std::size_t>(n_), NonbasicAt::Lower);
  for (int j = 0; j < n_struct_; ++j) {
    const auto& c = cols_[static_cast<std::size_t>(j)];
    if (c.cost < 0.0) {
      at_[static_cast<std::size_t>(j)] = NonbasicAt::Upper;  // finite: checked
    } else if (c.cost == 0.0 && std::isfinite(c.upper) &&
               std::abs(c.upper) < std::abs(c.lower)) {
      at_[static_cast<std::size_t>(j)] = NonbasicAt::Upper;
    }
  }

  basis_.resize(static_cast<std::size_t>(m_));
  basic_pos_.assign(static_cast<std::size_t>(n_), -1);
  for (int i = 0; i < m_; ++i) {
    basis_[static_cast<std::size_t>(i)] = n_struct_ + i;
    basic_pos_[static_cast<std::size_t>(n_struct_ + i)] = i;
  }
  const bool ok = refactor_now();
  AL_ASSERT(ok);

  compute_basic_values();
}

void SimplexInstance::Impl::compute_basic_values() {
  // xb = Binv * (b - N x_N)
  std::vector<double> rhs = b_;
  for (int j = 0; j < n_; ++j) {
    if (basic_pos_[static_cast<std::size_t>(j)] >= 0) continue;
    const auto& c = cols_[static_cast<std::size_t>(j)];
    const double v = at_[static_cast<std::size_t>(j)] == NonbasicAt::Lower ? c.lower : c.upper;
    if (v == 0.0) continue;
    for (std::size_t k = 0; k < c.rows.size(); ++k)
      rhs[static_cast<std::size_t>(c.rows[k])] -= c.vals[k] * v;
  }
  factor_->ftran(rhs);
  xb_ = std::move(rhs);
}

// Entering-column selection for the primal simplex. `y` holds the simplex
// multipliers (B^-T c_B). Bland mode always runs a full lowest-index scan;
// otherwise partial pricing walks ~n/8-column sections round-robin from
// price_cursor_ and returns the best candidate of the first section that has
// one. A cycle with no candidate doubles as the optimality proof, exactly
// like full Dantzig pricing -- only the order of intermediate bases changes.
int SimplexInstance::Impl::price(const std::vector<double>& cost,
                                 const std::vector<double>& y, bool bland,
                                 double& enter_dir) {
  const double tol = opts_.tol;
  auto candidate = [&](int j, double& d, double& dir) -> bool {
    if (basic_pos_[static_cast<std::size_t>(j)] >= 0) return false;
    const auto& c = cols_[static_cast<std::size_t>(j)];
    if (c.lower == c.upper) return false;  // fixed
    d = cost[static_cast<std::size_t>(j)];
    for (std::size_t k = 0; k < c.rows.size(); ++k)
      d -= y[static_cast<std::size_t>(c.rows[k])] * c.vals[k];
    if (at_[static_cast<std::size_t>(j)] == NonbasicAt::Lower && d < -tol) {
      dir = 1.0;
      return true;
    }
    if (at_[static_cast<std::size_t>(j)] == NonbasicAt::Upper && d > tol) {
      dir = -1.0;
      return true;
    }
    return false;
  };

  if (bland) {
    for (int j = 0; j < n_; ++j) {
      double d, dir;
      if (candidate(j, d, dir)) {
        enter_dir = dir;
        return j;
      }
    }
    return -1;
  }

  if (!opts_.partial_pricing) {
    int enter = -1;
    double best = 0.0;
    for (int j = 0; j < n_; ++j) {
      double d, dir;
      if (!candidate(j, d, dir)) continue;
      const double score = std::abs(d);
      if (score > best) {
        best = score;
        enter = j;
        enter_dir = dir;
      }
    }
    return enter;
  }

  const int section = std::max(64, n_ / 8);
  const int nsec = (n_ + section - 1) / section;
  if (price_cursor_ >= nsec) price_cursor_ = 0;
  for (int s = 0; s < nsec; ++s) {
    const int sec = (price_cursor_ + s) % nsec;
    const int lo = sec * section;
    const int hi = std::min(n_, lo + section);
    int enter = -1;
    double best = 0.0;
    for (int j = lo; j < hi; ++j) {
      double d, dir;
      if (!candidate(j, d, dir)) continue;
      const double score = std::abs(d);
      if (score > best) {
        best = score;
        enter = j;
        enter_dir = dir;
      }
    }
    if (enter >= 0) {
      price_cursor_ = sec;
      return enter;
    }
  }
  return -1;
}

bool SimplexInstance::Impl::iterate(const std::vector<double>& cost) {
  const double tol = opts_.tol;
  long max_iter = opts_.max_iterations;
  if (max_iter <= 0) max_iter = 200L * (m_ + n_) + 2000;

  long stall = 0;       // iterations without objective progress -> Bland
  double last_obj = std::numeric_limits<double>::infinity();

  std::vector<double> y(static_cast<std::size_t>(m_));
  std::vector<double> w(static_cast<std::size_t>(m_));

  for (long it = 0; it < max_iter; ++it, ++iterations_) {
    // y = B^-T c_B
    for (int i = 0; i < m_; ++i)
      y[static_cast<std::size_t>(i)] =
          cost[static_cast<std::size_t>(basis_[static_cast<std::size_t>(i)])];
    factor_->btran(y);

    // Pricing: pick entering column.
    const bool bland = stall > 2L * (m_ + 16);
    double enter_dir = 0.0;  // +1 increase from lower, -1 decrease from upper
    const int enter = price(cost, y, bland, enter_dir);
    if (enter < 0) return true;  // optimal for this cost vector

    // w = Binv * a_enter
    factor_->ftran_col(view_of(cols_[static_cast<std::size_t>(enter)]), w);

    // Ratio test: how far can the entering variable move?
    const auto& ec = cols_[static_cast<std::size_t>(enter)];
    double tmax = std::isfinite(ec.upper) ? ec.upper - ec.lower : kInfinity;
    int leave = -1;          // basis row of leaving var
    double leave_to = 0.0;   // bound the leaving var lands on
    for (int i = 0; i < m_; ++i) {
      const double wi = enter_dir * w[static_cast<std::size_t>(i)];
      if (std::abs(wi) < 1e-11) continue;
      const auto& bc = cols_[static_cast<std::size_t>(basis_[static_cast<std::size_t>(i)])];
      const double xi = xb_[static_cast<std::size_t>(i)];
      double t;
      double to;
      if (wi > 0) {  // basic value decreases toward its lower bound
        if (!std::isfinite(bc.lower)) continue;
        t = (xi - bc.lower) / wi;
        to = bc.lower;
      } else {       // basic value increases toward its upper bound
        if (!std::isfinite(bc.upper)) continue;
        t = (xi - bc.upper) / wi;
        to = bc.upper;
      }
      if (t < -tol) t = 0.0;  // numerical: clamp slightly-infeasible basics
      // Bland's termination argument needs every step nonnegative, so in
      // Bland mode the small negative steps the clamp above lets through
      // become degenerate (zero) steps and join the tie below.
      if (bland && t < 0.0) t = 0.0;
      // Row i becomes the blocking row when it strictly tightens the step,
      // or -- on a degenerate tie within 1e-12 -- when no blocking row has
      // been picked yet. Outside Bland mode a tie never displaces an earlier
      // winner (the lowest-index ROW wins; pivots stay deterministic). Bland
      // mode instead gives the tie to the basic variable with the lowest
      // COLUMN index: the lowest-row rule alone can cycle. The first blocking
      // row still needs t <= tmax, so a tie with the entering column's own
      // bound flip keeps going to the row, as it does outside Bland mode, and
      // a row just past the bound flip (no row picked yet) stays a flip.
      if (leave < 0 ? t <= tmax : t < tmax - 1e-12) {
        tmax = t;
        leave = i;
        leave_to = to;
      } else if (bland && leave >= 0 && t <= tmax + 1e-12 &&
                 basis_[static_cast<std::size_t>(i)] <
                     basis_[static_cast<std::size_t>(leave)]) {
        tmax = std::min(tmax, t);
        leave = i;
        leave_to = to;
      }
    }

    if (!std::isfinite(tmax)) {
      unbounded_ = true;
      return true;
    }

    // Track objective progress for the Bland switch.
    double obj = 0.0;
    for (int i = 0; i < m_; ++i)
      obj += cost[static_cast<std::size_t>(basis_[static_cast<std::size_t>(i)])] *
             xb_[static_cast<std::size_t>(i)];
    if (obj < last_obj - 1e-12) { last_obj = obj; stall = 0; } else { ++stall; }

    if (leave < 0) {
      // Bound flip: the entering variable runs to its opposite bound.
      for (int i = 0; i < m_; ++i)
        xb_[static_cast<std::size_t>(i)] -= enter_dir * tmax * w[static_cast<std::size_t>(i)];
      at_[static_cast<std::size_t>(enter)] =
          at_[static_cast<std::size_t>(enter)] == NonbasicAt::Lower ? NonbasicAt::Upper
                                                                    : NonbasicAt::Lower;
      continue;
    }

    // Pivot: `enter` replaces basis_[leave].
    for (int i = 0; i < m_; ++i)
      xb_[static_cast<std::size_t>(i)] -= enter_dir * tmax * w[static_cast<std::size_t>(i)];
    const double enter_from =
        at_[static_cast<std::size_t>(enter)] == NonbasicAt::Lower ? ec.lower : ec.upper;
    const double enter_val = enter_from + enter_dir * tmax;

    const int old = basis_[static_cast<std::size_t>(leave)];
    basic_pos_[static_cast<std::size_t>(old)] = -1;
    at_[static_cast<std::size_t>(old)] =
        leave_to == cols_[static_cast<std::size_t>(old)].lower ? NonbasicAt::Lower
                                                               : NonbasicAt::Upper;
    basis_[static_cast<std::size_t>(leave)] = enter;
    basic_pos_[static_cast<std::size_t>(enter)] = leave;

    // Make the factorization reflect the new basis; an update the factor
    // rejects as unstable turns into an immediate refactorization.
    if (!factor_->update(leave, w)) {
      if (!refactor_now()) return false;
    }
    xb_[static_cast<std::size_t>(leave)] = enter_val;
    if (!after_pivot()) return false;

    if ((it & 127) == 127) compute_basic_values();  // drift control
  }
  return false;
}

// Bounded-variable dual-simplex restoration: starting from the previous
// optimal basis with NEW bounds already applied, repeatedly pivot the most
// bound-violating basic variable out onto its violated bound. Entering
// columns are chosen among those whose tableau coefficient lets the violated
// row move back inside its bounds; among the eligible ones the dual ratio
// test (smallest |reduced cost| / |alpha|) keeps the basis near-dual-feasible
// so the primal polish afterwards has little left to do.
//
// The Infeasible conclusion is sound regardless of dual feasibility: when no
// nonbasic column can reduce row r's violation, the current nonbasic corner
// already MINIMIZES that row's infeasibility over the whole bound box, so no
// feasible point exists under these bounds. (That proof needs the FULL
// entering scan -- partial pricing never applies here.)
DualOutcome SimplexInstance::Impl::dual_restore() {
  const double tol = opts_.tol;
  long budget = opts_.warm_pivot_budget;
  if (budget <= 0) budget = 50L + m_;

  const std::vector<double> cost = phase2_cost();
  std::vector<double> y(static_cast<std::size_t>(m_));
  std::vector<double> w(static_cast<std::size_t>(m_));

  for (long pivots = 0;; ++pivots) {
    // Leaving row: the most violated basic variable.
    int r = -1;
    double worst = tol;
    bool leave_up = false;  // leaving variable lands on its UPPER bound
    for (int i = 0; i < m_; ++i) {
      const auto& bc = cols_[static_cast<std::size_t>(basis_[static_cast<std::size_t>(i)])];
      const double xi = xb_[static_cast<std::size_t>(i)];
      if (std::isfinite(bc.upper) && xi - bc.upper > worst) {
        worst = xi - bc.upper;
        r = i;
        leave_up = true;
      }
      if (std::isfinite(bc.lower) && bc.lower - xi > worst) {
        worst = bc.lower - xi;
        r = i;
        leave_up = false;
      }
    }
    if (r < 0) return DualOutcome::Restored;
    if (pivots >= budget) return DualOutcome::GiveUp;

    // y = B^-T c_B for the dual ratio test; rho = row r of the inverse.
    for (int i = 0; i < m_; ++i)
      y[static_cast<std::size_t>(i)] =
          cost[static_cast<std::size_t>(basis_[static_cast<std::size_t>(i)])];
    factor_->btran(y);
    factor_->unit_btran(r, rho_);
    const auto& rho = rho_;

    int enter = -1;
    double best_ratio = kInfinity;
    double best_alpha = 0.0;
    for (int j = 0; j < n_; ++j) {
      if (basic_pos_[static_cast<std::size_t>(j)] >= 0) continue;
      const auto& c = cols_[static_cast<std::size_t>(j)];
      if (c.lower == c.upper) continue;  // fixed: cannot move
      double alpha = 0.0;
      for (std::size_t k = 0; k < c.rows.size(); ++k)
        alpha += rho[static_cast<std::size_t>(c.rows[k])] * c.vals[k];
      if (std::abs(alpha) <= 1e-9) continue;
      const bool at_lower = at_[static_cast<std::size_t>(j)] == NonbasicAt::Lower;
      // Moving j off its bound must push xb_r back toward the violated
      // bound: xb_r -= alpha * dx_j, with dx_j > 0 from a lower bound and
      // dx_j < 0 from an upper bound.
      const bool eligible = leave_up ? (at_lower ? alpha > 0.0 : alpha < 0.0)
                                     : (at_lower ? alpha < 0.0 : alpha > 0.0);
      if (!eligible) continue;
      double d = cost[static_cast<std::size_t>(j)];
      for (std::size_t k = 0; k < c.rows.size(); ++k)
        d -= y[static_cast<std::size_t>(c.rows[k])] * c.vals[k];
      // Reduced costs are near-dual-feasible (>= 0 at lower, <= 0 at upper);
      // clamp tiny violations so the ratio stays nonnegative.
      const double d_adj = std::max(at_lower ? d : -d, 0.0);
      const double ratio = d_adj / std::abs(alpha);
      if (ratio < best_ratio - 1e-12 ||
          (ratio < best_ratio + 1e-12 && std::abs(alpha) > std::abs(best_alpha))) {
        best_ratio = ratio;
        best_alpha = alpha;
        enter = j;
      }
    }
    if (enter < 0) return DualOutcome::Infeasible;

    // w = Binv * a_enter; pivot `enter` into row r.
    factor_->ftran_col(view_of(cols_[static_cast<std::size_t>(enter)]), w);
    const double piv = w[static_cast<std::size_t>(r)];
    if (std::abs(piv) < 1e-9) return DualOutcome::GiveUp;

    const int old = basis_[static_cast<std::size_t>(r)];
    basic_pos_[static_cast<std::size_t>(old)] = -1;
    at_[static_cast<std::size_t>(old)] = leave_up ? NonbasicAt::Upper : NonbasicAt::Lower;
    basis_[static_cast<std::size_t>(r)] = enter;
    basic_pos_[static_cast<std::size_t>(enter)] = r;

    if (!factor_->update(r, w)) {
      if (!refactor_now()) return DualOutcome::GiveUp;
    }
    if (!after_pivot()) return DualOutcome::GiveUp;
    // A full refresh (one ftran) keeps every basic value exact; warm
    // restarts take few pivots so this stays far cheaper than phase 1.
    compute_basic_values();
    ++iterations_;
  }
}

LpResult SimplexInstance::Impl::run_cold() {
  LpResult res;

  // Phase 1: drive artificials to zero.
  if (first_artificial_ < n_) {
    std::vector<double> phase1(static_cast<std::size_t>(n_), 0.0);
    for (int j = first_artificial_; j < n_; ++j) phase1[static_cast<std::size_t>(j)] = 1.0;
    if (!iterate(phase1)) {
      res.status = SolveStatus::IterationLimit;
      res.iterations = iterations_;
      return res;
    }
    double infeas = 0.0;
    for (int j = first_artificial_; j < n_; ++j) infeas += value_of(j);
    if (infeas > 1e-6) {
      res.status = SolveStatus::Infeasible;
      res.iterations = iterations_;
      return res;
    }
    // Freeze artificials at zero for phase 2 (and for any warm restart that
    // reuses this basis later -- frozen columns can never re-enter).
    for (int j = first_artificial_; j < n_; ++j) {
      cols_[static_cast<std::size_t>(j)].lower = 0.0;
      cols_[static_cast<std::size_t>(j)].upper = 0.0;
    }
    compute_basic_values();
  }

  // Phase 2: real objective.
  unbounded_ = false;
  if (!iterate(phase2_cost())) {
    res.status = SolveStatus::IterationLimit;
    res.iterations = iterations_;
    return res;
  }
  if (unbounded_) {
    res.status = SolveStatus::Unbounded;
    res.iterations = iterations_;
    return res;
  }
  return extract_optimal();
}

LpResult SimplexInstance::Impl::extract_optimal() {
  LpResult res;
  compute_basic_values();
  res.status = SolveStatus::Optimal;
  res.iterations = iterations_;
  res.x.resize(static_cast<std::size_t>(n_struct_));
  for (int j = 0; j < n_struct_; ++j) {
    double v = value_of(j);
    // Snap to the override bounds to keep branch-and-bound numerically clean.
    const auto& c = cols_[static_cast<std::size_t>(j)];
    v = std::clamp(v, c.lower, std::isfinite(c.upper) ? c.upper : v);
    res.x[static_cast<std::size_t>(j)] = v;
  }
  res.objective = model_->objective_value(res.x);
  return res;
}

LpResult SimplexInstance::Impl::solve(const std::vector<double>& lower,
                                      const std::vector<double>& upper) {
  AL_EXPECTS(static_cast<int>(lower.size()) == n_struct_);
  AL_EXPECTS(static_cast<int>(upper.size()) == n_struct_);

  static support::Metrics::Counter& solves =
      support::Metrics::instance().counter("ilp.lp_solves");
  static support::Metrics::Counter& pivot_count =
      support::Metrics::instance().counter("ilp.simplex_pivots");
  static support::Metrics::Counter& warm_count =
      support::Metrics::instance().counter("ilp.warm_starts");
  static support::Metrics::Counter& warm_fail_count =
      support::Metrics::instance().counter("ilp.warm_start_failures");
  solves.add();
  iterations_ = 0;

  // Quick infeasibility: crossed bound overrides. Decided before touching
  // the tableau so a remembered basis stays valid for the next solve.
  for (int j = 0; j < n_struct_; ++j) {
    if (lower[static_cast<std::size_t>(j)] > upper[static_cast<std::size_t>(j)]) {
      LpResult res;
      res.status = SolveStatus::Infeasible;
      return res;
    }
  }

  // Apply the new bounds to the structural columns.
  for (int j = 0; j < n_struct_; ++j) {
    auto& c = cols_[static_cast<std::size_t>(j)];
    c.lower = lower[static_cast<std::size_t>(j)];
    c.upper = upper[static_cast<std::size_t>(j)];
    AL_EXPECTS(std::isfinite(c.lower));
  }

  // Long warm-restart chains accumulate update-form drift. The sparse core
  // refactorizes in place and keeps the basis; the dense core keeps the
  // legacy policy of starting cold (NOT counted as a warm-start failure --
  // nothing went wrong).
  if (have_basis_ &&
      (pivots_since_factor_ > refactor_limit_ || factor_->wants_refactor())) {
    if (sparse_core()) {
      if (!refactor_now()) have_basis_ = false;
    } else {
      have_basis_ = false;
    }
  }

  if (have_basis_) {
    ++warm_starts_;
    warm_count.add();
    // A nonbasic column parked at an upper bound that is now infinite has no
    // value to sit at; move it to its (always finite) lower bound.
    for (int j = 0; j < n_struct_; ++j) {
      if (basic_pos_[static_cast<std::size_t>(j)] >= 0) continue;
      if (at_[static_cast<std::size_t>(j)] == NonbasicAt::Upper &&
          !std::isfinite(cols_[static_cast<std::size_t>(j)].upper)) {
        at_[static_cast<std::size_t>(j)] = NonbasicAt::Lower;
      }
    }
    compute_basic_values();

    switch (dual_restore()) {
      case DualOutcome::Restored: {
        unbounded_ = false;
        if (iterate(phase2_cost())) {
          if (unbounded_) {
            LpResult res;
            res.status = SolveStatus::Unbounded;
            res.iterations = iterations_;
            pivot_count.add(static_cast<std::uint64_t>(res.iterations));
            return res;
          }
          LpResult res = extract_optimal();
          pivot_count.add(static_cast<std::uint64_t>(res.iterations));
          return res;
        }
        // Primal polish ran out of budget -- retry cold below so the warm
        // path can never return a worse status than the cold one.
        break;
      }
      case DualOutcome::Infeasible: {
        // The basis is still a valid factorization; keep it for next time.
        LpResult res;
        res.status = SolveStatus::Infeasible;
        res.iterations = iterations_;
        pivot_count.add(static_cast<std::uint64_t>(res.iterations));
        return res;
      }
      case DualOutcome::GiveUp:
        break;
    }
    ++warm_failures_;
    warm_fail_count.add();
    have_basis_ = false;
  }

  // No basis to restart from: before paying for phase 1, try the dual-crash
  // start -- park every column on its cost-favorable bound and let the same
  // dual-simplex restoration drive the slack basis primal-feasible. Budget
  // exhaustion or numerics fall through to the two-phase cold solve.
  if (opts_.dual_crash && crash_applicable()) {
    reset_crash();
    switch (dual_restore()) {
      case DualOutcome::Restored: {
        unbounded_ = false;
        if (iterate(phase2_cost())) {
          // A dual-feasible start cannot be unbounded, but guard anyway.
          if (unbounded_) {
            LpResult res;
            res.status = SolveStatus::Unbounded;
            res.iterations = iterations_;
            pivot_count.add(static_cast<std::uint64_t>(res.iterations));
            return res;
          }
          LpResult res = extract_optimal();
          have_basis_ = true;
          pivot_count.add(static_cast<std::uint64_t>(res.iterations));
          return res;
        }
        break;  // polish hit the iteration limit -- retry cold below
      }
      case DualOutcome::Infeasible: {
        // Artificial-free and a valid factorization: keep it for next time.
        LpResult res;
        res.status = SolveStatus::Infeasible;
        res.iterations = iterations_;
        have_basis_ = true;
        pivot_count.add(static_cast<std::uint64_t>(res.iterations));
        return res;
      }
      case DualOutcome::GiveUp:
        break;
    }
    have_basis_ = false;
  }

  reset_cold();
  LpResult res = run_cold();
  have_basis_ = res.status == SolveStatus::Optimal;
  pivot_count.add(static_cast<std::uint64_t>(res.iterations));
  return res;
}

SimplexInstance::SimplexInstance(const Model& model, SimplexOptions opts)
    : impl_(std::make_unique<Impl>(model, opts)) {}

SimplexInstance::~SimplexInstance() = default;

LpResult SimplexInstance::solve(const std::vector<double>& lower,
                                const std::vector<double>& upper) {
  return impl_->solve(lower, upper);
}

void SimplexInstance::invalidate_basis() { impl_->have_basis_ = false; }

long SimplexInstance::warm_starts() const { return impl_->warm_starts_; }

long SimplexInstance::warm_start_failures() const {
  return impl_->warm_failures_;
}

long SimplexInstance::refactorizations() const {
  return impl_->refactorizations_;
}

LpResult solve_lp(const Model& model, SimplexOptions opts) {
  std::vector<double> lo(static_cast<std::size_t>(model.num_variables()));
  std::vector<double> hi(static_cast<std::size_t>(model.num_variables()));
  for (int j = 0; j < model.num_variables(); ++j) {
    lo[static_cast<std::size_t>(j)] = model.variable(j).lower;
    hi[static_cast<std::size_t>(j)] = model.variable(j).upper;
  }
  return solve_lp(model, lo, hi, opts);
}

LpResult solve_lp(const Model& model, const std::vector<double>& lower,
                  const std::vector<double>& upper, SimplexOptions opts) {
  SimplexInstance inst(model, opts);
  return inst.solve(lower, upper);
}

} // namespace al::ilp
