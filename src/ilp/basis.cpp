#include "ilp/basis.hpp"

#include <algorithm>
#include <array>
#include <cmath>
#include <limits>

namespace al::ilp {

namespace {

// Entries smaller than this are dropped during elimination (cancellation
// noise); selection-MIP coefficients are O(1), so an absolute cutoff is safe.
constexpr double kDropTol = 1e-12;
// A pivot below this is treated as structural singularity.
constexpr double kPivotTol = 1e-11;
// Threshold pivoting: accept an entry only if within this factor of the
// column's largest magnitude. 0.1 is the classic stability/fill trade-off.
constexpr double kRelPivot = 0.1;
// Markowitz search width: columns of minimal count examined per step.
constexpr int kPivotCandidates = 8;
// Pivot-search count of a column that already holds a pivot.
constexpr int kRetired = std::numeric_limits<int>::max();
// Eta-chain budgets before wants_refactor() fires.
constexpr int kMaxEtas = 64;
constexpr long kEtaFillFactor = 4;

} // namespace

void BasisFactor::ftran_col(const BasisColumn& a, std::vector<double>& out) const {
  out.assign(static_cast<std::size_t>(m_), 0.0);
  for (int t = 0; t < a.nnz; ++t) out[static_cast<std::size_t>(a.rows[t])] = a.vals[t];
  ftran(out);
}

// ---------------------------------------------------------------------------
// SparseBasisFactor
// ---------------------------------------------------------------------------

bool SparseBasisFactor::factor(const std::vector<BasisColumn>& cols, int m) {
  m_ = m;
  const auto mm = static_cast<std::size_t>(m);
  lcols_.assign(mm, {});
  udiag_.assign(mm, 0.0);
  urows_.assign(mm, {});
  ucols_.assign(mm, {});
  prow_.assign(mm, -1);
  pcol_.assign(mm, -1);
  etas_.clear();
  eta_nnz_ = 0;
  lu_nnz_ = m;
  xhat_.assign(mm, 0.0);
  if (m == 0) return true;

  // Active submatrix: column entry lists (kept sorted by row), a lazily
  // cleaned row -> columns pattern, and exact per-row counts. The exact
  // per-column counts live in the pivot-search tree below.
  std::vector<std::vector<std::pair<int, double>>> ce(mm);
  std::vector<std::vector<int>> rownz(mm);
  std::vector<int> rowcount(mm, 0);
  // U rows recorded against original column indices; remapped to pivot
  // indices once every column has one.
  std::vector<std::vector<std::pair<int, double>>> uraw(mm);

  // Pivot search structure: a tournament (min) tree over the active column
  // counts, one leaf per column in index order, retired columns at INT_MAX.
  // The root is the minimum count, and a left-to-right descent that skips
  // every subtree whose minimum exceeds it visits the minimum-count columns
  // in ascending index order -- exactly the candidates a full column scan
  // would take, so the pivot sequence (and every rounding in the factors)
  // is the scan's, at O(log m) per candidate instead of O(m) per step. A
  // count change is one climb that stops at the first unchanged ancestor,
  // whichever way the count moved (fill, the pivot row leaving, or
  // cancellation dropping entries). The leaves are the only record of a
  // column's count and of whether it holds a pivot yet. Sized once here;
  // the search allocates nothing during the elimination.
  std::size_t leaves = 1;
  while (leaves < mm) leaves <<= 1;
  std::vector<int> tree(2 * leaves, kRetired);

  for (int j = 0; j < m; ++j) {
    auto& c = ce[static_cast<std::size_t>(j)];
    c.reserve(static_cast<std::size_t>(cols[static_cast<std::size_t>(j)].nnz));
    for (int t = 0; t < cols[static_cast<std::size_t>(j)].nnz; ++t) {
      const int r = cols[static_cast<std::size_t>(j)].rows[t];
      const double v = cols[static_cast<std::size_t>(j)].vals[t];
      if (v == 0.0) continue;
      c.emplace_back(r, v);
      rownz[static_cast<std::size_t>(r)].push_back(j);
      ++rowcount[static_cast<std::size_t>(r)];
    }
    std::sort(c.begin(), c.end());
    tree[leaves + static_cast<std::size_t>(j)] = static_cast<int>(c.size());
  }
  for (std::size_t i = leaves - 1; i >= 1; --i)
    tree[i] = std::min(tree[2 * i], tree[2 * i + 1]);
  auto set_count = [&](int j, int c) {
    std::size_t i = leaves + static_cast<std::size_t>(j);
    tree[i] = c;
    for (i >>= 1; i >= 1; i >>= 1) {
      const int v = std::min(tree[2 * i], tree[2 * i + 1]);
      if (tree[i] == v) break;
      tree[i] = v;
    }
  };
  // Descent stack: at most one pending right sibling per level plus the
  // node in hand, and a 32-bit column index bounds the depth.
  std::array<std::size_t, 66> stack{};

  // Sparse accumulator for row-elimination updates of one column at a time.
  std::vector<double> spa(mm, 0.0);
  std::vector<char> inspa(mm, 0);
  std::vector<int> fill;
  std::vector<int> cand;
  cand.reserve(kPivotCandidates);
  // Merge target for one column rebuild; swapped with the column afterwards
  // so its buffer is reused by the next rebuild.
  std::vector<std::pair<int, double>> nc;

  for (int k = 0; k < m; ++k) {
    // --- Markowitz pivot selection over minimal-count columns ------------
    const int cmin = tree[1];
    if (cmin == 0) return false;  // empty active column: singular
    cand.clear();
    std::size_t sp = 0;
    stack[sp++] = 1;
    while (sp > 0 && static_cast<int>(cand.size()) < kPivotCandidates) {
      const std::size_t node = stack[--sp];
      if (tree[node] != cmin) continue;
      if (node >= leaves) {
        cand.push_back(static_cast<int>(node - leaves));
        continue;
      }
      stack[sp++] = 2 * node + 1;
      stack[sp++] = 2 * node;
    }

    int bcol = -1, brow = -1;
    double bval = 0.0;
    double bscore = std::numeric_limits<double>::infinity();
    int brc = std::numeric_limits<int>::max();
    for (const int j : cand) {
      const auto& c = ce[static_cast<std::size_t>(j)];
      double maxcol = 0.0;
      for (const auto& [r, v] : c) maxcol = std::max(maxcol, std::abs(v));
      if (maxcol < kPivotTol) continue;
      const double accept = kRelPivot * maxcol;
      for (const auto& [r, v] : c) {
        if (std::abs(v) < accept) continue;
        const int rc = rowcount[static_cast<std::size_t>(r)];
        const double score =
            static_cast<double>(cmin - 1) * static_cast<double>(rc - 1);
        if (score < bscore || (score == bscore && rc < brc)) {
          bscore = score;
          brc = rc;
          bcol = j;
          brow = r;
          bval = v;
        }
      }
    }
    if (bcol < 0 || std::abs(bval) < kPivotTol) return false;

    prow_[static_cast<std::size_t>(k)] = brow;
    pcol_[static_cast<std::size_t>(k)] = bcol;
    udiag_[static_cast<std::size_t>(k)] = bval;

    // --- L column: multipliers eliminating the pivot column ---------------
    auto& lc = lcols_[static_cast<std::size_t>(k)];
    for (const auto& [r, v] : ce[static_cast<std::size_t>(bcol)]) {
      if (r == brow) continue;
      lc.rows.push_back(r);
      lc.mults.push_back(v / bval);
      --rowcount[static_cast<std::size_t>(r)];
    }
    ce[static_cast<std::size_t>(bcol)].clear();
    ce[static_cast<std::size_t>(bcol)].shrink_to_fit();
    set_count(bcol, kRetired);

    // --- Update every active column with an entry in the pivot row --------
    for (const int j : rownz[static_cast<std::size_t>(brow)]) {
      if (tree[leaves + static_cast<std::size_t>(j)] == kRetired) continue;
      auto& c = ce[static_cast<std::size_t>(j)];
      for (const auto& [r, v] : c) {
        spa[static_cast<std::size_t>(r)] = v;
        inspa[static_cast<std::size_t>(r)] = 1;
      }
      if (!inspa[static_cast<std::size_t>(brow)]) {
        // Stale rownz entry (dropped earlier): nothing to eliminate here.
        for (const auto& [r, v] : c) {
          (void)v;
          inspa[static_cast<std::size_t>(r)] = 0;
        }
        continue;
      }
      const double u = spa[static_cast<std::size_t>(brow)];
      uraw[static_cast<std::size_t>(k)].emplace_back(j, u);
      inspa[static_cast<std::size_t>(brow)] = 0;

      fill.clear();
      for (std::size_t t = 0; t < lc.rows.size(); ++t) {
        const int r = lc.rows[t];
        const double delta = lc.mults[t] * u;
        if (inspa[static_cast<std::size_t>(r)]) {
          spa[static_cast<std::size_t>(r)] -= delta;
        } else {
          inspa[static_cast<std::size_t>(r)] = 1;
          spa[static_cast<std::size_t>(r)] = -delta;
          fill.push_back(r);
        }
      }
      std::sort(fill.begin(), fill.end());

      // Rebuild the column as a sorted merge of surviving old rows and fill.
      nc.clear();
      nc.reserve(c.size() + fill.size());
      std::size_t fi = 0;
      auto emit = [&](int r, bool was_present) {
        const double v = spa[static_cast<std::size_t>(r)];
        inspa[static_cast<std::size_t>(r)] = 0;
        if (std::abs(v) > kDropTol) {
          nc.emplace_back(r, v);
          if (!was_present) {
            ++rowcount[static_cast<std::size_t>(r)];
            rownz[static_cast<std::size_t>(r)].push_back(j);
          }
        } else if (was_present) {
          --rowcount[static_cast<std::size_t>(r)];
        }
      };
      for (const auto& [r, v] : c) {
        (void)v;
        if (r == brow) continue;
        while (fi < fill.size() && fill[fi] < r) emit(fill[fi++], false);
        emit(r, true);
      }
      while (fi < fill.size()) emit(fill[fi++], false);
      c.swap(nc);
      const int count = static_cast<int>(c.size());
      if (count != tree[leaves + static_cast<std::size_t>(j)]) set_count(j, count);
    }
    rowcount[static_cast<std::size_t>(brow)] = 0;
    rownz[static_cast<std::size_t>(brow)].clear();
  }

  // Remap U to pivot-index space and build the transposed column view.
  std::vector<int> colpos(mm, -1);
  for (int k = 0; k < m; ++k) colpos[static_cast<std::size_t>(pcol_[static_cast<std::size_t>(k)])] = k;
  for (int k = 0; k < m; ++k) {
    auto& ur = urows_[static_cast<std::size_t>(k)];
    ur.reserve(uraw[static_cast<std::size_t>(k)].size());
    for (const auto& [j, v] : uraw[static_cast<std::size_t>(k)])
      ur.emplace_back(colpos[static_cast<std::size_t>(j)], v);
    std::sort(ur.begin(), ur.end());
    lu_nnz_ += static_cast<long>(ur.size()) +
               static_cast<long>(lcols_[static_cast<std::size_t>(k)].rows.size());
  }
  for (int k = 0; k < m; ++k)
    for (const auto& [j, v] : urows_[static_cast<std::size_t>(k)])
      ucols_[static_cast<std::size_t>(j)].emplace_back(k, v);
  return true;
}

void SparseBasisFactor::ftran(std::vector<double>& v) const {
  const int m = m_;
  // L: apply elimination multipliers forward.
  for (int k = 0; k < m; ++k) {
    const double pv = v[static_cast<std::size_t>(prow_[static_cast<std::size_t>(k)])];
    if (pv == 0.0) continue;
    const auto& lc = lcols_[static_cast<std::size_t>(k)];
    for (std::size_t t = 0; t < lc.rows.size(); ++t)
      v[static_cast<std::size_t>(lc.rows[t])] -= lc.mults[t] * pv;
  }
  // U: back-substitution in pivot space, then scatter to basis positions.
  for (int k = m - 1; k >= 0; --k) {
    double s = v[static_cast<std::size_t>(prow_[static_cast<std::size_t>(k)])];
    for (const auto& [j, uv] : urows_[static_cast<std::size_t>(k)])
      s -= uv * xhat_[static_cast<std::size_t>(j)];
    xhat_[static_cast<std::size_t>(k)] = s / udiag_[static_cast<std::size_t>(k)];
  }
  for (int k = 0; k < m; ++k)
    v[static_cast<std::size_t>(pcol_[static_cast<std::size_t>(k)])] = xhat_[static_cast<std::size_t>(k)];
  // Update etas forward: v := E^-1 v per pivot since factorization.
  for (const auto& e : etas_) {
    double pv = v[static_cast<std::size_t>(e.r)];
    if (pv == 0.0) continue;
    pv /= e.piv;
    v[static_cast<std::size_t>(e.r)] = pv;
    for (std::size_t t = 0; t < e.rows.size(); ++t)
      v[static_cast<std::size_t>(e.rows[t])] -= e.vals[t] * pv;
  }
}

void SparseBasisFactor::btran(std::vector<double>& v) const {
  const int m = m_;
  // Update etas transposed, newest first.
  for (auto it = etas_.rbegin(); it != etas_.rend(); ++it) {
    double s = v[static_cast<std::size_t>(it->r)];
    for (std::size_t t = 0; t < it->rows.size(); ++t)
      s -= it->vals[t] * v[static_cast<std::size_t>(it->rows[t])];
    v[static_cast<std::size_t>(it->r)] = s / it->piv;
  }
  // U^T: forward solve via the column view, then scatter to constraint rows.
  for (int j = 0; j < m; ++j) {
    double s = v[static_cast<std::size_t>(pcol_[static_cast<std::size_t>(j)])];
    for (const auto& [k, uv] : ucols_[static_cast<std::size_t>(j)])
      s -= uv * xhat_[static_cast<std::size_t>(k)];
    xhat_[static_cast<std::size_t>(j)] = s / udiag_[static_cast<std::size_t>(j)];
  }
  for (int j = 0; j < m; ++j)
    v[static_cast<std::size_t>(prow_[static_cast<std::size_t>(j)])] = xhat_[static_cast<std::size_t>(j)];
  // L^T: backward.
  for (int k = m - 1; k >= 0; --k) {
    const auto& lc = lcols_[static_cast<std::size_t>(k)];
    if (lc.rows.empty()) continue;
    double s = 0.0;
    for (std::size_t t = 0; t < lc.rows.size(); ++t)
      s += lc.mults[t] * v[static_cast<std::size_t>(lc.rows[t])];
    v[static_cast<std::size_t>(prow_[static_cast<std::size_t>(k)])] -= s;
  }
}

void SparseBasisFactor::unit_btran(int r, std::vector<double>& rho) const {
  rho.assign(static_cast<std::size_t>(m_), 0.0);
  rho[static_cast<std::size_t>(r)] = 1.0;
  btran(rho);
}

bool SparseBasisFactor::update(int r, const std::vector<double>& w) {
  const double piv = w[static_cast<std::size_t>(r)];
  double wmax = 0.0;
  for (const double x : w) wmax = std::max(wmax, std::abs(x));
  if (std::abs(piv) < 1e-8 || std::abs(piv) < 1e-10 * wmax) return false;
  Eta e;
  e.r = r;
  e.piv = piv;
  for (int i = 0; i < m_; ++i) {
    if (i == r) continue;
    const double x = w[static_cast<std::size_t>(i)];
    if (std::abs(x) > kDropTol) {
      e.rows.push_back(i);
      e.vals.push_back(x);
    }
  }
  eta_nnz_ += static_cast<long>(e.rows.size()) + 1;
  etas_.push_back(std::move(e));
  return true;
}

bool SparseBasisFactor::wants_refactor() const {
  return static_cast<int>(etas_.size()) >= kMaxEtas ||
         eta_nnz_ > kEtaFillFactor * lu_nnz_ + 64;
}

long SparseBasisFactor::updates_since_factor() const {
  return static_cast<long>(etas_.size());
}

// ---------------------------------------------------------------------------
// DenseBasisFactor
// ---------------------------------------------------------------------------

bool DenseBasisFactor::factor(const std::vector<BasisColumn>& cols, int m) {
  m_ = m;
  updates_ = 0;
  const auto mm = static_cast<std::size_t>(m);
  std::vector<double> a(mm * mm, 0.0);
  binv_.assign(mm * mm, 0.0);
  scratch_.assign(mm, 0.0);
  for (int j = 0; j < m; ++j) {
    for (int t = 0; t < cols[static_cast<std::size_t>(j)].nnz; ++t)
      a[static_cast<std::size_t>(cols[static_cast<std::size_t>(j)].rows[t]) * mm +
        static_cast<std::size_t>(j)] = cols[static_cast<std::size_t>(j)].vals[t];
    binv_[static_cast<std::size_t>(j) * mm + static_cast<std::size_t>(j)] = 1.0;
  }

  // Gauss-Jordan with partial pivoting; zero multipliers are skipped, so a
  // near-triangular basis (the common slack-heavy case) inverts in ~O(m^2).
  for (int k = 0; k < m; ++k) {
    int p = k;
    double best = std::abs(a[static_cast<std::size_t>(k) * mm + static_cast<std::size_t>(k)]);
    for (int r = k + 1; r < m; ++r) {
      const double cand = std::abs(a[static_cast<std::size_t>(r) * mm + static_cast<std::size_t>(k)]);
      if (cand > best) {
        best = cand;
        p = r;
      }
    }
    if (best < kPivotTol) return false;
    if (p != k) {
      std::swap_ranges(a.begin() + static_cast<std::ptrdiff_t>(static_cast<std::size_t>(p) * mm),
                       a.begin() + static_cast<std::ptrdiff_t>(static_cast<std::size_t>(p + 1) * mm),
                       a.begin() + static_cast<std::ptrdiff_t>(static_cast<std::size_t>(k) * mm));
      std::swap_ranges(binv_.begin() + static_cast<std::ptrdiff_t>(static_cast<std::size_t>(p) * mm),
                       binv_.begin() + static_cast<std::ptrdiff_t>(static_cast<std::size_t>(p + 1) * mm),
                       binv_.begin() + static_cast<std::ptrdiff_t>(static_cast<std::size_t>(k) * mm));
    }
    double* ak = a.data() + static_cast<std::size_t>(k) * mm;
    double* bk = binv_.data() + static_cast<std::size_t>(k) * mm;
    const double inv = 1.0 / ak[k];
    for (int j = k; j < m; ++j) ak[j] *= inv;
    for (int j = 0; j < m; ++j) bk[j] *= inv;
    for (int r = 0; r < m; ++r) {
      if (r == k) continue;
      double* ar = a.data() + static_cast<std::size_t>(r) * mm;
      const double f = ar[k];
      if (f == 0.0) continue;
      for (int j = k; j < m; ++j) ar[j] -= f * ak[j];
      double* br = binv_.data() + static_cast<std::size_t>(r) * mm;
      for (int j = 0; j < m; ++j) {
        const double bv = bk[j];
        if (bv != 0.0) br[j] -= f * bv;
      }
    }
  }
  return true;
}

void DenseBasisFactor::ftran(std::vector<double>& v) const {
  const auto mm = static_cast<std::size_t>(m_);
  scratch_ = v;
  for (std::size_t p = 0; p < mm; ++p) {
    const double* row = binv_.data() + p * mm;
    double s = 0.0;
    for (std::size_t i = 0; i < mm; ++i) {
      const double x = scratch_[i];
      if (x != 0.0) s += row[i] * x;
    }
    v[p] = s;
  }
}

void DenseBasisFactor::ftran_col(const BasisColumn& a, std::vector<double>& out) const {
  const auto mm = static_cast<std::size_t>(m_);
  out.assign(mm, 0.0);
  for (int t = 0; t < a.nnz; ++t) {
    const auto i = static_cast<std::size_t>(a.rows[t]);
    const double x = a.vals[t];
    for (std::size_t p = 0; p < mm; ++p) out[p] += binv_[p * mm + i] * x;
  }
}

void DenseBasisFactor::btran(std::vector<double>& v) const {
  const auto mm = static_cast<std::size_t>(m_);
  scratch_.assign(mm, 0.0);
  for (std::size_t p = 0; p < mm; ++p) {
    const double c = v[p];
    if (c == 0.0) continue;
    const double* row = binv_.data() + p * mm;
    for (std::size_t i = 0; i < mm; ++i) scratch_[i] += c * row[i];
  }
  v = scratch_;
}

void DenseBasisFactor::unit_btran(int r, std::vector<double>& rho) const {
  const auto mm = static_cast<std::size_t>(m_);
  rho.assign(mm, 0.0);
  const double* row = binv_.data() + static_cast<std::size_t>(r) * mm;
  std::copy(row, row + mm, rho.begin());
}

bool DenseBasisFactor::update(int r, const std::vector<double>& w) {
  const double piv = w[static_cast<std::size_t>(r)];
  if (std::abs(piv) < 1e-9) return false;
  const auto mm = static_cast<std::size_t>(m_);
  double* rr = binv_.data() + static_cast<std::size_t>(r) * mm;
  const double inv = 1.0 / piv;
  for (std::size_t j = 0; j < mm; ++j) rr[j] *= inv;
  for (std::size_t i = 0; i < mm; ++i) {
    if (i == static_cast<std::size_t>(r)) continue;
    const double f = w[i];
    if (f == 0.0) continue;
    double* ri = binv_.data() + i * mm;
    for (std::size_t j = 0; j < mm; ++j) ri[j] -= f * rr[j];
  }
  ++updates_;
  return true;
}

} // namespace al::ilp
