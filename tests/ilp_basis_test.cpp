// SparseBasisFactor's count-tree Markowitz pivot search (DESIGN.md
// section 15) against the dense explicit-inverse core: identical solves on
// random sparse bases (including +-1 bases whose elimination cancels
// entries exactly), singularity detection, and a large mostly-slack basis.
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <random>
#include <vector>

#include "ilp/basis.hpp"

namespace al::ilp {
namespace {

/// Owns the storage behind a vector<BasisColumn>.
struct Basis {
  int m = 0;
  std::vector<std::vector<int>> rows;
  std::vector<std::vector<double>> vals;

  explicit Basis(int dim)
      : m(dim), rows(static_cast<std::size_t>(dim)), vals(static_cast<std::size_t>(dim)) {}

  void set(int col, int row, double v) {
    auto& r = rows[static_cast<std::size_t>(col)];
    auto& x = vals[static_cast<std::size_t>(col)];
    const auto it = std::lower_bound(r.begin(), r.end(), row);
    const auto at = it - r.begin();
    if (it != r.end() && *it == row) {
      x[static_cast<std::size_t>(at)] = v;
    } else {
      r.insert(it, row);
      x.insert(x.begin() + at, v);
    }
  }

  [[nodiscard]] std::vector<BasisColumn> view() const {
    std::vector<BasisColumn> out(static_cast<std::size_t>(m));
    for (int j = 0; j < m; ++j) {
      const auto& r = rows[static_cast<std::size_t>(j)];
      out[static_cast<std::size_t>(j)] = BasisColumn{
          r.data(), vals[static_cast<std::size_t>(j)].data(), static_cast<int>(r.size())};
    }
    return out;
  }

  /// out = B x (x indexed by basis position, out by row).
  [[nodiscard]] std::vector<double> times(const std::vector<double>& x) const {
    std::vector<double> out(static_cast<std::size_t>(m), 0.0);
    for (int j = 0; j < m; ++j) {
      const auto& r = rows[static_cast<std::size_t>(j)];
      for (std::size_t t = 0; t < r.size(); ++t)
        out[static_cast<std::size_t>(r[t])] +=
            vals[static_cast<std::size_t>(j)][t] * x[static_cast<std::size_t>(j)];
    }
    return out;
  }
};

/// A column-diagonally-dominant basis (so nonsingular) with a random row
/// permutation, 0-4 off-diagonal entries per column and a share of unit
/// slack columns, like the bases the simplex factors.
Basis random_dominant(std::mt19937& rng, int m) {
  std::uniform_real_distribution<double> off(-1.0, 1.0);
  std::uniform_real_distribution<double> margin(0.5, 2.0);
  std::uniform_int_distribution<int> row_d(0, m - 1);
  std::uniform_int_distribution<int> nnz_d(0, 4);
  std::uniform_int_distribution<int> kind(0, 3);
  std::vector<int> perm(static_cast<std::size_t>(m));
  for (int i = 0; i < m; ++i) perm[static_cast<std::size_t>(i)] = i;
  std::shuffle(perm.begin(), perm.end(), rng);
  Basis b(m);
  for (int j = 0; j < m; ++j) {
    const int diag = perm[static_cast<std::size_t>(j)];
    if (kind(rng) == 0) {  // slack
      b.set(j, diag, 1.0);
      continue;
    }
    double sum = 0.0;
    const int nnz = nnz_d(rng);
    for (int t = 0; t < nnz; ++t) {
      const int r = row_d(rng);
      if (r == diag) continue;
      const double v = off(rng);
      b.set(j, r, v);
    }
    for (const double v : b.vals[static_cast<std::size_t>(j)]) sum += std::abs(v);
    b.set(j, diag, (rng() % 2 == 0 ? 1.0 : -1.0) * (sum + margin(rng)));
  }
  return b;
}

/// A +-1 basis (the coefficient shape of the 0-1 layout models): a unit
/// diagonal under a row permutation plus random +-1 entries. Elimination
/// on such bases cancels entries exactly, which exercises column
/// count changes of more than one per step. May be singular.
Basis random_pm1(std::mt19937& rng, int m) {
  std::uniform_int_distribution<int> row_d(0, m - 1);
  std::uniform_int_distribution<int> nnz_d(0, 3);
  std::vector<int> perm(static_cast<std::size_t>(m));
  for (int i = 0; i < m; ++i) perm[static_cast<std::size_t>(i)] = i;
  std::shuffle(perm.begin(), perm.end(), rng);
  Basis b(m);
  for (int j = 0; j < m; ++j) {
    b.set(j, perm[static_cast<std::size_t>(j)], 1.0);
    const int nnz = nnz_d(rng);
    for (int t = 0; t < nnz; ++t) b.set(j, row_d(rng), rng() % 2 == 0 ? 1.0 : -1.0);
  }
  return b;
}

double max_abs_diff(const std::vector<double>& a, const std::vector<double>& b) {
  double d = 0.0;
  for (std::size_t i = 0; i < a.size(); ++i) d = std::max(d, std::abs(a[i] - b[i]));
  return d;
}

/// ftran, btran and unit_btran of both cores agree to 1e-9.
void expect_same_solves(const SparseBasisFactor& sparse, const DenseBasisFactor& dense,
                        std::mt19937& rng, int m) {
  std::uniform_real_distribution<double> val(-2.0, 2.0);
  std::vector<double> v(static_cast<std::size_t>(m));
  for (double& x : v) x = val(rng);
  std::vector<double> vs = v, vd = v;
  sparse.ftran(vs);
  dense.ftran(vd);
  EXPECT_LE(max_abs_diff(vs, vd), 1e-9) << "ftran, m=" << m;
  vs = v;
  vd = v;
  sparse.btran(vs);
  dense.btran(vd);
  EXPECT_LE(max_abs_diff(vs, vd), 1e-9) << "btran, m=" << m;
  const int r = static_cast<int>(rng() % static_cast<unsigned>(m));
  sparse.unit_btran(r, vs);
  dense.unit_btran(r, vd);
  EXPECT_LE(max_abs_diff(vs, vd), 1e-9) << "unit_btran, m=" << m;
}

TEST(SparseBasisFactor, MatchesDenseOnRandomSparseBases) {
  std::mt19937 rng(20260415);
  for (const int m : {1, 2, 5, 17, 40, 100, 250, 500}) {
    for (int rep = 0; rep < 3; ++rep) {
      const Basis b = random_dominant(rng, m);
      SparseBasisFactor sparse;
      DenseBasisFactor dense;
      ASSERT_TRUE(dense.factor(b.view(), m));
      ASSERT_TRUE(sparse.factor(b.view(), m)) << "m=" << m;
      expect_same_solves(sparse, dense, rng, m);
    }
  }
}

TEST(SparseBasisFactor, MatchesDenseOnCancellingPlusMinusOneBases) {
  std::mt19937 rng(7);
  int compared = 0;
  for (const int m : {3, 8, 20, 60, 150, 300}) {
    for (int rep = 0; rep < 6; ++rep) {
      const Basis b = random_pm1(rng, m);
      SparseBasisFactor sparse;
      DenseBasisFactor dense;
      const bool dense_ok = dense.factor(b.view(), m);
      const bool sparse_ok = sparse.factor(b.view(), m);
      ASSERT_EQ(sparse_ok, dense_ok) << "m=" << m << " rep=" << rep;
      if (!dense_ok) continue;
      expect_same_solves(sparse, dense, rng, m);
      ++compared;
    }
  }
  EXPECT_GE(compared, 12);  // most draws are nonsingular
}

TEST(SparseBasisFactor, ExactCancellationDropsCountByMoreThanOne) {
  // Pivoting column 0 on row 0 cancels column 1's row-1 entry exactly
  // (1 - 1*1), so column 1 falls from 3 entries to 1 in one step.
  Basis b(3);
  b.set(0, 0, 1.0);
  b.set(0, 1, 1.0);
  b.set(1, 0, 1.0);
  b.set(1, 1, 1.0);
  b.set(1, 2, 1.0);
  b.set(2, 1, 1.0);
  b.set(2, 2, 1.0);
  SparseBasisFactor sparse;
  DenseBasisFactor dense;
  ASSERT_TRUE(dense.factor(b.view(), 3));
  ASSERT_TRUE(sparse.factor(b.view(), 3));
  std::mt19937 rng(1);
  expect_same_solves(sparse, dense, rng, 3);
}

TEST(SparseBasisFactor, UpdatesStayInLineWithDense) {
  // Product-form updates on top of the factorization: replace a
  // few basis columns and keep comparing against the dense core.
  std::mt19937 rng(99);
  const int m = 120;
  Basis b = random_dominant(rng, m);
  SparseBasisFactor sparse;
  DenseBasisFactor dense;
  ASSERT_TRUE(sparse.factor(b.view(), m));
  ASSERT_TRUE(dense.factor(b.view(), m));
  std::uniform_real_distribution<double> val(-1.0, 1.0);
  std::uniform_int_distribution<int> row_d(0, m - 1);
  for (int step = 0; step < 20; ++step) {
    std::vector<int> rows;
    std::vector<double> vals;
    for (int t = 0; t < 4; ++t) rows.push_back(row_d(rng));
    std::sort(rows.begin(), rows.end());
    rows.erase(std::unique(rows.begin(), rows.end()), rows.end());
    for (std::size_t t = 0; t < rows.size(); ++t) vals.push_back(val(rng));
    const BasisColumn a{rows.data(), vals.data(), static_cast<int>(rows.size())};
    std::vector<double> w;
    dense.ftran_col(a, w);
    int r = 0;
    for (int i = 1; i < m; ++i)
      if (std::abs(w[static_cast<std::size_t>(i)]) > std::abs(w[static_cast<std::size_t>(r)]))
        r = i;
    ASSERT_TRUE(dense.update(r, w));
    ASSERT_TRUE(sparse.update(r, w));
    expect_same_solves(sparse, dense, rng, m);
  }
}

TEST(SparseBasisFactor, EmptyColumnIsSingular) {
  Basis b(4);
  b.set(0, 0, 1.0);
  b.set(1, 1, 2.0);
  b.set(3, 3, 1.0);
  b.set(3, 2, 1.0);  // column 2 stays empty
  SparseBasisFactor sparse;
  EXPECT_FALSE(sparse.factor(b.view(), 4));
}

TEST(SparseBasisFactor, DuplicatedColumnIsSingular) {
  std::mt19937 rng(5);
  const int m = 60;
  Basis b = random_dominant(rng, m);
  b.rows[41] = b.rows[12];
  b.vals[41] = b.vals[12];
  SparseBasisFactor sparse;
  EXPECT_FALSE(sparse.factor(b.view(), m));
  // The same basis without the duplicate factors fine.
  SparseBasisFactor again;
  EXPECT_TRUE(again.factor(random_dominant(rng, m).view(), m));
}

TEST(SparseBasisFactor, MostlySlackBasisOf2000Rows) {
  // 2000 rows, 1950 unit slacks and 50 structural columns with 3-8 entries
  // each, the shape of a large selection MIP's basis early in a solve.
  std::mt19937 rng(2000);
  const int m = 2000;
  std::uniform_int_distribution<int> row_d(0, m - 1);
  std::uniform_int_distribution<int> nnz_d(3, 8);
  std::uniform_real_distribution<double> val(-3.0, 3.0);
  std::vector<int> perm(static_cast<std::size_t>(m));
  for (int i = 0; i < m; ++i) perm[static_cast<std::size_t>(i)] = i;
  std::shuffle(perm.begin(), perm.end(), rng);
  Basis b(m);
  for (int j = 0; j < m; ++j) {
    const int diag = perm[static_cast<std::size_t>(j)];
    if (j % 40 != 0) {
      b.set(j, diag, 1.0);
      continue;
    }
    const int nnz = nnz_d(rng);
    double sum = 0.0;
    for (int t = 0; t < nnz; ++t) {
      const int r = row_d(rng);
      if (r == diag) continue;
      b.set(j, r, val(rng));
    }
    for (const double v : b.vals[static_cast<std::size_t>(j)]) sum += std::abs(v);
    b.set(j, diag, sum + 1.0);
  }
  SparseBasisFactor sparse;
  ASSERT_TRUE(sparse.factor(b.view(), m));
  // B (B^-1 v) == v, and (B^-T v)' B == v'.
  std::vector<double> v(static_cast<std::size_t>(m));
  for (double& x : v) x = val(rng);
  std::vector<double> x = v;
  sparse.ftran(x);
  EXPECT_LE(max_abs_diff(b.times(x), v), 1e-9);
  std::vector<double> y = v;
  sparse.btran(y);
  std::vector<double> yb(static_cast<std::size_t>(m), 0.0);
  for (int j = 0; j < m; ++j) {
    const auto& r = b.rows[static_cast<std::size_t>(j)];
    for (std::size_t t = 0; t < r.size(); ++t)
      yb[static_cast<std::size_t>(j)] +=
          b.vals[static_cast<std::size_t>(j)][t] * y[static_cast<std::size_t>(r[t])];
  }
  EXPECT_LE(max_abs_diff(yb, v), 1e-9);
}

} // namespace
} // namespace al::ilp
