// Tests for the Householder + implicit-QL symmetric eigensolver.
//
// Oracles: analytically known spectra (diagonal matrices, path-graph
// Laplacians) and the defining properties A v = lambda v, V^T V = I,
// A = V diag(lambda) V^T, verified over randomized sizes via TEST_P.
// The partial-z contract of tridiagonal_eigen (a subset of rows, or none,
// evolves bit for bit as inside the full identity-seeded run) is checked
// on random tridiagonals with block splits and repeated diagonals.
#include <gtest/gtest.h>

#include <bit>
#include <cmath>
#include <cstdint>

#include "linalg/symmetric_eigen.h"
#include "linalg/tridiagonal.h"
#include "util/rng.h"

namespace specpart::linalg {
namespace {

DenseMatrix random_symmetric(std::size_t n, std::uint64_t seed) {
  Rng rng(seed);
  DenseMatrix a(n, n);
  for (std::size_t i = 0; i < n; ++i)
    for (std::size_t j = i; j < n; ++j) {
      const double v = rng.next_normal();
      a.at(i, j) = v;
      a.at(j, i) = v;
    }
  return a;
}

/// Laplacian of the unweighted path graph P_n: eigenvalues are
/// 2 - 2 cos(pi k / n), k = 0..n-1.
DenseMatrix path_laplacian(std::size_t n) {
  DenseMatrix a(n, n);
  for (std::size_t i = 0; i < n; ++i) {
    double deg = 0.0;
    if (i > 0) {
      a.at(i, i - 1) = -1.0;
      deg += 1.0;
    }
    if (i + 1 < n) {
      a.at(i, i + 1) = -1.0;
      deg += 1.0;
    }
    a.at(i, i) = deg;
  }
  return a;
}

TEST(Tridiagonal, DiagonalMatrixEigenvaluesSorted) {
  Tridiagonal t{{5.0, 1.0, 3.0}, {0.0, 0.0, 0.0}};
  const Vec values = tridiagonal_eigenvalues(std::move(t));
  ASSERT_EQ(values.size(), 3u);
  EXPECT_DOUBLE_EQ(values[0], 1.0);
  EXPECT_DOUBLE_EQ(values[1], 3.0);
  EXPECT_DOUBLE_EQ(values[2], 5.0);
}

TEST(Tridiagonal, TwoByTwoKnown) {
  // [[2, 1], [1, 2]] -> eigenvalues 1, 3.
  Tridiagonal t{{2.0, 2.0}, {0.0, 1.0}};
  const Vec values = tridiagonal_eigenvalues(std::move(t));
  EXPECT_NEAR(values[0], 1.0, 1e-12);
  EXPECT_NEAR(values[1], 3.0, 1e-12);
}

TEST(SymmetricEigen, PathLaplacianSpectrum) {
  const std::size_t n = 12;
  const EigenDecomposition dec = solve_symmetric_eigen(path_laplacian(n));
  for (std::size_t k = 0; k < n; ++k) {
    const double expected =
        2.0 - 2.0 * std::cos(M_PI * static_cast<double>(k) /
                             static_cast<double>(n));
    EXPECT_NEAR(dec.values[k], expected, 1e-10) << "k=" << k;
  }
}

TEST(SymmetricEigen, TrivialSizes) {
  EigenDecomposition d0 = solve_symmetric_eigen(DenseMatrix(0, 0));
  EXPECT_TRUE(d0.values.empty());
  DenseMatrix one(1, 1);
  one.at(0, 0) = 42.0;
  EigenDecomposition d1 = solve_symmetric_eigen(one);
  ASSERT_EQ(d1.values.size(), 1u);
  EXPECT_DOUBLE_EQ(d1.values[0], 42.0);
  EXPECT_DOUBLE_EQ(d1.vectors.at(0, 0), 1.0);
}

TEST(SymmetricEigen, SmallestTruncates) {
  const EigenDecomposition dec =
      solve_symmetric_eigen_smallest(path_laplacian(10), 3);
  ASSERT_EQ(dec.values.size(), 3u);
  EXPECT_EQ(dec.vectors.cols(), 3u);
  EXPECT_EQ(dec.vectors.rows(), 10u);
  EXPECT_NEAR(dec.values[0], 0.0, 1e-10);
}

class SymmetricEigenSweep : public ::testing::TestWithParam<std::size_t> {};

TEST_P(SymmetricEigenSweep, ReconstructsMatrix) {
  const std::size_t n = GetParam();
  const DenseMatrix a = random_symmetric(n, 100 + n);
  const EigenDecomposition dec = solve_symmetric_eigen(a);

  // A = V diag(lambda) V^T.
  DenseMatrix lambda(n, n);
  for (std::size_t i = 0; i < n; ++i) lambda.at(i, i) = dec.values[i];
  const DenseMatrix recon =
      dec.vectors.multiply(lambda).multiply(dec.vectors.transposed());
  EXPECT_LT(recon.max_abs_diff(a), 1e-9 * (1.0 + a.frobenius()));
}

TEST_P(SymmetricEigenSweep, VectorsOrthonormal) {
  const std::size_t n = GetParam();
  const DenseMatrix a = random_symmetric(n, 200 + n);
  const EigenDecomposition dec = solve_symmetric_eigen(a);
  const DenseMatrix gram = dec.vectors.transposed().multiply(dec.vectors);
  EXPECT_LT(gram.max_abs_diff(DenseMatrix::identity(n)), 1e-10);
}

TEST_P(SymmetricEigenSweep, ValuesAscending) {
  const std::size_t n = GetParam();
  const EigenDecomposition dec =
      solve_symmetric_eigen(random_symmetric(n, 300 + n));
  for (std::size_t i = 1; i < n; ++i)
    EXPECT_LE(dec.values[i - 1], dec.values[i]);
}

TEST_P(SymmetricEigenSweep, ResidualsSmall) {
  const std::size_t n = GetParam();
  const DenseMatrix a = random_symmetric(n, 400 + n);
  const EigenDecomposition dec = solve_symmetric_eigen(a);
  for (std::size_t j = 0; j < n; ++j) {
    const Vec v = dec.vectors.col(j);
    const Vec av = a.matvec(v);
    Vec residual = av;
    axpy(-dec.values[j], v, residual);
    EXPECT_LT(norm(residual), 1e-9 * (1.0 + std::fabs(dec.values[j])))
        << "eigenpair " << j;
  }
}

INSTANTIATE_TEST_SUITE_P(Sizes, SymmetricEigenSweep,
                         ::testing::Values(2, 3, 5, 8, 13, 21, 34, 55));

TEST(SymmetricEigen, RepeatedEigenvaluesHandled) {
  // 2 I_4 plus a rank-1 bump: eigenvalues {2, 2, 2, 6}.
  DenseMatrix a(4, 4);
  for (std::size_t i = 0; i < 4; ++i)
    for (std::size_t j = 0; j < 4; ++j) a.at(i, j) = (i == j ? 3.0 : 1.0);
  const EigenDecomposition dec = solve_symmetric_eigen(a);
  EXPECT_NEAR(dec.values[0], 2.0, 1e-10);
  EXPECT_NEAR(dec.values[1], 2.0, 1e-10);
  EXPECT_NEAR(dec.values[2], 2.0, 1e-10);
  EXPECT_NEAR(dec.values[3], 6.0, 1e-10);
}

TEST(Householder, TridiagonalIsSimilar) {
  const std::size_t n = 9;
  const DenseMatrix a = random_symmetric(n, 77);
  DenseMatrix q;
  const Tridiagonal t = householder_tridiagonalize(a, &q);
  // Rebuild T as a dense matrix and check Q T Q^T = A.
  DenseMatrix tm(n, n);
  for (std::size_t i = 0; i < n; ++i) {
    tm.at(i, i) = t.diag[i];
    if (i >= 1) {
      tm.at(i, i - 1) = t.off[i];
      tm.at(i - 1, i) = t.off[i];
    }
  }
  const DenseMatrix recon = q.multiply(tm).multiply(q.transposed());
  EXPECT_LT(recon.max_abs_diff(a), 1e-10 * (1.0 + a.frobenius()));
}

/// Random symmetric tridiagonal of order m with the features Lanczos
/// produces: zero couplings (invariant-subspace splits) and runs of equal
/// diagonal entries.
Tridiagonal random_tridiagonal(std::size_t m, std::uint64_t seed) {
  Rng rng(seed);
  Tridiagonal t{Vec(m, 0.0), Vec(m, 0.0)};
  for (std::size_t i = 0; i < m; ++i) {
    t.diag[i] = (i > 0 && rng.next_double() < 0.2) ? t.diag[i - 1]
                                                   : rng.next_normal();
    if (i > 0) t.off[i] = rng.next_double() < 0.1 ? 0.0 : rng.next_normal();
  }
  return t;
}

std::uint64_t bits(double x) { return std::bit_cast<std::uint64_t>(x); }

class TridiagonalPartialZ : public ::testing::TestWithParam<std::size_t> {};

TEST_P(TridiagonalPartialZ, BottomRowMatchesFullRunBitwise) {
  const std::size_t m = GetParam();
  for (std::uint64_t seed = 1; seed <= 4; ++seed) {
    Tridiagonal full_t = random_tridiagonal(m, 1000 * m + seed);
    Tridiagonal row_t = full_t;
    DenseMatrix full = DenseMatrix::identity(m);
    tridiagonal_eigen(full_t, full);
    DenseMatrix row(1, m);
    row.at(0, m - 1) = 1.0;
    tridiagonal_eigen(row_t, row);
    for (std::size_t j = 0; j < m; ++j) {
      EXPECT_EQ(bits(row_t.diag[j]), bits(full_t.diag[j]))
          << "m=" << m << " seed=" << seed << " value " << j;
      EXPECT_EQ(bits(row.at(0, j)), bits(full.at(m - 1, j)))
          << "m=" << m << " seed=" << seed << " column " << j;
    }
  }
}

TEST_P(TridiagonalPartialZ, RowSubsetMatchesFullRunBitwise) {
  const std::size_t m = GetParam();
  const std::size_t picks[] = {0, m / 2, m - 1};
  Tridiagonal full_t = random_tridiagonal(m, 77 + m);
  Tridiagonal sub_t = full_t;
  DenseMatrix full = DenseMatrix::identity(m);
  tridiagonal_eigen(full_t, full);
  DenseMatrix sub(3, m);
  for (std::size_t r = 0; r < 3; ++r) sub.at(r, picks[r]) = 1.0;
  tridiagonal_eigen(sub_t, sub);
  for (std::size_t r = 0; r < 3; ++r)
    for (std::size_t j = 0; j < m; ++j)
      EXPECT_EQ(bits(sub.at(r, j)), bits(full.at(picks[r], j)))
          << "m=" << m << " row " << picks[r] << " column " << j;
}

TEST_P(TridiagonalPartialZ, ZeroRowZGivesSameEigenvalues) {
  const std::size_t m = GetParam();
  for (std::uint64_t seed = 1; seed <= 4; ++seed) {
    Tridiagonal full_t = random_tridiagonal(m, 2000 * m + seed);
    const Tridiagonal input = full_t;
    DenseMatrix full = DenseMatrix::identity(m);
    tridiagonal_eigen(full_t, full);
    Tridiagonal none_t = input;
    DenseMatrix none(0, m);
    tridiagonal_eigen(none_t, none);
    const Vec values = tridiagonal_eigenvalues(input);
    for (std::size_t j = 0; j < m; ++j) {
      EXPECT_EQ(bits(none_t.diag[j]), bits(full_t.diag[j]))
          << "m=" << m << " seed=" << seed << " value " << j;
      EXPECT_EQ(bits(values[j]), bits(full_t.diag[j]))
          << "m=" << m << " seed=" << seed << " value " << j;
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Orders, TridiagonalPartialZ,
                         ::testing::Values(1, 2, 5, 40, 200));

TEST(Tridiagonal, ZeroCouplingsSplitIntoBlocks) {
  // Two decoupled 2x2 blocks [[2,1],[1,2]] and [[5,1],[1,5]], plus an
  // isolated diagonal entry equal to a block eigenvalue: {1, 3, 3, 4, 6}.
  Tridiagonal t{{2.0, 2.0, 3.0, 5.0, 5.0}, {0.0, 1.0, 0.0, 0.0, 1.0}};
  DenseMatrix z = DenseMatrix::identity(5);
  tridiagonal_eigen(t, z);
  const double expected[] = {1.0, 3.0, 3.0, 4.0, 6.0};
  for (std::size_t j = 0; j < 5; ++j)
    EXPECT_NEAR(t.diag[j], expected[j], 1e-12) << "value " << j;
  const DenseMatrix gram = z.transposed().multiply(z);
  EXPECT_LT(gram.max_abs_diff(DenseMatrix::identity(5)), 1e-12);
}

}  // namespace
}  // namespace specpart::linalg
