#include "linalg/tridiagonal.h"

#include <algorithm>
#include <cmath>
#include <numeric>

#include "util/error.h"

namespace specpart::linalg {

namespace {
inline double sign_of(double a, double b) {
  return b >= 0.0 ? std::fabs(a) : -std::fabs(a);
}
}  // namespace

Tridiagonal householder_tridiagonalize(DenseMatrix a, DenseMatrix* accumulated) {
  const std::size_t n = a.rows();
  SP_ASSERT(a.cols() == n);
  Vec d(n, 0.0);
  Vec e(n, 0.0);
  if (n == 0) {
    if (accumulated != nullptr) *accumulated = std::move(a);
    return Tridiagonal{std::move(d), std::move(e)};
  }
  // Raw row pointers: every loop below touches O(n) entries per step, and
  // the checked accessor is out of line. Loops that the EISPACK original
  // runs down a column are interchanged to run along rows; each entry still
  // sees the same operations in the same order, so the bits are unchanged.
  double* const base = a.data();
  const auto row = [base, n](std::size_t r) { return base + r * n; };

  // Householder reduction (EISPACK tred2, 0-based).
  for (std::size_t i = n - 1; i >= 1; --i) {
    const std::size_t l = i - 1;
    double* const ai = row(i);
    double h = 0.0;
    double scale = 0.0;
    if (l > 0) {
      for (std::size_t k = 0; k <= l; ++k) scale += std::fabs(ai[k]);
      if (scale == 0.0) {
        e[i] = ai[l];
      } else {
        for (std::size_t k = 0; k <= l; ++k) {
          ai[k] /= scale;
          h += ai[k] * ai[k];
        }
        double f = ai[l];
        double g = f >= 0.0 ? -std::sqrt(h) : std::sqrt(h);
        e[i] = scale * g;
        h -= f * g;
        ai[l] = f - g;
        // e[j] = (A u)_j / h over the lower triangle: the row part
        // sum_{k<=j} a_jk u_k first, then the column part sum_{k>j} a_kj u_k
        // in increasing k, accumulated row by row.
        for (std::size_t j = 0; j <= l; ++j) {
          double* const aj = row(j);
          aj[i] = ai[j] / h;
          g = 0.0;
          for (std::size_t k = 0; k <= j; ++k) g += aj[k] * ai[k];
          e[j] = g;
        }
        for (std::size_t k = 1; k <= l; ++k) {
          const double* const ak = row(k);
          const double aik = ai[k];
          for (std::size_t j = 0; j < k; ++j) e[j] += ak[j] * aik;
        }
        f = 0.0;
        for (std::size_t j = 0; j <= l; ++j) {
          e[j] /= h;
          f += e[j] * ai[j];
        }
        const double hh = f / (h + h);
        for (std::size_t j = 0; j <= l; ++j) {
          double* const aj = row(j);
          f = ai[j];
          e[j] = g = e[j] - hh * f;
          for (std::size_t k = 0; k <= j; ++k) aj[k] -= f * e[k] + g * ai[k];
        }
      }
    } else {
      e[i] = ai[l];
    }
    d[i] = h;
    if (i == 1) break;  // avoid size_t underflow
  }
  d[0] = 0.0;
  e[0] = 0.0;

  // Accumulate the transformation. Column j's coefficient
  // g_j = sum_{k<i} a_ik a_kj reads no entry the updates of other columns
  // write, so all g_j are summed first (row by row, k increasing) and then
  // applied.
  Vec g(n, 0.0);
  for (std::size_t i = 0; i < n; ++i) {
    double* const ai = row(i);
    if (d[i] != 0.0) {
      std::fill(g.begin(), g.begin() + static_cast<std::ptrdiff_t>(i), 0.0);
      for (std::size_t k = 0; k < i; ++k) {
        const double* const ak = row(k);
        const double aik = ai[k];
        for (std::size_t j = 0; j < i; ++j) g[j] += aik * ak[j];
      }
      for (std::size_t k = 0; k < i; ++k) {
        double* const ak = row(k);
        const double aki = ak[i];
        for (std::size_t j = 0; j < i; ++j) ak[j] -= g[j] * aki;
      }
    }
    d[i] = ai[i];
    ai[i] = 1.0;
    for (std::size_t j = 0; j < i; ++j) {
      row(j)[i] = 0.0;
      ai[j] = 0.0;
    }
  }

  if (accumulated != nullptr) *accumulated = std::move(a);
  return Tridiagonal{std::move(d), std::move(e)};
}

void tridiagonal_eigen(Tridiagonal& t, DenseMatrix& z) {
  Vec& d = t.diag;
  Vec& e = t.off;
  const std::size_t n = d.size();
  SP_ASSERT(e.size() == n);
  SP_ASSERT(z.cols() == n);
  if (n == 0) return;
  // Rows of z, walked by raw pointer: a rotation touches every row.
  double* const z_begin = z.data();
  double* const z_end = z_begin + z.rows() * n;

  // Shift the off-diagonal so e[i] couples rows i and i+1 (tql2 layout).
  for (std::size_t i = 1; i < n; ++i) e[i - 1] = e[i];
  e[n - 1] = 0.0;

  constexpr double kEps = 1e-15;
  for (std::size_t l = 0; l < n; ++l) {
    int iter = 0;
    std::size_t m;
    do {
      for (m = l; m + 1 < n; ++m) {
        const double dd = std::fabs(d[m]) + std::fabs(d[m + 1]);
        if (std::fabs(e[m]) <= kEps * dd) break;
      }
      if (m != l) {
        SP_CHECK_INPUT(iter++ < 64, "tql2: QL iteration failed to converge");
        double g = (d[l + 1] - d[l]) / (2.0 * e[l]);
        double r = std::hypot(g, 1.0);
        g = d[m] - d[l] + e[l] / (g + sign_of(r, g));
        double s = 1.0;
        double c = 1.0;
        double p = 0.0;
        bool underflow = false;
        for (std::size_t i = m; i-- > l;) {
          double f = s * e[i];
          const double b = c * e[i];
          r = std::hypot(f, g);
          e[i + 1] = r;
          if (r == 0.0) {
            d[i + 1] -= p;
            e[m] = 0.0;
            underflow = true;
            break;
          }
          s = f / r;
          c = g / r;
          g = d[i + 1] - p;
          r = (d[i] - g) * s + 2.0 * c * b;
          p = s * r;
          d[i + 1] = g + p;
          g = c * r - b;
          for (double* zr = z_begin; zr != z_end; zr += n) {
            f = zr[i + 1];
            zr[i + 1] = s * zr[i] + c * f;
            zr[i] = c * zr[i] - s * f;
          }
        }
        if (underflow) continue;
        d[l] -= p;
        e[l] = g;
        e[m] = 0.0;
      }
    } while (m != l);
  }

  // Sort eigenpairs ascending by eigenvalue (selection sort on columns).
  for (std::size_t i = 0; i + 1 < n; ++i) {
    std::size_t k = i;
    double p = d[i];
    for (std::size_t j = i + 1; j < n; ++j) {
      if (d[j] < p) {
        k = j;
        p = d[j];
      }
    }
    if (k != i) {
      std::swap(d[k], d[i]);
      for (double* zr = z_begin; zr != z_end; zr += n)
        std::swap(zr[i], zr[k]);
    }
  }
}

Vec tridiagonal_eigenvalues(Tridiagonal t) {
  DenseMatrix z(0, t.diag.size());
  tridiagonal_eigen(t, z);
  return t.diag;
}

}  // namespace specpart::linalg
