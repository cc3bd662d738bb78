#include "linalg/lanczos.h"

#include <algorithm>
#include <cmath>
#include <utility>

#include "linalg/symmetric_eigen.h"
#include "linalg/tridiagonal.h"
#include "util/error.h"
#include "util/fault.h"
#include "util/rng.h"

namespace specpart::linalg {

namespace {

/// Degree of the Chebyshev filter polynomial of lanczos_smallest.
constexpr std::size_t kFilterDegree = 20;
/// Length of the unfiltered probe run of lanczos_smallest (raised to
/// 2 (want + 1) for large requests, capped at n).
constexpr std::size_t kProbeSteps = 40;

using Operator = std::function<void(const Vec&, Vec&)>;

/// dot(a, b) by the fixed-block deterministic reduction: bit-identical for
/// every thread count, including 1.
double pdot(const Vec& a, const Vec& b, const ParallelConfig& par) {
  return parallel_reduce<double>(
      par, 0, a.size(), 0.0,
      [&](std::size_t lo, std::size_t hi) {
        double s = 0.0;
        for (std::size_t r = lo; r < hi; ++r) s += a[r] * b[r];
        return s;
      },
      [](double acc, double s) { return acc + s; });
}

/// y += alpha * x by disjoint row blocks (exact for any blocking; at one
/// thread parallel_for runs the whole range as one block).
void paxpy(double alpha, const Vec& x, Vec& y, const ParallelConfig& par) {
  parallel_for(par, 0, x.size(), [&](std::size_t lo, std::size_t hi) {
    for (std::size_t r = lo; r < hi; ++r) y[r] += alpha * x[r];
  });
}

/// Makes `w` orthogonal to every vector in `basis`: classical Gram-Schmidt
/// with two sweeps (CGS2; one is not enough once the basis grows), each
/// sweep a blocked multi-vector panel — one pass computing every
/// coefficient c_i = w . v_i per row block, one pass applying
/// w -= sum_i c_i v_i. The panels stream the whole basis through each row
/// block, which is memory-bandwidth-bound instead of latency-bound, and the
/// fixed-block reduction keeps the coefficients bit-identical for every
/// thread count.
void reorthogonalize(const std::vector<Vec>& basis, Vec& w,
                     const ParallelConfig& par) {
  const std::size_t m = basis.size();
  if (m == 0) return;
  const std::size_t n = w.size();
  for (int sweep = 0; sweep < 2; ++sweep) {
    // Panel dot: c = V^T w, partials per row block combined in block order.
    const Vec c = parallel_reduce<Vec>(
        par, 0, n, Vec(m, 0.0),
        [&](std::size_t lo, std::size_t hi) {
          Vec partial(m, 0.0);
          for (std::size_t i = 0; i < m; ++i) {
            const double* v = basis[i].data();
            double s = 0.0;
            for (std::size_t r = lo; r < hi; ++r) s += w[r] * v[r];
            partial[i] = s;
          }
          return partial;
        },
        [m](Vec acc, Vec partial) {
          for (std::size_t i = 0; i < m; ++i) acc[i] += partial[i];
          return acc;
        });
    // Panel axpy: w -= V c over disjoint row blocks (exact per element).
    parallel_for(par, 0, n, [&](std::size_t lo, std::size_t hi) {
      for (std::size_t i = 0; i < m; ++i) {
        const double ci = c[i];
        if (ci == 0.0) continue;
        const double* v = basis[i].data();
        for (std::size_t r = lo; r < hi; ++r) w[r] -= ci * v[r];
      }
    });
  }
}

Vec random_unit_vector(std::size_t n, Rng& rng) {
  Vec v(n);
  for (double& x : v) x = rng.next_normal();
  normalize(v);
  return v;
}

/// x_j = sum_k z(k, col_j) basis_k for the given columns of z; the
/// per-element accumulation order over k is fixed, so row-blocking is
/// exact for any thread count.
std::vector<Vec> combine_basis(const std::vector<Vec>& basis,
                               const DenseMatrix& z,
                               const std::vector<std::size_t>& cols,
                               const ParallelConfig& par) {
  const std::size_t n = basis.empty() ? 0 : basis[0].size();
  std::vector<Vec> out(cols.size(), Vec(n, 0.0));
  for (std::size_t j = 0; j < cols.size(); ++j) {
    Vec& x = out[j];
    parallel_for(par, 0, n, [&](std::size_t lo, std::size_t hi) {
      for (std::size_t k = 0; k < basis.size(); ++k) {
        const double zk = z.at(k, cols[j]);
        const double* b = basis[k].data();
        for (std::size_t r = lo; r < hi; ++r) x[r] += zk * b[r];
      }
    });
  }
  return out;
}

/// A full-reorthogonalization Lanczos process: the basis V, the projected
/// tridiagonal T = V^T B V and the next direction.
class LanczosProcess {
 public:
  LanczosProcess(std::size_t n, std::uint64_t seed, double breakdown_tol,
                 const ParallelConfig& par)
      : n_(n), breakdown_tol_(breakdown_tol), par_(par), rng_(seed),
        v_(random_unit_vector(n, rng_)), w_(n) {}

  /// Extends the basis by the current direction: w = B v_j, the
  /// three-term recurrence and CGS2 against the basis. On (near) breakdown
  /// an invariant subspace was found: the coupling is zero (which the QL
  /// solver handles as a block split) and the next direction is a fresh
  /// random vector orthogonal to the basis. Returns false when no next
  /// direction exists (the basis spans the whole space).
  bool step(const Operator& apply) {
    basis_.push_back(v_);
    const std::size_t j = basis_.size() - 1;
    apply(basis_.back(), w_);
    flops += 8ull * n_;  // three BLAS-1 ops plus the beta norm
    if (j > 0 && betas_[j - 1] != 0.0)
      paxpy(-betas_[j - 1], basis_[j - 1], w_, par_);
    const double alpha = pdot(w_, basis_[j], par_);
    paxpy(-alpha, basis_[j], w_, par_);
    reorthogonalize(basis_, w_, par_);
    flops += 16ull * n_ * basis_.size();  // CGS2 over the basis
    alphas_.push_back(alpha);

    double beta = std::sqrt(pdot(w_, w_, par_));
    if (SP_FAULT("lanczos.force_breakdown")) beta = 0.0;
    if (beta > breakdown_tol_) {
      betas_.push_back(beta);
      scale(w_, 1.0 / beta);
      v_ = w_;
      return true;
    }
    betas_.push_back(0.0);
    if (basis_.size() >= n_) return false;
    Vec fresh = random_unit_vector(n_, rng_);
    reorthogonalize(basis_, fresh, par_);
    flops += 16ull * n_ * basis_.size();
    if (normalize(fresh) <= 1e-12) return false;
    ++restarts;
    v_ = std::move(fresh);
    return true;
  }

  std::size_t size() const { return basis_.size(); }
  const std::vector<Vec>& basis() const { return basis_; }
  /// Coupling of the last basis vector to the next direction (0 after a
  /// breakdown).
  double last_beta() const { return betas_.empty() ? 0.0 : betas_.back(); }

  /// The projected tridiagonal T of the current basis (EISPACK layout).
  Tridiagonal projected() const {
    const std::size_t m = basis_.size();
    Tridiagonal t{alphas_, Vec(m, 0.0)};
    for (std::size_t i = 1; i < m; ++i) t.off[i] = betas_[i - 1];
    return t;
  }

  /// Whether each of the `count` largest Ritz pairs (mu, y) has residual
  /// |beta_m s_{m,i}| <= bound(mu). Only the bottom row of T's eigenvector
  /// matrix is needed, and QL on a 1 x m row seeded with e_m^T yields
  /// exactly that row in O(m^2); full decompositions are left to the
  /// Ritz-vector extraction.
  template <class Bound>
  bool largest_within(std::size_t count, Bound&& bound) const {
    const std::size_t m = basis_.size();
    Tridiagonal t = projected();
    DenseMatrix bottom(1, m);
    bottom.at(0, m - 1) = 1.0;
    tridiagonal_eigen(t, bottom);
    for (std::size_t i = 0; i < count; ++i) {
      const std::size_t col = m - 1 - i;  // largest eigenvalues are last
      if (std::fabs(last_beta() * bottom.at(0, col)) > bound(t.diag[col]))
        return false;
    }
    return true;
  }

  std::size_t restarts = 0;
  /// Leading-order basis work: 8n per step and 16 n m per CGS2 pass over
  /// an m-vector basis.
  std::uint64_t flops = 0;

 private:
  std::size_t n_;
  double breakdown_tol_;
  const ParallelConfig& par_;
  Rng rng_;
  std::vector<Vec> basis_;  // Lanczos vectors v_0 .. v_{m-1}
  Vec alphas_;              // T diagonal
  Vec betas_;               // betas_[j] couples v_j and v_{j+1}
  Vec v_;
  Vec w_;
};

/// Krylov cap: opts.max_iterations, or min(n, max(20 want + 120, 200)) when
/// that is 0, clamped to [want, n].
std::size_t krylov_cap(std::size_t n, std::size_t want,
                       const LanczosOptions& opts) {
  const std::size_t cap =
      opts.max_iterations != 0
          ? opts.max_iterations
          : std::min(n, std::max<std::size_t>(20 * want + 120, 200));
  return std::max(std::min(cap, n), want);
}

/// Extends `lanczos` until check() accepts, the Krylov cap is reached, the
/// space is exhausted or the budget runs out. check() runs every 10 steps
/// once m >= want + 2 and once at the step that ends the run. Each step
/// but the last charges the budget one unit; the first step always
/// completes, so even an expired budget yields a usable (if poor)
/// one-pair result. Returns whether check() accepted.
template <class Check>
bool extend_until(LanczosProcess& lanczos, const Operator& apply,
                  std::size_t want, std::size_t max_iter,
                  ComputeBudget* budget, bool& budget_exhausted,
                  Check&& check) {
  for (;;) {
    const bool more = lanczos.step(apply);
    const std::size_t m = lanczos.size();
    if (!more || m == max_iter) return check();
    if (m >= want + 2 && m % 10 == 0 && check()) return true;
    if (!budget_charge(budget)) {
      budget_exhausted = true;
      return check();
    }
  }
}

/// The `take` largest Ritz pairs of the process, largest first, with unit
/// vectors and bottom[i] = s_{m,i}, the last row of T's eigenvector for
/// pair i.
struct RitzPairs {
  Vec values;
  std::vector<Vec> vectors;
  Vec bottom;
};

RitzPairs largest_ritz_pairs(const LanczosProcess& lanczos, std::size_t take,
                             const ParallelConfig& par) {
  const std::size_t m = lanczos.size();
  Tridiagonal t = lanczos.projected();
  DenseMatrix z = DenseMatrix::identity(m);
  tridiagonal_eigen(t, z);  // ascending
  std::vector<std::size_t> cols(take);
  for (std::size_t i = 0; i < take; ++i) cols[i] = m - 1 - i;
  RitzPairs out;
  out.vectors = combine_basis(lanczos.basis(), z, cols, par);
  for (std::size_t i = 0; i < take; ++i) {
    out.values.push_back(t.diag[cols[i]]);
    out.bottom.push_back(z.at(m - 1, cols[i]));
    normalize(out.vectors[i]);
  }
  return out;
}

/// Operator applies and leading-order flops of one lanczos_smallest call.
struct SolveWork {
  std::size_t applies = 0;
  std::uint64_t flops = 0;
};

/// Rayleigh-Ritz on A over span(Y), Y orthonormal, with the acceptance
/// test: the `take` smallest eigenpairs (theta, S) of Y^T A Y, unit Ritz
/// vectors X = Y S, residuals ||A x - theta x|| from A X = (A Y) S, and
/// num_converged the longest leading prefix with residual <= bound.
struct RitzOnA {
  Vec values;
  std::vector<Vec> vectors;
  std::size_t num_converged = 0;
};

RitzOnA rayleigh_ritz(const SymCsrMatrix& a, const std::vector<Vec>& y,
                      std::size_t take, double bound,
                      const ParallelConfig& par, SolveWork& work) {
  const std::size_t n = a.size();
  const std::size_t k = y.size();
  std::vector<Vec> ay(k, Vec(n));
  for (std::size_t j = 0; j < k; ++j) a.matvec(y[j], ay[j], par);
  DenseMatrix g(k, k);
  for (std::size_t i = 0; i < k; ++i)
    for (std::size_t j = 0; j <= i; ++j)
      g.at(i, j) = g.at(j, i) = pdot(y[i], ay[j], par);
  const EigenDecomposition dec = solve_symmetric_eigen(std::move(g));
  std::vector<std::size_t> cols(take);
  for (std::size_t j = 0; j < take; ++j) cols[j] = j;  // ascending
  RitzOnA out;
  out.values.assign(dec.values.begin(),
                    dec.values.begin() + static_cast<std::ptrdiff_t>(take));
  out.vectors = combine_basis(y, dec.vectors, cols, par);
  std::vector<Vec> r = combine_basis(ay, dec.vectors, cols, par);
  bool prefix = true;
  for (std::size_t j = 0; j < take; ++j) {
    Vec& x = out.vectors[j];
    Vec& rj = r[j];
    const double len = normalize(x);
    const double theta = out.values[j];
    parallel_for(par, 0, n, [&](std::size_t lo, std::size_t hi) {
      for (std::size_t i = lo; i < hi; ++i) rj[i] = rj[i] / len - theta * x[i];
    });
    prefix = prefix && std::sqrt(pdot(rj, rj, par)) <= bound;
    if (prefix) ++out.num_converged;
  }
  // k SpMVs, the k x k Gram matrix, X and A X, the residuals.
  work.applies += k;
  work.flops += k * 2ull * a.nnz() + 1ull * n * k * (k + 1) +
                4ull * n * k * take + 4ull * n * take;
  return out;
}

}  // namespace

LanczosResult lanczos_largest_op(
    std::size_t n, const std::function<void(const Vec&, Vec&)>& apply,
    double op_norm_estimate, LanczosOptions opts) {
  LanczosResult result;
  const std::size_t want = std::min(opts.num_eigenpairs, n);
  if (want == 0 || n == 0) return result;
  // Test hook: an armed "lanczos.force_nonconverge" fault makes this whole
  // call report non-convergence (as a clustered spectrum would), driving
  // callers into their fallback chains. One armed count = one failed call.
  const bool forced = SP_FAULT("lanczos.force_nonconverge");
  const double op_scale = std::max(op_norm_estimate, 1e-30);
  const double bound = opts.tolerance * op_scale;
  LanczosProcess lanczos(n, opts.seed, 1e-13 * op_scale, opts.parallel);

  auto check = [&]() -> bool {
    const std::size_t m = lanczos.size();
    ++result.ritz_checks;
    if (m < want || forced) return false;
    if (m == n) return true;  // exhausted the space: exact
    return lanczos.largest_within(want, [bound](double) { return bound; });
  };
  const bool converged =
      extend_until(lanczos, apply, want, krylov_cap(n, want, opts),
                   opts.budget, result.budget_exhausted, check);

  // One full Ritz decomposition of the final T, even for a truncated run
  // (budget exhaustion, early breakdown), which returns its best-so-far
  // pairs.
  const std::size_t m = lanczos.size();
  SP_ASSERT(m >= 1);
  const std::size_t take = std::min(want, m);
  const RitzPairs ritz = largest_ritz_pairs(lanczos, take, opts.parallel);
  result.values = ritz.values;
  result.vectors = DenseMatrix(n, take);
  for (std::size_t i = 0; i < take; ++i)
    result.vectors.set_col(i, ritz.vectors[i]);
  // Per-pair convergence: the longest leading prefix whose residuals meet
  // the tolerance. Callers truncate to this prefix when the tail fails.
  const double beta_tail = m < n ? lanczos.last_beta() : 0.0;
  while (result.num_converged < take &&
         std::fabs(beta_tail * ritz.bottom[result.num_converged]) <= bound)
    ++result.num_converged;
  if (forced) result.num_converged = std::min(result.num_converged, want - 1);

  result.iterations = m;
  result.converged = converged && take == want;
  result.breakdown_restarts = lanczos.restarts;
  result.operator_applies = m;  // one apply per iteration
  result.flops = lanczos.flops + 2ull * n * m * take;  // + Ritz vectors
  return result;
}

LanczosResult lanczos_smallest(const SymCsrMatrix& a, LanczosOptions opts) {
  LanczosResult result;
  const std::size_t n = a.size();
  const std::size_t want = std::min(opts.num_eigenpairs, n);
  if (want == 0) return result;
  const bool forced = SP_FAULT("lanczos.force_nonconverge");
  const ParallelConfig& par = opts.parallel;
  // The acceptance scale: the Gershgorin bound sigma >= lambda_max(A).
  const double sigma = a.gershgorin_upper() * (1.0 + 1e-12) + 1e-12;
  const double bound = opts.tolerance * sigma;
  SolveWork work;

  // 1. Probe: a short unfiltered run on A. Its Ritz values bound the
  // spectrum from inside (Cauchy interlacing: the j-th smallest Ritz value
  // is >= lambda_j), and theta_max + |beta| bounds it from above.
  LanczosProcess probe(n, opts.seed, 1e-13 * sigma, par);
  const std::size_t probe_len =
      std::min(n, std::max(kProbeSteps, 2 * (want + 1)));
  const Operator apply_a = [&](const Vec& x, Vec& y) { a.matvec(x, y, par); };
  bool more = true;
  while (more && probe.size() < probe_len) more = probe.step(apply_a);
  work.applies += probe.size();
  work.flops += probe.flops + probe.size() * 2ull * a.nnz();
  result.breakdown_restarts = probe.restarts;

  RitzOnA ritz;
  if (!more || probe.size() == n) {
    // The probe spans the whole space: Rayleigh-Ritz over it is exact.
    ritz = rayleigh_ritz(a, probe.basis(), want, bound, par, work);
    result.iterations = n;
  } else {
    const Vec theta = tridiagonal_eigenvalues(probe.projected());
    // 2. Damping interval [lo, hi]. hi must be a true bound on lambda_max:
    // eigenvalues above it would be amplified like the wanted ones. lo >=
    // lambda_{want+1} by interlacing, nudged up so that a wanted eigenvalue
    // equal to theta_{want+1} is still amplified. The probe ran its full
    // 2 (want + 1) or more steps here, so theta[want] exists.
    const double hi =
        std::min(sigma, theta.back() + std::fabs(probe.last_beta()));
    const double spread = hi - theta.front() + 1e-15 * sigma;
    const double lo = std::min(theta[want] + 1e-3 * (hi - theta[want]),
                               hi - 1e-3 * spread);
    const double center = 0.5 * (hi + lo);
    const double inv_half = 2.0 / (hi - lo);
    // 3. The filter p(A) = T_d((A - center I) / half_width): |p| <= 1 on
    // [lo, hi], p > 1 and decreasing below lo, so the wanted pairs are the
    // dominant ones of p(A). Three-term recurrence on SymCsrMatrix::matvec.
    Vec prev(n), cur(n), next(n);
    const Operator filter = [&](const Vec& x, Vec& y) {
      a.matvec(x, cur, par);
      parallel_for(par, 0, n, [&](std::size_t l, std::size_t h) {
        for (std::size_t i = l; i < h; ++i)
          cur[i] = (cur[i] - center * x[i]) * inv_half;
      });
      prev = x;
      for (std::size_t d = 2; d <= kFilterDegree; ++d) {
        a.matvec(cur, next, par);
        parallel_for(par, 0, n, [&](std::size_t l, std::size_t h) {
          for (std::size_t i = l; i < h; ++i)
            next[i] = 2.0 * inv_half * (next[i] - center * cur[i]) - prev[i];
        });
        std::swap(prev, cur);
        std::swap(cur, next);
      }
      std::swap(y, cur);
    };
    // Screening before the acceptance test: a filtered Ritz pair (mu, y)
    // with residual rho leaves ||A y - lambda y|| ~ rho / p'(lambda) where
    // p(lambda) = mu; Rayleigh-Ritz on A runs only once every wanted pair
    // passes that estimate.
    const auto slope = [&](double mu) {
      if (mu <= 1.0) return 0.0;
      const double t = std::acosh(mu) / kFilterDegree;
      return kFilterDegree * std::sqrt(mu * mu - 1.0) / std::sinh(t) *
             inv_half;
    };
    // p(theta_1) = cosh(d acosh(x)) estimates p's largest value on the
    // spectrum, the operator scale of the breakdown test.
    const double p_max = std::cosh(
        kFilterDegree *
        std::acosh(std::max(1.0, (center - theta.front()) * inv_half)));
    LanczosProcess krylov(n, opts.seed, 1e-13 * p_max, par);
    // 4. Rayleigh-Ritz on A over the `take` filtered Ritz vectors.
    std::size_t ritz_at = 0;  // basis size of the last Rayleigh-Ritz
    const auto rayleigh_ritz_on_krylov = [&](std::size_t take) {
      ritz_at = krylov.size();
      ritz = rayleigh_ritz(a, largest_ritz_pairs(krylov, take, par).vectors,
                           take, bound, par, work);
      work.flops += 2ull * n * ritz_at * take;  // the filtered Ritz vectors
    };
    const auto accept = [&]() -> bool {
      const std::size_t m = krylov.size();
      ++result.ritz_checks;
      if (m < want || forced) return false;
      if (m < n && !krylov.largest_within(want, [&](double mu) {
            return bound * slope(mu);
          }))
        return false;
      rayleigh_ritz_on_krylov(want);
      return ritz.num_converged == want;
    };
    extend_until(krylov, filter, want, krylov_cap(n, want, opts),
                 opts.budget, result.budget_exhausted, accept);
    const std::size_t m = krylov.size();
    if (ritz_at != m) rayleigh_ritz_on_krylov(std::min(want, m));
    // One filter apply: d SpMVs plus 3n + 4n (d - 1) recurrence flops.
    work.applies += kFilterDegree * m;
    work.flops += krylov.flops + m * (kFilterDegree * 2ull * a.nnz() +
                                      (4 * kFilterDegree - 1) * n);
    result.iterations = m;
    result.breakdown_restarts += krylov.restarts;
  }

  // 5. Acceptance was checked on A: the converged prefix of the Ritz pairs.
  const std::size_t take = ritz.values.size();
  result.values = ritz.values;
  result.vectors = DenseMatrix(n, take);
  for (std::size_t j = 0; j < take; ++j)
    result.vectors.set_col(j, ritz.vectors[j]);
  result.num_converged =
      forced ? std::min(ritz.num_converged, want - 1) : ritz.num_converged;
  result.converged = take == want && result.num_converged == want;
  result.operator_applies = work.applies;
  result.flops = work.flops;
  result.matrix_bytes_moved =
      static_cast<std::uint64_t>(work.applies) * a.stream_bytes();
  return result;
}

}  // namespace specpart::linalg
