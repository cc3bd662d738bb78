// Lanczos iteration for the extreme eigenpairs of large sparse symmetric
// matrices.
//
// The paper computes Laplacian eigenvectors with the LASO2 Lanczos package
// [39]; this module is an independent reimplementation, with full
// reorthogonalization (robust and plenty fast at the d <= ~25 eigenvectors
// the experiments need). lanczos_smallest is a Chebyshev-filtered solve:
//
//  1. A 40-step unfiltered probe on A. theta_max + |beta| (clamped to the
//     Gershgorin bound) bounds lambda_max from above; by Cauchy interlacing
//     the probe's Ritz value theta_{want+1} is >= lambda_{want+1} and sets
//     the cutoff.
//  2. Lanczos on p(A) = T_20((2A - (hi + lo) I) / (hi - lo)), a three-term
//     recurrence of 20 SpMVs: |p| <= 1 on the damped interval [lo, hi] and
//     p grows steeply below lo, so the wanted smallest pairs of A are the
//     dominant pairs of p(A), with relative gaps far larger than their gaps
//     in [0, sigma]. Eigenvector i still converges before eigenvector j for
//     i < j, as the paper remarks.
//  3. Rayleigh-Ritz on A over the filtered Ritz vectors, accepted only when
//     ||A x - theta x|| <= tolerance * sigma_Gershgorin holds on A itself.
#pragma once

#include <cstdint>
#include <functional>

#include "linalg/dense.h"
#include "linalg/sparse.h"
#include "util/budget.h"
#include "util/parallel.h"

namespace specpart::linalg {

/// Tuning knobs for the Lanczos solver. Defaults are good for clique-model
/// Laplacians of circuits with up to ~10^5 vertices.
struct LanczosOptions {
  /// How many eigenpairs (smallest eigenvalues) to return.
  std::size_t num_eigenpairs = 2;
  /// Hard cap on Krylov dimension; 0 means automatic
  /// (min(n, max(20 * num_eigenpairs + 120, 200))).
  std::size_t max_iterations = 0;
  /// Relative residual tolerance: converged when
  /// ||A x - lambda x|| <= tolerance * sigma (lanczos_smallest: sigma is
  /// the Gershgorin bound of A, checked on A; lanczos_largest_op: the
  /// operator norm estimate, checked on the Lanczos residual).
  double tolerance = 1e-9;
  /// Seed for the random start vector.
  std::uint64_t seed = 0xC0FFEEULL;
  /// Optional shared compute budget (nullptr = unlimited). One Krylov
  /// step costs one budget unit (for lanczos_smallest a filtered step of
  /// 20 SpMVs; its 40-step probe is not charged); on exhaustion the solver
  /// stops and returns the best Ritz pairs of the basis built so far (at
  /// least one step always runs so the result is usable).
  ComputeBudget* budget = nullptr;
  /// Compute-kernel threading (see util/parallel.h). The SpMV is split by
  /// row blocks and the Gram-Schmidt sweeps are blocked multi-vector
  /// dot/axpy panels (classical GS with two sweeps) over fixed blocks, so
  /// results are bit-identical at every thread count, including 1.
  ParallelConfig parallel;
};

/// Eigenpairs: values[j] ascending, column j of `vectors` the matching
/// orthonormal eigenvector.
struct LanczosResult {
  Vec values;
  DenseMatrix vectors;
  /// Krylov dimension actually used.
  std::size_t iterations = 0;
  /// True if all requested pairs met the residual tolerance.
  bool converged = false;
  /// Length of the leading prefix of returned pairs that individually met
  /// the residual tolerance (eigenpair i converges before j for i < j, so
  /// a prefix is the natural unit of partial success).
  std::size_t num_converged = 0;
  /// Convergence checks of the Ritz pairs made along the way. Each costs
  /// at most one O(m^2) bottom-row QL of the projected tridiagonal.
  std::size_t ritz_checks = 0;
  /// Invariant-subspace restarts taken (fresh random directions).
  std::size_t breakdown_restarts = 0;
  /// True when the iteration stopped because the compute budget ran out.
  bool budget_exhausted = false;
  /// Operator applications, counted in single-column (matvec) equivalents:
  /// one per iteration of lanczos_largest_op; for lanczos_smallest every
  /// SpMV (the probe steps, 20 per filtered step, and one per vector of
  /// each Rayleigh-Ritz on A); the panel width per SpMM of the multilevel
  /// V-cycle.
  std::size_t operator_applies = 0;
  /// Leading-order floating-point operations spent (operator applies plus
  /// orthogonalization); per-eigenpair cost = flops / num_converged.
  std::uint64_t flops = 0;
  /// Matrix CSR bytes streamed (SymCsrMatrix::stream_bytes per sweep):
  /// lanczos_smallest sweeps the matrix once per operator apply.
  std::uint64_t matrix_bytes_moved = 0;
};

/// Computes the `opts.num_eigenpairs` smallest eigenpairs of the symmetric
/// sparse matrix `a` by the Chebyshev-filtered solve above. `iterations`
/// counts filtered Krylov steps (the whole space when the probe already
/// spans it, n <= 40). Handles invariant subspaces (e.g. disconnected graph
/// Laplacians: multiple zero eigenvalues) by restarting with fresh random
/// directions. Requests for more pairs than n are clamped to n.
LanczosResult lanczos_smallest(const SymCsrMatrix& a, LanczosOptions opts);

/// Generic operator version: `apply(x, y)` must compute y = B x for a
/// symmetric positive operator B of dimension n whose *largest* eigenpairs
/// are wanted. Returned values are eigenvalues of B, descending.
LanczosResult lanczos_largest_op(
    std::size_t n, const std::function<void(const Vec&, Vec&)>& apply,
    double op_norm_estimate, LanczosOptions opts);

}  // namespace specpart::linalg
