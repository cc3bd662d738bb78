// Eigensolver configuration.
//
// SolverOptions is the single solver-configuration struct: core::
// PipelineConfig owns it and threads it through MeloOptions, the service
// and the tools. The embedding stage (spectral/embedding.h) maps it onto
// the one Krylov solver, the single-vector Lanczos chain of lanczos.h —
// the paper's LASO2 lineage — or onto the multilevel V-cycle.
#pragma once

#include <cstddef>

namespace specpart::linalg {

/// How the eigensolve is orchestrated. kFlat runs scalar Lanczos directly
/// on the full-size Laplacian. kMultilevel runs the coarsen /
/// solve / refine V-cycle (multilevel/vcycle.h): heavy-edge matching
/// contracts the matrix level by level, the coarsest level is solved
/// exactly, and the basis is interpolated back up with Chebyshev-filtered
/// Rayleigh-Ritz refinement sweeps — typically several times faster than a
/// flat Krylov solve at large n. When refinement cannot certify the
/// requested pairs the embedding layer falls back to the flat chain, so
/// the strategy is an accelerator, never a correctness risk.
enum class SolverStrategy { kFlat, kMultilevel };

/// Relative residual tolerance of the iterative solvers
/// (||A x - lambda x|| <= kSolverTolerance * sigma), and the convergence
/// contract recorded in EigenBasis.
inline constexpr double kSolverTolerance = 1e-8;

/// The one solver-configuration struct. PipelineConfig owns an instance
/// (aliased as core::SolverOptions) and every layer passes it through
/// unchanged.
struct SolverOptions {
  /// Problems with n <= dense_threshold skip Krylov entirely and use the
  /// exact dense decomposition (cheaper and unconditionally robust).
  std::size_t dense_threshold = 320;
  /// Largest n for which the embedding fallback chain may escalate a
  /// non-converged iterative solve to the dense solver (0 disables).
  std::size_t dense_fallback_limit = 2048;
  /// Orchestration strategy: flat Lanczos solve (default) or the
  /// multilevel V-cycle, whose tuning is fixed in multilevel/vcycle.h.
  SolverStrategy strategy = SolverStrategy::kFlat;
};

}  // namespace specpart::linalg
