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

/// The one solver-configuration struct. Replaces the ad-hoc spread of
/// LanczosOptions / EmbeddingOptions fields; PipelineConfig owns an
/// instance (aliased as core::SolverOptions) and every layer passes it
/// through unchanged.
struct SolverOptions {
  /// Relative residual tolerance for the iterative solvers, and the
  /// convergence contract recorded in EigenBasis.
  double tolerance = 1e-8;
  /// Problems with n <= dense_threshold skip Krylov entirely and use the
  /// exact dense decomposition (cheaper and unconditionally robust).
  std::size_t dense_threshold = 320;
  /// Largest n for which the embedding fallback chain may escalate a
  /// non-converged iterative solve to the dense solver (0 disables).
  std::size_t dense_fallback_limit = 2048;
  /// Krylov-column cap; 0 = the solvers' automatic formula. The embedding
  /// fallback chain enlarges this per attempt, so it is per-call state as
  /// much as configuration.
  std::size_t max_iterations = 0;
  /// Orchestration strategy: flat Lanczos solve (default) or the
  /// multilevel V-cycle. The ml_* knobs below configure the latter and are
  /// ignored under kFlat.
  SolverStrategy strategy = SolverStrategy::kFlat;
  /// kMultilevel: stop coarsening once this few vertices remain (the
  /// coarsest level is then solved exactly).
  std::size_t ml_coarsest_size = 400;
  /// kMultilevel: Chebyshev filter degree applied between Rayleigh-Ritz
  /// refinement sweeps.
  std::size_t ml_refine_degree = 50;
  /// kMultilevel: refinement sweep cap per level (0 = automatic: 20 on the
  /// finest level, 10 on intermediate levels).
  std::size_t ml_refine_sweeps = 0;
  /// kMultilevel: relative Ritz-residual acceptance threshold (times the
  /// Gershgorin scale) that governs the result's `converged` flag. The
  /// sweeps aspire to `tolerance` but a clustered quasi-continuum spectrum
  /// bounds what polynomial filtering can certify; pairs within this
  /// looser bound are accepted, anything worse triggers the embedding
  /// layer's flat-solve fallback.
  double ml_refine_tolerance = 1e-4;
};

}  // namespace specpart::linalg
