// Objective model: which symmetric operator the spectral pipeline solves.
//
// The paper's f(P_k) objective is the unnormalized min-cut, whose operator
// is the plain clique-model Laplacian L = D - A. Community-detection-style
// traffic wants the conductance family instead, whose operator is the
// degree-normalized symmetric Laplacian
//
//     N = D^{-1/2} L D^{-1/2},   N_ij = L_ij / sqrt(d_i d_j),
//
// with the convention D^{-1/2} = 0 on zero-degree rows (an isolated vertex
// keeps its all-zero row and a zero diagonal, so trace(N) = count of
// non-isolated vertices and no solve ever divides by zero). The enum lives
// here in linalg — like SolverStrategy — so the spectral and model layers
// can consume it without depending on core; the stable string tokens
// ("unnormalized" | "normalized") are parsed and printed in exactly one
// place, core/pipeline_config.{h,cpp}.
//
// The scaling is an O(nnz) in-place rescale of an already-assembled
// Laplacian CSR — same offsets/cols layout, only the values change — so
// the normalized operator costs one values-array copy, never a rebuild.
#pragma once

#include "linalg/sparse.h"

namespace specpart::linalg {

/// Which symmetric operator the eigensolve runs on.
///  * kUnnormalized — the plain Laplacian L = D - A (the paper's model;
///    default, and the byte-identity anchor for cached bases, stored
///    files and recorded wire traffic).
///  * kNormalizedSymmetric — N = D^{-1/2} L D^{-1/2}, the operator of the
///    normalized-cut / conductance objective family.
enum class ObjectiveModel { kUnnormalized, kNormalizedSymmetric };

/// Per-row scale s_i = 1/sqrt(q_ii) of a Laplacian's degree diagonal, with
/// s_i = 0 where q_ii <= 0 (isolated vertices — zero rows stay zero under
/// the symmetric scaling instead of dividing by zero).
Vec inv_sqrt_degree_scale(const SymCsrMatrix& laplacian);

/// In-place symmetric scaling values[k] *= s[row] * s[col] over every
/// stored entry. With s = inv_sqrt_degree_scale this turns a Laplacian's
/// value array into the normalized operator's, preserving the pattern.
void scale_symmetric(CsrStorage& storage, const Vec& s);

/// N = D^{-1/2} L D^{-1/2}: copies the Laplacian's CSR arrays once and
/// rescales the values in place. Zero-degree rows keep a zero diagonal.
SymCsrMatrix normalized_laplacian(const SymCsrMatrix& laplacian);

}  // namespace specpart::linalg
