// Symmetric tridiagonal eigensolver (implicit-shift QL) and Householder
// reduction of dense symmetric matrices to tridiagonal form.
//
// These are ports of the classic EISPACK tred2/tql2 algorithms; together
// they provide an exact O(n^3) symmetric eigensolver used (a) directly for
// small graphs and test oracles, and (b) inside Lanczos to diagonalize the
// projected tridiagonal matrix.
#pragma once

#include "linalg/dense.h"

namespace specpart::linalg {

/// Symmetric tridiagonal matrix: diag has size n, off has size n with
/// off[0] unused (off[i] couples rows i-1 and i, following EISPACK layout).
struct Tridiagonal {
  Vec diag;
  Vec off;
};

/// Reduces symmetric A (n-by-n) to tridiagonal form T = Q^T A Q.
/// On return `accumulated` holds Q (orthogonal, columns are the transform).
/// A is passed by value and consumed as workspace.
Tridiagonal householder_tridiagonalize(DenseMatrix a, DenseMatrix* accumulated);

/// Diagonalizes a symmetric tridiagonal matrix in place using the QL
/// algorithm with implicit shifts.
///
/// `z` must have n columns and any number of rows; every rotation QL applies
/// to T is applied to the columns of z, so on return z holds Z0 S, where Z0
/// is z on entry and S the eigenvector matrix of T. Common seeds:
///  * the n x n identity: the columns of z are the eigenvectors of T;
///  * the orthogonal matrix accumulated by householder_tridiagonalize:
///    eigenvectors of the original dense matrix;
///  * the 1 x n row e_{n-1}^T: the bottom row of T's eigenvector matrix
///    (the Lanczos residual estimates) in O(n^2) instead of O(n^3);
///  * 0 x n: eigenvalues only.
/// Each row of z is updated from its own entries and the shared rotation
/// only, so a row's result is bitwise the same whatever other rows z holds,
/// and t.diag does not depend on z at all.
///
/// On return t.diag holds the eigenvalues sorted ascending, with the columns
/// of z permuted to match. Throws specpart::Error if QL fails to converge
/// (pathological input; does not occur for finite well-scaled matrices).
void tridiagonal_eigen(Tridiagonal& t, DenseMatrix& z);

/// Convenience: eigenvalues only (ascending) of a symmetric tridiagonal.
Vec tridiagonal_eigenvalues(Tridiagonal t);

}  // namespace specpart::linalg
