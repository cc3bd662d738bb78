#include "linalg/block_lanczos.h"

#include <algorithm>
#include <cmath>

#include "linalg/band_eigen.h"
#include "linalg/panel_ops.h"
#include "linalg/symmetric_eigen.h"
#include "util/error.h"
#include "util/fault.h"
#include "util/rng.h"

namespace specpart::linalg {

// The panel kernels (CGS2 dots, subtracts, reorthogonalization) live in
// linalg/panel_ops.h, shared with the multilevel V-cycle refinement. They
// use the fixed-block primitives of util/parallel.h, whose block structure
// depends only on n and the grain — never on the thread count. The block
// driver therefore has no separate serial reference: 1, 2 and 8 threads
// produce the same bits, which is the contract test_block_lanczos_mt pins.


LanczosResult block_lanczos_smallest(const SymCsrMatrix& a,
                                     BlockLanczosOptions opts) {
  LanczosResult result;
  const std::size_t n = a.size();
  const std::size_t want = std::min(opts.num_eigenpairs, n);
  if (want == 0 || n == 0) return result;

  std::size_t b = opts.block_size != 0
                      ? opts.block_size
                      : std::min<std::size_t>(8, std::max<std::size_t>(2,
                                                                       want));
  b = std::min(b, n);
  b = std::max<std::size_t>(b, 1);

  // Krylov-column cap. A block step advances every column by one
  // polynomial degree, so a b-wide iteration reaches degree cap/b — the
  // scalar column formula would starve a wide block of depth. Scale it by
  // (b+2)/2: the block's gap-boosted rate (each pair sees the gap to
  // lambda_{i+b}, not lambda_{i+1}) empirically needs about a third of the
  // scalar degree, so this keeps a comfortable margin at every width.
  std::size_t cap =
      opts.max_iterations != 0
          ? opts.max_iterations
          : std::max<std::size_t>((20 * want + 120) * (b + 2) / 2, 200);
  cap = std::min(cap, n);
  cap = std::max(cap, want);
  b = std::min(b, cap);

  const double sigma = a.gershgorin_upper() * (1.0 + 1e-12) + 1e-12;
  const double op_scale = std::max(sigma, 1e-30);
  const double breakdown_tol = 1e-13 * op_scale;
  const ParallelConfig& par = opts.parallel;
  const std::size_t nnz = a.nnz();

  const bool forced_nonconverge = SP_FAULT("lanczos.force_nonconverge");

  Rng rng(opts.seed);
  std::uint64_t flops = 0;

  // Y = (sigma I - A) X: one matrix sweep advances every panel column.
  Panel w_panel;
  auto apply_block = [&](const Panel& x, Panel& y) {
    a.spmm(x, y, par);
    const std::size_t cols = x.cols();
    parallel_for(par, 0, n, [&](std::size_t lo, std::size_t hi) {
      for (std::size_t r = lo; r < hi; ++r) {
        const double* xr = x.row(r);
        double* yr = y.row(r);
        for (std::size_t c = 0; c < cols; ++c) yr[c] = sigma * xr[c] - yr[c];
      }
    });
    result.operator_applies += cols;
    result.matrix_bytes_moved += a.stream_bytes();
    flops += static_cast<std::uint64_t>(cols) * (2ull * nnz + 2ull * n);
  };

  std::vector<Panel> blocks;       // V_0 .. V_j, widths may shrink at cap
  std::vector<DenseMatrix> diag_blocks;  // A_j = V_j^T B V_j
  std::vector<DenseMatrix> off_blocks;   // B_j couples V_j and V_{j+1}

  /// In-place CGS2 QR of `w`, normalizing the leading `keep` columns.
  /// Every column — including ones past `keep` that the caller will
  /// discard — gets its R entries against the kept columns accumulated,
  /// because those entries are the coupling V_{j+1}^T B V_j: dropping a
  /// column must not drop its (O(1)) coupling from the band matrix.
  /// Dead columns (norm below breakdown_tol: an invariant subspace was
  /// captured) get a zero R row; with `allow_restart` they are refilled
  /// with fresh random directions orthogonal to everything so the
  /// iteration can continue past eigenvalue multiplicities. Returns false
  /// when the whole space is exhausted and no fresh direction exists.
  auto qr_panel = [&](Panel& w, std::size_t keep, DenseMatrix& r_out,
                      bool allow_restart) -> bool {
    const std::size_t width = w.cols();
    r_out = DenseMatrix(width, width);
    for (std::size_t k = 0; k < width; ++k) {
      // Columns past `keep` only see the normalized (kept) columns; their
      // own normalization never happens, so R rows >= keep stay zero.
      const std::size_t limit = std::min(k, keep);
      for (int sweep = 0; sweep < 2; ++sweep) {
        for (std::size_t j = 0; j < limit; ++j) {
          const double c = panel_col_dot(w, j, w, k, par);
          if (c != 0.0) panel_col_axpy(-c, w, j, w, k, par);
          r_out.at(j, k) += c;
        }
      }
      flops += 8ull * n * limit;
      if (k >= keep) continue;
      double nrm = std::sqrt(panel_col_dot(w, k, w, k, par));
      if (nrm > breakdown_tol) {
        r_out.at(k, k) = nrm;
        panel_col_scale(w, k, 1.0 / nrm, par);
        continue;
      }
      // Dead column: R row stays zero (the coupling through an invariant
      // subspace is exactly zero, the band solver sees a block split).
      r_out.at(k, k) = 0.0;
      if (!allow_restart) {
        panel_col_scale(w, k, 0.0, par);
        continue;
      }
      Panel fresh(n, 1);
      for (std::size_t r = 0; r < n; ++r) fresh.at(r, 0) = rng.next_normal();
      for (int sweep = 0; sweep < 2; ++sweep) {
        for (const Panel& p : blocks) {
          const DenseMatrix c = panel_dots(p, fresh, par);
          panel_subtract(fresh, p, c, par);
        }
        for (std::size_t j = 0; j < k; ++j) {
          const double c = panel_col_dot(w, j, fresh, 0, par);
          if (c != 0.0) panel_col_axpy(-c, w, j, fresh, 0, par);
        }
      }
      nrm = std::sqrt(panel_col_dot(fresh, 0, fresh, 0, par));
      if (nrm <= 1e-12) return false;  // basis spans the whole space
      panel_col_scale(fresh, 0, 1.0 / nrm, par);
      const double* src = fresh.data();
      double* dst = w.data();
      parallel_for(par, 0, n, [&](std::size_t lo, std::size_t hi) {
        for (std::size_t r = lo; r < hi; ++r) dst[r * width + k] = src[r];
      });
      ++result.breakdown_restarts;
    }
    return true;
  };

  // Start panel: random normals, orthonormalized.
  {
    Panel v0(n, std::min(b, cap));
    for (std::size_t c = 0; c < v0.cols(); ++c)
      for (std::size_t r = 0; r < n; ++r) v0.at(r, c) = rng.next_normal();
    DenseMatrix r0;
    SP_ASSERT(qr_panel(v0, v0.cols(), r0, /*allow_restart=*/true));
    blocks.push_back(std::move(v0));
  }
  std::size_t used = blocks.back().cols();

  // Band Rayleigh-Ritz state, recomputed by check() and reused for the
  // final extraction: the top `take` Ritz values (descending) and their
  // band-matrix eigenvectors (m x take, column i pairs with top_values[i]).
  Vec top_values;
  DenseMatrix top_vectors;
  std::size_t ritz_m = 0;
  Vec residuals;  // per wanted pair, aligned with descending theta

  /// Rayleigh-Ritz on the projected band matrix; computes the wanted
  /// pairs' residuals ||b_tail y_bot||. Returns true when all converged.
  ///
  /// The projected matrix is band with bandwidth <= the block width, so
  /// the wanted extreme pairs come from the O(m b^2)-per-pair spectrum
  /// slicer in linalg/band_eigen.h rather than a dense O(m^3) solve — the
  /// dense path at every geometric checkpoint used to dominate the whole
  /// iteration (about 3/4 of serial time at n=2000, d=10). The dense
  /// solver remains as a fallback when inverse iteration cannot certify
  /// the band eigenvectors; both paths are serial and deterministic.
  auto check = [&](const DenseMatrix* b_tail) -> bool {
    ++result.ritz_checks;
    const std::size_t m = used;
    const std::size_t take = std::min(want, m);
    std::size_t bw = 0;
    for (const Panel& p : blocks) bw = std::max(bw, p.cols());
    bool band_ok = false;
    if (m >= 64 && bw + 1 < m) {
      BandMatrix t(m, bw);
      std::size_t row0 = 0;
      for (std::size_t j = 0; j < diag_blocks.size(); ++j) {
        const DenseMatrix& d = diag_blocks[j];
        for (std::size_t r = 0; r < d.rows(); ++r)
          for (std::size_t c = 0; c <= r; ++c)
            t.at(row0 + r, r - c) = d.at(r, c);
        if (j < off_blocks.size()) {
          const DenseMatrix& o = off_blocks[j];  // rows: block j+1, cols: j
          for (std::size_t r = 0; r < o.rows(); ++r)
            for (std::size_t c = 0; c < d.cols(); ++c) {
              // R-factor rows r > c are exactly zero and would fall
              // outside the band; skip them.
              const std::size_t dist = d.rows() + r - c;
              if (dist <= bw) t.at(row0 + d.rows() + r, dist) = o.at(r, c);
            }
        }
        row0 += d.rows();
      }
      BandEigenPairs pairs = band_eigen_largest(t, take);
      if (pairs.ok) {
        top_values = std::move(pairs.values);
        top_vectors = std::move(pairs.vectors);
        band_ok = true;
      }
    }
    if (!band_ok) {
      DenseMatrix t(m, m);
      std::size_t row0 = 0;
      for (std::size_t j = 0; j < diag_blocks.size(); ++j) {
        const DenseMatrix& d = diag_blocks[j];
        for (std::size_t r = 0; r < d.rows(); ++r)
          for (std::size_t c = 0; c < d.cols(); ++c)
            t.at(row0 + r, row0 + c) = d.at(r, c);
        if (j < off_blocks.size()) {
          const DenseMatrix& o = off_blocks[j];
          for (std::size_t r = 0; r < o.rows(); ++r)
            for (std::size_t c = 0; c < d.cols(); ++c) {
              t.at(row0 + d.rows() + r, row0 + c) = o.at(r, c);
              t.at(row0 + c, row0 + d.rows() + r) = o.at(r, c);
            }
        }
        row0 += d.rows();
      }
      const EigenDecomposition ritz = solve_symmetric_eigen(std::move(t));
      top_values.assign(take, 0.0);
      top_vectors = DenseMatrix(m, take);
      for (std::size_t i = 0; i < take; ++i) {
        const std::size_t col = m - 1 - i;  // largest thetas are last
        top_values[i] = ritz.values[col];
        for (std::size_t r = 0; r < m; ++r)
          top_vectors.at(r, i) = ritz.vectors.at(r, col);
      }
    }
    ritz_m = m;
    const std::size_t wlast = blocks.back().cols();
    residuals.assign(take, 0.0);
    for (std::size_t i = 0; i < take; ++i) {
      if (b_tail == nullptr) continue;  // residual exactly representable: 0
      double sq = 0.0;
      for (std::size_t r = 0; r < b_tail->rows(); ++r) {
        double s = 0.0;
        for (std::size_t c = 0; c < wlast; ++c)
          s += b_tail->at(r, c) * top_vectors.at(m - wlast + c, i);
        sq += s * s;
      }
      residuals[i] = std::sqrt(sq);
    }
    if (m < want || forced_nonconverge) return false;
    for (std::size_t i = 0; i < take; ++i)
      if (residuals[i] > opts.tolerance * op_scale) return false;
    return true;
  };

  bool converged = false;
  // Geometric check spacing bounds the total Rayleigh-Ritz cost by a small
  // constant times the final check's. With the band slicer a check costs
  // O(m b^2) per pair instead of O(m^3), so the schedule is denser than
  // the dense-solve era's 1.25x (1.125x now): convergence is caught
  // earlier and the full-reorthogonalization cost — which grows with
  // every surplus column — shrinks with it. The schedule depends only on
  // column counts, never on thread count, preserving bit-identical
  // results across thread counts.
  std::size_t next_check = 0;
  while (true) {
    const Panel& v = blocks.back();
    const std::size_t w = v.cols();
    w_panel = Panel(n, w);
    apply_block(v, w_panel);
    if (!off_blocks.empty()) {
      // W -= V_{j-1} B_{j-1}^T: the three-term block recurrence.
      const DenseMatrix& bj = off_blocks.back();
      const Panel& prev = blocks[blocks.size() - 2];
      DenseMatrix bt(prev.cols(), w);
      for (std::size_t r = 0; r < bt.rows(); ++r)
        for (std::size_t c = 0; c < w; ++c) bt.at(r, c) = bj.at(c, r);
      panel_subtract(w_panel, prev, bt, par);
      flops += 2ull * n * prev.cols() * w;
    }
    DenseMatrix aj = panel_dots(v, w_panel, par);
    panel_subtract(w_panel, v, aj, par);
    flops += 4ull * n * w * w;
    diag_blocks.push_back(std::move(aj));
    // Full reorthogonalization against the whole basis (CGS2 panels).
    panel_reorthogonalize(blocks, w_panel, par, flops);

    const std::size_t remaining = cap - used;
    const std::size_t w_next = std::min(w, remaining);
    // At the cap there is no next panel to keep, but the residual check
    // still needs the couplings to the directions we are about to drop —
    // QR the full panel (no restarts: dead columns mean the basis already
    // captured an invariant subspace, so their couplings really are zero).
    const std::size_t keep = w_next > 0 ? w_next : w;
    DenseMatrix r_factor;
    const bool have_fresh =
        qr_panel(w_panel, keep, r_factor, /*allow_restart=*/w_next > 0);
    // Coupling block B_j = V_{j+1}^T B V_j: the first `keep` rows of R,
    // across ALL `w` columns (a truncated panel still couples through the
    // columns it discards — see qr_panel).
    DenseMatrix bj(keep, w);
    for (std::size_t r = 0; r < keep; ++r)
      for (std::size_t c = 0; c < w; ++c) bj.at(r, c) = r_factor.at(r, c);

    const bool terminal = w_next == 0 || !have_fresh;
    const bool do_check = terminal || used >= next_check;
    if (do_check) {
      converged = check(&bj);
      next_check = used + std::max<std::size_t>(b, used / 8);
    }
    if (converged || terminal) break;
    if (!budget_charge(opts.budget)) {
      // The extraction below reads the last Rayleigh-Ritz state; make sure
      // it reflects every column the budget paid for.
      if (!do_check) converged = check(&bj);
      result.budget_exhausted = true;
      break;
    }
    Panel next(n, w_next);
    parallel_for(par, 0, n, [&](std::size_t lo, std::size_t hi) {
      for (std::size_t r = lo; r < hi; ++r)
        for (std::size_t c = 0; c < w_next; ++c)
          next.at(r, c) = w_panel.at(r, c);
    });
    off_blocks.push_back(std::move(bj));
    blocks.push_back(std::move(next));
    used += w_next;
  }

  SP_ASSERT(ritz_m == used && used >= 1);
  const std::size_t m = used;
  const std::size_t take = std::min(want, m);

  result.values.resize(take);
  result.vectors = DenseMatrix(n, take);
  Vec x(n);
  for (std::size_t i = 0; i < take; ++i) {
    result.values[i] = sigma - top_values[i];  // descending eigenvalues of B
    // x = sum_j V_j y_j; per row the block/column order is fixed, so the
    // row-blocked accumulation is exact for any thread count.
    parallel_for(par, 0, n, [&](std::size_t lo, std::size_t hi) {
      for (std::size_t r = lo; r < hi; ++r) {
        double s = 0.0;
        std::size_t row0 = 0;
        for (const Panel& p : blocks) {
          const double* pr = p.row(r);
          for (std::size_t c = 0; c < p.cols(); ++c)
            s += pr[c] * top_vectors.at(row0 + c, i);
          row0 += p.cols();
        }
        x[r] = s;
      }
    });
    const double nrm = std::sqrt(parallel_reduce<double>(
        par, 0, n, 0.0,
        [&](std::size_t lo, std::size_t hi) {
          double s = 0.0;
          for (std::size_t r = lo; r < hi; ++r) s += x[r] * x[r];
          return s;
        },
        [](double acc, double s) { return acc + s; }));
    if (nrm > 0.0)
      for (std::size_t r = 0; r < n; ++r) x[r] /= nrm;
    result.vectors.set_col(i, x);
    flops += 2ull * n * m;
  }

  result.num_converged = 0;
  for (std::size_t i = 0; i < take; ++i) {
    if (i < residuals.size() && residuals[i] > opts.tolerance * op_scale)
      break;
    ++result.num_converged;
  }
  if (forced_nonconverge && want > 0)
    result.num_converged = std::min(result.num_converged, want - 1);

  result.iterations = m;  // Krylov columns, comparable with the scalar chain
  result.converged = converged && take == want;
  result.flops = flops;
  return result;
}

}  // namespace specpart::linalg
