#include "core/melo.h"

#include <algorithm>
#include <array>
#include <bit>
#include <cmath>
#include <limits>
#include <numeric>

#include "util/error.h"

namespace specpart::core {

const char* selection_rule_name(SelectionRule s) {
  switch (s) {
    case SelectionRule::kMagnitude:
      return "magnitude";
    case SelectionRule::kProjection:
      return "projection";
    case SelectionRule::kCosine:
      return "cosine";
  }
  return "?";
}

namespace {

/// Block size for the parallel snapshot refreshes. Each row is computed
/// on its own, so the blocks do not change any bit; small enough that
/// mid-size instances still fan out across threads, large enough to
/// amortize dispatch.
constexpr std::size_t kScanGrain = 256;

/// Greedy state: rows of the instance, running subset sum, and the scheme
/// evaluation. Kept separate from the selection policy (CertifiedScan).
///
/// Rows live in one contiguous row-major buffer (n x d doubles) instead of
/// n separate heap vectors: a snapshot refresh walks it linearly, at
/// memory bandwidth.
class MeloState {
 public:
  MeloState(const VectorInstance& inst, SelectionRule scheme)
      : scheme_(scheme), d_(inst.dimension()) {
    load(inst);
    sum_.assign(d_, 0.0);
  }

  std::size_t size() const { return norms_sq_.size(); }

  /// Replaces coordinates (H readjustment) and recomputes the subset sum
  /// over `chosen`.
  void reload(const VectorInstance& inst,
              const std::vector<graph::NodeId>& chosen) {
    SP_ASSERT(inst.size() == size() && inst.dimension() == d_);
    load(inst);
    sum_.assign(d_, 0.0);
    for (graph::NodeId v : chosen) {
      const double* y = row(v);
      for (std::size_t j = 0; j < d_; ++j) sum_[j] += y[j];
    }
    sum_norm_sq_ = linalg::norm_sq(sum_);
  }

  std::size_t dimension() const { return d_; }
  const linalg::Vec& sum() const { return sum_; }
  double sum_norm_sq() const { return sum_norm_sq_; }

  /// S . y_v in four interleaved partial sums: not bit-identical to the
  /// sum in key(), but within the same gamma_d error bound, and faster
  /// because the additions do not wait on each other.
  double dot_any_order(graph::NodeId v) const {
    const double* y = row(v);
    double s[4] = {0.0, 0.0, 0.0, 0.0};
    std::size_t j = 0;
    for (; j + 4 <= d_; j += 4)
      for (std::size_t k = 0; k < 4; ++k) s[k] += sum_[j + k] * y[j + k];
    for (; j < d_; ++j) s[0] += sum_[j] * y[j];
    return (s[0] + s[1]) + (s[2] + s[3]);
  }

  /// Selection-rule value of appending vertex v to the current subset.
  double key(graph::NodeId v) const {
    const double* y = row(v);
    double s_dot_y = 0.0;
    for (std::size_t j = 0; j < d_; ++j) s_dot_y += sum_[j] * y[j];
    const double y_sq = norms_sq_[v];
    switch (scheme_) {
      case SelectionRule::kMagnitude:
        return sum_norm_sq_ + 2.0 * s_dot_y + y_sq;
      case SelectionRule::kProjection: {
        if (sum_norm_sq_ <= 1e-300) return y_sq;  // empty: longest first
        return s_dot_y;
      }
      case SelectionRule::kCosine: {
        if (sum_norm_sq_ <= 1e-300) return y_sq;
        const double y_norm = std::sqrt(y_sq);
        if (y_norm <= 1e-300) return -std::numeric_limits<double>::infinity();
        return s_dot_y / y_norm;
      }
    }
    return 0.0;
  }

  /// True when the key ignores S (projection and cosine on an empty or
  /// vanishing subset), so no S-based bound applies.
  bool key_ignores_sum() const {
    return scheme_ != SelectionRule::kMagnitude && sum_norm_sq_ <= 1e-300;
  }

  void select(graph::NodeId v) {
    const double* y = row(v);
    for (std::size_t j = 0; j < d_; ++j) sum_[j] += y[j];
    sum_norm_sq_ = linalg::norm_sq(sum_);
  }

  double row_norm_sq(graph::NodeId v) const { return norms_sq_[v]; }
  SelectionRule scheme() const { return scheme_; }

 private:
  const double* row(graph::NodeId v) const { return flat_.data() + v * d_; }

  void load(const VectorInstance& inst) {
    const std::size_t n = inst.size();
    const double* data = inst.vectors.data();
    flat_.assign(data, data + n * d_);
    norms_sq_.resize(n);
    for (std::size_t i = 0; i < n; ++i) {
      const double* y = flat_.data() + i * d_;
      double s = 0.0;
      for (std::size_t j = 0; j < d_; ++j) s += y[j] * y[j];
      norms_sq_[i] = s;
    }
  }

  SelectionRule scheme_;
  std::size_t d_;
  std::vector<double> flat_;  // n x d, row-major
  std::vector<double> norms_sq_;
  linalg::Vec sum_;
  double sum_norm_sq_ = 0.0;
};

graph::NodeId pick_start(const MeloState& state, std::size_t start_rank,
                         std::size_t n) {
  // (start_rank+1)-th longest vector; ties by vertex id.
  std::vector<graph::NodeId> ids(n);
  std::iota(ids.begin(), ids.end(), 0u);
  const std::size_t rank = std::min(start_rank, n - 1);
  std::nth_element(ids.begin(), ids.begin() + static_cast<std::ptrdiff_t>(rank),
                   ids.end(), [&](graph::NodeId a, graph::NodeId b) {
                     const double na = state.row_norm_sq(a);
                     const double nb = state.row_norm_sq(b);
                     if (na != nb) return na > nb;
                     return a < b;
                   });
  return ids[rank];
}

/// Slope classes of the snapshot list: entries are grouped by the binary
/// exponent of their slope coefficient b below the largest one, so that
/// within a class b varies by at most a factor of 2. The last class also
/// takes every smaller b.
constexpr std::size_t kClasses = 16;

/// Entries a class's sorted head grows by: at the snapshot, and whenever a
/// walk reaches its end. The rest of a class is an unsorted tail
/// summarized by its largest base.
constexpr std::size_t kClassHead = 128;

/// Visits after which the walk computes its best pending candidate's key
/// even though an unvisited entry may still bound higher: the earlier the
/// best key rises, the more later visits it prunes.
constexpr std::size_t kEagerVisits = 4;

/// Exact argmax of MeloState::key over the unchosen vertices, with the
/// (key, smallest-id) tie-break of the exhaustive scan, that computes exact
/// keys only for the candidates a snapshot bound cannot rule out.
///
/// A snapshot stores t_v = S_snap . y_v for every unchosen v. Later, with
/// D = S - S_snap, Cauchy-Schwarz gives S . y_v <= t_v + ||D|| ||y_v||. The
/// per-step slope c >= ||D|| also absorbs the rounding of both dot products
/// (gamma_d ||S|| ||y_v|| each, plus underflow) and of the bound's own
/// arithmetic, and r_v is a certified upper bound on ||y_v||. Every rule's
/// *computed* key is then at most
///   F(a_v, b_v) = fl(base + fl(a_v + fl(b_v * c)))
/// with, per rule,
///   magnitude    base = |S|^2 (1 + 2^-50)   a = 2 t + |y|^2   b = 2 r
///   projection   base = 0                   a = t             b = r
///   cosine       base = 0                   a = t / |y|       b = r / |y|
/// because the key is fl-monotone in the dot product and F is monotone in
/// a, b and c. A vertex with F < the best computed key so far is strictly
/// below the winner and needs no key.
///
/// The list is split into slope classes, each with a head sorted by a
/// that is extended from the tail on demand: in
/// class k, F(a_p, bmax_k) bounds every entry from position p on, so the
/// walk of a class stops at the first entry where that falls below the
/// best key. A new snapshot is taken after the H-readjust reload, and when
/// a step costs more than the average step since the last snapshot,
/// snapshot included: the bound has gone slack. Where no bound applies (a
/// key that ignores S, or overflowed coordinates) a step computes every
/// key.
class CertifiedScan {
 public:
  CertifiedScan(const MeloState& state, const ParallelConfig& scan,
                MeloScanStats& stats)
      : state_(state), scan_(scan), stats_(stats) {
    d_ = static_cast<double>(state.dimension());
    // (d + 16) 2^-52 covers gamma_d = d u / (1 - d u) of each dot product
    // with room for the handful of roundings in the bound itself.
    rel_ = (d_ + 16.0) * 0x1p-52;
    // Underflow: a computed sum of d squares can miss up to d 2^-1075, and
    // a dot product up to d 2^-1075. tau^2 = d 2^-1060 covers both.
    tau_ = std::sqrt(d_) * 0x1p-530;
  }

  /// Forces a new snapshot before the next selection (H-readjust reload:
  /// rows and row norms have changed).
  void invalidate() {
    stale_ = true;
    reloaded_ = true;
  }

  graph::NodeId select(const std::vector<char>& chosen) {
    graph::NodeId best_v = kNone;
    double best = 0.0;
    const auto evaluate = [&](graph::NodeId v) {
      const double key = state_.key(v);
      ++stats_.key_evals;
      if (best_v == kNone || key > best || (key == best && v < best_v)) {
        best = key;
        best_v = v;
      }
    };
    // A key that ignores S, or an overflowed slope, leaves nothing to
    // prune: every unchosen vertex gets its exact key, combined by the same
    // blocked argmax the exhaustive scan used (so even the NaN keys of
    // overflowed coordinates pick the same vertex).
    const auto evaluate_all = [&]() {
      stats_.key_evals += static_cast<std::uint64_t>(
          std::count(chosen.begin(), chosen.end(), 0));
      return static_cast<graph::NodeId>(parallel_argmax(
          scan_, chosen.size(),
          [&](std::size_t v) {
            return state_.key(static_cast<graph::NodeId>(v));
          },
          [&](std::size_t v) { return chosen[v] == 0; }));
    };
    if (state_.key_ignores_sum()) return evaluate_all();
    if (stale_) refresh(chosen);
    ++steps_;
    const std::uint64_t evals_before = stats_.key_evals;
    const double slope = current_slope();
    if (!std::isfinite(slope)) return evaluate_all();
    const double base = state_.scheme() == SelectionRule::kMagnitude
                            ? state_.sum_norm_sq() * (1.0 + 0x1p-50)
                            : 0.0;
    // NaN (-inf + inf from overflowed products) bounds nothing.
    const auto bound = [&](double a, double b) {
      const double f = base + (a + b * slope);
      return std::isnan(f) ? std::numeric_limits<double>::infinity() : f;
    };

    // Threshold walk over the classes: keep the visited candidates in a
    // max-heap by bound, always advance the class whose next entry bounds
    // highest, and compute the heap top's key as soon as no unvisited entry
    // can bound higher, or after kEagerVisits visits without a key (the
    // first one at once). The walk ends when neither the heap nor any
    // class can reach the best key. Chosen entries at a class front are
    // skipped for good.
    const auto by_bound = [](const Candidate& x, const Candidate& y) {
      return x.bound < y.bound;
    };
    candidates_.clear();
    std::size_t visits = 0;
    const auto visit = [&](const Entry& e) {
      ++visits;
      if (chosen[e.v] != 0) return;
      const double f = bound(e.a, e.b);
      if (best_v != kNone && f < best) return;
      candidates_.push_back(Candidate{f, e.v});
      std::push_heap(candidates_.begin(), candidates_.end(), by_bound);
    };
    // Bound on every entry of a class from its cursor on.
    const auto rest_of = [&](const Class& c) {
      if (c.next == c.end) return -std::numeric_limits<double>::infinity();
      return bound(c.next < c.head_end ? entries_[c.next].a : c.tail_max,
                   c.slope_max);
    };
    for (Class& c : classes_) {
      while (c.live < c.head_end && chosen[entries_[c.live].v] != 0) ++c.live;
      c.next = c.live;
      c.rest = rest_of(c);
    }
    std::size_t unevaluated = 0;  // visits since the last key
    for (;;) {
      // The class whose unvisited entries bound highest.
      Class* top = nullptr;
      for (Class& c : classes_)
        if (c.next < c.end && (top == nullptr || c.rest > top->rest)) top = &c;
      if (!candidates_.empty() &&
          (best_v == kNone || top == nullptr || unevaluated >= kEagerVisits ||
           !(candidates_.front().bound < top->rest))) {
        unevaluated = 0;
        std::pop_heap(candidates_.begin(), candidates_.end(), by_bound);
        const Candidate c = candidates_.back();
        candidates_.pop_back();
        if (best_v != kNone && c.bound < best) {
          candidates_.clear();  // the rest of the heap is lower still
          continue;
        }
        evaluate(c.v);
        continue;
      }
      if (top == nullptr || (best_v != kNone && top->rest < best)) break;
      if (top->next == top->head_end) extend_head(*top);
      visit(entries_[top->next++]);
      ++unevaluated;
      top->rest = rest_of(*top);
    }
    SP_ASSERT(best_v != kNone);

    // Retake the snapshot once this step cost more than the average step
    // since the last one, the snapshot itself included.
    const double step_work =
        static_cast<double>(stats_.key_evals - evals_before) * d_ +
        static_cast<double>(visits);
    work_ += step_work;
    if (steps_ > 1 &&
        step_work * static_cast<double>(steps_) > snapshot_work_ + work_)
      stale_ = true;
    return best_v;
  }

 private:
  static constexpr graph::NodeId kNone =
      std::numeric_limits<graph::NodeId>::max();

  struct Entry {
    double a;  // snapshot base, see the class comment
    double b;  // slope coefficient
    graph::NodeId v;
  };
  struct Candidate {
    double bound;
    graph::NodeId v;
  };
  /// One slope class: list entries [live, end), a head [live, head_end)
  /// sorted by decreasing a and an unsorted tail [head_end, end). Chosen
  /// entries that reach the front of the head are dropped by moving `live`.
  struct Class {
    std::size_t live = 0;
    std::size_t head_end = 0;
    std::size_t end = 0;
    double slope_max = 0.0;  // largest b in the class
    double tail_max = 0.0;   // largest a in the tail
    std::size_t next = 0;    // walk cursor of the current step
    double rest = 0.0;       // bound on the entries from `next` on
  };

  static bool by_base(const Entry& x, const Entry& y) { return x.a > y.a; }

  /// Sorts the next kClassHead entries of the class's tail onto its head.
  /// They are the tail's largest bases, so the head stays sorted.
  void extend_head(Class& c) {
    const auto first =
        entries_.begin() + static_cast<std::ptrdiff_t>(c.head_end);
    const auto last = entries_.begin() + static_cast<std::ptrdiff_t>(c.end);
    const auto mid = first + static_cast<std::ptrdiff_t>(
                                 std::min(kClassHead, c.end - c.head_end));
    if (mid < last) std::nth_element(first, mid, last, by_base);
    std::sort(first, mid, by_base);
    c.head_end = static_cast<std::size_t>(mid - entries_.begin());
    c.tail_max = -std::numeric_limits<double>::infinity();
    for (auto it = mid; it < last; ++it)
      c.tail_max = std::max(c.tail_max, it->a);
  }

  /// Certified upper bound on the Euclidean norm of a vector whose sum of
  /// squares was computed as `norm_sq`.
  double norm_bound(double norm_sq) const {
    return std::sqrt(norm_sq) * (1.0 + rel_) + tau_;
  }

  /// This step's slope c: ||S - S_snap|| plus the rounding allowance.
  double current_slope() const {
    const linalg::Vec& sum = state_.sum();
    double d_sq = 0.0;
    for (std::size_t j = 0; j < sum.size(); ++j) {
      const double x = sum[j] - snap_[j];
      d_sq += x * x;
    }
    const double allowance =
        rel_ * (snap_norm_ + norm_bound(state_.sum_norm_sq()) + row_norm_max_);
    return (norm_bound(d_sq) + allowance + tau_) * (1.0 + 0x1p-48);
  }

  /// Slope coefficient b_v of the class comment, and for the cosine rule
  /// the row norm the key divides by (the other rules keep no row norms).
  /// Both depend on the rows only, so they are computed once per load.
  void load_rows() {
    const std::size_t n = state_.size();
    slope_.resize(n);
    if (state_.scheme() == SelectionRule::kCosine) row_norm_.resize(n);
    parallel_for(scan_, 0, n, [&](std::size_t lo, std::size_t hi) {
      for (std::size_t v = lo; v < hi; ++v) {
        const double y_sq = state_.row_norm_sq(static_cast<graph::NodeId>(v));
        const double r = norm_bound(y_sq);
        switch (state_.scheme()) {
          case SelectionRule::kMagnitude:
            slope_[v] = 2.0 * r;
            break;
          case SelectionRule::kProjection:
            slope_[v] = r;
            break;
          case SelectionRule::kCosine:
            row_norm_[v] = std::sqrt(y_sq);  // as in MeloState::key
            slope_[v] = row_norm_[v] <= 1e-300 ? 0.0 : r / row_norm_[v];
            break;
        }
        // Overflowed coordinates: an infinite slope prunes nothing.
        if (std::isnan(slope_[v]))
          slope_[v] = std::numeric_limits<double>::infinity();
      }
    });
  }

  /// Snapshot base a_v of the class comment.
  double base_of(graph::NodeId v) const {
    const double t = state_.dot_any_order(v);
    double a = 0.0;
    switch (state_.scheme()) {
      case SelectionRule::kMagnitude:
        a = 2.0 * t + state_.row_norm_sq(v);
        break;
      case SelectionRule::kProjection:
        a = t;
        break;
      case SelectionRule::kCosine:
        // A zero row's key is -inf whatever S is.
        a = row_norm_[v] <= 1e-300 ? -std::numeric_limits<double>::infinity()
                                   : t / row_norm_[v];
        break;
    }
    // An overflowed base prunes nothing, and a NaN must not reach the sort.
    return std::isnan(a) ? std::numeric_limits<double>::infinity() : a;
  }

  void refresh(const std::vector<char>& chosen) {
    const linalg::Vec& sum = state_.sum();
    snap_.assign(sum.begin(), sum.end());
    snap_norm_ = norm_bound(state_.sum_norm_sq());

    if (reloaded_) load_rows();
    reloaded_ = false;

    // Bucket the unchosen vertices by slope class (a counting sort on the
    // binary exponent of b), then compute their bases in place.
    const auto exponent = [](double b) {
      return static_cast<long>(std::bit_cast<std::uint64_t>(b) >> 52);
    };
    long top = 0;
    double row_norm_sq_max = 0.0;
    for (graph::NodeId v = 0; v < chosen.size(); ++v) {
      if (chosen[v] != 0) continue;
      if (std::isfinite(slope_[v])) top = std::max(top, exponent(slope_[v]));
      const double y_sq = state_.row_norm_sq(v);
      if (!(y_sq <= row_norm_sq_max)) row_norm_sq_max = y_sq;  // NaN sticks
    }
    row_norm_max_ = norm_bound(row_norm_sq_max);
    const auto class_of = [&](double b) -> std::size_t {
      if (!(b > 0.0)) return kClasses - 1;
      return static_cast<std::size_t>(std::clamp<long>(
          top - exponent(b), 0, static_cast<long>(kClasses) - 1));
    };
    std::array<std::size_t, kClasses + 1> offset{};
    for (graph::NodeId v = 0; v < chosen.size(); ++v)
      if (chosen[v] == 0) ++offset[class_of(slope_[v]) + 1];
    for (std::size_t k = 0; k < kClasses; ++k) offset[k + 1] += offset[k];
    entries_.resize(offset[kClasses]);
    std::array<std::size_t, kClasses> fill{};
    std::copy(offset.begin(), offset.end() - 1, fill.begin());
    for (graph::NodeId v = 0; v < chosen.size(); ++v)
      if (chosen[v] == 0)
        entries_[fill[class_of(slope_[v])]++] = Entry{0.0, slope_[v], v};
    parallel_for(scan_, 0, entries_.size(),
                 [&](std::size_t lo, std::size_t hi) {
                   for (std::size_t i = lo; i < hi; ++i)
                     entries_[i].a = base_of(entries_[i].v);
                 });

    classes_.clear();
    for (std::size_t k = 0; k < kClasses; ++k) {
      if (offset[k] == offset[k + 1]) continue;
      Class c;
      c.live = c.head_end = offset[k];
      c.end = offset[k + 1];
      for (std::size_t p = c.live; p < c.end; ++p)
        c.slope_max = std::max(c.slope_max, entries_[p].b);
      extend_head(c);
      classes_.push_back(c);
    }

    stale_ = false;
    steps_ = 0;
    work_ = 0.0;
    snapshot_work_ = static_cast<double>(entries_.size()) * (d_ + 4.0);
    ++stats_.snapshots;
    stats_.snapshot_rows += entries_.size();
  }

  const MeloState& state_;
  ParallelConfig scan_;
  MeloScanStats& stats_;
  double d_ = 0.0;    // dimension, also the work of one key
  double rel_ = 0.0;  // relative rounding allowance
  double tau_ = 0.0;  // underflow allowance

  std::vector<double> slope_;     // b_v per vertex, for the loaded rows
  std::vector<double> row_norm_;  // cosine only: ||y_v|| as its key has it
  std::vector<Entry> entries_;  // unchosen at the snapshot, by class
  std::vector<Class> classes_;
  std::vector<Candidate> candidates_;
  linalg::Vec snap_;            // S at the snapshot
  double snap_norm_ = 0.0;      // certified ||S_snap||
  double row_norm_max_ = 0.0;   // certified max ||y_v|| over the list
  std::size_t steps_ = 0;       // selections since the snapshot
  double work_ = 0.0;           // walk work since the snapshot
  double snapshot_work_ = 0.0;  // the snapshot's own work
  bool stale_ = true;
  bool reloaded_ = true;  // rows changed since load_rows()
};

}  // namespace

part::Ordering melo_order_vectors(const VectorInstance& inst,
                                  const MeloOrderingOptions& opts,
                                  const MeloReadjust* readjust) {
  const std::size_t n = inst.size();
  SP_CHECK_INPUT(n >= 1, "MELO: empty instance");
  MeloState state(inst, opts.selection);
  ParallelConfig scan = opts.parallel;
  scan.grain = kScanGrain;

  std::vector<char> chosen(n, 0);
  part::Ordering order;
  order.reserve(n);

  // Returns true when the selection triggered an H-readjust reload (every
  // snapshot key is stale afterwards).
  auto take = [&](graph::NodeId v) -> bool {
    chosen[v] = 1;
    state.select(v);
    order.push_back(v);
    if (readjust != nullptr && readjust->at != 0 &&
        order.size() == readjust->at && order.size() < n) {
      const VectorInstance rebuilt = readjust->rebuild(order);
      state.reload(rebuilt, order);
      return true;
    }
    return false;
  };

  take(pick_start(state, opts.start_rank, n));

  MeloScanStats work;
  CertifiedScan certified(state, scan, work);
  while (order.size() < n) {
    if (!budget_charge(opts.budget)) {
      // Budget exhaustion mid-construction: the ordering must still be a
      // full permutation for the split sweeps, so the remaining vertices
      // are appended in id order (cheap, deterministic) instead of
      // aborting.
      for (graph::NodeId v = 0; v < n; ++v)
        if (!chosen[v]) order.push_back(v);
      break;
    }
    if (take(certified.select(chosen))) certified.invalidate();
  }
  if (opts.stats != nullptr) *opts.stats += work;
  return order;
}

}  // namespace specpart::core
