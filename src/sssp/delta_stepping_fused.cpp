#include "sssp/delta_stepping_fused.hpp"

#include <chrono>
#include <cmath>
#include <limits>
#include <vector>

#include "graphblas/context.hpp"
#include "sssp/radix_heap.hpp"
#include "testing/fault_injection.hpp"

namespace dsg {

namespace {

using Clock = std::chrono::steady_clock;

double seconds_since(Clock::time_point start) {
  return std::chrono::duration<double>(Clock::now() - start).count();
}

/// Upper edge of bucket i, evaluated exactly as the bucket test
/// i·Δ <= t < (i+1)·Δ of the GraphBLAS variants evaluates it, so bucket
/// i + 1 starts where bucket i ends.
double bucket_upper(Index i, double delta) {
  return static_cast<double>(i + 1) * delta;
}

/// The bucket that holds tentative distance t: the least i with
/// t < (i+1)·Δ, the one i whose bucket test holds.  ⌊t/Δ⌋ can be one off,
/// because a Δ such as 0.1 is not exact in binary; the two loops correct
/// it.  GraphPlan keeps t/Δ below 2^53, so the cast is exact.
Index bucket_of(double t, double delta) {
  auto i = static_cast<Index>(std::floor(t / delta));
  while (i > 0 && t < bucket_upper(i - 1, delta)) --i;
  while (!(t < bucket_upper(i, delta))) ++i;
  return i;
}

/// `pending[v]` when v has no live queue entry.
constexpr Index kIdle = std::numeric_limits<Index>::max();
/// `pending[v]` when v is in the current bucket's settled list S.
constexpr Index kSettled = kIdle - 1;

/// Work buffers for the fused kernel, parked in the executing grb::Context
/// so repeated runs (benchmark reps, multi-source batches, server workers)
/// reuse capacity instead of reallocating.  The distance vector t is
/// excluded: it is moved into the result.
struct FusedWorkspace {
  std::vector<double> treq;
  /// Per vertex: the bucket of its one live queue entry, kIdle or kSettled.
  std::vector<Index> pending;
  std::vector<Index> frontier;
  std::vector<Index> touched;
  std::vector<Index> settled;
  std::vector<detail::RadixEntry> taken;
  /// The lazy bucket queue: (bucket, vertex) entries, stale ones dropped
  /// when taken.  Storage is the pending entries only, whatever max_w/Δ is.
  detail::RadixHeap queue;
};

}  // namespace

SsspResult delta_stepping_fused(const GraphPlan& plan, grb::Context& ctx,
                                Index source, const ExecOptions& exec) {
  const Index n = plan.num_vertices();
  grb::detail::check_index(source, n, "sssp: source");
  const double delta = plan.delta();
  const auto& split = plan.light_heavy();
  SsspStats stats;  // setup_seconds stays 0: the plan paid it once

  // The only O(|V|) work of a query: the dense distance and request
  // vectors (absent == infinity) and the queue-entry markers.
  auto& ws = ctx.get<FusedWorkspace>();
  std::vector<double> t(n, kInfDist);
  auto& treq = ws.treq;
  treq.assign(n, kInfDist);
  auto& pending = ws.pending;
  pending.assign(n, kIdle);
  auto& frontier = ws.frontier;  // tB_i as a list
  frontier.clear();
  auto& touched = ws.touched;    // indices where treq got a request
  touched.clear();
  auto& settled = ws.settled;    // S as a list, each vertex once
  auto& taken = ws.taken;
  auto& queue = ws.queue;
  queue.clear();

  // Queues w under the bucket of its improved distance d.  The marker
  // change makes any older entry for w stale; an entry already in that
  // bucket is kept, since the frontier reads t[w] when the bucket is taken.
  auto enqueue = [&](Index w, double d) {
    const Index b = bucket_of(d, delta);
    if (pending[w] != b) {
      pending[w] = b;
      queue.push(b, w);
    }
  };

  t[source] = 0.0;
  enqueue(source, 0.0);

  // Lifecycle: poll before the loop (deadline 0 ⇒ init-state upper bounds)
  // and at every bucket boundary.  t is min-only, so any cut is a valid
  // upper bound.
  SsspStatus status = poll_control(exec.control);

  while (status == SsspStatus::kComplete && !queue.empty()) {
    // Bucket construction: take the least pending bucket and keep its live
    // entries.  When all of them went stale the bucket is empty; skip it.
    auto vec_start = Clock::now();
    const Index i = queue.take_min(taken);
    frontier.clear();
    for (const detail::RadixEntry& e : taken) {
      if (pending[e.value] != e.key) continue;
      pending[e.value] = kSettled;
      frontier.push_back(e.value);
    }
    settled.assign(frontier.begin(), frontier.end());
    if (exec.profile) stats.vector_seconds += seconds_since(vec_start);
    if (frontier.empty()) continue;

    testing::fault_point("fused/round");
    ++stats.outer_iterations;
    const double hi = bucket_upper(i, delta);

    while (!frontier.empty()) {
      ++stats.light_phases;
      stats.relax_requests += frontier.size();

      // Fusion 1: tReq = A_Lᵀ (t ∘ tB_i) as a single push traversal —
      // the Hadamard filter is the frontier list itself.
      auto light_start = Clock::now();
      for (Index v : frontier) {
        const double tv = t[v];
        for (Index k = split.light_ptr[v]; k < split.light_ptr[v + 1]; ++k) {
          const Index w = split.light_ind[k];
          const double cand = tv + split.light_val[k];
          if (cand < treq[w]) {
            if (treq[w] == kInfDist) touched.push_back(w);
            treq[w] = cand;
          }
        }
      }
      if (exec.profile) stats.light_seconds += seconds_since(light_start);

      // Fusion 2: S |= tB_i;  tB_i' = in-range(tReq) ∘ (tReq < t);
      // t = min(t, tReq) — one pass over the touched set.  A request is
      // never below the bucket (light weights are positive), so in-range
      // is tReq < hi; an improvement beyond it is queued for its bucket.
      vec_start = Clock::now();
      frontier.clear();
      for (Index w : touched) {
        const double req = treq[w];
        if (req < t[w]) {
          t[w] = req;
          if (req < hi) {
            // (Re)introduce into the bucket.  `touched` holds each vertex at
            // most once per phase (treq acts as the min-combining
            // accumulator), so the frontier needs no dedup test.
            frontier.push_back(w);
            if (pending[w] != kSettled) {
              pending[w] = kSettled;
              settled.push_back(w);
            }
          } else {
            enqueue(w, req);
          }
        }
        treq[w] = kInfDist;  // reset the request buffer for the next phase
      }
      touched.clear();
      if (exec.profile) stats.vector_seconds += seconds_since(vec_start);
    }

    // Heavy relaxation from all vertices settled in this bucket:
    // tReq = A_Hᵀ (t ∘ S); t = min(t, tReq), fused into one traversal.
    auto heavy_start = Clock::now();
    for (Index v : settled) {
      // Leave S.  A marker that is no longer kSettled means an earlier
      // heavy edge in this loop already queued v again.
      if (pending[v] == kSettled) pending[v] = kIdle;
      const double tv = t[v];
      for (Index k = split.heavy_ptr[v]; k < split.heavy_ptr[v + 1]; ++k) {
        const Index w = split.heavy_ind[k];
        const double cand = tv + split.heavy_val[k];
        if (cand < t[w]) {
          t[w] = cand;
          enqueue(w, cand);
        }
      }
    }
    if (exec.profile) stats.heavy_seconds += seconds_since(heavy_start);

    status = poll_control(exec.control);
  }

  SsspResult result;
  result.dist = std::move(t);
  result.stats = stats;
  result.status = status;
  return result;
}

SsspResult delta_stepping_fused(const grb::Matrix<double>& a, Index source,
                                const DeltaSteppingOptions& options) {
  check_sssp_inputs(a, source);
  check_delta(options.delta);

  // One-shot plan: borrowing is safe (the plan dies with this call).  The
  // timer brackets only the A_L/A_H split materialization — the plan's
  // validation scan replaces the old untimed check_nonnegative_weights
  // pass, so stats.setup_seconds keeps its historical meaning (the
  // Sec. VI-B "matrix filtering" share bench_phase_breakdown reports).
  GraphPlan plan = GraphPlan::borrow(a, options.delta);
  const auto setup_start = Clock::now();
  plan.light_heavy();
  const double setup_seconds = seconds_since(setup_start);

  ExecOptions exec;
  exec.profile = options.profile;
  SsspResult result =
      delta_stepping_fused(plan, grb::default_context(), source, exec);
  result.stats.setup_seconds = setup_seconds;
  return result;
}

}  // namespace dsg
