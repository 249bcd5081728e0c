// delta_stepping_fused.hpp — the paper's "direct linear algebra to C"
// implementation (Sec. VI-B): same linear-algebraic algorithm as the
// GraphBLAS version, but with the two fusion opportunities exploited:
//
//   1. the Hadamard product and the vector-matrix multiplication
//      tReq = A_Lᵀ (t ∘ tB_i) fuse into a single push traversal of the
//      bucket's rows;
//   2. the three dependent vector updates (tB_i, S, t) fuse into one pass
//      over the vertices touched by the phase.
//
// t and tReq are dense arrays (length |V|); matrices are CSR.  Nothing
// else is: tB_i is the frontier list, S a settled list, and the pending
// buckets a lazy (bucket, vertex) queue that jumps straight to the next
// non-empty bucket.  After the dense arrays are initialized a query costs
// O(reached vertices + relaxed edges), plus at most 64 queue-bin moves per
// entry; nothing scales with |V| × buckets or with max_dist/Δ, and
// stats.outer_iterations counts non-empty buckets only.
//
// A vertex's bucket is the least i with t < (i+1)·Δ, rounded as the
// GraphBLAS variants round their test i·Δ <= t < (i+1)·Δ, so adjacent
// ranges meet with no gap and no overlap.  A heavy request can still round
// into the bucket just processed (fl(t + w) < fl((i+1)·Δ) with w barely
// above Δ); this core takes that bucket again, while the GraphBLAS
// variants never expand such a vertex.  Elsewhere the distances, light
// phases and relax requests match those variants' bit for bit.  Fig. 3
// reports this implementation at ~3.7x over the unfused GraphBLAS version.
#pragma once

#include "graphblas/matrix.hpp"
#include "sssp/common.hpp"
#include "sssp/plan.hpp"

namespace grb {
class Context;
}

namespace dsg {

/// Fused sequential delta-stepping from `source` over adjacency matrix `a`.
/// One-shot: builds a throwaway plan per call.  Repeated-query callers
/// should hold an sssp::SsspSolver (or a GraphPlan) instead.
SsspResult delta_stepping_fused(const grb::Matrix<double>& a, Index source,
                                const DeltaSteppingOptions& options = {});

/// Plan-based core: executes against a prebuilt GraphPlan (weights already
/// validated, A_L/A_H split already materialized) with `ctx`-owned warm
/// buffers.  stats.setup_seconds is 0 here — the plan paid it once.
SsspResult delta_stepping_fused(const GraphPlan& plan, grb::Context& ctx,
                                Index source, const ExecOptions& exec = {});

}  // namespace dsg
