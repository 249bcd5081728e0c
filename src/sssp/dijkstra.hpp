// dijkstra.hpp — Dijkstra's algorithm, the classic priority-queue SSSP the
// paper contrasts with delta-stepping (Sec. VII: with Δ = min edge weight,
// delta-stepping degenerates to Dijkstra-like settling order).  Serves as
// the primary correctness oracle.  The queue is the monotone radix heap of
// radix_heap.hpp, keyed by the bit pattern of the tentative distance, and
// settles every vertex of the least distance as one batch.
#pragma once

#include "graphblas/matrix.hpp"
#include "sssp/common.hpp"
#include "sssp/plan.hpp"

namespace grb {
class Context;
}

namespace dsg {

/// Radix-heap Dijkstra from `source`; weights must be finite and
/// non-negative.  Uses a local heap workspace.
SsspResult dijkstra(const grb::Matrix<double>& a, Index source);

/// Plan-based entry (solver registry): skips the per-call O(|E|)
/// weight re-validation — the plan did it once — and keeps the heap
/// storage in `ctx`, so repeated solves on one Context reuse it.
SsspResult dijkstra(const GraphPlan& plan, grb::Context& ctx, Index source,
                    const ExecOptions& exec = {});

/// Dijkstra that also records a shortest-path tree: parent[v] is the
/// predecessor of v on a shortest path, or grb::all_indices for the source
/// and unreachable vertices.
SsspResult dijkstra_with_parents(const grb::Matrix<double>& a, Index source,
                                 std::vector<Index>& parent);

}  // namespace dsg
