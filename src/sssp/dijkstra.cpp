#include "sssp/dijkstra.hpp"

#include <bit>
#include <cstdint>
#include <vector>

#include "graphblas/context.hpp"
#include "sssp/radix_heap.hpp"
#include "testing/fault_injection.hpp"

namespace dsg {

namespace {

/// Polling cadence: the heap loop has no round structure, so the control
/// is checked every kPollStride settled vertices (cheap enough to keep
/// cancel latency low, rare enough not to tax steady_clock).
constexpr std::uint64_t kPollStride = 1024;

/// Heap key of a tentative distance: its bit pattern.  For finite doubles
/// >= +0.0 the unsigned order of the bits is the order of the values.  The
/// validated weights are finite and >= 0 and the source starts at +0.0,
/// so every distance is such a double (d + (-0.0) is d, never -0.0).
std::uint64_t heap_key(double d) { return std::bit_cast<std::uint64_t>(d); }

/// Heap storage, parked in the executing grb::Context so server workers,
/// solve_batch and repeated reference solves reuse its capacity.  The
/// distance vector is excluded: it is moved into the result.
struct DijkstraWorkspace {
  detail::RadixHeap heap;
  std::vector<detail::RadixEntry> batch;
};

/// Core; inputs must be validated by the caller (the public wrappers
/// validate per call, the plan-based entry relies on the plan's one-time
/// validation).
SsspResult dijkstra_impl(const grb::Matrix<double>& a, Index source,
                         std::vector<Index>* parent,
                         const QueryControl* control, DijkstraWorkspace& ws) {
  const Index n = a.nrows();
  SsspResult result;
  result.dist.assign(n, kInfDist);
  if (parent) parent->assign(n, grb::all_indices);
  auto& dist = result.dist;

  // A run cut short leaves entries behind; clear() drops them.
  auto& heap = ws.heap;
  heap.clear();
  dist[source] = 0.0;
  heap.push(heap_key(0.0), source);

  // dist is relax-only, so any interruption cut is a valid upper bound.
  SsspStatus status = poll_control(control);
  while (status == SsspStatus::kComplete && !heap.empty()) {
    // Every entry with the least key at once; an entry whose vertex has
    // since improved is stale.  Pushes are strict improvements, so a
    // vertex has at most one entry per key and settles once.
    heap.take_min(ws.batch);
    for (const detail::RadixEntry& e : ws.batch) {
      const Index u = e.value;
      const double d = dist[u];
      if (heap_key(d) != e.key) continue;  // stale entry
      ++result.stats.outer_iterations;     // settled vertices
      if (result.stats.outer_iterations % kPollStride == 0) {
        status = poll_control(control);
      }
      testing::fault_point("dijkstra/settle");

      auto cols = a.row_indices(u);
      auto vals = a.row_values(u);
      for (std::size_t k = 0; k < cols.size(); ++k) {
        const Index v = cols[k];
        const double cand = d + vals[k];
        ++result.stats.relax_requests;
        if (cand < dist[v]) {
          dist[v] = cand;
          if (parent) (*parent)[v] = u;
          heap.push(heap_key(cand), v);
        }
      }
      if (status != SsspStatus::kComplete) break;
    }
  }
  result.status = status;
  return result;
}

}  // namespace

SsspResult dijkstra(const grb::Matrix<double>& a, Index source) {
  check_sssp_inputs(a, source);
  check_nonnegative_weights(a);
  DijkstraWorkspace ws;
  return dijkstra_impl(a, source, nullptr, nullptr, ws);
}

SsspResult dijkstra(const GraphPlan& plan, grb::Context& ctx, Index source,
                    const ExecOptions& exec) {
  grb::detail::check_index(source, plan.num_vertices(), "sssp: source");
  return dijkstra_impl(plan.matrix(), source, nullptr, exec.control,
                       ctx.get<DijkstraWorkspace>());
}

SsspResult dijkstra_with_parents(const grb::Matrix<double>& a, Index source,
                                 std::vector<Index>& parent) {
  check_sssp_inputs(a, source);
  check_nonnegative_weights(a);
  DijkstraWorkspace ws;
  return dijkstra_impl(a, source, &parent, nullptr, ws);
}

}  // namespace dsg
