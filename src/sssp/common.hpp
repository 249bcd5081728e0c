// common.hpp — shared types for the SSSP algorithm family.
#pragma once

#include <cmath>
#include <cstdint>
#include <limits>
#include <string>
#include <vector>

#include "graphblas/matrix.hpp"
#include "graphblas/types.hpp"
#include "sssp/query_control.hpp"

namespace dsg {

using grb::Index;

/// Distance value meaning "unreachable".
inline constexpr double kInfDist = std::numeric_limits<double>::infinity();

/// Per-run instrumentation.  The counters expose the algorithm's control
/// structure (bucket count, phase count) and the timers feed the SEC6B
/// phase-breakdown benchmark.
struct SsspStats {
  /// Buckets processed.  fused and buckets count only non-empty buckets;
  /// the GraphBLAS family (graphblas, graphblas_select, capi) and openmp
  /// count every i they step through, empty ones included.  dijkstra
  /// counts settled vertices; bellman_ford and the async cores count
  /// rounds.
  std::uint64_t outer_iterations = 0;
  std::uint64_t light_phases = 0;      ///< inner-loop light relaxation rounds
  std::uint64_t relax_requests = 0;    ///< relaxation requests generated
  double setup_seconds = 0.0;   ///< A_L / A_H split (matrix filtering)
  double light_seconds = 0.0;   ///< light-edge vxm / push phases
  double heavy_seconds = 0.0;   ///< heavy-edge vxm / push phases
  double vector_seconds = 0.0;  ///< point-wise vector filter/update work
};

/// Result of one SSSP run: dist[v] is the shortest-path weight from the
/// source to v.
///
/// Unreachable-vertex convention (library-wide invariant): dist always has
/// exactly |V| entries and an unreachable vertex is reported as exactly
/// +infinity (kInfDist) — never omitted, never NaN, never a finite
/// sentinel.  Every variant (including the GraphBLAS ones, which densify
/// their t vector with to_dense_array(kInfDist)) follows this, and
/// validate_sssp() accepts exactly this convention and no other.
struct SsspResult {
  std::vector<double> dist;
  SsspStats stats;
  /// How the run ended.  Anything other than kComplete means the query was
  /// interrupted (deadline/cancel) and dist holds valid *upper bounds* on
  /// the true distances — see query_control.hpp for the contract.
  SsspStatus status = SsspStatus::kComplete;
};

/// Options shared by all delta-stepping variants.
struct DeltaSteppingOptions {
  double delta = 1.0;  ///< bucket width Δ (>0)

  /// When true, collect the per-phase timers in SsspStats (small overhead).
  bool profile = false;
};

/// Validates inputs common to every SSSP entry point.
/// Throws grb::InvalidValue / grb::IndexOutOfBounds on violations.
inline void check_sssp_inputs(const grb::Matrix<double>& a, Index source) {
  if (a.nrows() != a.ncols()) {
    throw grb::DimensionMismatch("sssp: adjacency matrix must be square");
  }
  if (a.nrows() == 0) {
    throw grb::InvalidValue("sssp: empty graph");
  }
  grb::detail::check_index(source, a.nrows(), "sssp: source");
}

/// The one edge-weight rule of every SSSP entry point and of plan loading:
/// finite and >= 0.  A plain (w < 0) test is not enough: NaN compares false
/// against everything, so it waves NaN weights into the relaxation loop,
/// where they poison or silently drop paths, and +inf weights break the
/// Δ-bucket arithmetic.
inline bool valid_edge_weight(double w) {
  return std::isfinite(w) && w >= 0.0;
}

/// Throws unless every stored weight passes valid_edge_weight
/// (delta-stepping and Dijkstra require finite non-negative weights);
/// returns the max weight.
inline double check_nonnegative_weights(const grb::Matrix<double>& a) {
  double max_w = 0.0;
  a.for_each([&](Index, Index, const double& w) {
    if (!valid_edge_weight(w)) {
      throw grb::InvalidValue("sssp: non-finite or negative edge weight " +
                              std::to_string(w));
    }
    if (w > max_w) max_w = w;
  });
  return max_w;
}

/// Throws unless Δ is finite and > 0.
inline void check_delta(double delta) {
  if (!(std::isfinite(delta) && delta > 0.0)) {
    throw grb::InvalidValue("sssp: delta must be finite and > 0, got " +
                            std::to_string(delta));
  }
}

}  // namespace dsg
