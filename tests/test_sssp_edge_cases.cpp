// Edge cases and failure injection for the SSSP entry points: input
// validation, extreme deltas, extreme structures, numeric extremes.
#include <gtest/gtest.h>

#include <cmath>
#include <string>
#include <vector>

#include "graph/edge_list.hpp"
#include "graph/generators.hpp"
#include "graph/weights.hpp"
#include "test_support.hpp"

namespace {

using dsg::EdgeList;
using dsg::kInfDist;
using grb::Index;

grb::Matrix<double> tiny() {
  EdgeList g(3);
  g.add_edge(0, 1, 1.0);
  g.add_edge(1, 2, 1.0);
  return g.to_matrix();
}

TEST(InputValidation, NonSquareMatrixRejected) {
  grb::Matrix<double> a(2, 3);
  dsg::DeltaSteppingOptions opt;
  EXPECT_THROW(dsg::delta_stepping_graphblas(a, 0, opt),
               grb::DimensionMismatch);
  EXPECT_THROW(dsg::delta_stepping_fused(a, 0, opt), grb::DimensionMismatch);
}

TEST(InputValidation, EmptyGraphRejected) {
  grb::Matrix<double> a(0, 0);
  dsg::DeltaSteppingOptions opt;
  EXPECT_THROW(dsg::delta_stepping_fused(a, 0, opt), grb::InvalidValue);
  EXPECT_THROW(dsg::dijkstra(a, 0), grb::InvalidValue);
}

TEST(InputValidation, SourceOutOfRangeRejected) {
  auto a = tiny();
  dsg::DeltaSteppingOptions opt;
  EXPECT_THROW(dsg::delta_stepping_graphblas(a, 3, opt),
               grb::IndexOutOfBounds);
  EXPECT_THROW(dsg::delta_stepping_buckets(a, 99, opt),
               grb::IndexOutOfBounds);
  EXPECT_THROW(dsg::dijkstra(a, 3), grb::IndexOutOfBounds);
}

TEST(InputValidation, NegativeWeightRejectedByDeltaStepping) {
  EdgeList g(2);
  g.add_edge(0, 1, -1.0);
  auto a = g.to_matrix();
  dsg::DeltaSteppingOptions opt;
  EXPECT_THROW(dsg::delta_stepping_graphblas(a, 0, opt), grb::InvalidValue);
  EXPECT_THROW(dsg::delta_stepping_fused(a, 0, opt), grb::InvalidValue);
  EXPECT_THROW(dsg::delta_stepping_buckets(a, 0, opt), grb::InvalidValue);
  EXPECT_THROW(dsg::dijkstra(a, 0), grb::InvalidValue);
}

TEST(InputValidation, BadDeltaRejected) {
  auto a = tiny();
  dsg::DeltaSteppingOptions opt;
  opt.delta = 0.0;
  EXPECT_THROW(dsg::delta_stepping_fused(a, 0, opt), grb::InvalidValue);
  opt.delta = -2.0;
  EXPECT_THROW(dsg::delta_stepping_graphblas(a, 0, opt), grb::InvalidValue);
}

// Every entry applies the plan's one weight rule, finite and >= 0: a
// plain (w < 0) test lets NaN and +inf through, and the legacy dijkstra
// then silently dropped a NaN-weighted edge.
TEST(InputValidation, NonFiniteWeightRejectedByEveryEntry) {
  for (const double bad : {std::nan(""), kInfDist}) {
    SCOPED_TRACE("weight=" + std::to_string(bad));
    EdgeList g(3);
    g.add_edge(0, 1, 1.0);
    g.add_edge(1, 2, bad);
    const auto a = g.to_matrix();
    dsg::DeltaSteppingOptions opt;
    EXPECT_THROW(dsg::GraphPlan::borrow(a, 1.0), grb::InvalidValue);
    EXPECT_THROW(dsg::delta_stepping_graphblas(a, 0, opt), grb::InvalidValue);
    EXPECT_THROW(dsg::delta_stepping_graphblas_select(a, 0, opt),
                 grb::InvalidValue);
    EXPECT_THROW(dsg::delta_stepping_openmp(a, 0, dsg::OpenMpOptions{}),
                 grb::InvalidValue);
    EXPECT_THROW(dsg::delta_stepping_capi(a, 0, opt), grb::InvalidValue);
    EXPECT_THROW(dsg::dijkstra(a, 0), grb::InvalidValue);
    std::vector<Index> parent;
    EXPECT_THROW(dsg::dijkstra_with_parents(a, 0, parent), grb::InvalidValue);
  }
}

// Δ = +inf put everything in bucket 0 and Δ = NaN in no bucket; the legacy
// graphblas entry returned kComplete at Δ = +inf with every other vertex
// of a path left at +inf.
TEST(InputValidation, NonFiniteDeltaRejectedByEveryEntry) {
  const auto a = dsg::test::path_graph(5).to_matrix();
  for (const double delta : {kInfDist, -kInfDist, std::nan("")}) {
    SCOPED_TRACE("delta=" + std::to_string(delta));
    dsg::OpenMpOptions opt;
    opt.delta = delta;
    EXPECT_THROW(dsg::delta_stepping_graphblas(a, 0, opt), grb::InvalidValue);
    EXPECT_THROW(dsg::delta_stepping_graphblas_select(a, 0, opt),
                 grb::InvalidValue);
    EXPECT_THROW(dsg::delta_stepping_openmp(a, 0, opt), grb::InvalidValue);
    EXPECT_THROW(dsg::delta_stepping_capi(a, 0, opt), grb::InvalidValue);
    EXPECT_THROW(dsg::delta_stepping_fused(a, 0, opt), grb::InvalidValue);
    EXPECT_THROW(dsg::delta_stepping_buckets(a, 0, opt), grb::InvalidValue);
    dsg::AsyncSteppingOptions async_opt;
    async_opt.delta = delta;
    async_opt.num_threads = 1;
    EXPECT_THROW(dsg::delta_stepping_async(a, 0, async_opt),
                 grb::InvalidValue);
  }
}

TEST(EdgeCases, IsolatedSourceVertex) {
  EdgeList g(3);
  g.add_edge(1, 2, 1.0);
  dsg::DeltaSteppingOptions opt;
  auto r = dsg::delta_stepping_graphblas(g.to_matrix(), 0, opt);
  EXPECT_DOUBLE_EQ(r.dist[0], 0.0);
  EXPECT_EQ(r.dist[1], kInfDist);
  EXPECT_EQ(r.dist[2], kInfDist);
}

TEST(EdgeCases, SinkOnlySource) {
  // Source has only incoming edges.
  EdgeList g(3);
  g.add_edge(1, 0, 1.0);
  g.add_edge(2, 0, 1.0);
  dsg::DeltaSteppingOptions opt;
  auto r = dsg::delta_stepping_fused(g.to_matrix(), 0, opt);
  EXPECT_DOUBLE_EQ(r.dist[0], 0.0);
  EXPECT_EQ(r.dist[1], kInfDist);
}

TEST(EdgeCases, ZeroWeightEdgesAreExcludedFromLightSet) {
  // The formulation A_L = A ∘ (0 < A <= Δ) excludes explicit zeros;
  // with heavy also requiring w > Δ, zero-weight edges vanish entirely.
  // Document this contract: zero-weight edges are not traversed by the
  // linear-algebraic delta-stepping (the paper's graphs have unit weights).
  EdgeList g(3);
  g.add_edge(0, 1, 0.0);
  g.add_edge(1, 2, 1.0);
  dsg::DeltaSteppingOptions opt;
  auto r = dsg::delta_stepping_graphblas(g.to_matrix(), 0, opt);
  EXPECT_EQ(r.dist[1], kInfDist);  // 0-weight edge not in A_L nor A_H
  // Dijkstra (not delta-split) does traverse it:
  auto rd = dsg::dijkstra(g.to_matrix(), 0);
  EXPECT_DOUBLE_EQ(rd.dist[1], 0.0);
  EXPECT_DOUBLE_EQ(rd.dist[2], 1.0);
}

TEST(EdgeCases, TinyDeltaManyEmptyBuckets) {
  auto a = tiny();
  dsg::DeltaSteppingOptions opt;
  opt.delta = 0.125;  // distances 0,1,2 -> buckets 0,8,16
  auto r = dsg::delta_stepping_fused(a, 0, opt);
  EXPECT_DOUBLE_EQ(r.dist[2], 2.0);
  EXPECT_GE(r.stats.outer_iterations, 3u);
}

TEST(EdgeCases, HugeDeltaSingleBucket) {
  auto a = tiny();
  dsg::DeltaSteppingOptions opt;
  opt.delta = 1e12;
  auto r = dsg::delta_stepping_graphblas(a, 0, opt);
  EXPECT_DOUBLE_EQ(r.dist[2], 2.0);
  EXPECT_EQ(r.stats.outer_iterations, 1u);
}

TEST(EdgeCases, DeltaEqualToWeightBoundary) {
  // w == delta goes to the light set (<=); verify boundary handling across
  // every variant via the shared parity table.
  EdgeList g(3);
  g.add_edge(0, 1, 2.0);
  g.add_edge(1, 2, 2.0);
  DSG_CHECK_IMPL_PARITY(dsg::test::delta_stepping_impls(), g.to_matrix(), 0,
                        2.0);
}

TEST(EdgeCases, DistanceExactlyOnBucketBoundary) {
  // tent(v) == i*delta must land in bucket i (closed-below interval).
  EdgeList g(4);
  g.add_edge(0, 1, 1.0);
  g.add_edge(1, 2, 1.0);
  g.add_edge(2, 3, 1.0);
  dsg::DeltaSteppingOptions opt;
  opt.delta = 1.0;
  auto r = dsg::delta_stepping_graphblas(g.to_matrix(), 0, opt);
  EXPECT_DOUBLE_EQ(r.dist[3], 3.0);
}

TEST(EdgeCases, VeryLargeWeights) {
  EdgeList g(3);
  g.add_edge(0, 1, 1e15);
  g.add_edge(1, 2, 1e15);
  dsg::DeltaSteppingOptions opt;
  opt.delta = 1e14;
  auto r = dsg::delta_stepping_buckets(g.to_matrix(), 0, opt);
  EXPECT_DOUBLE_EQ(r.dist[2], 2e15);
}

TEST(EdgeCases, DenseCompleteGraph) {
  auto g = dsg::generate_complete(30);
  dsg::assign_uniform_weights(g, 0.5, 2.0, 3);
  DSG_CHECK_IMPL_PARITY(dsg::test::delta_stepping_impls(), g.to_matrix(), 0,
                        0.7);
}

TEST(EdgeCases, StarGraphSingleHub) {
  auto g = dsg::generate_star(500);
  dsg::assign_unit_weights(g);
  dsg::DeltaSteppingOptions opt;
  auto r = dsg::delta_stepping_graphblas(g.to_matrix(), 0, opt);
  for (Index v = 1; v < 500; ++v) EXPECT_DOUBLE_EQ(r.dist[v], 1.0);
  // From a leaf: everything is at most 2.
  auto r2 = dsg::delta_stepping_fused(g.to_matrix(), 7, opt);
  EXPECT_DOUBLE_EQ(r2.dist[0], 1.0);
  EXPECT_DOUBLE_EQ(r2.dist[8], 2.0);
}

TEST(EdgeCases, OpenMpThreadCountVariants) {
  auto g = dsg::generate_connected_random(200, 300, 5);
  dsg::assign_uniform_weights(g, 0.1, 2.0, 6);
  g.normalize();
  auto a = g.to_matrix();
  auto ref = dsg::dijkstra(a, 0);
  for (int threads : {1, 2, 4, 8}) {
    dsg::OpenMpOptions opt;
    opt.delta = 0.5;
    opt.num_threads = threads;
    auto r = dsg::delta_stepping_openmp(a, 0, opt);
    auto cmp = dsg::compare_distances(ref.dist, r.dist);
    EXPECT_TRUE(cmp.ok) << threads << " threads: " << cmp.message;
  }
}

TEST(EdgeCases, OpenMpTaskGranularityVariants) {
  auto g = dsg::generate_grid2d(20, 20);
  auto a = g.to_matrix();
  auto ref = dsg::dijkstra(a, 0);
  for (int tasks : {1, 3, 16, 64}) {
    dsg::OpenMpOptions opt;
    opt.num_threads = 4;
    opt.tasks_per_vector = tasks;
    auto r = dsg::delta_stepping_openmp(a, 0, opt);
    auto cmp = dsg::compare_distances(ref.dist, r.dist);
    EXPECT_TRUE(cmp.ok) << tasks << " tasks: " << cmp.message;
  }
}

TEST(EdgeCases, RepeatedRunsAreDeterministic) {
  auto g = dsg::generate_rmat({.scale = 7, .edge_factor = 5, .seed = 2});
  g.symmetrize();
  dsg::assign_unit_weights(g);
  g.normalize();
  auto a = g.to_matrix();
  dsg::DeltaSteppingOptions opt;
  auto r1 = dsg::delta_stepping_graphblas(a, 0, opt);
  auto r2 = dsg::delta_stepping_graphblas(a, 0, opt);
  EXPECT_EQ(r1.dist, r2.dist);
  EXPECT_EQ(r1.stats.light_phases, r2.stats.light_phases);
}

TEST(EdgeCases, ProfileFlagPopulatesTimers) {
  auto g = dsg::generate_grid2d(30, 30);
  dsg::DeltaSteppingOptions opt;
  opt.profile = true;
  auto r = dsg::delta_stepping_fused(g.to_matrix(), 0, opt);
  EXPECT_GT(r.stats.setup_seconds, 0.0);
  EXPECT_GT(r.stats.light_seconds + r.stats.vector_seconds, 0.0);
}

}  // namespace
