// Integration tests: the full benchmark-suite graphs run through every
// implementation and must agree, with plausible instrumentation — the same
// configuration (unit weights, Δ=1, symmetric graphs) as the paper's
// evaluation.
#include <gtest/gtest.h>

#include <algorithm>
#include <set>
#include <string>

#include "bench_support/suite.hpp"
#include "graph/generators.hpp"
#include "graph/stats.hpp"
#include "graph/weights.hpp"
#include "sssp/solver.hpp"
#include "test_support.hpp"

namespace {

using grb::Index;

TEST(Suite, IsSortedByAscendingNodeCount) {
  auto suite = dsg::benchmark_suite();
  ASSERT_GE(suite.size(), 5u);
  Index prev = 0;
  for (const auto& entry : suite) {
    auto g = entry.make();
    EXPECT_GE(g.num_vertices(), prev) << entry.name;
    prev = g.num_vertices();
  }
}

TEST(Suite, GraphsAreSymmetricSimpleUnitWeighted) {
  // The paper: "input data are symmetric and undirected graphs with unit
  // edge weights".
  for (const auto& entry : dsg::quick_suite(5)) {
    auto g = entry.make();
    EXPECT_TRUE(g.is_symmetric()) << entry.name;
    for (const auto& e : g.edges()) {
      EXPECT_NE(e.src, e.dst) << entry.name << ": self loop";
      EXPECT_DOUBLE_EQ(e.weight, 1.0) << entry.name;
    }
  }
}

TEST(Suite, QuickSuiteIsPrefix) {
  auto full = dsg::benchmark_suite();
  auto quick = dsg::quick_suite(3);
  ASSERT_EQ(quick.size(), 3u);
  for (std::size_t k = 0; k < quick.size(); ++k) {
    EXPECT_EQ(quick[k].name, full[k].name);
  }
}

TEST(Suite, WeightedSuiteHasRealWeights) {
  auto weighted = dsg::weighted_suite(0.5, 2.5);
  auto g = weighted.front().make();
  bool any_non_unit = false;
  for (const auto& e : g.edges()) {
    EXPECT_GE(e.weight, 0.5);
    EXPECT_LT(e.weight, 2.5);
    if (e.weight != 1.0) any_non_unit = true;
  }
  EXPECT_TRUE(any_non_unit);
}

class SuiteParity : public ::testing::TestWithParam<std::size_t> {};

TEST_P(SuiteParity, AllImplementationsAgreeOnSuiteGraph) {
  auto suite = dsg::quick_suite(4);  // keep runtime bounded
  const auto& entry = suite[GetParam()];
  SCOPED_TRACE(entry.name);
  // delta = 1 is the paper's setting for the unit-weight suite graphs.
  DSG_CHECK_IMPL_PARITY(dsg::test::delta_stepping_impls(),
                        entry.make().to_matrix(), 0, 1.0);
}

INSTANTIATE_TEST_SUITE_P(Graphs, SuiteParity,
                         ::testing::Values(0u, 1u, 2u, 3u),
                         [](const auto& param_info) {
                           // gtest parameter names must be [A-Za-z0-9_].
                           std::string name =
                               dsg::quick_suite(4)[param_info.param].name;
                           for (char& c : name) {
                             if (!std::isalnum(static_cast<unsigned char>(c))) c = '_';
                           }
                           return name;
                         });

TEST(SuiteParity, PhaseCountsAgreeAcrossAlgebraicVariants) {
  // The GraphBLAS and fused implementations run the same abstract
  // algorithm, so bucket/phase counts must match exactly.
  auto suite = dsg::quick_suite(3);
  for (const auto& entry : suite) {
    auto a = entry.make().to_matrix();
    dsg::DeltaSteppingOptions opt;
    auto r_gb = dsg::delta_stepping_graphblas(a, 0, opt);
    auto r_fused = dsg::delta_stepping_fused(a, 0, opt);
    EXPECT_EQ(r_gb.stats.outer_iterations, r_fused.stats.outer_iterations)
        << entry.name;
    EXPECT_EQ(r_gb.stats.light_phases, r_fused.stats.light_phases)
        << entry.name;
  }
}

TEST(SuiteParity, UnitWeightDeltaOneBucketsEqualBfsDepth) {
  // With unit weights and Δ=1, bucket i holds exactly the BFS level-i
  // frontier, so the number of processed buckets equals ecc(source)+1.
  auto suite = dsg::quick_suite(3);
  for (const auto& entry : suite) {
    auto g = entry.make();
    auto levels = dsg::bfs_levels(g, 0);
    Index ecc = 0;
    for (auto l : levels) {
      if (l != std::numeric_limits<Index>::max()) ecc = std::max(ecc, l);
    }
    dsg::DeltaSteppingOptions opt;
    auto r = dsg::delta_stepping_fused(g.to_matrix(), 0, opt);
    EXPECT_EQ(r.stats.outer_iterations, ecc + 1) << entry.name;
  }
}

// --- Bucket counters: deterministic, no timing. ------------------------------

dsg::SsspResult solve_with(dsg::sssp::Algorithm algorithm,
                           const grb::Matrix<double>& a, double delta,
                           Index source) {
  dsg::sssp::SolverOptions options;
  options.algorithm = algorithm;
  options.delta = delta;
  dsg::sssp::SsspSolver solver(a, options);
  return solver.solve(source);
}

TEST(BucketCounters, TinyDeltaVisitsOnlyNonEmptyBuckets) {
  // A 30x30 unit grid from a corner has 59 distinct distances 0..58.  At
  // Δ = 1e-4 they span 580,001 bucket indices; the cores that skip empty
  // buckets must process one bucket per distinct distance, far fewer than
  // the 900 reached vertices.
  const auto a = dsg::generate_grid2d(30, 30).to_matrix();
  const auto oracle = dsg::dijkstra(a, 0);
  for (const double delta : {1e-3, 1e-4}) {
    for (const auto algorithm :
         {dsg::sssp::Algorithm::kFused, dsg::sssp::Algorithm::kBuckets}) {
      SCOPED_TRACE("delta=" + std::to_string(delta) + " algorithm=" +
                   dsg::sssp::algorithm_info(algorithm).name);
      const auto r = solve_with(algorithm, a, delta, 0);
      EXPECT_EQ(r.dist, oracle.dist);
      EXPECT_EQ(r.stats.outer_iterations, 59u);
    }
  }
}

TEST(BucketCounters, FusedMatchesGraphblasAtInexactDeltas) {
  // Both cores must put every vertex in the same bucket, so distances,
  // light phases and relax requests agree; fused only skips the empty
  // buckets.  Real weights spread distances across each bucket, and Δ =
  // 0.1, 0.3 and 1/3 are not exact in binary.
  auto g = dsg::generate_grid2d(40, 40);
  dsg::assign_uniform_weights(g, 0.05, 3.0, /*seed=*/2024);
  const auto a = g.to_matrix();
  const Index source = 823;  // interior: buckets fill from all sides
  for (const double delta : {0.1, 0.3, 1.0 / 3.0, 1e-3}) {
    SCOPED_TRACE("delta=" + std::to_string(delta));
    const auto fused =
        solve_with(dsg::sssp::Algorithm::kFused, a, delta, source);
    const auto graphblas =
        solve_with(dsg::sssp::Algorithm::kGraphblas, a, delta, source);
    EXPECT_EQ(fused.dist, graphblas.dist);
    EXPECT_EQ(fused.stats.light_phases, graphblas.stats.light_phases);
    EXPECT_EQ(fused.stats.relax_requests, graphblas.stats.relax_requests);
    EXPECT_LE(fused.stats.outer_iterations, graphblas.stats.outer_iterations);
  }
}

TEST(BucketCounters, FusedHandlesDistancesOnBucketEdges) {
  // On a path whose weight equals Δ every distance lies on a bucket edge,
  // where fl(i·Δ), fl((i+1)·Δ) and the running sums round apart.  Every
  // bucketed core must still reach every vertex with Dijkstra's exact
  // sums, which needs bucket i + 1 to start exactly where bucket i ends.
  // fused must also process one bucket per distinct bucket index: the
  // least i with t < (i+1)·Δ, found here by a plain scan.
  constexpr Index n = 400;
  for (const double delta : {0.1, 0.3, 1.0 / 3.0, 0.7}) {
    SCOPED_TRACE("delta=" + std::to_string(delta));
    dsg::EdgeList g(n);
    for (Index v = 0; v + 1 < n; ++v) {
      g.add_edge(v, v + 1, delta);
      g.add_edge(v + 1, v, delta);
    }
    const auto a = g.to_matrix();
    const auto oracle = dsg::dijkstra(a, 0);
    const auto fused = solve_with(dsg::sssp::Algorithm::kFused, a, delta, 0);
    EXPECT_EQ(fused.dist, oracle.dist);
    for (const auto algorithm :
         {dsg::sssp::Algorithm::kGraphblas,
          dsg::sssp::Algorithm::kGraphblasSelect, dsg::sssp::Algorithm::kCapi,
          dsg::sssp::Algorithm::kOpenmp, dsg::sssp::Algorithm::kBuckets,
          dsg::sssp::Algorithm::kDeltaSteppingAsync}) {
      SCOPED_TRACE(dsg::sssp::algorithm_info(algorithm).name);
      const auto r = solve_with(algorithm, a, delta, 0);
      EXPECT_EQ(std::count(r.dist.begin(), r.dist.end(), dsg::kInfDist), 0);
      EXPECT_EQ(r.dist, oracle.dist);
    }

    std::set<Index> buckets;
    Index i = 0;
    for (const double t : oracle.dist) {  // ascending along the path
      while (!(t < static_cast<double>(i + 1) * delta)) ++i;
      buckets.insert(i);
    }
    EXPECT_EQ(fused.stats.outer_iterations, buckets.size());
  }
}

}  // namespace
