// Hand-computed SSSP instances exercised against every implementation,
// via the shared fixture layer in test_support.hpp, and checks of the
// baselines themselves: Dijkstra against Bellman–Ford, and its radix heap.
#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <cmath>
#include <cstdint>
#include <initializer_list>
#include <limits>
#include <random>
#include <set>
#include <string>
#include <utility>
#include <vector>

#include "graph/edge_list.hpp"
#include "graph/generators.hpp"
#include "sssp/paths.hpp"
#include "sssp/radix_heap.hpp"
#include "sssp/solver.hpp"
#include "test_support.hpp"

namespace {

using dsg::EdgeList;
using dsg::kInfDist;
using dsg::test::Impl;
using grb::Index;

class AllImpls : public ::testing::TestWithParam<Impl> {};

INSTANTIATE_TEST_SUITE_P(Sssp, AllImpls,
                         ::testing::ValuesIn(dsg::test::all_sssp_impls()),
                         [](const auto& param_info) {
                           return param_info.param.name;
                         });

TEST_P(AllImpls, DiamondDigraph) {
  auto r = GetParam().fn(dsg::test::diamond_graph().to_matrix(), 0, 3.0);
  dsg::test::expect_distances(r.dist, dsg::test::diamond_distances_from_0(),
                              GetParam().name);
}

TEST_P(AllImpls, DiamondFromOtherSource) {
  auto r = GetParam().fn(dsg::test::diamond_graph().to_matrix(), 3, 2.0);
  dsg::test::expect_distances(r.dist, {9.0, 3.0, 4.0, 0.0, 2.0},
                              GetParam().name);
}

TEST_P(AllImpls, UnweightedPathGraphCountsHops) {
  auto r = GetParam().fn(dsg::test::path_graph(6).to_matrix(), 0, 1.0);
  dsg::test::expect_distances(r.dist, dsg::test::path_distances_from_0(6),
                              GetParam().name);
}

TEST_P(AllImpls, DisconnectedComponentStaysInfinite) {
  auto r = GetParam().fn(dsg::test::two_islands_graph().to_matrix(), 0, 1.0);
  dsg::test::expect_distances(
      r.dist, dsg::test::two_islands_distances_from_0(), GetParam().name);
}

TEST_P(AllImpls, ShorterLongRouteBeatsDirectEdge) {
  // Direct heavy edge 0->2 (10) loses to the two-hop light route (3).
  EdgeList g(3);
  g.add_edge(0, 2, 10.0);
  g.add_edge(0, 1, 1.0);
  g.add_edge(1, 2, 2.0);
  auto r = GetParam().fn(g.to_matrix(), 0, 2.5);
  EXPECT_DOUBLE_EQ(r.dist[2], 3.0);
}

TEST_P(AllImpls, SingleVertexGraph) {
  EdgeList g(1);
  auto r = GetParam().fn(g.to_matrix(), 0, 1.0);
  ASSERT_EQ(r.dist.size(), 1u);
  EXPECT_DOUBLE_EQ(r.dist[0], 0.0);
}

TEST_P(AllImpls, TwoVertexBothDirections) {
  EdgeList g(2);
  g.add_edge(0, 1, 2.5);
  g.add_edge(1, 0, 0.5);
  auto r = GetParam().fn(g.to_matrix(), 1, 1.0);
  EXPECT_DOUBLE_EQ(r.dist[0], 0.5);
  EXPECT_DOUBLE_EQ(r.dist[1], 0.0);
}

TEST_P(AllImpls, ZigzagRequiresReintroduction) {
  // Classic delta-stepping stress: improving a vertex within the same
  // bucket multiple times (light edge chains inside one bucket).
  auto r = GetParam().fn(dsg::test::zigzag_graph().to_matrix(), 0, 1.0);
  dsg::test::expect_distances(r.dist, dsg::test::zigzag_distances_from_0(),
                              GetParam().name);
}

// --- Baseline-specific checks. ----------------------------------------------

TEST(Dijkstra, ParentsFormShortestPathTree) {
  std::vector<Index> parent;
  auto r = dsg::dijkstra_with_parents(dsg::test::diamond_graph().to_matrix(),
                                      0, parent);
  EXPECT_EQ(parent[0], dsg::kNoParent);
  EXPECT_EQ(parent[3], 0u);
  EXPECT_EQ(parent[1], 3u);  // 0->3->1 = 8 beats 0->1 = 10
  EXPECT_EQ(parent[2], 1u);
  EXPECT_EQ(parent[4], 3u);
  // Tree edges are tight.
  auto a = dsg::test::diamond_graph().to_matrix();
  for (Index v = 1; v < 5; ++v) {
    auto w = a.extract_element(parent[v], v);
    ASSERT_TRUE(w.has_value());
    EXPECT_DOUBLE_EQ(r.dist[parent[v]] + *w, r.dist[v]);
  }
}

// --- Dijkstra against an independent oracle. --------------------------------
//
// dijkstra is the repository's oracle, so it is itself checked against
// bellman_ford, which shares no code with it: both reach the unique fixed
// point of d[v] = min fl(d[u] + w), so distances must agree bit for bit.
// Dijkstra settles each reachable vertex once and relaxes each of its
// out-edges once.  The plan entry, run on the solver's one reused
// Context, must agree with the legacy entry's local workspace.

std::uint64_t bits(double d) { return std::bit_cast<std::uint64_t>(d); }

void expect_dijkstra_matches_bellman_ford(const EdgeList& g,
                                          std::initializer_list<Index> sources) {
  const auto a = g.to_matrix();
  dsg::sssp::SolverOptions options;
  options.algorithm = dsg::sssp::Algorithm::kDijkstra;
  dsg::sssp::SsspSolver solver(a, options);
  for (const Index source : sources) {
    SCOPED_TRACE("source=" + std::to_string(source));
    const auto oracle = dsg::bellman_ford(a, source);
    const auto dij = dsg::dijkstra(a, source);
    const auto planned = solver.solve(source);
    ASSERT_EQ(dij.dist.size(), oracle.dist.size());
    ASSERT_EQ(planned.dist.size(), oracle.dist.size());
    std::uint64_t reached = 0;
    std::uint64_t out_edges = 0;
    for (Index v = 0; v < a.nrows(); ++v) {
      EXPECT_EQ(bits(dij.dist[v]), bits(oracle.dist[v])) << "vertex " << v;
      EXPECT_EQ(bits(planned.dist[v]), bits(oracle.dist[v])) << "vertex " << v;
      if (oracle.dist[v] != kInfDist) {
        ++reached;
        out_edges += a.row_indices(v).size();
      }
    }
    EXPECT_EQ(dij.stats.outer_iterations, reached);
    EXPECT_EQ(dij.stats.relax_requests, out_edges);
    EXPECT_EQ(planned.stats.outer_iterations, reached);
    EXPECT_EQ(planned.stats.relax_requests, out_edges);
  }
}

/// m random directed edges on n vertices, weights from `weight(rng)`.
template <typename WeightFn>
EdgeList random_digraph(Index n, std::size_t m, std::uint64_t seed,
                        WeightFn weight) {
  std::mt19937_64 rng(seed);
  std::uniform_int_distribution<Index> vertex(0, n - 1);
  EdgeList g(n);
  for (std::size_t e = 0; e < m; ++e) {
    const Index u = vertex(rng);
    const Index v = vertex(rng);
    g.add_edge(u, v, weight(rng));
  }
  return g;
}

TEST(DijkstraOracle, ZeroWeightEdges) {
  // Two in five edges weigh 0, so whole groups of vertices share one
  // distance and enter the heap under the key being taken.
  auto g = random_digraph(300, 1500, 1, [](std::mt19937_64& rng) {
    return rng() % 5 < 2 ? 0.0 : static_cast<double>(1 + rng() % 4);
  });
  g.add_edge(0, 1, 0.0);  // a zero-weight cycle through the source
  g.add_edge(1, 2, 0.0);
  g.add_edge(2, 0, 0.0);
  expect_dijkstra_matches_bellman_ford(g, {0, 7, 150});
}

TEST(DijkstraOracle, IntegerWeightsWithManyTies) {
  auto g = dsg::generate_grid2d(30, 30);
  std::mt19937_64 rng(2);
  for (auto& e : g.edges()) e.weight = static_cast<double>(1 + rng() % 3);
  expect_dijkstra_matches_bellman_ford(g, {0, 465, 899});
}

TEST(DijkstraOracle, WeightsFromSubnormalTo1e300) {
  // Exponents from the subnormal range up to 2^996 (~1e300): distance keys
  // differ from the last key taken in low and high bits alike, so entries
  // spread over the whole range of radix bins.
  auto g = random_digraph(300, 1500, 3, [](std::mt19937_64& rng) {
    const int exponent = -1074 + static_cast<int>(rng() % (996 + 1074 + 1));
    const double mantissa = 1.0 + static_cast<double>(rng() % 1024) / 1024.0;
    return std::ldexp(mantissa, exponent);
  });
  g.add_edge(0, 1, std::numeric_limits<double>::denorm_min());
  g.add_edge(1, 2, 1e300);
  expect_dijkstra_matches_bellman_ford(g, {0, 1, 42});
}

TEST(DijkstraOracle, DirectedGraphWithUnreachableVertices) {
  // Vertices 200..299 have out-edges only, into 0..199, and 250..299 have
  // no in-edges at all: from a source below 200 the top 100 stay +inf.
  auto g = random_digraph(200, 900, 4, [](std::mt19937_64& rng) {
    return 0.5 + static_cast<double>(rng() % 1000) / 100.0;
  });
  EdgeList wide(300, g.edges());
  for (Index u = 200; u < 300; ++u) wide.add_edge(u, u % 200, 1.0);
  for (Index u = 200; u < 250; ++u) wide.add_edge(u + 50, u, 2.0);
  expect_dijkstra_matches_bellman_ford(wide, {0, 199, 299});
}

TEST(RadixHeap, TakesEveryKeyInOrderAcrossEveryBin) {
  // A monotone sequence: after each take, push keys at or above the key
  // taken, differing from it in every bit position.  The heap must return
  // exactly what an ordered multiset returns.
  dsg::detail::RadixHeap heap;
  std::multiset<std::pair<std::uint64_t, Index>> expected;
  std::vector<dsg::detail::RadixEntry> batch;
  std::mt19937_64 rng(5);
  std::uint64_t last = 0;
  Index next_value = 0;
  auto push = [&](std::uint64_t key) {
    heap.push(key, next_value);
    expected.insert({key, next_value});
    ++next_value;
  };
  for (int bit = 0; bit < 64; ++bit) push(std::uint64_t{1} << bit);
  push(0);
  push(0);
  while (!heap.empty()) {
    const std::uint64_t key = heap.take_min(batch);
    ASSERT_GE(key, last);
    last = key;
    ASSERT_FALSE(batch.empty());
    for (const auto& e : batch) {
      ASSERT_EQ(e.key, key);
      ASSERT_EQ(expected.begin()->first, key);
      ASSERT_EQ(expected.erase({e.key, e.value}), 1u);
    }
    if (next_value < 2000) {
      for (int k = 0; k < 3; ++k) {
        const std::uint64_t offset = rng() >> (rng() % 64);
        push(last + std::min(offset, ~last));  // saturates at 2^64 - 1
      }
      push(last);  // equal keys come back from the next take
    }
  }
  EXPECT_TRUE(expected.empty());
  heap.clear();
  EXPECT_TRUE(heap.empty());
}

TEST(BellmanFord, HandlesNegativeEdgesOnDag) {
  EdgeList g(4);
  g.add_edge(0, 1, 4.0);
  g.add_edge(0, 2, 2.0);
  g.add_edge(2, 1, -1.0);
  g.add_edge(1, 3, 1.0);
  auto r = dsg::bellman_ford(g.to_matrix(), 0);
  EXPECT_DOUBLE_EQ(r.dist[1], 1.0);  // 0->2->1
  EXPECT_DOUBLE_EQ(r.dist[3], 2.0);
}

TEST(BellmanFord, DetectsNegativeCycle) {
  EdgeList g(3);
  g.add_edge(0, 1, 1.0);
  g.add_edge(1, 2, -2.0);
  g.add_edge(2, 1, 1.0);  // 1->2->1 loop of weight -1
  EXPECT_THROW(dsg::bellman_ford(g.to_matrix(), 0), grb::InvalidValue);
  EXPECT_THROW(dsg::bellman_ford_rounds(g.to_matrix(), 0), grb::InvalidValue);
}

TEST(BellmanFord, IgnoresUnreachableNegativeCycle) {
  EdgeList g(4);
  g.add_edge(0, 1, 1.0);
  g.add_edge(2, 3, -5.0);  // negative cycle island
  g.add_edge(3, 2, 1.0);
  auto r = dsg::bellman_ford(g.to_matrix(), 0);
  EXPECT_DOUBLE_EQ(r.dist[1], 1.0);
}

// --- Stats plumbing. ----------------------------------------------------------

TEST(SsspStats, BucketsCountedOnPathGraph) {
  EdgeList g(5);
  for (Index v = 0; v + 1 < 5; ++v) g.add_edge(v, v + 1, 1.0);
  dsg::DeltaSteppingOptions o;
  o.delta = 1.0;
  auto r = dsg::delta_stepping_fused(g.to_matrix(), 0, o);
  // Distances 0..4 with delta 1 -> 5 buckets processed.
  EXPECT_EQ(r.stats.outer_iterations, 5u);
  EXPECT_GE(r.stats.light_phases, 5u);
}

TEST(SsspStats, SingleBucketWhenDeltaHuge) {
  EdgeList g(5);
  for (Index v = 0; v + 1 < 5; ++v) g.add_edge(v, v + 1, 1.0);
  dsg::DeltaSteppingOptions o;
  o.delta = 1000.0;  // Bellman-Ford regime: one bucket, many phases
  auto r = dsg::delta_stepping_fused(g.to_matrix(), 0, o);
  EXPECT_EQ(r.stats.outer_iterations, 1u);
  EXPECT_GE(r.stats.light_phases, 4u);
}

}  // namespace
