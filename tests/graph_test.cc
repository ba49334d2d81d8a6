#include <gtest/gtest.h>

#include <cstdint>
#include <cstring>
#include <limits>
#include <string>
#include <vector>

#include "graph/graph.h"
#include "graph/graph_stats.h"
#include "graph/ranked_csr.h"
#include "motif/motif_counts.h"
#include "tests/graph_stats_oracle.h"
#include "ts/generators.h"
#include "util/random.h"
#include "util/statistics.h"
#include "vg/visibility_graph.h"

namespace mvg {
namespace {

Graph MakePath(size_t n) {
  GraphBuilder b(n);
  for (Graph::VertexId i = 0; i + 1 < n; ++i) b.AddEdge(i, i + 1);
  return b.Build();
}

Graph MakeComplete(size_t n) {
  GraphBuilder b(n);
  for (Graph::VertexId i = 0; i < n; ++i) {
    for (Graph::VertexId j = i + 1; j < n; ++j) b.AddEdge(i, j);
  }
  return b.Build();
}

Graph MakeRandom(size_t n, double p, uint64_t seed) {
  Rng rng(seed);
  GraphBuilder b(n);
  for (Graph::VertexId i = 0; i < n; ++i) {
    for (Graph::VertexId j = i + 1; j < n; ++j) {
      if (rng.Bernoulli(p)) b.AddEdge(i, j);
    }
  }
  return b.Build();
}

TEST(Graph, BasicConstruction) {
  GraphBuilder b(4);
  b.AddEdge(0, 1);
  b.AddEdge(1, 2);
  b.AddEdge(1, 2);  // duplicate
  b.AddEdge(3, 3);  // self loop ignored
  const Graph g = b.Build();
  EXPECT_EQ(g.num_vertices(), 4u);
  EXPECT_EQ(g.num_edges(), 2u);
  EXPECT_TRUE(g.HasEdge(0, 1));
  EXPECT_TRUE(g.HasEdge(2, 1));
  EXPECT_FALSE(g.HasEdge(0, 2));
  EXPECT_FALSE(g.HasEdge(3, 3));
  EXPECT_EQ(g.Degree(1), 2u);
}

TEST(Graph, EdgesListSorted) {
  Graph g = Graph::FromEdges(3, {{2, 1}, {0, 2}, {1, 0}});
  const auto edges = g.Edges();
  ASSERT_EQ(edges.size(), 3u);
  for (const auto& [u, v] : edges) EXPECT_LT(u, v);
}

TEST(Graph, AddEdgeOutOfRangeThrows) {
  GraphBuilder b(2);
  EXPECT_THROW(b.AddEdge(0, 5), std::out_of_range);
}

TEST(GraphStats, DensityCompleteAndEmpty) {
  EXPECT_DOUBLE_EQ(Density(MakeComplete(5)), 1.0);
  EXPECT_DOUBLE_EQ(Density(Graph(5)), 0.0);
  EXPECT_DOUBLE_EQ(Density(Graph(1)), 0.0);
}

TEST(GraphStats, DensityPath) {
  // Path on 4 vertices: 3 edges / 6 possible.
  EXPECT_DOUBLE_EQ(Density(MakePath(4)), 0.5);
}

TEST(GraphStats, DegreeStats) {
  const Graph g = MakePath(4);
  const DegreeStats st = ComputeDegreeStats(g);
  EXPECT_EQ(st.min, 1.0);
  EXPECT_EQ(st.max, 2.0);
  EXPECT_DOUBLE_EQ(st.mean, 1.5);
}

TEST(GraphStats, CoreNumbersOfClique) {
  const auto core = CoreNumbers(MakeComplete(5));
  for (size_t c : core) EXPECT_EQ(c, 4u);
  EXPECT_EQ(MaxCore(MakeComplete(5)), 4u);
}

TEST(GraphStats, CoreNumbersOfPath) {
  const auto core = CoreNumbers(MakePath(6));
  for (size_t c : core) EXPECT_EQ(c, 1u);
}

TEST(GraphStats, CoreNumbersTriangleWithTail) {
  // Triangle 0-1-2 plus tail 2-3: triangle vertices 2-core, tail 1-core.
  Graph g = Graph::FromEdges(4, {{0, 1}, {1, 2}, {0, 2}, {2, 3}});
  const auto core = CoreNumbers(g);
  EXPECT_EQ(core[0], 2u);
  EXPECT_EQ(core[1], 2u);
  EXPECT_EQ(core[2], 2u);
  EXPECT_EQ(core[3], 1u);
}

/// Brute-force k-core by repeated peeling, for cross-validation.
size_t BruteForceMaxCore(const Graph& g) {
  const size_t n = g.num_vertices();
  for (size_t k = n; k >= 1; --k) {
    std::vector<char> alive(n, 1);
    bool changed = true;
    while (changed) {
      changed = false;
      for (Graph::VertexId v = 0; v < n; ++v) {
        if (!alive[v]) continue;
        size_t d = 0;
        for (Graph::VertexId u : g.Neighbors(v)) d += alive[u];
        if (d < k) {
          alive[v] = 0;
          changed = true;
        }
      }
    }
    for (char a : alive) {
      if (a) return k;
    }
  }
  return 0;
}

TEST(GraphStats, MaxCoreMatchesBruteForceOnRandomGraphs) {
  for (uint64_t seed = 0; seed < 20; ++seed) {
    const Graph g = MakeRandom(24, 0.15 + 0.02 * static_cast<double>(seed), seed);
    EXPECT_EQ(MaxCore(g), BruteForceMaxCore(g)) << "seed=" << seed;
  }
}

TEST(GraphStats, AssortativityStarIsNegative) {
  // Star: hub degree n-1 connects to leaves of degree 1 -> maximally
  // disassortative.
  GraphBuilder b(6);
  for (Graph::VertexId i = 1; i < 6; ++i) b.AddEdge(0, i);
  EXPECT_NEAR(DegreeAssortativity(b.Build()), -1.0, 1e-9);
}

TEST(GraphStats, AssortativityRegularGraphDegenerate) {
  // Cycle: all degrees equal -> zero denominator -> defined as 0.
  GraphBuilder b(5);
  for (Graph::VertexId i = 0; i < 5; ++i) b.AddEdge(i, (i + 1) % 5);
  EXPECT_EQ(DegreeAssortativity(b.Build()), 0.0);
}

TEST(GraphStats, AssortativityMatchesPearsonOverEdgeEndpoints) {
  // Cross-check against an explicit Pearson correlation over the edge list
  // with both orientations (the standard definition).
  const Graph g = MakeRandom(30, 0.12, 99);
  std::vector<double> x, y;
  for (const auto& [u, v] : g.Edges()) {
    x.push_back(static_cast<double>(g.Degree(u)));
    y.push_back(static_cast<double>(g.Degree(v)));
    x.push_back(static_cast<double>(g.Degree(v)));
    y.push_back(static_cast<double>(g.Degree(u)));
  }
  const double expected = PearsonCorrelation(x, y);
  EXPECT_NEAR(DegreeAssortativity(g), expected, 1e-9);
}

TEST(GraphStats, Connectivity) {
  EXPECT_TRUE(IsConnected(MakePath(5)));
  EXPECT_FALSE(IsConnected(Graph::FromEdges(4, {{0, 1}, {2, 3}})));
  EXPECT_TRUE(IsConnected(Graph(0)));
}

TEST(GraphStats, ClusteringCliqueIsOne) {
  EXPECT_NEAR(AverageClustering(MakeComplete(6)), 1.0, 1e-12);
  EXPECT_NEAR(AverageClustering(MakePath(6)), 0.0, 1e-12);
}

// ---------------------------------------------------------------------------
// Coreness and assortativity on the ranked CSR, checked bit for bit against
// the id-sorted implementations they replaced (tests/graph_stats_oracle.h),
// through both the standalone wrappers and the fused path that reads the
// motif counter's scratch.
// ---------------------------------------------------------------------------

uint64_t Bits(double x) {
  uint64_t b;
  std::memcpy(&b, &x, sizeof b);
  return b;
}

/// Checks every statistic of `g` against the oracle. `scratch` is reused
/// across calls, so stale state from a larger earlier graph would show.
void ExpectMatchesOracle(const Graph& g, MotifScratch* scratch,
                         const std::string& label) {
  SCOPED_TRACE(label);
  const std::vector<size_t> want_core = oracle::CoreNumbers(g);
  const size_t want_max_core = oracle::MaxCore(g);
  const double want_assortativity = oracle::DegreeAssortativity(g);

  EXPECT_EQ(CoreNumbers(g), want_core);
  EXPECT_EQ(MaxCore(g), want_max_core);
  EXPECT_EQ(Bits(DegreeAssortativity(g)), Bits(want_assortativity));

  // The fused path: one CountMotifs pass, then the statistics read from
  // the scratch it leaves behind.
  CountMotifs(g, scratch);
  double stats[kNumGraphStatistics];
  WriteGraphStatistics(g, scratch->newman, scratch, stats);
  const DegreeStats ds = ComputeDegreeStats(g);
  EXPECT_EQ(Bits(stats[0]), Bits(Density(g)));
  EXPECT_EQ(Bits(stats[1]), Bits(ds.min));
  EXPECT_EQ(Bits(stats[2]), Bits(ds.mean));
  EXPECT_EQ(Bits(stats[3]), Bits(ds.max));
  EXPECT_EQ(Bits(stats[4]), Bits(static_cast<double>(want_max_core)));
  EXPECT_EQ(Bits(stats[5]), Bits(want_assortativity));
  for (size_t v = 0; v < g.num_vertices(); ++v) {
    ASSERT_EQ(scratch->core[scratch->rank[v]], want_core[v]) << "vertex " << v;
  }
}

Graph MakeRing(size_t n) {
  GraphBuilder b(n);
  for (Graph::VertexId i = 0; i < n; ++i) {
    b.AddEdge(i, static_cast<Graph::VertexId>((i + 1) % n));
  }
  return b.Build();
}

Graph MakeStar(size_t leaves) {
  GraphBuilder b(leaves + 1);
  for (Graph::VertexId i = 1; i <= leaves; ++i) b.AddEdge(0, i);
  return b.Build();
}

TEST(RankedGraphStats, EmptyAndSingleVertex) {
  MotifScratch scratch;
  ExpectMatchesOracle(Graph(0), &scratch, "n=0");
  ExpectMatchesOracle(Graph(1), &scratch, "n=1");
  EXPECT_EQ(MaxCore(Graph(0)), 0u);
  EXPECT_EQ(DegreeAssortativity(Graph(1)), 0.0);
}

TEST(RankedGraphStats, IsolatedVerticesAndDisjointUnions) {
  MotifScratch scratch;
  ExpectMatchesOracle(Graph(7), &scratch, "7 isolated");
  // K4 on 0..3, a triangle on 4..6, a path 7-8-9, isolated 10 and 11,
  // and a second K4 on 12..15.
  std::vector<std::pair<Graph::VertexId, Graph::VertexId>> edges;
  for (Graph::VertexId base : {0u, 12u}) {
    for (Graph::VertexId i = 0; i < 4; ++i) {
      for (Graph::VertexId j = i + 1; j < 4; ++j) {
        edges.emplace_back(base + i, base + j);
      }
    }
  }
  edges.insert(edges.end(), {{4, 5}, {5, 6}, {4, 6}, {7, 8}, {8, 9}});
  ExpectMatchesOracle(Graph::FromEdges(16, edges), &scratch,
                      "disjoint union");
  ExpectMatchesOracle(Graph::FromEdges(6, {{0, 1}, {2, 3}, {4, 5}}), &scratch,
                      "perfect matching");
}

TEST(RankedGraphStats, StarsPathsRingsAndCliques) {
  MotifScratch scratch;
  // A one-leaf star is a single edge: the denominator vanishes and the
  // assortativity is 0.0; wider stars are perfectly disassortative.
  EXPECT_EQ(DegreeAssortativity(MakeStar(1)), 0.0);
  for (size_t k = 1; k <= 12; ++k) {
    ExpectMatchesOracle(MakeStar(k), &scratch, "star " + std::to_string(k));
  }
  for (size_t n = 2; n <= 12; ++n) {
    ExpectMatchesOracle(MakePath(n), &scratch, "path " + std::to_string(n));
    ExpectMatchesOracle(MakeComplete(n), &scratch, "K" + std::to_string(n));
  }
  for (size_t n = 3; n <= 12; ++n) {
    ExpectMatchesOracle(MakeRing(n), &scratch, "ring " + std::to_string(n));
  }
  EXPECT_EQ(MaxCore(MakeComplete(9)), 8u);
  EXPECT_EQ(DegreeAssortativity(MakeRing(9)), 0.0);
}

TEST(RankedGraphStats, RandomGraphs) {
  MotifScratch scratch;
  uint64_t seed = 1;
  // Largest first, so every later graph runs on a scratch that already
  // holds a bigger graph's arrays.
  for (size_t n : {300, 120, 40, 9, 3}) {
    for (double p : {0.02, 0.1, 0.35, 0.8}) {
      ExpectMatchesOracle(MakeRandom(n, p, seed), &scratch,
                          "n=" + std::to_string(n) + " p=" +
                              std::to_string(p) + " seed=" +
                              std::to_string(seed));
      ++seed;
    }
  }
}

TEST(RankedGraphStats, VisibilityGraphsOfRandomWalks) {
  MotifScratch scratch;
  for (size_t n : {4096, 1000, 100, 16}) {
    for (uint64_t seed : {3, 4}) {
      const Series s = RandomWalk(n, seed);
      const std::string tag =
          "n=" + std::to_string(n) + " seed=" + std::to_string(seed);
      ExpectMatchesOracle(BuildVisibilityGraph(s), &scratch, "vg " + tag);
      ExpectMatchesOracle(BuildHorizontalVisibilityGraph(s), &scratch,
                          "hvg " + tag);
    }
  }
}

TEST(RankedGraphStats, NewmanCubeSumBound) {
  // sum_v d_v^3 on K_n is n (n - 1)^3. At the motif counter's vertex
  // limit it no longer fits in int64, but it does in uint64.
  const uint64_t n = kMaxMotifVertices;
  const uint64_t cube_sum = n * (n - 1) * (n - 1) * (n - 1);
  EXPECT_EQ(cube_sum, 9223547791334198190u);
  EXPECT_GT(cube_sum,
            static_cast<uint64_t>(std::numeric_limits<int64_t>::max()));
  EXPECT_TRUE(CubeSumFitsU64(kMaxMotifVertices));
  EXPECT_TRUE(CubeSumFitsU64(kMaxRankedVertices));
  EXPECT_FALSE(CubeSumFitsU64(kMaxRankedVertices + 1));
  // Below 9743 vertices the sum stays under 2^53, where the earlier
  // double accumulation was exact.
  EXPECT_LT(uint64_t{9742} * 9741 * 9741 * 9741, uint64_t{1} << 53);
  EXPECT_GT(uint64_t{9743} * 9742 * 9742 * 9742, uint64_t{1} << 53);

  NewmanSums sums;
  sums.Add(n - 1, n - 1);
  EXPECT_EQ(sums.sq, 2 * (n - 1) * (n - 1));
  EXPECT_EQ(sums.jk, (n - 1) * (n - 1));
  EXPECT_EQ(sums.sum, 2 * (n - 1));
}

TEST(RankedGraphStats, RankingRejectsOversizedGraphs) {
  RankedCsr csr;
  EXPECT_THROW(BuildRankedCsr(Graph(kMaxRankedVertices + 1), &csr),
               std::length_error);
  BuildRankedCsr(Graph(kMaxRankedVertices), &csr);
  EXPECT_EQ(PeelCores(&csr), 0u);
}

}  // namespace
}  // namespace mvg
