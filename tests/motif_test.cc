#include <fstream>
#include <numeric>
#include <sstream>
#include <stdexcept>

#include <gtest/gtest.h>

#include "motif/motif_counts.h"
#include "ts/generators.h"
#include "util/random.h"
#include "vg/visibility_graph.h"

namespace mvg {
namespace {

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

void ExpectSameCounts(const MotifCounts& a, const MotifCounts& b,
                      const std::string& context) {
  const auto aa = a.ToArray();
  const auto bb = b.ToArray();
  for (size_t i = 0; i < kNumMotifs; ++i) {
    EXPECT_EQ(aa[i], bb[i]) << context << " motif " << MotifNames()[i];
  }
}

TEST(MotifCounts, TriangleGraph) {
  Graph g = Graph::FromEdges(3, {{0, 1}, {1, 2}, {0, 2}});
  const MotifCounts c = CountMotifs(g);
  EXPECT_EQ(c.m21, 3);
  EXPECT_EQ(c.m22, 0);
  EXPECT_EQ(c.m31, 1);
  EXPECT_EQ(c.m32, 0);
}

TEST(MotifCounts, CliqueK4) {
  GraphBuilder b(4);
  for (Graph::VertexId i = 0; i < 4; ++i) {
    for (Graph::VertexId j = i + 1; j < 4; ++j) b.AddEdge(i, j);
  }
  const MotifCounts c = CountMotifs(b.Build());
  EXPECT_EQ(c.m41, 1);
  EXPECT_EQ(c.m42, 0);
  EXPECT_EQ(c.m31, 4);  // 4 triangles inside K4
}

TEST(MotifCounts, CycleC4) {
  Graph g = Graph::FromEdges(4, {{0, 1}, {1, 2}, {2, 3}, {3, 0}});
  const MotifCounts c = CountMotifs(g);
  EXPECT_EQ(c.m44, 1);
  EXPECT_EQ(c.m41, 0);
  EXPECT_EQ(c.m42, 0);
  EXPECT_EQ(c.m43, 0);
  EXPECT_EQ(c.m32, 4);
}

TEST(MotifCounts, DiamondAndStarAndPath) {
  // Diamond: chord (0,1), outer 2,3.
  Graph diamond =
      Graph::FromEdges(4, {{0, 1}, {0, 2}, {0, 3}, {1, 2}, {1, 3}});
  EXPECT_EQ(CountMotifs(diamond).m42, 1);
  // Star.
  Graph star = Graph::FromEdges(4, {{0, 1}, {0, 2}, {0, 3}});
  EXPECT_EQ(CountMotifs(star).m45, 1);
  // Path.
  Graph path = Graph::FromEdges(4, {{0, 1}, {1, 2}, {2, 3}});
  EXPECT_EQ(CountMotifs(path).m46, 1);
  // Tailed triangle.
  Graph tailed = Graph::FromEdges(4, {{0, 1}, {1, 2}, {0, 2}, {2, 3}});
  EXPECT_EQ(CountMotifs(tailed).m43, 1);
}

TEST(MotifCounts, DisconnectedShapes) {
  // Triangle + isolated vertex.
  Graph tri_k1 = Graph::FromEdges(4, {{0, 1}, {1, 2}, {0, 2}});
  EXPECT_EQ(CountMotifs(tri_k1).m47, 1);
  // Wedge + isolated vertex.
  Graph wedge_k1 = Graph::FromEdges(4, {{0, 1}, {1, 2}});
  EXPECT_EQ(CountMotifs(wedge_k1).m48, 1);
  // Two independent edges.
  Graph two_edges = Graph::FromEdges(4, {{0, 1}, {2, 3}});
  EXPECT_EQ(CountMotifs(two_edges).m49, 1);
  // One edge + two isolated vertices.
  Graph one_edge = Graph::FromEdges(4, {{0, 1}});
  EXPECT_EQ(CountMotifs(one_edge).m410, 1);
  // Empty graph on 4 vertices.
  EXPECT_EQ(CountMotifs(Graph(4)).m411, 1);
}

TEST(MotifCounts, TotalsAreSubsetCounts) {
  // Counts within each size must sum to C(n,k).
  const Graph g = MakeRandom(18, 0.3, 5);
  const MotifCounts c = CountMotifs(g);
  const int64_t n = 18;
  EXPECT_EQ(c.m21 + c.m22, n * (n - 1) / 2);
  EXPECT_EQ(c.m31 + c.m32 + c.m33 + c.m34, n * (n - 1) * (n - 2) / 6);
  EXPECT_EQ(c.m41 + c.m42 + c.m43 + c.m44 + c.m45 + c.m46 + c.m47 + c.m48 +
                c.m49 + c.m410 + c.m411,
            n * (n - 1) * (n - 2) * (n - 3) / 24);
}

struct RandomGraphCase {
  size_t n;
  double p;
  uint64_t seed;
};

class MotifPropertyTest : public ::testing::TestWithParam<RandomGraphCase> {};

TEST_P(MotifPropertyTest, FastCounterMatchesBruteForce) {
  const auto& pc = GetParam();
  const Graph g = MakeRandom(pc.n, pc.p, pc.seed);
  ExpectSameCounts(CountMotifs(g), CountMotifsBruteForce(g),
                   "n=" + std::to_string(pc.n) +
                       " p=" + std::to_string(pc.p) +
                       " seed=" + std::to_string(pc.seed));
}

INSTANTIATE_TEST_SUITE_P(
    RandomGraphs, MotifPropertyTest,
    ::testing::Values(
        RandomGraphCase{8, 0.1, 1}, RandomGraphCase{8, 0.5, 2},
        RandomGraphCase{8, 0.9, 3}, RandomGraphCase{12, 0.2, 4},
        RandomGraphCase{12, 0.4, 5}, RandomGraphCase{12, 0.7, 6},
        RandomGraphCase{16, 0.1, 7}, RandomGraphCase{16, 0.3, 8},
        RandomGraphCase{16, 0.6, 9}, RandomGraphCase{20, 0.15, 10},
        RandomGraphCase{20, 0.35, 11}, RandomGraphCase{24, 0.1, 12},
        RandomGraphCase{24, 0.25, 13}, RandomGraphCase{28, 0.2, 14},
        RandomGraphCase{32, 0.12, 15}));

TEST(MotifCounts, MatchesBruteForceOnVisibilityGraphs) {
  // The real use case: VGs/HVGs of small series. Random walks give
  // hub-heavy VGs with long degree-tie runs; the logistic map gives
  // chaotic, nearly tree-like ones.
  for (uint64_t seed = 0; seed < 6; ++seed) {
    const Series s = GaussianNoise(24, seed * 7 + 1);
    const Graph vg = BuildVisibilityGraph(s);
    const Graph hvg = BuildHorizontalVisibilityGraph(s);
    ExpectSameCounts(CountMotifs(vg), CountMotifsBruteForce(vg), "vg");
    ExpectSameCounts(CountMotifs(hvg), CountMotifsBruteForce(hvg), "hvg");
  }
  for (size_t n = 24; n <= 40; n += 8) {
    for (uint64_t seed = 1; seed <= 3; ++seed) {
      const std::string where =
          " n=" + std::to_string(n) + " seed=" + std::to_string(seed);
      const Series walk = RandomWalk(n, seed);
      const Series chaos =
          LogisticMap(n, 3.9, 0.05 + 0.15 * static_cast<double>(seed));
      for (const Series* s : {&walk, &chaos}) {
        const char* family = s == &walk ? "walk" : "logistic";
        const Graph vg = BuildVisibilityGraph(*s);
        const Graph hvg = BuildHorizontalVisibilityGraph(*s);
        ExpectSameCounts(CountMotifs(vg), CountMotifsBruteForce(vg),
                         std::string(family) + " vg" + where);
        ExpectSameCounts(CountMotifs(hvg), CountMotifsBruteForce(hvg),
                         std::string(family) + " hvg" + where);
      }
    }
  }
}

Graph Complete(size_t n) {
  GraphBuilder b(n);
  for (Graph::VertexId i = 0; i < n; ++i) {
    for (Graph::VertexId j = i + 1; j < n; ++j) b.AddEdge(i, j);
  }
  return b.Build();
}

Graph Cycle(size_t n) {
  GraphBuilder b(n);
  for (Graph::VertexId i = 0; i < n; ++i) {
    b.AddEdge(i, static_cast<Graph::VertexId>((i + 1) % n));
  }
  return b.Build();
}

/// Hub 0 joined to every vertex of the rim cycle 1..n-1.
Graph Wheel(size_t n) {
  GraphBuilder b(n);
  for (Graph::VertexId i = 1; i < n; ++i) {
    b.AddEdge(0, i);
    b.AddEdge(i, static_cast<Graph::VertexId>(i + 1 < n ? i + 1 : 1));
  }
  return b.Build();
}

Graph Star(size_t n) {
  GraphBuilder b(n);
  for (Graph::VertexId i = 1; i < n; ++i) b.AddEdge(0, i);
  return b.Build();
}

/// Complete bipartite K_{a,b}: vertices 0..a-1 against a..a+b-1.
Graph CompleteBipartite(size_t a, size_t b) {
  GraphBuilder builder(a + b);
  for (Graph::VertexId i = 0; i < a; ++i) {
    for (Graph::VertexId j = 0; j < b; ++j) {
      builder.AddEdge(i, static_cast<Graph::VertexId>(a + j));
    }
  }
  return builder.Build();
}

TEST(MotifCounts, MatchesBruteForceOnDegreeTieAndHubShapes) {
  // Regular graphs rank purely by id; wheels and stars put one hub above
  // a rim of equal degrees; K_{a,b} has two degree classes and no
  // triangles but many 4-cycles.
  std::vector<std::pair<std::string, Graph>> shapes;
  for (size_t n : {1, 2, 3, 4, 5, 9, 14}) {
    shapes.emplace_back("K" + std::to_string(n), Complete(n));
  }
  for (size_t n : {3, 4, 5, 8, 13}) {
    shapes.emplace_back("C" + std::to_string(n), Cycle(n));
  }
  for (size_t n : {4, 5, 6, 11}) {
    shapes.emplace_back("W" + std::to_string(n), Wheel(n));
  }
  for (size_t n : {2, 4, 7, 15}) {
    shapes.emplace_back("S" + std::to_string(n), Star(n));
  }
  for (const auto& [a, b] : {std::pair<size_t, size_t>{1, 1}, {2, 2},
                             {2, 5}, {3, 3}, {4, 7}, {6, 6}}) {
    shapes.emplace_back("K" + std::to_string(a) + "," + std::to_string(b),
                        CompleteBipartite(a, b));
  }
  for (const auto& [name, g] : shapes) {
    ExpectSameCounts(CountMotifs(g), CountMotifsBruteForce(g), name);
  }
  // Closed forms on the complete graph: every 4-set is a K4, and K_{a,b}
  // holds C(a,2) * C(b,2) induced 4-cycles.
  EXPECT_EQ(CountMotifs(Complete(14)).m41, 1001);
  EXPECT_EQ(CountMotifs(CompleteBipartite(4, 7)).m44, 6 * 21);
}

TEST(MotifCounts, PooledScratchMatchesFreshCounts) {
  // One scratch across graphs that grow, shrink and change shape must
  // never leak state from an earlier count into a later one.
  MotifScratch scratch;
  for (size_t n : {300, 17, 1024, 5, 0, 96, 2048, 40}) {
    for (uint64_t seed = 1; seed <= 2; ++seed) {
      const Series s = RandomWalk(n == 0 ? 1 : n, seed);
      const Graph vg = n == 0 ? Graph() : BuildVisibilityGraph(s);
      const Graph hvg = n == 0 ? Graph() : BuildHorizontalVisibilityGraph(s);
      const std::string where = " n=" + std::to_string(n);
      ExpectSameCounts(CountMotifs(vg, &scratch), CountMotifs(vg),
                       "vg" + where);
      ExpectSameCounts(CountMotifs(hvg, &scratch), CountMotifs(hvg),
                       "hvg" + where);
    }
  }
}

TEST(MotifCounts, VertexLimitGuardsTheFourSubsetTotal) {
  // C(55110, 4) is the last 4-subset total whose n(n-1)(n-2)(n-3)
  // numerator fits in int64.
  EXPECT_EQ(CountMotifs(Graph(kMaxMotifVertices)).m411,
            int64_t{384293570411971935});
  EXPECT_THROW(CountMotifs(Graph(kMaxMotifVertices + 1)), std::length_error);
}

Series FixtureSeries(const std::string& family, size_t n, uint64_t seed) {
  if (family == "GaussianNoise") return GaussianNoise(n, seed);
  if (family == "RandomWalk") return RandomWalk(n, seed);
  if (family == "LogisticMap") {
    return LogisticMap(n, 3.9, 0.05 + 0.15 * static_cast<double>(seed));
  }
  ADD_FAILURE() << "unknown fixture family " << family;
  return Series(n, 0.0);
}

TEST(MotifCounts, MatchesRecordedFixtureCounts) {
  // tests/fixtures/motif_counts.txt: the 17 counts of long VGs and HVGs
  // as recorded before the degree-ordered counter replaced the
  // full-adjacency one (see tests/fixtures/README.md).
  std::ifstream in(std::string(MVG_TEST_FIXTURE_DIR) + "/motif_counts.txt");
  ASSERT_TRUE(in.good());
  std::string line;
  size_t rows = 0;
  while (std::getline(in, line)) {
    if (line.empty() || line[0] == '#') continue;
    std::istringstream fields(line);
    std::string family, kind;
    size_t n = 0;
    uint64_t seed = 0;
    fields >> family >> kind >> n >> seed;
    MotifCounts want;
    fields >> want.m21 >> want.m22 >> want.m31 >> want.m32 >> want.m33 >>
        want.m34 >> want.m41 >> want.m42 >> want.m43 >> want.m44 >>
        want.m45 >> want.m46 >> want.m47 >> want.m48 >> want.m49 >>
        want.m410 >> want.m411;
    ASSERT_FALSE(fields.fail()) << line;
    const Series s = FixtureSeries(family, n, seed);
    const Graph g = kind == "vg" ? BuildVisibilityGraph(s)
                                 : BuildHorizontalVisibilityGraph(s);
    ExpectSameCounts(CountMotifs(g), want, line.substr(0, 32));
    ++rows;
  }
  EXPECT_EQ(rows, 24u);
}

TEST(MotifProbability, GroupsSumToOne) {
  const Graph g = MakeRandom(20, 0.3, 77);
  const auto p = MotifProbabilityDistribution(CountMotifs(g));
  const double g1 = p[0] + p[1];
  const double g2 = p[2] + p[3];
  const double g3 = p[4] + p[5];
  const double g4 = p[6] + p[7] + p[8] + p[9] + p[10] + p[11];
  const double g5 = p[12] + p[13] + p[14] + p[15] + p[16];
  EXPECT_NEAR(g1, 1.0, 1e-12);
  EXPECT_NEAR(g2, 1.0, 1e-12);
  EXPECT_NEAR(g3, 1.0, 1e-12);
  EXPECT_NEAR(g4, 1.0, 1e-12);
  EXPECT_NEAR(g5, 1.0, 1e-12);
  for (double v : p) {
    EXPECT_GE(v, 0.0);
    EXPECT_LE(v, 1.0);
  }
}

TEST(MotifProbability, EmptyGroupsAreZero) {
  // Path graph on 3 vertices has no 4-node connected motifs beyond those
  // possible; use an edgeless graph so connected groups are empty.
  const auto p = MotifProbabilityDistribution(CountMotifs(Graph(5)));
  EXPECT_EQ(p[0], 0.0);  // M21 group has mass only on M22
  EXPECT_EQ(p[1], 1.0);
  EXPECT_EQ(p[6], 0.0);  // no connected 4-motifs at all
}

TEST(MotifNamesTest, OrderAndSize) {
  const auto& names = MotifNames();
  EXPECT_EQ(names.size(), kNumMotifs);
  EXPECT_EQ(names[0], "M21");
  EXPECT_EQ(names[6], "M41");
  EXPECT_EQ(names[16], "M411");
}

}  // namespace
}  // namespace mvg
