#include "motif/motif_counts.h"

#include <algorithm>
#include <stdexcept>
#include <vector>

namespace mvg {

namespace {

int64_t Choose2(int64_t n) { return n < 2 ? 0 : n * (n - 1) / 2; }
int64_t Choose3(int64_t n) { return n < 3 ? 0 : n * (n - 1) * (n - 2) / 6; }
int64_t Choose4(int64_t n) {
  return n < 4 ? 0 : n * (n - 1) * (n - 2) * (n - 3) / 24;
}

/// Triangle-derived accumulators of the motif equations.
struct TriangleSums {
  int64_t triangles = 0;        // T
  int64_t k4 = 0;               // #K4
  int64_t tailed_raw = 0;       // sum_Delta (d_u + d_v + d_w - 6)
  int64_t path3_walks = 0;      // sum_e (d_u - 1)(d_v - 1)
  int64_t sum_tri_choose2 = 0;  // sum_e C(T_e, 2) -> diamonds
};

/// Every edge u -> v is visited once here, so the same loop also sums
/// Newman's assortativity terms into sc->newman.
/// Each triangle u < v < w (by rank) is found once, from edge u -> v, as
/// an out-neighbour w of v marked as an out-neighbour of u, and adds one
/// to the T_e entries of its three edges. Its K4 extensions u < v < w < x
/// are the out-neighbours x of w among the common out-neighbours of u and
/// v, so each K4 is found once too.
TriangleSums CountTrianglesAndCliques(MotifScratch* sc) {
  const uint32_t nv = static_cast<uint32_t>(sc->degree.size());
  const uint32_t* off = sc->offsets.data();
  const uint32_t* out_begin = sc->out_begin.data();
  const uint32_t* shift = sc->slot_shift.data();
  const VertexRank* adj = sc->adj.data();
  const VertexRank* deg = sc->degree.data();
  // T_e of out-list slot e lives at edge_triangles[e + 1]; entry 0 takes
  // the (zero) updates of non-triangles, so the scan below needs no branch.
  sc->edge_triangles.assign(off[nv] / 2 + 1, 0);
  sc->out_slot.assign(nv, 0);
  sc->common_tag.assign(nv, 0);
  SizeTo(&sc->common, nv);
  VertexRank* tri = sc->edge_triangles.data();
  uint32_t* out_slot = sc->out_slot.data();
  uint32_t* common_tag = sc->common_tag.data();
  VertexRank* common = sc->common.data();

  TriangleSums sums;
  NewmanSums newman;
  for (uint32_t u = 0; u < nv; ++u) {
    const uint32_t u_end = off[u + 1];
    for (uint32_t p = out_begin[u]; p < u_end; ++p) {
      out_slot[adj[p]] = p - shift[u] + 1;  // 0 = not an out-neighbour
    }
    const int64_t du = deg[u];
    for (uint32_t p = out_begin[u]; p < u_end; ++p) {
      const VertexRank v = adj[p];
      const int64_t dv = deg[v];
      sums.path3_walks += (du - 1) * (dv - 1);
      newman.Add(static_cast<uint64_t>(du), static_cast<uint64_t>(dv));
      // The slot of u -> v is unique in this count, so slot + 1 tags the
      // edge's common out-neighbours without a clearing pass.
      const uint32_t uv = p - shift[u];
      const uint32_t tag = uv + 1;
      uint32_t num_common = 0;
      int64_t common_degrees = 0;
      // Branch-free over out(v): whether w closes a triangle is close to a
      // coin flip on VGs, so every update is scaled by `hit` instead.
      // Stale tags of other edges never equal this edge's, so clearing a
      // miss's tag is harmless.
      const uint32_t shift_v = shift[v];
      for (uint32_t q = out_begin[v]; q < off[v + 1]; ++q) {
        const VertexRank w = adj[q];
        const uint32_t uw = out_slot[w];
        const uint32_t hit = uw != 0;
        tri[q - shift_v + 1] += hit;
        tri[uw] += hit;
        common[num_common] = w;
        num_common += hit;
        common_degrees += deg[w] & (0u - hit);
        common_tag[w] = tag & (0u - hit);
      }
      tri[uv + 1] += num_common;
      sums.triangles += num_common;
      sums.tailed_raw += (du + dv - 6) * num_common + common_degrees;
      if (num_common < 2) continue;
      // Out-lists are rank-sorted: past the last common vertex no x can
      // be common.
      const VertexRank last = common[num_common - 1];
      for (uint32_t i = 0; i + 1 < num_common; ++i) {
        const VertexRank w = common[i];
        for (uint32_t q = out_begin[w]; q < off[w + 1]; ++q) {
          const VertexRank x = adj[q];
          if (x > last) break;
          sums.k4 += common_tag[x] == tag;
        }
      }
    }
    for (uint32_t p = out_begin[u]; p < u_end; ++p) out_slot[adj[p]] = 0;
  }
  for (size_t e = 1; e < sc->edge_triangles.size(); ++e) {
    sums.sum_tri_choose2 += Choose2(tri[e]);
  }
  sc->newman = newman;
  return sums;
}

/// Non-induced 4-cycles, each counted once from its highest-rank vertex
/// u: 2-paths u - v - w with v, w < u, grouped by the far endpoint w;
/// C(paths, 2) picks the cycle's two halves. Lists are rank-sorted, so
/// the scan of N(v) stops at u.
int64_t CountFourCycles(MotifScratch* sc) {
  const uint32_t nv = static_cast<uint32_t>(sc->degree.size());
  const uint32_t* off = sc->offsets.data();
  const uint32_t* out_begin = sc->out_begin.data();
  const VertexRank* adj = sc->adj.data();
  sc->paths.assign(nv, 0);
  SizeTo(&sc->touched, size_t{nv} + 1);
  VertexRank* paths = sc->paths.data();
  VertexRank* touched = sc->touched.data();
  int64_t cycles = 0;
  for (uint32_t u = 0; u < nv; ++u) {
    uint32_t num_touched = 0;
    for (uint32_t p = off[u]; p < out_begin[u]; ++p) {
      const VertexRank v = adj[p];
      for (uint32_t q = off[v]; q < off[v + 1]; ++q) {
        const VertexRank w = adj[q];
        if (w >= u) break;
        // C(k + 1, 2) - C(k, 2) = k; the first visit of w registers it
        // for the reset.
        const uint32_t before = paths[w]++;
        cycles += before;
        touched[num_touched] = w;
        num_touched += before == 0;
      }
    }
    for (uint32_t i = 0; i < num_touched; ++i) paths[touched[i]] = 0;
  }
  return cycles;
}

}  // namespace

std::array<int64_t, kNumMotifs> MotifCounts::ToArray() const {
  return {m21, m22, m31, m32, m33, m34, m41, m42,  m43,
          m44, m45, m46, m47, m48, m49, m410, m411};
}

const std::array<std::string, kNumMotifs>& MotifNames() {
  static const std::array<std::string, kNumMotifs> kNames = {
      "M21", "M22", "M31", "M32", "M33", "M34", "M41", "M42", "M43",
      "M44", "M45", "M46", "M47", "M48", "M49", "M410", "M411"};
  return kNames;
}

MotifCounts CountMotifs(const Graph& g) {
  MotifScratch scratch;
  return CountMotifs(g, &scratch);
}

MotifCounts CountMotifs(const Graph& g, MotifScratch* sc) {
  if (g.num_vertices() > kMaxMotifVertices) {
    throw std::length_error(
        "CountMotifs: graph has more than kMaxMotifVertices vertices");
  }
  BuildRankedCsr(g, sc);
  const int64_t n = static_cast<int64_t>(g.num_vertices());
  const int64_t m = static_cast<int64_t>(g.num_edges());
  MotifCounts out;

  // ---- size 2 ----
  out.m21 = m;
  out.m22 = Choose2(n) - m;

  // ---- size 3 ----
  // W = number of wedges (2-walk centers), counts each triangle 3 times.
  int64_t wedges = 0;
  int64_t star_raw = 0;  // sum_v C(d_v, 3)
  for (const VertexRank d : sc->degree) {
    wedges += Choose2(d);
    star_raw += Choose3(d);
  }
  const TriangleSums ts = CountTrianglesAndCliques(sc);
  const int64_t triangles = ts.triangles;
  const int64_t k4 = ts.k4;
  out.m31 = triangles;
  out.m32 = wedges - 3 * triangles;
  out.m33 = m * (n - 2) - 2 * out.m32 - 3 * out.m31;
  out.m34 = Choose3(n) - out.m31 - out.m32 - out.m33;

  // ---- size 4, connected ----
  const int64_t noninduced_p4 = ts.path3_walks - 3 * triangles;
  const int64_t noninduced_c4 = CountFourCycles(sc);

  const int64_t diamond = ts.sum_tri_choose2 - 6 * k4;
  const int64_t tailed = ts.tailed_raw - 4 * diamond - 12 * k4;
  const int64_t cycle4 = noninduced_c4 - diamond - 3 * k4;
  const int64_t star = star_raw - tailed - 2 * diamond - 4 * k4;
  const int64_t path4 =
      noninduced_p4 - 2 * tailed - 4 * cycle4 - 6 * diamond - 12 * k4;

  out.m41 = k4;
  out.m42 = diamond;
  out.m43 = tailed;
  out.m44 = cycle4;
  out.m45 = star;
  out.m46 = path4;

  // ---- size 4, disconnected ----
  // Triangle + far vertex: (T, v) pairs minus those where v attaches.
  out.m47 = triangles * (n - 3) - tailed - 2 * diamond - 4 * k4;
  // Induced wedge + far vertex.
  out.m48 = out.m32 * (n - 3) -
            (2 * tailed + 2 * diamond + 4 * cycle4 + 3 * star + 2 * path4);
  // Two disjoint edges: every unordered pair of distinct edges sharing a
  // vertex corresponds to exactly one wedge, so disjoint pairs are
  // C(m,2) - wedges; subtract the pairs lying inside connected shapes that
  // contain a perfect matching on their 4 vertices.
  const int64_t disjoint = Choose2(m) - wedges;
  out.m49 = disjoint - (3 * k4 + 2 * diamond + 2 * cycle4 + tailed + path4);
  // Edge + 2 isolated vertices: edge-in-4-set incidences.
  out.m410 = m * Choose2(n - 2) -
             (6 * k4 + 5 * diamond + 4 * tailed + 4 * cycle4 + 3 * star +
              3 * path4 + 3 * out.m47 + 2 * out.m48 + 2 * out.m49);
  out.m411 = Choose4(n) - (k4 + diamond + tailed + cycle4 + star + path4 +
                           out.m47 + out.m48 + out.m49 + out.m410);
  return out;
}

MotifCounts CountMotifsBruteForce(const Graph& g) {
  const size_t n = g.num_vertices();
  MotifCounts out;
  // Size 2.
  for (Graph::VertexId a = 0; a < n; ++a) {
    for (Graph::VertexId b = a + 1; b < n; ++b) {
      g.HasEdge(a, b) ? ++out.m21 : ++out.m22;
    }
  }
  // Size 3.
  for (Graph::VertexId a = 0; a < n; ++a) {
    for (Graph::VertexId b = a + 1; b < n; ++b) {
      for (Graph::VertexId c = b + 1; c < n; ++c) {
        const int e = static_cast<int>(g.HasEdge(a, b)) +
                      static_cast<int>(g.HasEdge(a, c)) +
                      static_cast<int>(g.HasEdge(b, c));
        switch (e) {
          case 3: ++out.m31; break;
          case 2: ++out.m32; break;
          case 1: ++out.m33; break;
          default: ++out.m34; break;
        }
      }
    }
  }
  // Size 4: classify by edge count and degree multiset.
  for (Graph::VertexId a = 0; a < n; ++a) {
    for (Graph::VertexId b = a + 1; b < n; ++b) {
      for (Graph::VertexId c = b + 1; c < n; ++c) {
        for (Graph::VertexId d = c + 1; d < n; ++d) {
          const Graph::VertexId vs[4] = {a, b, c, d};
          int deg[4] = {0, 0, 0, 0};
          int e = 0;
          for (int i = 0; i < 4; ++i) {
            for (int j = i + 1; j < 4; ++j) {
              if (g.HasEdge(vs[i], vs[j])) {
                ++e;
                ++deg[i];
                ++deg[j];
              }
            }
          }
          std::sort(deg, deg + 4);
          switch (e) {
            case 6: ++out.m41; break;
            case 5: ++out.m42; break;
            case 4:
              (deg[0] == 2) ? ++out.m44 : ++out.m43;
              break;
            case 3:
              if (deg[3] == 3) {
                ++out.m45;          // star: degrees 1,1,1,3
              } else if (deg[0] == 1) {
                ++out.m46;          // path: degrees 1,1,2,2
              } else {
                ++out.m47;          // triangle + isolated: 0,2,2,2
              }
              break;
            case 2:
              (deg[0] == 0) ? ++out.m48 : ++out.m49;
              break;
            case 1: ++out.m410; break;
            default: ++out.m411; break;
          }
        }
      }
    }
  }
  return out;
}

std::array<double, kNumMotifs> MotifProbabilityDistribution(
    const MotifCounts& counts) {
  const std::array<int64_t, kNumMotifs> c = counts.ToArray();
  // Normalisation groups per paper §3.1, as index ranges into c.
  constexpr std::pair<size_t, size_t> kGroups[] = {
      {0, 2}, {2, 4}, {4, 6}, {6, 12}, {12, 17}};
  std::array<double, kNumMotifs> p{};
  for (const auto& [lo, hi] : kGroups) {
    int64_t total = 0;
    for (size_t i = lo; i < hi; ++i) total += c[i];
    if (total <= 0) continue;
    for (size_t i = lo; i < hi; ++i) {
      p[i] = static_cast<double>(c[i]) / static_cast<double>(total);
    }
  }
  return p;
}

}  // namespace mvg
