#include "graph/graph_stats.h"

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <queue>
#include <vector>

#include "graph/graph_kernels.h"

namespace mvg {

double Density(const Graph& g) {
  const double n = static_cast<double>(g.num_vertices());
  if (n < 2.0) return 0.0;
  return 2.0 * static_cast<double>(g.num_edges()) / (n * (n - 1.0));
}

DegreeStats ComputeDegreeStats(const Graph& g) {
  // Degrees are adjacent differences of the CSR offset array; one sweep
  // folds min and max (the degree sum is 2|E| by the handshake lemma).
  DegreeStats st;
  const size_t n = g.num_vertices();
  if (n == 0) return st;
  const size_t* off = g.offset_data();
  size_t mn = off[1] - off[0];
  size_t mx = mn;
  for (size_t v = 1; v < n; ++v) {
    const size_t d = off[v + 1] - off[v];
    mn = std::min(mn, d);
    mx = std::max(mx, d);
  }
  st.min = static_cast<double>(mn);
  st.max = static_cast<double>(mx);
  st.mean = 2.0 * static_cast<double>(g.num_edges()) / static_cast<double>(n);
  return st;
}

std::vector<size_t> CoreNumbers(const Graph& g) {
  RankedCsr csr;
  BuildRankedCsr(g, &csr);
  PeelCores(&csr);
  std::vector<size_t> core(g.num_vertices());
  for (size_t v = 0; v < core.size(); ++v) core[v] = csr.core[csr.rank[v]];
  return core;
}

size_t MaxCore(const Graph& g) {
  RankedCsr csr;
  BuildRankedCsr(g, &csr);
  return PeelCores(&csr);
}

double DegreeAssortativity(const Graph& g) {
  RankedCsr csr;
  BuildRankedCsr(g, &csr);
  return AssortativityFromSums(SumNewmanTerms(csr), g.num_edges());
}

void WriteGraphStatistics(const Graph& g, const NewmanSums& newman,
                          RankedCsr* csr, double* out) {
  const size_t n = g.num_vertices();
  const bool empty = csr->degree.empty();
  out[0] = Density(g);
  out[1] = empty ? 0.0 : static_cast<double>(csr->degree.front());
  out[2] = empty ? 0.0
                 : 2.0 * static_cast<double>(g.num_edges()) /
                       static_cast<double>(n);
  out[3] = empty ? 0.0 : static_cast<double>(csr->degree.back());
  out[4] = static_cast<double>(PeelCores(csr));
  out[5] = AssortativityFromSums(newman, g.num_edges());
}

bool IsConnected(const Graph& g) {
  const size_t n = g.num_vertices();
  if (n <= 1) return true;
  std::vector<char> seen(n, 0);
  std::queue<Graph::VertexId> q;
  q.push(0);
  seen[0] = 1;
  size_t count = 1;
  while (!q.empty()) {
    const Graph::VertexId u = q.front();
    q.pop();
    for (Graph::VertexId v : g.Neighbors(u)) {
      if (!seen[v]) {
        seen[v] = 1;
        ++count;
        q.push(v);
      }
    }
  }
  return count == n;
}

std::vector<double> BetweennessCentrality(const Graph& g) {
  // Brandes (2001): one BFS per source with dependency accumulation.
  const size_t n = g.num_vertices();
  std::vector<double> centrality(n, 0.0);
  std::vector<int64_t> dist(n);
  std::vector<double> sigma(n), delta(n);
  std::vector<std::vector<Graph::VertexId>> preds(n);
  std::vector<Graph::VertexId> order;
  order.reserve(n);
  for (Graph::VertexId s = 0; s < n; ++s) {
    std::fill(dist.begin(), dist.end(), -1);
    std::fill(sigma.begin(), sigma.end(), 0.0);
    std::fill(delta.begin(), delta.end(), 0.0);
    for (auto& p : preds) p.clear();
    order.clear();
    std::queue<Graph::VertexId> q;
    dist[s] = 0;
    sigma[s] = 1.0;
    q.push(s);
    while (!q.empty()) {
      const Graph::VertexId v = q.front();
      q.pop();
      order.push_back(v);
      for (Graph::VertexId w : g.Neighbors(v)) {
        if (dist[w] < 0) {
          dist[w] = dist[v] + 1;
          q.push(w);
        }
        if (dist[w] == dist[v] + 1) {
          sigma[w] += sigma[v];
          preds[w].push_back(v);
        }
      }
    }
    for (auto it = order.rbegin(); it != order.rend(); ++it) {
      const Graph::VertexId w = *it;
      for (Graph::VertexId v : preds[w]) {
        delta[v] += sigma[v] / sigma[w] * (1.0 + delta[w]);
      }
      if (w != s) centrality[w] += delta[w];
    }
  }
  // Each shortest path counted from both endpoints in an undirected graph.
  for (double& c : centrality) c /= 2.0;
  return centrality;
}

std::vector<double> NormalizeBetweenness(std::vector<double> centrality,
                                         size_t num_vertices) {
  if (num_vertices < 3) return centrality;
  const double scale = 2.0 / (static_cast<double>(num_vertices - 1) *
                              static_cast<double>(num_vertices - 2));
  for (double& c : centrality) c *= scale;
  return centrality;
}

double DegreeDistributionEntropy(const Graph& g) {
  // Counting buckets indexed by degree replace the ordered map (one flat
  // array, no node allocations); iterating the buckets ascending visits
  // the same (degree, count) pairs in the same order, so the entropy sum
  // is bit-identical to the map version.
  const size_t n = g.num_vertices();
  if (n == 0) return 0.0;
  size_t max_degree = 0;
  for (Graph::VertexId v = 0; v < n; ++v) {
    max_degree = std::max(max_degree, g.Degree(v));
  }
  std::vector<int64_t> hist(max_degree + 1, 0);
  for (Graph::VertexId v = 0; v < n; ++v) ++hist[g.Degree(v)];
  double h = 0.0;
  for (size_t d = 0; d <= max_degree; ++d) {
    if (hist[d] == 0) continue;
    const double p = static_cast<double>(hist[d]) / static_cast<double>(n);
    h -= p * std::log(p);
  }
  return h;
}

double AverageClustering(const Graph& g) {
  // links(v) = edges among N(v) = sum over u in N(v) of
  // |{w in N(v) : w > u} ∩ N(u)| — each adjacent pair counted at its
  // smaller endpoint. The sorted-intersection kernel replaces the
  // O(d^2 log d) per-pair HasEdge probes; the link count is an integer
  // either way, so every per-vertex coefficient (and their sum, taken in
  // the same v order) is unchanged bit for bit.
  const size_t n = g.num_vertices();
  if (n == 0) return 0.0;
  double acc = 0.0;
  for (Graph::VertexId v = 0; v < n; ++v) {
    const Graph::NeighborSpan nb = g.Neighbors(v);
    const size_t d = nb.size();
    if (d < 2) continue;
    int64_t links = 0;
    for (size_t i = 0; i + 1 < d; ++i) {
      const Graph::NeighborSpan nu = g.Neighbors(nb[i]);
      const size_t start = FirstGreater(nu.data(), nu.size(), nb[i]);
      links += CountSortedIntersection(nb.data() + i + 1, d - i - 1,
                                       nu.data() + start, nu.size() - start);
    }
    acc += 2.0 * static_cast<double>(links) /
           (static_cast<double>(d) * static_cast<double>(d - 1));
  }
  return acc / static_cast<double>(n);
}

}  // namespace mvg
