// Microbenchmarks for motif counting (paper §4.5: PGD-style counting is
// the potentially expensive step; these benches quantify it on real
// visibility graphs).

#include <benchmark/benchmark.h>

#include "motif/motif_counts.h"
#include "ts/generators.h"
#include "vg/visibility_graph.h"

namespace {

using namespace mvg;

void BM_CountMotifsOnVg(benchmark::State& state) {
  const Series s = GaussianNoise(static_cast<size_t>(state.range(0)), 3);
  const Graph g = BuildVisibilityGraph(s);
  for (auto _ : state) {
    benchmark::DoNotOptimize(CountMotifs(g));
  }
  state.counters["edges"] = static_cast<double>(g.num_edges());
}
BENCHMARK(BM_CountMotifsOnVg)->Range(64, 2048);

void BM_CountMotifsOnWalkVg(benchmark::State& state) {
  // Random-walk VGs carry the hub vertices that made full-adjacency
  // counting O(sum deg^2); counted through one pooled scratch, as the
  // extractor does.
  const Series s = RandomWalk(static_cast<size_t>(state.range(0)), 3);
  const Graph g = BuildVisibilityGraph(s);
  MotifScratch scratch;
  for (auto _ : state) {
    benchmark::DoNotOptimize(CountMotifs(g, &scratch));
  }
  state.counters["edges"] = static_cast<double>(g.num_edges());
}
BENCHMARK(BM_CountMotifsOnWalkVg)->Range(64, 2048);

void BM_CountMotifsOnHvg(benchmark::State& state) {
  const Series s = GaussianNoise(static_cast<size_t>(state.range(0)), 3);
  const Graph g = BuildHorizontalVisibilityGraph(s);
  for (auto _ : state) {
    benchmark::DoNotOptimize(CountMotifs(g));
  }
  state.counters["edges"] = static_cast<double>(g.num_edges());
}
BENCHMARK(BM_CountMotifsOnHvg)->Range(64, 4096);

void BM_BruteForceReference(benchmark::State& state) {
  // The O(n^4) enumerator — only viable on tiny graphs, which is why the
  // combinatorial counter exists.
  const Series s = GaussianNoise(static_cast<size_t>(state.range(0)), 3);
  const Graph g = BuildVisibilityGraph(s);
  for (auto _ : state) {
    benchmark::DoNotOptimize(CountMotifsBruteForce(g));
  }
}
BENCHMARK(BM_BruteForceReference)->Range(16, 64);

void BM_MotifProbabilityNormalisation(benchmark::State& state) {
  const Graph g = BuildVisibilityGraph(GaussianNoise(512, 3));
  const MotifCounts counts = CountMotifs(g);
  for (auto _ : state) {
    benchmark::DoNotOptimize(MotifProbabilityDistribution(counts));
  }
}
BENCHMARK(BM_MotifProbabilityNormalisation);

}  // namespace

BENCHMARK_MAIN();
