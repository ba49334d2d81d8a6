// Microbenchmarks for visibility-graph construction (paper §2.1/§4.5):
// the naive O(n^2) builder vs the divide-and-conquer builder, and the
// O(n) HVG. Verifies the complexity story behind the efficiency claims.

#include <benchmark/benchmark.h>

#include "ts/generators.h"
#include "vg/visibility_graph.h"

namespace {

using namespace mvg;

void BM_VgNaive(benchmark::State& state) {
  const Series s = GaussianNoise(static_cast<size_t>(state.range(0)), 1);
  for (auto _ : state) {
    benchmark::DoNotOptimize(BuildVisibilityGraph(s, VgAlgorithm::kNaive));
  }
  state.SetComplexityN(state.range(0));
}
BENCHMARK(BM_VgNaive)->Range(128, 4096)->Complexity(benchmark::oNSquared);

void BM_VgDivideConquer(benchmark::State& state) {
  const Series s = GaussianNoise(static_cast<size_t>(state.range(0)), 1);
  for (auto _ : state) {
    benchmark::DoNotOptimize(
        BuildVisibilityGraph(s, VgAlgorithm::kDivideConquer));
  }
  state.SetComplexityN(state.range(0));
}
BENCHMARK(BM_VgDivideConquer)->Range(128, 4096)->Complexity();

void BM_Hvg(benchmark::State& state) {
  const Series s = GaussianNoise(static_cast<size_t>(state.range(0)), 1);
  for (auto _ : state) {
    benchmark::DoNotOptimize(BuildHorizontalVisibilityGraph(s));
  }
  state.SetComplexityN(state.range(0));
}
BENCHMARK(BM_Hvg)->Range(128, 8192)->Complexity(benchmark::oN);

void BM_VgPooledWorkspace(benchmark::State& state) {
  // Steady-state pooled construction: the workspace (edge buffers,
  // counting-sort scratch, output CSR arrays) is reused across builds, so
  // iterations after the first allocate nothing.
  const Series s = GaussianNoise(static_cast<size_t>(state.range(0)), 1);
  VgWorkspace ws;
  for (auto _ : state) {
    benchmark::DoNotOptimize(
        BuildVisibilityGraph(s, &ws, VgAlgorithm::kDivideConquer));
  }
  state.SetComplexityN(state.range(0));
}
BENCHMARK(BM_VgPooledWorkspace)->Range(128, 4096)->Complexity();

void BM_VgDcOnSmoothSeries(benchmark::State& state) {
  // Smooth series have deep recursion structure (close to worst case for
  // D&C); noise is the friendly case.
  const Series s = Sine(static_cast<size_t>(state.range(0)), 64.0);
  for (auto _ : state) {
    benchmark::DoNotOptimize(
        BuildVisibilityGraph(s, VgAlgorithm::kDivideConquer));
  }
}
BENCHMARK(BM_VgDcOnSmoothSeries)->Range(128, 2048);

}  // namespace

BENCHMARK_MAIN();
