// Machine-readable performance suite for what the repo benchmark
// (perfbench, BENCHMARK.json) cannot see: vector kernels against their
// frozen scalar spellings, within-run stage ratios (sketch binning vs the
// exact sort, VG build vs motif count, GBT histogram build vs split
// search), and the serving runtime's concurrency and load paths (async
// micro-batching, mmap view load, sharded routing, instrumentation
// overhead). Byte-identity and allocation contracts are asserted exactly
// by the tier-1 ctest suites, not here.
//
// Unlike the micro_* binaries this has no Google Benchmark dependency, so
// it builds everywhere the library builds and is what CI's perf lane runs:
//
//   perf_suite                  human-readable table
//   perf_suite --json           + writes BENCH_perf_suite.json to the cwd
//   perf_suite --out FILE       JSON to a chosen path (implies --json)
//   perf_suite --check FILE     gate dimensionless metrics against a
//                               checked-in baseline (exit 1 on regression)
//   perf_suite --quick          smaller sizes/times (smoke-test mode)
//
// Raw ns/iter numbers are machine-dependent and are uploaded as artifacts
// for trend tracking only; the --check gate compares *ratios* (e.g. a
// vector kernel's speedup over its scalar spelling), which transfer
// across hosts.
//
// Quick mode shrinks sizes and time budgets but emits every gated metric.
// The gates are calibrated for full-size Release runs of the CI perf
// lane's -DMVG_NATIVE=ON build, so the tier-1 smoke (perf_suite_smoke)
// runs --quick --json without --check.

#include <algorithm>
#include <cctype>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <future>
#include <map>
#include <mutex>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "bench/legacy_kernels.h"
#include "core/feature_extractor.h"
#include "core/mvg_classifier.h"
#include "dist/shard_router.h"
#include "ml/feature_table.h"
#include "ml/hist_kernels.h"
#include "ml/quantile_sketch.h"
#include "motif/motif_counts.h"
#include "obs/metrics.h"
#include "obs/obs.h"
#include "serve/async_serving.h"
#include "serve/model_io.h"
#include "serve/model_mmap.h"
#include "serve/serving.h"
#include "ts/generators.h"
#include "ts/paged_ucr_reader.h"
#include "ts/ucr_io.h"
#include "util/aligned_buffer.h"
#include "util/random.h"
#include "util/simd.h"
#include "util/timer.h"
#include "vg/vg_kernels.h"
#include "vg/visibility_graph.h"

#if defined(__unix__) || defined(__APPLE__)
#include <sys/resource.h>
#endif
#if defined(__unix__)
#include <sys/types.h>
#include <sys/wait.h>
#include <unistd.h>
#endif

namespace {

using namespace mvg;

struct BenchResult {
  std::string name;
  size_t n = 0;
  size_t iters = 0;
  double ns_per_iter = 0.0;
};

struct SuiteOptions {
  bool quick = false;
  double min_seconds = 0.1;
  size_t min_iters = 3;
  int repetitions = 3;
};

/// Best-of-`repetitions` adaptive timing: each repetition runs fn until
/// both the iteration floor and the time floor are met; the fastest
/// repetition is reported (standard microbenchmark practice — the minimum
/// is the least noisy estimator on a shared machine).
template <typename Fn>
BenchResult TimeIt(const std::string& name, size_t n, const SuiteOptions& opt,
                   Fn&& fn) {
  fn();  // warmup
  BenchResult best{name, n, 0, 0.0};
  for (int rep = 0; rep < opt.repetitions; ++rep) {
    size_t iters = 0;
    WallTimer timer;
    do {
      fn();
      ++iters;
    } while (iters < opt.min_iters || timer.Seconds() < opt.min_seconds);
    const double ns = timer.Seconds() * 1e9 / static_cast<double>(iters);
    if (best.iters == 0 || ns < best.ns_per_iter) {
      best.iters = iters;
      best.ns_per_iter = ns;
    }
  }
  std::printf("  %-34s n=%-6zu %12.0f ns/iter  (%zu iters)\n", name.c_str(),
              n, best.ns_per_iter, best.iters);
  return best;
}

struct PairedTiming {
  BenchResult a, b;
  double ratio = 0.0;  ///< median over repetitions of a's ns / b's ns
};

/// Times `fa` and `fb` back to back in each of 3 * `repetitions`
/// repetitions (each side warmed, then run to the iteration and time
/// floors) and returns the median of the per-repetition ratios a / b. A
/// load spike on a shared host then moves both halves of one ratio
/// instead of skewing a best-of-N minimum on one side only. The rows
/// report each side's fastest repetition.
template <typename FnA, typename FnB>
PairedTiming TimePaired(const std::string& name_a, const std::string& name_b,
                        size_t n, const SuiteOptions& opt, FnA&& fa,
                        FnB&& fb) {
  const auto ns_per_call = [&](auto&& fn, size_t* iters) {
    fn();  // warmup
    WallTimer timer;
    size_t it = 0;
    do {
      fn();
      ++it;
    } while (it < opt.min_iters || timer.Seconds() < opt.min_seconds);
    *iters = it;
    return timer.Seconds() * 1e9 / static_cast<double>(it);
  };
  const auto keep_fastest = [](BenchResult* r, double ns, size_t iters) {
    if (r->iters == 0 || ns < r->ns_per_iter) {
      r->ns_per_iter = ns;
      r->iters = iters;
    }
  };
  PairedTiming out{{name_a, n, 0, 0.0}, {name_b, n, 0, 0.0}, 0.0};
  std::vector<double> ratios;
  for (int rep = 0; rep < 3 * opt.repetitions; ++rep) {
    size_t a_iters = 0, b_iters = 0;
    const double a = ns_per_call(fa, &a_iters);
    const double b = ns_per_call(fb, &b_iters);
    keep_fastest(&out.a, a, a_iters);
    keep_fastest(&out.b, b, b_iters);
    if (b > 0.0) ratios.push_back(a / b);
  }
  for (const BenchResult* r : {&out.a, &out.b}) {
    std::printf("  %-34s n=%-6zu %12.0f ns/iter  (%zu iters)\n",
                r->name.c_str(), r->n, r->ns_per_iter, r->iters);
  }
  if (!ratios.empty()) {
    std::sort(ratios.begin(), ratios.end());
    out.ratio = ratios[ratios.size() / 2];
  }
  return out;
}

/// Escape-aware scan of one JSON string literal; `i` must point at the
/// opening quote. Returns the index just past the closing quote and leaves
/// the raw (unescaped) contents in *out.
size_t ScanJsonString(const std::string& text, size_t i, std::string* out) {
  out->clear();
  ++i;  // opening quote
  while (i < text.size() && text[i] != '"') {
    if (text[i] == '\\' && i + 1 < text.size()) {
      out->push_back(text[i + 1]);
      i += 2;
    } else {
      out->push_back(text[i]);
      ++i;
    }
  }
  return i < text.size() ? i + 1 : i;
}

/// Extracts every `"key": <number>` pair from a flat-ish JSON document.
/// Good enough for baseline.json, which is kept flat by construction.
/// String values (e.g. the comment fields) are skipped whole, so their
/// contents — escaped quotes included — are never re-scanned as keys.
std::map<std::string, double> ParseJsonNumbers(const std::string& text) {
  std::map<std::string, double> out;
  std::string key, discard;
  size_t i = 0;
  while (i < text.size()) {
    if (text[i] != '"') {
      ++i;
      continue;
    }
    i = ScanJsonString(text, i, &key);
    while (i < text.size() && std::isspace(static_cast<unsigned char>(text[i]))) ++i;
    if (i >= text.size() || text[i] != ':') continue;
    ++i;
    while (i < text.size() && std::isspace(static_cast<unsigned char>(text[i]))) ++i;
    if (i < text.size() && text[i] == '"') {
      i = ScanJsonString(text, i, &discard);  // string value: skip entirely
      continue;
    }
    char* end = nullptr;
    const double value = std::strtod(text.c_str() + i, &end);
    if (end != text.c_str() + i) {
      out[key] = value;
      i = static_cast<size_t>(end - text.c_str());
    }
  }
  return out;
}

void WriteJson(const std::string& path, const std::vector<BenchResult>& results,
               const std::map<std::string, double>& metrics) {
  std::ofstream out(path);
  if (!out) {
    std::fprintf(stderr, "perf_suite: cannot open %s for writing\n",
                 path.c_str());
    std::exit(2);
  }
  out << "{\n  \"schema\": 1,\n  \"suite\": \"mvg_perf_suite\",\n";
#ifdef NDEBUG
  out << "  \"build_type\": \"Release\",\n";
#else
  out << "  \"build_type\": \"Debug\",\n";
#endif
  // Which vector backend the kernels were compiled with — reading a run's
  // artifact without this is ambiguous (an MVG_SIMD_OFF build reports
  // "scalar" and its kernel rows are the parity reference, not the fast
  // path).
  out << "  \"simd_backend\": \"" << mvg::simd::kBackendName << "\",\n";
  out << "  \"benchmarks\": [\n";
  for (size_t i = 0; i < results.size(); ++i) {
    const auto& r = results[i];
    out << "    {\"name\": \"" << r.name << "\", \"n\": "
        << r.n << ", \"iters\": " << r.iters << ", \"ns_per_iter\": "
        << r.ns_per_iter << "}" << (i + 1 < results.size() ? "," : "")
        << "\n";
  }
  out << "  ],\n  \"metrics\": {\n";
  size_t k = 0;
  for (const auto& [name, value] : metrics) {
    out << "    \"" << name << "\": " << value
        << (++k < metrics.size() ? "," : "") << "\n";
  }
  out << "  }\n}\n";
  std::printf("perf_suite: wrote %s\n", path.c_str());
}

int CheckAgainstBaseline(const std::string& baseline_path,
                         const std::map<std::string, double>& metrics) {
  std::ifstream in(baseline_path);
  if (!in) {
    std::fprintf(stderr, "perf_suite: cannot read baseline %s\n",
                 baseline_path.c_str());
    return 2;
  }
  std::stringstream buf;
  buf << in.rdbuf();
  std::map<std::string, double> baseline = ParseJsonNumbers(buf.str());
  const double tolerance =
      baseline.count("tolerance") ? baseline["tolerance"] : 0.25;
  baseline.erase("tolerance");
  baseline.erase("schema");
  // Per-metric overrides: "tolerance_<metric>" replaces the global
  // tolerance for that metric (0 makes an exactness gate exact).
  const std::string kTolerancePrefix = "tolerance_";
  std::map<std::string, double> tolerances;
  for (auto it = baseline.begin(); it != baseline.end();) {
    if (it->first.compare(0, kTolerancePrefix.size(), kTolerancePrefix) == 0) {
      tolerances[it->first.substr(kTolerancePrefix.size())] = it->second;
      it = baseline.erase(it);
    } else {
      ++it;
    }
  }

  int failures = 0;
  std::printf("\nBaseline check (%s, tolerance %.0f%% unless overridden):\n",
              baseline_path.c_str(), tolerance * 100.0);
  for (const auto& override_entry : tolerances) {
    if (baseline.count(override_entry.first) == 0) {
      std::printf("  FAIL %-40s tolerance override for an ungated metric\n",
                  override_entry.first.c_str());
      ++failures;
    }
  }
  for (const auto& [name, expected] : baseline) {
    const auto it = metrics.find(name);
    if (it == metrics.end()) {
      std::printf("  FAIL %-40s missing from this run\n", name.c_str());
      ++failures;
      continue;
    }
    // All gated metrics are higher-is-better ratios (speedups).
    const auto tol = tolerances.find(name);
    const double floor =
        expected * (1.0 - (tol != tolerances.end() ? tol->second : tolerance));
    const bool ok = it->second >= floor;
    std::printf("  %s %-40s %.3f (baseline %.3f, floor %.3f)\n",
                ok ? "ok  " : "FAIL", name.c_str(), it->second, expected,
                floor);
    if (!ok) ++failures;
  }
  if (failures > 0) {
    std::fprintf(stderr,
                 "perf_suite: %d metric(s) below their floor in %s\n",
                 failures, baseline_path.c_str());
    return 1;
  }
  std::printf("perf_suite: all %zu baseline metrics at or above their floor\n",
              baseline.size());
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  SuiteOptions opt;
  bool emit_json = false;
  std::string json_path = "BENCH_perf_suite.json";
  std::string baseline_path;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (arg == "--json") {
      emit_json = true;
    } else if (arg == "--out" && i + 1 < argc) {
      emit_json = true;
      json_path = argv[++i];
    } else if (arg == "--check" && i + 1 < argc) {
      baseline_path = argv[++i];
    } else if (arg == "--quick") {
      opt.quick = true;
      opt.min_seconds = 0.01;
      opt.min_iters = 1;
      opt.repetitions = 1;
    } else {
      std::fprintf(stderr,
                   "usage: perf_suite [--json] [--out FILE] [--check "
                   "BASELINE] [--quick]\n");
      return 2;
    }
  }

  std::vector<BenchResult> results;
  std::map<std::string, double> metrics;

  // --- Vector kernels: per-stage ns/element vs the frozen scalar loops ---
  // Each hot kernel is timed against its pre-SIMD spelling preserved in
  // bench/legacy_kernels.h; the simd_*_speedup gates compare the two, so
  // they measure the vectorization + cache-layout win in isolation (not
  // end-to-end effects). ns/element = ns/iter divided by elements
  // processed per call, printed alongside the raw rows. The gates are
  // calibrated for vectorized builds — an MVG_SIMD_OFF build measures
  // ~1.0 here and must not run --check (its role is the bit-parity lane).
  std::printf("Kernels (simd backend: %s):\n", simd::kBackendName);
  {
    const auto ns_per_element = [](const BenchResult& r) {
      return r.ns_per_iter / static_cast<double>(r.n);
    };
    const auto print_per_element = [&](const char* name,
                                       const BenchResult& r) {
      std::printf("  %-34s %10.3f ns/element\n", name, ns_per_element(r));
    };

    // Histogram accumulation: a mid-size training fold's FeatureTable,
    // every feature column scanned into a per-node class histogram.
    const size_t hist_rows = opt.quick ? 2048 : 16384;
    const size_t hist_feats = 32;
    const size_t num_classes = 3;
    Rng rng(123);
    Matrix hx(hist_rows, std::vector<double>(hist_feats));
    std::vector<size_t> hy(hist_rows);
    for (size_t i = 0; i < hist_rows; ++i) {
      for (size_t f = 0; f < hist_feats; ++f) {
        hx[i][f] = rng.Gaussian(0.0, 1.0);
      }
      hy[i] = i % num_classes;
    }
    FeatureTable ft;
    ft.Build(hx);
    std::vector<size_t> hrows(hist_rows);
    for (size_t i = 0; i < hist_rows; ++i) hrows[i] = i;
    RowStage stage;
    stage.Stage(hrows, hy, 0, hist_rows);
    AlignedBuffer<int64_t> hist(FeatureTable::kMaxBins * num_classes);
    uint16_t lo = 0, hi = 0;
    const auto clear_span = [&] {
      if (lo <= hi) {
        std::fill(hist.data() + lo * num_classes,
                  hist.data() + (hi + 1) * num_classes, int64_t{0});
      }
    };
    const size_t hist_elems = hist_rows * hist_feats;
    // The gate is TimePaired's median of back-to-back ratios.
    const PairedTiming hist_pair = TimePaired(
        "kernel_hist_legacy_scalar", "kernel_hist_class_scan", hist_elems,
        opt,
        [&] {
          for (size_t f = 0; f < hist_feats; ++f) {
            bench::LegacyClassScan(ft.column(f), hrows, hy, 0, hist_rows,
                                   num_classes, hist.data(), &lo, &hi);
            clear_span();
          }
        },
        [&] {
          for (size_t f = 0; f < hist_feats; ++f) {
            ClassScan(ft.column(f), stage, num_classes, hist.data(), &lo, &hi);
            clear_span();
          }
        });
    print_per_element("kernel_hist_class_scan", hist_pair.b);
    print_per_element("kernel_hist_legacy_scalar", hist_pair.a);
    results.push_back(hist_pair.b);
    results.push_back(hist_pair.a);
    metrics["simd_hist_build_speedup"] = hist_pair.ratio;

    // Visibility scans: one range's stage of the divide & conquer build —
    // range argmax plus both slope scans — on the full top-level range,
    // where the vector blocks (empty-mask skip, 4-lane max fold) actually
    // engage. A counting sink stands in for the CSR builder so no shared
    // representation cost dilutes the ratio; deeper recursion levels run
    // the same code on geometrically shorter ranges, where the scalar
    // tails take over (perfbench's vg.build_share tracks the whole
    // build).
    const size_t vg_n = opt.quick ? 1024 : 4096;
    const Series vg_s = GaussianNoise(vg_n, 19);
    size_t vg_sink = 0;
    // The gate is TimePaired's median of back-to-back ratios.
    const PairedTiming vg_pair = TimePaired(
        "kernel_vg_scan_scalar", "kernel_vg_scan_stage", vg_n, opt,
        [&] {
          vg_sink += bench::LegacyVisibilityScanStage(vg_s.data(), 0, vg_n - 1);
        },
        [&] {
          size_t edges = 0;
          const size_t k = RangeArgMax(vg_s.data(), 0, vg_n - 1);
          if (k < vg_n - 1) {
            VisibleRight(vg_s.data(), k, vg_n - 1, [&](size_t) { ++edges; });
          }
          if (k > 0) {
            VisibleLeft(vg_s.data(), 0, k, [&](size_t) { ++edges; });
          }
          vg_sink += edges + k;
        });
    if (vg_sink == static_cast<size_t>(-1)) std::puts("");  // defeat DCE
    print_per_element("kernel_vg_scan_stage", vg_pair.b);
    print_per_element("kernel_vg_scan_scalar", vg_pair.a);
    results.push_back(vg_pair.b);
    results.push_back(vg_pair.a);
    metrics["simd_vg_build_speedup"] = vg_pair.ratio;

    // GBT histogram update: the fixed-point grad/hess pair scan over the
    // staged rows — row-interleaved gh array + paired two-lane int64 cell
    // add vs the legacy separate grad/hess arrays with two strided stores
    // per row. (The
    // other per-round GBT loop, the logit update, ships as a plain
    // per-row descent: a four-row lockstep variant was benchmarked here
    // and lost above ~4k rows, so there is nothing to gate.)
    std::vector<int64_t> ggh(2 * hist_rows);
    std::vector<int64_t> ggrad(hist_rows), ghess(hist_rows);
    {
      Rng grng(321);
      for (size_t i = 0; i < hist_rows; ++i) {
        ggrad[i] = QuantizeGradHess(grng.Gaussian(0.0, 1.0));
        ghess[i] = QuantizeGradHess(grng.Uniform(0.1, 1.0));
        ggh[2 * i] = ggrad[i];
        ggh[2 * i + 1] = ghess[i];
      }
    }
    AlignedBuffer<int64_t> pair_hist(FeatureTable::kMaxBins * 2);
    const auto clear_pair_span = [&] {
      if (lo <= hi) {
        std::fill(pair_hist.data() + lo * 2, pair_hist.data() + (hi + 1) * 2,
                  int64_t{0});
      }
    };
    // The gate is TimePaired's median of back-to-back ratios.
    const PairedTiming gbt_pair = TimePaired(
        "kernel_gbt_pair_legacy", "kernel_gbt_pair_scan", hist_elems, opt,
        [&] {
          for (size_t f = 0; f < hist_feats; ++f) {
            bench::LegacyPairScan(ft.column(f), hrows, ggrad, ghess, 0,
                                  hist_rows, pair_hist.data(), &lo, &hi);
            clear_pair_span();
          }
        },
        [&] {
          for (size_t f = 0; f < hist_feats; ++f) {
            PairScan(ft.column(f), stage, ggh.data(), pair_hist.data(), &lo,
                     &hi);
            clear_pair_span();
          }
        });
    print_per_element("kernel_gbt_pair_scan", gbt_pair.b);
    print_per_element("kernel_gbt_pair_legacy", gbt_pair.a);
    results.push_back(gbt_pair.b);
    results.push_back(gbt_pair.a);
    metrics["simd_gbt_update_speedup"] = gbt_pair.ratio;

    // GBT training tail: building a node's fixed-point grad/hess
    // histogram (PairScan over every column, plus the Release that
    // re-zeroes its dirty span) over searching that histogram for the
    // best split (NodeSplitSearch over every column, as
    // GradientBoostingClassifier's tree builder runs it). A within-run
    // ratio on a fixed synthetic table — 64 columns x 256 bins, a root
    // node (all rows, contiguous) and a 64-row node (scattered rows, so
    // most bins in its span are empty) — so no frozen copy of an older
    // search loop lives in bench/. Higher is better; a faster scan lowers
    // it too, which the baseline comment records.
    {
      const size_t tail_rows = 2048, tail_cols = 64;
      Rng trng(77);
      Matrix tx(tail_rows, std::vector<double>(tail_cols));
      for (size_t i = 0; i < tail_rows; ++i) {
        for (size_t f = 0; f < tail_cols; ++f) {
          // The first 256 rows pin all 256 values, so every column has
          // exactly 256 bins.
          tx[i][f] = static_cast<double>(i < 256 ? i : trng.Index(256));
        }
      }
      FeatureTable tft;
      tft.Build(tx);
      std::vector<int64_t> tgh(2 * tail_rows);
      for (size_t i = 0; i < tail_rows; ++i) {
        tgh[2 * i] = QuantizeGradHess(trng.Gaussian(0.0, 1.0));
        tgh[2 * i + 1] = QuantizeGradHess(trng.Uniform(0.05, 0.25));
      }
      std::vector<size_t> tcols(tail_cols);
      for (size_t f = 0; f < tail_cols; ++f) tcols[f] = f;
      NodeHistogramPool tpool(tft, tcols, 2);
      RowStage tstage;
      SplitScratch tsplit;

      struct TailNode {
        std::vector<size_t> rows;
        GainNode gain;
        size_t buf = NodeHistogramPool::kNone;
      };
      std::vector<size_t> small = trng.Sample(tail_rows, 64);
      std::sort(small.begin(), small.end());
      std::vector<TailNode> tnodes(2);
      tnodes[0].rows.resize(tail_rows);
      for (size_t i = 0; i < tail_rows; ++i) tnodes[0].rows[i] = i;
      tnodes[1].rows = small;
      for (TailNode& nd : tnodes) {
        int64_t gq = 0, hq = 0;
        for (size_t r : nd.rows) {
          gq += tgh[2 * r];
          hq += tgh[2 * r + 1];
        }
        const double g = DequantizeGradHess(gq), h = DequantizeGradHess(hq);
        nd.gain = GainNode{g, h, 1.0, 1.0, g * g / (h + 1.0)};
      }
      const auto build = [&](const TailNode& nd) {
        const size_t b = tpool.Acquire();
        tstage.StageRows(nd.rows, 0, nd.rows.size());
        for (size_t j = 0; j < tail_cols; ++j) {
          PairScan(tft.column(j), tstage, tgh.data(),
                   tpool.hist(b) + tpool.slot_offset(j), tpool.lo(b) + j,
                   tpool.hi(b) + j);
        }
        return b;
      };
      size_t tail_sink = 0;
      std::vector<SplitSlot> tslots(tail_cols);
      const auto search = [&](const TailNode& nd) {
        for (size_t j = 0; j < tail_cols; ++j) {
          tslots[j].fh = tpool.hist(nd.buf) + tpool.slot_offset(j);
          tslots[j].lo = tpool.lo(nd.buf)[j];
          tslots[j].end =
              std::min<size_t>(tft.num_bins(j) - 1, tpool.hi(nd.buf)[j]);
        }
        double best = 1e-12;
        size_t bin = 0;
        tail_sink += NodeSplitSearch(tslots.data(), tail_cols, nd.gain,
                                     &tsplit, &best, &bin) +
                     bin;
      };
      // The gate is TimePaired's median of back-to-back ratios, over three
      // times the suite's repetitions (27 ratios in a full run, about 6 s):
      // the divider-bound search slows on its own when a neighbour shares
      // the core, and a loaded stretch of a few seconds could hold a
      // majority of nine ratios.
      for (TailNode& nd : tnodes) nd.buf = build(nd);
      SuiteOptions tail_opt = opt;
      tail_opt.repetitions = 3 * opt.repetitions;
      const PairedTiming tail = TimePaired(
          "gbt_tail_hist_build", "gbt_tail_split_search", tail_rows + 64,
          tail_opt,
          [&] {
            for (const TailNode& nd : tnodes) tpool.Release(build(nd));
          },
          [&] {
            for (const TailNode& nd : tnodes) search(nd);
          });
      if (tail_sink == static_cast<size_t>(-1)) std::puts("");  // defeat DCE
      results.push_back(tail.a);
      results.push_back(tail.b);
      if (tail.ratio > 0.0) metrics["gbt_scan_over_split_search"] = tail.ratio;
    }

    // Single-series predict tail latency through the full kernel stack
    // (extraction -> features -> trees) — the row the per-stage numbers
    // roll up into.
    const size_t series_len = 128;
    const size_t train_n = opt.quick ? 16 : 24;
    Dataset ktrain("kernel_train");
    for (size_t i = 0; i < train_n; ++i) {
      ktrain.Add(GaussianNoise(series_len, 11500 + i),
                 static_cast<int>(i % 2));
    }
    MvgClassifier::Config kconfig;
    kconfig.grid = GridPreset::kNone;
    MvgClassifier kclf(kconfig);
    kclf.Fit(ktrain);
    ServingSession ksession{std::move(kclf)};
    const Series kprobe = GaussianNoise(series_len, 11900);
    ksession.Predict(kprobe);  // warm the workspace pool
    const size_t kcalls = opt.quick ? 16 : 64;
    std::vector<double> kseconds(kcalls);
    for (size_t c = 0; c < kcalls; ++c) {
      WallTimer timer;
      ksession.Predict(kprobe);
      kseconds[c] = timer.Seconds();
    }
    std::sort(kseconds.begin(), kseconds.end());
    const size_t p99_idx =
        std::min(kcalls - 1,
                 static_cast<size_t>(0.99 * static_cast<double>(kcalls)));
    BenchResult kp99{"kernel_predict_single_p99", series_len, kcalls,
                     kseconds[p99_idx] * 1e9};
    std::printf("  %-34s n=%-6zu %12.0f ns/iter  (%zu iters)\n",
                kp99.name.c_str(), kp99.n, kp99.ns_per_iter, kp99.iters);
    results.push_back(kp99);
  }

  // --- FE pipeline: sketch binning + paged-fit memory ---
  // sketch_bin_build_speedup gates the one-pass sketch binning: cuts +
  // binned table via CutSketcher/InitFromCuts/BinRowInto vs the exact
  // FeatureTable::Build (full per-column sort) at a row count where the
  // exact sort leaves cache while the sketch's block-local compaction
  // stays L1-resident.
  // paged_fit_peak_rss_mb is informational (machine-dependent, not in the
  // baseline): peak RSS of a forked child running one FitPaged, the
  // number OPERATIONS.md's paged-training memory guidance is based on.
  std::printf("FE pipeline:\n");
  {
    // Sketch binning vs exact quantization, cuts + table end to end.
    const size_t bin_rows = opt.quick ? 4096 : 32768;
    const size_t bin_feats = 16;
    Rng brng(29);
    Matrix bx(bin_rows, std::vector<double>(bin_feats));
    for (auto& row : bx) {
      for (auto& v : row) v = brng.Gaussian();
    }
    FeatureTable exact_ft;
    FeatureTable sketch_ft;
    // The gate is TimePaired's median of back-to-back ratios.
    const PairedTiming bin_pair = TimePaired(
        "bin_build_exact_sort", "bin_build_sketch_stream",
        bin_rows * bin_feats, opt, [&] { exact_ft.Build(bx); },
        [&] {
          CutSketcher sketcher(FeatureTable::kMaxBins);
          sketcher.AddRows(bx, 1);
          CutSketcher::FeatureCuts fc = sketcher.Finish();
          sketch_ft.InitFromCuts(std::move(fc.cuts), std::move(fc.cut_offset),
                                 bx.size());
          for (size_t i = 0; i < bx.size(); ++i) {
            sketch_ft.BinRowInto(bx[i].data(), bx[i].size(), i);
          }
        });
    results.push_back(bin_pair.a);
    results.push_back(bin_pair.b);
    metrics["sketch_bin_build_speedup"] = bin_pair.ratio;

#if defined(__unix__)
    // Peak RSS of one out-of-core fit, isolated in a forked child so this
    // process's own high-water mark (the big benches above) cannot mask
    // it.
    {
      const size_t rss_rows = opt.quick ? 32 : 96;
      const size_t rss_len = 512;
      Dataset rss_train("fe_rss");
      for (size_t i = 0; i < rss_rows; ++i) {
        rss_train.Add(GaussianNoise(rss_len, 12000 + i),
                      static_cast<int>(i % 2));
      }
      const char* rss_path = "BENCH_fe_rss.csv";
      WriteUcrFile(rss_train, rss_path);
      int fds[2] = {-1, -1};
      if (pipe(fds) == 0) {
        const pid_t pid = fork();
        if (pid == 0) {
          close(fds[0]);
          long rss_kib = -1;
          try {
            MvgClassifier::Config config;
            config.grid = GridPreset::kNone;
            PagedUcrReader::Options popt;
            popt.page_rows = 16;
            PagedUcrReader reader(rss_path, popt);
            MvgClassifier clf(config);
            clf.FitPaged(&reader);
            struct rusage ru;
            if (getrusage(RUSAGE_SELF, &ru) == 0) rss_kib = ru.ru_maxrss;
          } catch (...) {
          }
          const ssize_t wrote = write(fds[1], &rss_kib, sizeof(rss_kib));
          close(fds[1]);
          _exit(wrote == sizeof(rss_kib) ? 0 : 1);
        }
        close(fds[1]);
        long rss_kib = -1;
        if (pid > 0) {
          if (read(fds[0], &rss_kib, sizeof(rss_kib)) != sizeof(rss_kib)) {
            rss_kib = -1;
          }
          int status = 0;
          waitpid(pid, &status, 0);
        }
        close(fds[0]);
        if (rss_kib > 0) {
          metrics["paged_fit_peak_rss_mb"] =
              static_cast<double>(rss_kib) / 1024.0;  // Linux: KiB
        }
      }
      std::remove(rss_path);
    }
#endif
  }

  VgWorkspace ws;
  // --- Motif counting vs graph construction on the same graph ---
  // A within-run ratio, so no frozen copy of an older counter has to
  // live in bench/: building a random-walk VG (hub-heavy, the motif
  // counter's worst input family) over counting its motifs through the
  // pooled scratch. Higher is better. A faster VG build lowers it too,
  // which the baseline comment records.
  std::printf("Motif counting:\n");
  {
    const size_t n = 1024;
    const Series s = RandomWalk(n, 13);
    const Graph g = BuildVisibilityGraph(s);
    // The gate is TimePaired's median of back-to-back ratios.
    const PairedTiming motif = TimePaired(
        "motif_walk_vg_build", "motif_walk_vg_count", n, opt,
        [&] { BuildVisibilityGraph(s, &ws); },
        [&] { CountMotifs(g, &ws.motif); });
    results.push_back(motif.a);
    results.push_back(motif.b);
    metrics["motif_walk_vg_build_over_count_n1024"] = motif.ratio;
  }

  // --- End-to-end extraction (Algorithm 1, the paper's column G) ---
  std::printf("Feature extraction:\n");
  const MvgFeatureExtractor fx(ConfigForHeuristicColumn('G'));
  for (size_t n : {size_t{256}, size_t{1024}}) {
    const Series s = GaussianNoise(n, 17);
    results.push_back(
        TimeIt("extract_col_g_pooled", n, opt, [&] { fx.Extract(s, &ws); }));
  }
  {
    // Batch path: ExtractAll pools one workspace per worker.
    const size_t batch = opt.quick ? 8 : 32;
    Dataset ds("perf_batch");
    for (size_t i = 0; i < batch; ++i) {
      ds.Add(GaussianNoise(256, 100 + i), static_cast<int>(i % 2));
    }
    results.push_back(TimeIt("extract_all_batch256", batch, opt,
                             [&] { fx.ExtractAll(ds, 1); }));
  }

  // --- Serving runtime: batch and streaming latency (informational) ---
  std::printf("Serving:\n");
  {
    const size_t train_n = opt.quick ? 16 : 24;
    const size_t series_len = 128;
    Dataset train("serve_train");
    for (size_t i = 0; i < train_n; ++i) {
      train.Add(GaussianNoise(series_len, 900 + i), static_cast<int>(i % 2));
    }
    MvgClassifier::Config config;
    config.grid = GridPreset::kNone;
    MvgClassifier clf(config);
    clf.Fit(train);

    // Round-trip through the on-disk format, then serve from the loaded
    // model only — exactly the production shape.
    const char* model_path = "BENCH_serve_model.mvg";
    SaveModel(clf, model_path);
    ServingSession session = ServingSession::FromFile(model_path);
    std::remove(model_path);

    const size_t batch_n = opt.quick ? 16 : 64;
    std::vector<Series> batch;
    batch.reserve(batch_n);
    for (size_t i = 0; i < batch_n; ++i) {
      batch.push_back(GaussianNoise(series_len, 2000 + i));
    }

    // Batch latency distribution (single worker: per-call latency, not
    // parallel throughput, is what a tail-latency SLO cares about).
    const size_t calls = opt.quick ? 8 : 40;
    std::vector<double> call_seconds(calls);
    for (size_t c = 0; c < calls; ++c) {
      WallTimer timer;
      session.PredictBatch(batch.data(), batch.size(), 1);
      call_seconds[c] = timer.Seconds();
    }
    std::sort(call_seconds.begin(), call_seconds.end());
    const auto percentile_ns = [&](double q) {
      const size_t idx = std::min(
          calls - 1, static_cast<size_t>(q * static_cast<double>(calls)));
      return call_seconds[idx] * 1e9;
    };
    BenchResult p50{"serve_predict_batch_p50", batch_n, calls,
                    percentile_ns(0.50)};
    BenchResult p99{"serve_predict_batch_p99", batch_n, calls,
                    percentile_ns(0.99)};
    std::printf("  %-34s n=%-6zu %12.0f ns/iter  (%zu iters)\n",
                p50.name.c_str(), p50.n, p50.ns_per_iter, p50.iters);
    std::printf("  %-34s n=%-6zu %12.0f ns/iter  (%zu iters)\n",
                p99.name.c_str(), p99.n, p99.ns_per_iter, p99.iters);
    results.push_back(p50);
    results.push_back(p99);

    // Single-sample streaming latency: window full, hop 1, so every push
    // re-extracts and classifies — the worst-case monitoring setting.
    StreamingClassifier::Options stream_opt;
    stream_opt.window = series_len;
    StreamingClassifier stream(&session.model(), stream_opt);
    const Series feed = GaussianNoise(4 * series_len, 3000);
    size_t cursor = 0;
    for (size_t i = 0; i < series_len; ++i) stream.Push(feed[cursor++]);
    results.push_back(TimeIt("serve_streaming_push", series_len, opt, [&] {
      stream.Push(feed[cursor++ % feed.size()]);
    }));
  }

  // --- serving_async: micro-batching front end ---
  // serve_async_throughput_x gates the micro-batching front end: 8
  // concurrent producers of single-series requests against (a) the
  // synchronous single-client ServingSession serialized by a mutex — the
  // only correct synchronous sharing — and (b) AsyncServingSession, whose
  // dispatcher coalesces the queue into batches fanned across the pool.
  // Calibrated for the multi-core CI perf lane; a single-core host runs
  // the async path at roughly parity (there is no parallelism for
  // batching to unlock).
  std::printf("serving_async:\n");
  {
    // Async micro-batching throughput under 8 concurrent producers.
    const size_t series_len = 128;
    const size_t train_n = opt.quick ? 16 : 24;
    Dataset train("async_train");
    for (size_t i = 0; i < train_n; ++i) {
      train.Add(GaussianNoise(series_len, 5200 + i), static_cast<int>(i % 2));
    }
    MvgClassifier::Config config;
    config.grid = GridPreset::kNone;
    MvgClassifier sync_clf(config);
    sync_clf.Fit(train);
    const char* model_path = "BENCH_async_model.mvg";
    SaveModel(sync_clf, model_path);

    const size_t producers = 8;
    const size_t per_producer = opt.quick ? 4 : 12;
    std::vector<std::vector<Series>> inputs(producers);
    for (size_t p = 0; p < producers; ++p) {
      for (size_t i = 0; i < per_producer; ++i) {
        inputs[p].push_back(GaussianNoise(series_len, 6000 + p * 100 + i));
      }
    }

    // (a) synchronous: one session, one mutex, one series at a time —
    // the documented way for concurrent clients to share ServingSession.
    // (b) async micro-batching on the shared executor pool. Both sessions
    // exist before any timing starts.
    ServingSession sync_session = ServingSession::FromFile(model_path);
    AsyncServingSession::Options async_opt;
    async_opt.batch_max = 32;
    async_opt.batch_timeout_ms = 2.0;
    AsyncServingSession async_session =
        AsyncServingSession::FromFile(model_path, async_opt);
    std::remove(model_path);
    std::mutex session_mu;
    const auto run_producers = [&](auto&& produce) {
      std::vector<std::thread> threads;
      for (size_t p = 0; p < producers; ++p) {
        threads.emplace_back([&, p]() { produce(inputs[p]); });
      }
      for (auto& t : threads) t.join();
    };
    // One call serves every producer's requests; the gate is TimePaired's
    // median of back-to-back sync / async ratios.
    const PairedTiming serve = TimePaired(
        "serve_sync_8producers", "serve_async_8producers",
        producers * per_producer, opt,
        [&] {
          run_producers([&](const std::vector<Series>& requests) {
            for (const Series& s : requests) {
              std::lock_guard<std::mutex> lock(session_mu);
              sync_session.PredictBatch(&s, 1, 1);
            }
          });
        },
        [&] {
          run_producers([&](const std::vector<Series>& requests) {
            std::vector<std::future<int>> futures;
            futures.reserve(requests.size());
            for (const Series& s : requests) {
              futures.push_back(async_session.Submit(s));
            }
            for (auto& f : futures) f.get();
          });
        });
    results.push_back(serve.a);
    results.push_back(serve.b);
    metrics["serve_async_throughput_x"] = serve.ratio;

    // Tail latency of the async path (enqueue -> completion), from the
    // session's own sliding latency window — informational rows.
    const AsyncServingSession::Stats stats = async_session.stats();
    BenchResult p50_row{"serve_async_latency_p50", producers, 1,
                        stats.p50_latency_ms * 1e6};
    BenchResult p99_row{"serve_async_latency_p99", producers, 1,
                        stats.p99_latency_ms * 1e6};
    std::printf("  %-34s n=%-6zu %12.0f ns/iter  (%zu iters)\n",
                p50_row.name.c_str(), p50_row.n, p50_row.ns_per_iter,
                p50_row.iters);
    std::printf("  %-34s n=%-6zu %12.0f ns/iter  (%zu iters)\n",
                p99_row.name.c_str(), p99_row.n, p99_row.ns_per_iter,
                p99_row.iters);
    results.push_back(p50_row);
    results.push_back(p99_row);
    metrics["serve_async_mean_batch_size"] = stats.mean_batch_size;
  }

  // --- mmap serving (the v3 model format) ---
  // mmap_load_speedup gates the O(1) construction win of the v3 layout:
  // the stream load reads the whole file, sweeps every payload CRC and
  // decodes every tree node into owned storage, while the mapped load
  // validates the section table (O(table)) and builds views — payload
  // pages fault in lazily on first use.
  std::printf("mmap load:\n");
  {
    const size_t rows = opt.quick ? 24 : 60;
    const size_t series_len = 96;
    Dataset train("mmap_bench");
    for (size_t i = 0; i < rows; ++i) {
      train.Add(GaussianNoise(series_len, 7100 + i), static_cast<int>(i % 2));
    }
    MvgClassifier::Config config;
    config.grid = GridPreset::kNone;
    MvgClassifier clf(config);
    clf.Fit(train);
    const char* model_path = "BENCH_mmap_model.mvg";
    SaveModel(clf, model_path);

    // The gate is TimePaired's median of back-to-back ratios.
    const PairedTiming load = TimePaired(
        "model_load_stream", "model_load_mmap", 1, opt,
        [&] { LoadModel(model_path); },
        [&] {
          MappedFile map(model_path);
          LoadModelView(map.data(), map.size());
        });
    results.push_back(load.a);
    results.push_back(load.b);
    metrics["mmap_load_speedup"] = load.ratio;

    std::remove(model_path);

#if defined(__unix__) || defined(__APPLE__)
    // Informational (machine-dependent, not in the baseline): peak RSS of
    // this process. The paged-training RSS win shows up when the raw
    // dataset dwarfs the extracted features; at bench sizes this is just
    // a tracking number for the artifact trail.
    struct rusage usage;
    if (getrusage(RUSAGE_SELF, &usage) == 0) {
      metrics["peak_rss_mb"] =
          static_cast<double>(usage.ru_maxrss) / 1024.0;  // Linux: KiB
    }
#endif
  }

  // --- Distributed: shard serving scaling ---
  // shard_serving_scaling gates the router's throughput win: the same
  // request batch through a 4-shard process fleet vs a single shard over
  // the identical wire protocol (so framing overhead cancels and the
  // ratio isolates the process-parallel serving win). Calibrated for
  // 1-core CI runners, where the gain comes from pipelining overlap
  // rather than true parallelism — multi-core hosts clear the floor with
  // a wide margin.
  std::printf("Distributed:\n");
  {
    // Shard scaling: one model file, one batch, 1 vs 4 worker processes.
    const size_t series_len = 128;
    const size_t train_n = opt.quick ? 16 : 24;
    Dataset train("shard_train");
    for (size_t i = 0; i < train_n; ++i) {
      train.Add(GaussianNoise(series_len, 9100 + i), static_cast<int>(i % 2));
    }
    MvgClassifier::Config config;
    config.grid = GridPreset::kNone;
    MvgClassifier clf(config);
    clf.Fit(train);
    const char* model_path = "BENCH_shard_model.mvg";
    SaveModel(clf, model_path);

    const size_t batch_n = opt.quick ? 24 : 64;
    std::vector<Series> batch;
    batch.reserve(batch_n);
    for (size_t i = 0; i < batch_n; ++i) {
      batch.push_back(GaussianNoise(series_len, 9500 + i));
    }

    // Both fleets are spawned and warmed (every worker's workspace pool)
    // before timing; the gate is TimePaired's median of back-to-back
    // 1-shard / 4-shard ratios.
    const auto spawn = [&](size_t shards) {
      ShardRouter::Options ropt;
      ropt.model_path = model_path;
      ropt.num_shards = shards;
      ShardRouter router = ShardRouter::SpawnLocal(ropt);
      router.PredictBatch(batch);
      return router;
    };
    ShardRouter router1 = spawn(1);
    ShardRouter router4 = spawn(4);
    std::remove(model_path);
    const PairedTiming route = TimePaired(
        "route_batch_1shard", "route_batch_4shards", batch_n, opt,
        [&] { router1.PredictBatch(batch); },
        [&] { router4.PredictBatch(batch); });
    results.push_back(route.a);
    results.push_back(route.b);
    metrics["shard_serving_scaling"] = route.ratio;
  }

  // --- Metrics overhead: the observability subsystem's <2% contract ---
  // The same hot-path workloads (serving PredictBatch, a small training
  // fit) timed with instrumentation disabled (obs::SetEnabled(false)) and
  // enabled, back to back per repetition (TimePaired); the gated ratios
  // are the medians of t_disabled / t_enabled, so 1.0 means free and
  // 0.98 is the 2% budget from docs/OBSERVABILITY.md. metrics_overhead
  // (the gated key) is the worse of the two paths. The obs_* rows are
  // informational micro costs of one sharded-counter increment and one
  // histogram observation.
  std::printf("Metrics overhead:\n");
  {
    const bool was_enabled = obs::Enabled();

    obs::MetricsRegistry micro_reg;
    obs::Counter* micro_counter =
        micro_reg.RegisterCounter("bench_counter_total", "micro");
    obs::Histogram* micro_hist = micro_reg.RegisterHistogram(
        "bench_hist_seconds", "micro", obs::TimingBucketsSeconds());
    results.push_back(TimeIt("obs_counter_inc_x1024", 1024, opt, [&] {
      for (int i = 0; i < 1024; ++i) micro_counter->Inc();
    }));
    results.push_back(TimeIt("obs_histogram_observe_x1024", 1024, opt, [&] {
      for (int i = 0; i < 1024; ++i) {
        micro_hist->Observe(static_cast<double>(i) * 1e-6);
      }
    }));

    // Serving hot path: single-worker PredictBatch from a loaded model,
    // the same shape the Serving section times.
    const size_t series_len = 128;
    const size_t train_n = opt.quick ? 16 : 24;
    Dataset train("obs_train");
    for (size_t i = 0; i < train_n; ++i) {
      train.Add(GaussianNoise(series_len, 9900 + i), static_cast<int>(i % 2));
    }
    MvgClassifier::Config config;
    config.grid = GridPreset::kNone;
    MvgClassifier clf(config);
    clf.Fit(train);
    ServingSession session{std::move(clf)};
    const size_t batch_n = opt.quick ? 16 : 64;
    std::vector<Series> batch;
    batch.reserve(batch_n);
    for (size_t i = 0; i < batch_n; ++i) {
      batch.push_back(GaussianNoise(series_len, 10500 + i));
    }
    const auto serve_batch = [&](bool enabled) {
      obs::SetEnabled(enabled);
      session.PredictBatch(batch.data(), batch.size(), 1);
    };
    const PairedTiming serve = TimePaired(
        "serve_batch_obs_off", "serve_batch_obs_on", batch_n, opt,
        [&] { serve_batch(false); }, [&] { serve_batch(true); });

    // Training hot path: spans fire per GBT round, counters per node
    // build and split sweep — the densest instrumentation in the tree.
    const auto fit_once = [&](bool enabled) {
      obs::SetEnabled(enabled);
      MvgClassifier::Config c;
      c.grid = GridPreset::kNone;
      c.num_threads = 1;
      MvgClassifier fresh(c);
      fresh.Fit(train);
    };
    const PairedTiming fit = TimePaired(
        "train_fit_obs_off", "train_fit_obs_on", train_n, opt,
        [&] { fit_once(false); }, [&] { fit_once(true); });
    obs::SetEnabled(was_enabled);
    for (const PairedTiming* p : {&serve, &fit}) {
      results.push_back(p->a);
      results.push_back(p->b);
    }

    if (serve.ratio > 0.0 && fit.ratio > 0.0) {
      metrics["metrics_overhead_serving"] = serve.ratio;
      metrics["metrics_overhead_training"] = fit.ratio;
      metrics["metrics_overhead"] = std::min(serve.ratio, fit.ratio);
    }
  }

  for (const auto& [name, value] : metrics) {
    std::printf("metric %-40s %.3f\n", name.c_str(), value);
  }

  if (emit_json) WriteJson(json_path, results, metrics);
  if (!baseline_path.empty()) return CheckAgainstBaseline(baseline_path, metrics);
  return 0;
}
