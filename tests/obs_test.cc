// Contract tests for the observability subsystem (src/obs): exact
// counting under concurrency, Prometheus cumulative-bucket semantics,
// histogram-quantile parity against an exact sort, byte-stable text
// exposition, associative registry merge, serialize round-trips, and
// the runtime enable gate.

#include <algorithm>
#include <chrono>
#include <cmath>
#include <limits>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

#include "obs/metrics.h"
#include "obs/obs.h"

namespace mvg {
namespace obs {
namespace {

TEST(CounterTest, ConcurrentIncrementsSumExactly) {
  MetricsRegistry reg;
  Counter* c = reg.RegisterCounter("t_total", "concurrent adds");
  constexpr size_t kThreads = 8;
  constexpr uint64_t kPerThread = 20000;
  std::vector<std::thread> threads;
  for (size_t t = 0; t < kThreads; ++t) {
    threads.emplace_back([c] {
      for (uint64_t i = 0; i < kPerThread; ++i) c->Inc();
    });
  }
  for (std::thread& t : threads) t.join();
  // Sharded relaxed adds must never lose an increment: the sum over all
  // shards is exact once every writer has joined.
  EXPECT_EQ(c->Value(), kThreads * kPerThread);
}

TEST(CounterTest, IncByNAndZero) {
  Counter c;
  c.Inc(5);
  c.Inc();
  EXPECT_EQ(c.Value(), 6u);
  c.Zero();
  EXPECT_EQ(c.Value(), 0u);
}

TEST(GaugeTest, SetMaxIsRaiseOnly) {
  Gauge g;
  g.SetMax(10);
  g.SetMax(3);  // lower: ignored
  EXPECT_EQ(g.Value(), 10);
  g.SetMax(12);
  EXPECT_EQ(g.Value(), 12);
  g.Set(-4);  // Set is last-writer-wins, not raise-only
  EXPECT_EQ(g.Value(), -4);
  g.Add(6);
  EXPECT_EQ(g.Value(), 2);
}

TEST(HistogramTest, BucketBoundariesAreCumulativeUpperBounds) {
  // Prometheus semantics: bucket i counts v <= bounds[i] (upper bound
  // INclusive); everything above the last finite bound lands in +Inf.
  Histogram h({1.0, 2.0, 4.0});
  h.Observe(0.5);  // bucket 0
  h.Observe(1.0);  // bucket 0 (le is inclusive)
  h.Observe(1.5);  // bucket 1
  h.Observe(4.0);  // bucket 2
  h.Observe(9.0);  // +Inf
  std::vector<uint64_t> buckets;
  double sum = 0.0;
  EXPECT_EQ(h.Snapshot(&buckets, &sum), 5u);
  ASSERT_EQ(buckets.size(), 4u);  // 3 finite + the implicit +Inf
  EXPECT_EQ(buckets[0], 2u);
  EXPECT_EQ(buckets[1], 1u);
  EXPECT_EQ(buckets[2], 1u);
  EXPECT_EQ(buckets[3], 1u);
  EXPECT_DOUBLE_EQ(sum, 0.5 + 1.0 + 1.5 + 4.0 + 9.0);
  EXPECT_EQ(h.Count(), 5u);
}

TEST(HistogramTest, NanObservationsAreSkipped) {
  Histogram h({1.0});
  h.Observe(std::nan(""));
  h.Observe(0.5);
  EXPECT_EQ(h.Count(), 1u);
}

TEST(HistogramTest, RejectsBadBoundaries) {
  EXPECT_THROW(Histogram(std::vector<double>{}), std::invalid_argument);
  EXPECT_THROW(Histogram({1.0, 1.0}), std::invalid_argument);
  EXPECT_THROW(Histogram({2.0, 1.0}), std::invalid_argument);
}

TEST(HistogramTest, QuantileMatchesExactSortWithinBucketResolution) {
  // Feed a known workload through both a histogram and an exact sorted
  // vector: the interpolated histogram quantile must land in the same
  // bucket as the exact nearest-rank answer — that is the resolution
  // the exposition promises (and what stats() percentiles report).
  const std::vector<double> bounds = {0.001, 0.002, 0.005, 0.01, 0.02,
                                      0.05,  0.1,   0.2,   0.5};
  Histogram h(bounds);
  std::vector<double> exact;
  // Deterministic skewed workload: most observations small, a tail of
  // stragglers — the shape request latencies actually have.
  for (int i = 0; i < 900; ++i) {
    const double v = 0.001 + 0.004 * (static_cast<double>(i % 100) / 100.0);
    h.Observe(v);
    exact.push_back(v);
  }
  for (int i = 0; i < 100; ++i) {
    const double v = 0.05 + 0.10 * (static_cast<double>(i % 10) / 10.0);
    h.Observe(v);
    exact.push_back(v);
  }
  std::sort(exact.begin(), exact.end());
  const auto bucket_of = [&](double v) {
    size_t b = 0;
    while (b < bounds.size() && v > bounds[b]) ++b;
    return b;
  };
  for (const double q : {0.50, 0.90, 0.99}) {
    const size_t rank = static_cast<size_t>(
        std::ceil(q * static_cast<double>(exact.size())));
    const double exact_q = exact[rank == 0 ? 0 : rank - 1];
    const double est = h.Quantile(q);
    EXPECT_EQ(bucket_of(est), bucket_of(exact_q))
        << "q=" << q << " est=" << est << " exact=" << exact_q;
    // Interpolation also keeps the estimate inside the bucket's range.
    EXPECT_LE(est, bounds[bucket_of(exact_q)]);
  }
  EXPECT_EQ(h.Quantile(1.0), h.Quantile(1.0));  // never NaN
  Histogram empty({1.0});
  EXPECT_EQ(empty.Quantile(0.5), 0.0);
}

TEST(RegistryTest, RegistrationIsIdempotentAndTypeChecked) {
  MetricsRegistry reg;
  Counter* c = reg.RegisterCounter("a_total", "help");
  EXPECT_EQ(reg.RegisterCounter("a_total", "help"), c);
  EXPECT_THROW(reg.RegisterGauge("a_total", "help"), std::invalid_argument);
  Histogram* h = reg.RegisterHistogram("b_seconds", "help", {1.0, 2.0});
  EXPECT_EQ(reg.RegisterHistogram("b_seconds", "help", {1.0, 2.0}), h);
  EXPECT_THROW(reg.RegisterHistogram("b_seconds", "help", {1.0, 3.0}),
               std::invalid_argument);
  EXPECT_THROW(reg.RegisterCounter("bad name", "help"),
               std::invalid_argument);
  // Label variants are distinct instruments of the same family.
  Counter* c0 = reg.RegisterCounter("c_total", "help", "shard=\"0\"");
  Counter* c1 = reg.RegisterCounter("c_total", "help", "shard=\"1\"");
  EXPECT_NE(c0, c1);
  EXPECT_EQ(reg.FindCounter("c_total", "shard=\"1\""), c1);
  EXPECT_EQ(reg.FindCounter("missing_total"), nullptr);
  EXPECT_EQ(reg.FindGauge("a_total"), nullptr);  // wrong type
  EXPECT_EQ(reg.size(), 4u);
}

/// A small registry with one of everything, in a known state.
void FillRegistry(MetricsRegistry* reg, uint64_t scale) {
  reg->RegisterCounter("req_total", "requests", "shard=\"0\"")->Inc(3 * scale);
  reg->RegisterCounter("req_total", "requests", "shard=\"1\"")->Inc(5 * scale);
  reg->RegisterGauge("depth", "queue depth")->Add(static_cast<int64_t>(scale));
  Histogram* h = reg->RegisterHistogram("lat_seconds", "latency", {0.1, 1.0});
  for (uint64_t i = 0; i < scale; ++i) {
    h->Observe(0.05);
    h->Observe(0.5);
    h->Observe(2.0);
  }
}

TEST(RegistryTest, PrometheusTextIsByteStable) {
  MetricsRegistry a, b;
  FillRegistry(&a, 2);
  FillRegistry(&b, 2);
  const std::string text = a.PrometheusText();
  // Same state => byte-identical exposition, whether re-rendered from
  // the same registry or built independently.
  EXPECT_EQ(text, a.PrometheusText());
  EXPECT_EQ(text, b.PrometheusText());
  // Spot-check the format: HELP/TYPE once per family, cumulative
  // buckets with an explicit +Inf, _sum and _count lines.
  EXPECT_NE(text.find("# HELP req_total requests\n"), std::string::npos);
  EXPECT_NE(text.find("# TYPE req_total counter\n"), std::string::npos);
  EXPECT_EQ(text.find("# TYPE req_total counter",
                      text.find("# TYPE req_total counter") + 1),
            std::string::npos);  // TYPE emitted once despite two children
  EXPECT_NE(text.find("req_total{shard=\"0\"} 6\n"), std::string::npos);
  EXPECT_NE(text.find("req_total{shard=\"1\"} 10\n"), std::string::npos);
  EXPECT_NE(text.find("lat_seconds_bucket{le=\"0.1\"} 2\n"),
            std::string::npos);
  EXPECT_NE(text.find("lat_seconds_bucket{le=\"1\"} 4\n"), std::string::npos);
  EXPECT_NE(text.find("lat_seconds_bucket{le=\"+Inf\"} 6\n"),
            std::string::npos);
  EXPECT_NE(text.find("lat_seconds_count 6\n"), std::string::npos);
  EXPECT_NE(text.find("# TYPE depth gauge\n"), std::string::npos);
}

TEST(RegistryTest, JsonTextContainsState) {
  MetricsRegistry reg;
  FillRegistry(&reg, 1);
  const std::string json = reg.JsonText();
  EXPECT_EQ(json, reg.JsonText());  // stable too
  EXPECT_NE(json.find("\"req_total\""), std::string::npos);
  EXPECT_NE(json.find("\"lat_seconds\""), std::string::npos);
}

TEST(RegistryTest, SerializeRoundTripsThroughEmptyRegistry) {
  MetricsRegistry src;
  FillRegistry(&src, 3);
  MetricsRegistry dst;
  // Merge into an empty registry registers every instrument and copies
  // the values: the exposition must come back byte-identical.
  dst.MergeSerialized(src.SerializeState());
  EXPECT_EQ(dst.PrometheusText(), src.PrometheusText());
  EXPECT_THROW(dst.MergeSerialized("not a snapshot"), std::runtime_error);
}

TEST(RegistryTest, MergeIsAssociativeAndAdditive) {
  MetricsRegistry a1, b1, c1, a2, b2, c2;
  FillRegistry(&a1, 1);
  FillRegistry(&b1, 2);
  FillRegistry(&c1, 5);
  FillRegistry(&a2, 1);
  FillRegistry(&b2, 2);
  FillRegistry(&c2, 5);

  // left = merge(merge(A, B), C); right = merge(A, merge(B, C)).
  MetricsRegistry left;
  left.MergeSerialized(a1.SerializeState());
  left.MergeSerialized(b1.SerializeState());
  left.MergeSerialized(c1.SerializeState());
  b2.MergeSerialized(c2.SerializeState());
  MetricsRegistry right;
  right.MergeSerialized(a2.SerializeState());
  right.MergeSerialized(b2.SerializeState());
  // All integer state (counters, gauges, bucket counts) is exactly
  // associative; the histogram's double sum is associative only up to
  // FP rounding — the association order changes the last ulp.
  for (const char* labels : {"shard=\"0\"", "shard=\"1\""}) {
    EXPECT_EQ(left.FindCounter("req_total", labels)->Value(),
              right.FindCounter("req_total", labels)->Value());
  }
  EXPECT_EQ(left.FindGauge("depth")->Value(),
            right.FindGauge("depth")->Value());
  std::vector<uint64_t> lb, rb;
  double lsum = 0.0, rsum = 0.0;
  EXPECT_EQ(left.FindHistogram("lat_seconds")->Snapshot(&lb, &lsum),
            right.FindHistogram("lat_seconds")->Snapshot(&rb, &rsum));
  EXPECT_EQ(lb, rb);
  EXPECT_DOUBLE_EQ(lsum, rsum);

  // Additive: counters sum, histogram counts sum.
  EXPECT_EQ(left.FindCounter("req_total", "shard=\"0\"")->Value(),
            3u * (1 + 2 + 5));
  EXPECT_EQ(left.FindHistogram("lat_seconds")->Count(), 3u * (1 + 2 + 5));
}

TEST(RegistryTest, MergeFromRegistryObject) {
  MetricsRegistry a, b;
  FillRegistry(&a, 1);
  FillRegistry(&b, 2);
  a.MergeFrom(b);
  EXPECT_EQ(a.FindCounter("req_total", "shard=\"1\"")->Value(), 5u * 3);
}

TEST(RegistryTest, ZeroAllValuesKeepsInstrumentsRegistered) {
  MetricsRegistry reg;
  FillRegistry(&reg, 4);
  Counter* c = reg.FindCounter("req_total", "shard=\"0\"");
  ASSERT_NE(c, nullptr);
  reg.ZeroAllValues();
  EXPECT_EQ(reg.size(), 4u);  // still registered...
  EXPECT_EQ(c->Value(), 0u);  // ...but all values reset
  EXPECT_EQ(reg.FindHistogram("lat_seconds")->Count(), 0u);
  c->Inc();  // pointers stay live for post-fork reuse
  EXPECT_EQ(c->Value(), 1u);
}

TEST(RegistryTest, HistogramMergeRequiresMatchingBounds) {
  Histogram a({1.0, 2.0});
  Histogram b({1.0, 3.0});
  EXPECT_THROW(a.MergeFrom(b), std::invalid_argument);
}

TEST(FormatTest, MetricDoublesRoundTripShortest) {
  EXPECT_EQ(FormatMetricDouble(1.0), "1");
  EXPECT_EQ(FormatMetricDouble(0.1), "0.1");
  EXPECT_EQ(FormatMetricDouble(
                std::numeric_limits<double>::infinity()),
            "+Inf");
  // Shortest-roundtrip: parsing the text must recover the exact bits.
  const double tricky = 0.1 + 0.2;
  EXPECT_EQ(std::stod(FormatMetricDouble(tricky)), tricky);
}

TEST(ObsGateTest, SetEnabledGatesPipelineHelpers) {
  MetricsRegistry reg;
  Counter* c = reg.RegisterCounter("gated_total", "help");
  const bool was = Enabled();
  SetEnabled(false);
  Count(c);
  EXPECT_EQ(c->Value(), 0u);
  {
    ObsSpan span(reg.RegisterHistogram("gated_seconds", "help", {1.0}));
  }
  EXPECT_EQ(reg.FindHistogram("gated_seconds")->Count(), 0u);
  SetEnabled(true);
  Count(c, 2);
  EXPECT_EQ(c->Value(), 2u);
  {
    ObsSpan span(reg.FindHistogram("gated_seconds"));
  }
  EXPECT_EQ(reg.FindHistogram("gated_seconds")->Count(), 1u);
  SetEnabled(was);
}

TEST(ObsSpanTest, ObservesElapsedSeconds) {
  MetricsRegistry reg;
  Histogram* h = reg.RegisterHistogram("span_seconds", "help",
                                       TimingBucketsSeconds());
  const bool was = Enabled();
  SetEnabled(true);
  {
    ObsSpan span(h);
    std::this_thread::sleep_for(std::chrono::milliseconds(2));
  }
  SetEnabled(was);
  EXPECT_EQ(h->Count(), 1u);
  EXPECT_GE(h->Sum(), 0.002);
  EXPECT_LT(h->Sum(), 30.0);
}

TEST(HistogramTest, ConcurrentObservationsSumExactly) {
  Histogram h({0.5});
  constexpr size_t kThreads = 8;
  constexpr uint64_t kPerThread = 10000;
  std::vector<std::thread> threads;
  for (size_t t = 0; t < kThreads; ++t) {
    threads.emplace_back([&h, t] {
      for (uint64_t i = 0; i < kPerThread; ++i) {
        h.Observe(t % 2 == 0 ? 0.25 : 1.0);
      }
    });
  }
  for (std::thread& t : threads) t.join();
  EXPECT_EQ(h.Count(), kThreads * kPerThread);
  std::vector<uint64_t> buckets;
  double sum = 0.0;
  h.Snapshot(&buckets, &sum);
  EXPECT_EQ(buckets[0], kThreads / 2 * kPerThread);
  EXPECT_EQ(buckets[1], kThreads / 2 * kPerThread);
  EXPECT_DOUBLE_EQ(sum, 4 * kPerThread * 0.25 + 4 * kPerThread * 1.0);
}

}  // namespace
}  // namespace obs
}  // namespace mvg
