#include <algorithm>
#include <map>
#include <fstream>
#include <cstdio>
#include <set>

#include <gtest/gtest.h>

#include "ts/generators.h"
#include "ts/ucr_io.h"
#include "util/statistics.h"

namespace mvg {
namespace {

TEST(Registry, AllEntriesGenerate) {
  for (const auto& info : SyntheticRegistry()) {
    const DatasetSplit split = MakeSynthetic(info, 1);
    EXPECT_EQ(split.train.size(), info.train_size) << info.name;
    EXPECT_EQ(split.test.size(), info.test_size) << info.name;
    EXPECT_EQ(split.train.NumClasses(), static_cast<size_t>(info.num_classes))
        << info.name;
    for (size_t i = 0; i < split.train.size(); ++i) {
      EXPECT_EQ(split.train.series(i).size(), info.length);
    }
  }
}

TEST(Registry, DeterministicGivenSeed) {
  const DatasetSplit a = MakeSyntheticByName("SynChaos", 5);
  const DatasetSplit b = MakeSyntheticByName("SynChaos", 5);
  ASSERT_EQ(a.train.size(), b.train.size());
  for (size_t i = 0; i < a.train.size(); ++i) {
    EXPECT_EQ(a.train.series(i), b.train.series(i));
  }
}

TEST(Registry, DifferentSeedsDiffer) {
  const DatasetSplit a = MakeSyntheticByName("SynFordA", 1);
  const DatasetSplit b = MakeSyntheticByName("SynFordA", 2);
  EXPECT_NE(a.train.series(0), b.train.series(0));
}

TEST(Registry, UnknownNameThrows) {
  EXPECT_THROW(MakeSyntheticByName("NoSuchDataset"), std::invalid_argument);
}

TEST(Registry, WaferIsImbalanced) {
  const DatasetSplit split = MakeSyntheticByName("SynWafer", 3);
  std::map<int, size_t> counts;
  for (int label : split.train.labels()) ++counts[label];
  ASSERT_EQ(counts.size(), 2u);
  EXPECT_GT(counts.at(0), 3 * counts.at(1));
}

TEST(Registry, ClassesAreDistinguishableByFirstMoment) {
  // Sanity: generators must not produce identical distributions for all
  // classes. Check ECG: class means differ somewhere.
  const DatasetSplit split = MakeSyntheticByName("SynECG5000", 4);
  std::map<int, std::vector<double>> mean_by_class;
  for (size_t i = 0; i < split.train.size(); ++i) {
    mean_by_class[split.train.label(i)].push_back(
        Max(split.train.series(i)));
  }
  std::set<int> distinct;
  for (auto& [label, maxima] : mean_by_class) {
    distinct.insert(static_cast<int>(100.0 * Mean(maxima)));
  }
  EXPECT_GT(distinct.size(), 1u);
}

TEST(Primitives, LogisticMapStaysInUnitInterval) {
  const Series s = LogisticMap(500, 4.0, 0.3);
  for (double v : s) {
    EXPECT_GE(v, 0.0);
    EXPECT_LE(v, 1.0);
  }
}

TEST(Primitives, GaussianNoiseMoments) {
  const Series s = GaussianNoise(20000, 1, 2.0);
  EXPECT_NEAR(Mean(s), 0.0, 0.1);
  EXPECT_NEAR(StdDev(s), 2.0, 0.1);
}

TEST(Primitives, RandomWalkDrifts) {
  const Series s = RandomWalk(2000, 2, 0.5, 0.1);
  EXPECT_GT(s.back(), 900.0);
}

TEST(Primitives, SinePeriodicity) {
  const Series s = Sine(100, 20.0);
  EXPECT_NEAR(s[0], s[20], 1e-9);
  EXPECT_NEAR(s[5], 1.0, 1e-9);  // quarter period peak
}

TEST(UcrIo, RoundTrip) {
  const DatasetSplit split = MakeSyntheticByName("SynBeetleFly", 7);
  const std::string path = ::testing::TempDir() + "/ucr_roundtrip.csv";
  WriteUcrFile(split.train, path);
  const Dataset loaded = ReadUcrFile(path);
  ASSERT_EQ(loaded.size(), split.train.size());
  for (size_t i = 0; i < loaded.size(); ++i) {
    EXPECT_EQ(loaded.label(i), split.train.label(i));
    ASSERT_EQ(loaded.series(i).size(), split.train.series(i).size());
    for (size_t j = 0; j < loaded.series(i).size(); ++j) {
      EXPECT_NEAR(loaded.series(i)[j], split.train.series(i)[j], 1e-5);
    }
  }
  std::remove(path.c_str());
}

TEST(UcrIo, ParsesWhitespaceSeparated) {
  const std::string path = ::testing::TempDir() + "/ucr_ws.txt";
  {
    std::ofstream out(path);
    out << "1 0.5 0.25 0.125\n2\t1.0\t2.0\t3.0\n";
  }
  const Dataset ds = ReadUcrFile(path);
  ASSERT_EQ(ds.size(), 2u);
  EXPECT_EQ(ds.label(0), 1);
  EXPECT_EQ(ds.label(1), 2);
  EXPECT_DOUBLE_EQ(ds.series(1)[2], 3.0);
  std::remove(path.c_str());
}

TEST(UcrIo, MissingFileThrows) {
  EXPECT_THROW(ReadUcrFile("/nonexistent/file.csv"), std::runtime_error);
}

TEST(DatasetTest, SubsetAndCounts) {
  Dataset ds("toy");
  ds.Add({1, 2}, 0);
  ds.Add({3, 4}, 1);
  ds.Add({5, 6}, 1);
  EXPECT_EQ(ds.NumClasses(), 2u);
  EXPECT_EQ(std::count(ds.labels().begin(), ds.labels().end(), 1), 2);
  EXPECT_EQ(ds.MaxLength(), 2u);
  const Dataset sub = ds.Subset({2, 0});
  ASSERT_EQ(sub.size(), 2u);
  EXPECT_EQ(sub.label(0), 1);
  EXPECT_EQ(sub.series(1)[0], 1.0);
  EXPECT_THROW(ds.Subset({9}), std::out_of_range);
}

}  // namespace
}  // namespace mvg
