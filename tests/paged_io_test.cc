// Out-of-core dataset I/O: strict UCR parsing (satellite I/O correctness
// sweep), full-precision write -> read bit-equality, PagedUcrReader edge
// cases, FeatureTable::Build input validation, and the headline contract
// — FitPaged produces a model byte-identical to in-RAM Fit.

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <fstream>
#include <limits>
#include <sstream>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "core/mvg_classifier.h"
#include "ml/feature_table.h"
#include "serve/model_io.h"
#include "tests/test_util.h"
#include "ts/paged_ucr_reader.h"
#include "ts/ucr_io.h"

namespace mvg {
namespace {

std::string TempPath(const std::string& name) {
  return ::testing::TempDir() + "/" + name;
}

void WriteText(const std::string& path, const std::string& text) {
  std::ofstream os(path, std::ios::binary);
  ASSERT_TRUE(os.is_open()) << path;
  os << text;
}

// ---------------------------------------------------------------------------
// Strict parsing + full-precision round trip (WriteUcrFile/ReadUcrFile)
// ---------------------------------------------------------------------------

TEST(UcrIoTest, WriteReadRoundTripIsBitExact) {
  // Values chosen to break any writer using fewer than max_digits10
  // significant digits: long mantissas, subnormals, huge/tiny magnitudes,
  // negative zero.
  Dataset ds("tricky");
  ds.Add({0.1, 0.2, 0.30000000000000004, 1.0 / 3.0}, 1);
  ds.Add({1e-308, 4.9e-324, 1.7976931348623157e308, -0.0}, 2);
  ds.Add({-2.718281828459045, 6.02214076e23, 1.0000000000000002, 42.0}, 1);
  const std::string path = TempPath("ucr_bitexact.csv");
  WriteUcrFile(ds, path);
  const Dataset back = ReadUcrFile(path);
  ASSERT_EQ(back.size(), ds.size());
  for (size_t i = 0; i < ds.size(); ++i) {
    EXPECT_EQ(back.label(i), ds.label(i));
    ASSERT_EQ(back.series(i).size(), ds.series(i).size());
    for (size_t j = 0; j < ds.series(i).size(); ++j) {
      // Bit-level equality, not ==: distinguishes -0.0 from 0.0.
      EXPECT_EQ(std::signbit(back.series(i)[j]), std::signbit(ds.series(i)[j]))
          << "row " << i << " col " << j;
      EXPECT_EQ(back.series(i)[j], ds.series(i)[j])
          << "row " << i << " col " << j;
    }
  }
}

TEST(UcrIoTest, SecondWriteIsByteIdentical) {
  Dataset ds("stable");
  ds.Add({1.0 / 3.0, 0.1}, 1);
  const std::string a = TempPath("ucr_stable_a.csv");
  const std::string b = TempPath("ucr_stable_b.csv");
  WriteUcrFile(ds, a);
  WriteUcrFile(ds, b);
  std::ifstream fa(a, std::ios::binary), fb(b, std::ios::binary);
  std::string ca((std::istreambuf_iterator<char>(fa)),
                 std::istreambuf_iterator<char>());
  std::string cb((std::istreambuf_iterator<char>(fb)),
                 std::istreambuf_iterator<char>());
  EXPECT_EQ(ca, cb);
  EXPECT_FALSE(ca.empty());
}

TEST(UcrIoTest, PartiallyParsedTokenRejectedWithLineNumber) {
  const std::string path = TempPath("ucr_garbage.csv");
  WriteText(path, "1,0.5,0.75\n2,1.5abc,0.25\n");
  try {
    ReadUcrFile(path);
    FAIL() << "expected ReadUcrFile to reject the malformed token";
  } catch (const std::runtime_error& e) {
    const std::string msg = e.what();
    EXPECT_NE(msg.find("line 2"), std::string::npos) << msg;
    EXPECT_NE(msg.find("1.5abc"), std::string::npos) << msg;
  }
}

TEST(UcrIoTest, GarbageLabelRejected) {
  const std::string path = TempPath("ucr_badlabel.csv");
  // Non-numeric, non-finite, fractional and out-of-int-range labels all
  // fail, naming the offending line, in the whole-file and paged readers.
  for (const char* label :
       {"1x", "nan", "inf", "-inf", "1e10", "-3e9", "2.5", "-0.5"}) {
    WriteText(path, std::string("1,0.5\n") + label + ",0.5\n");
    try {
      ReadUcrFile(path);
      ADD_FAILURE() << "label '" << label << "' accepted";
    } catch (const std::runtime_error& e) {
      EXPECT_NE(std::string(e.what()).find("line 2"), std::string::npos)
          << e.what();
    }
    PagedUcrReader reader(path);
    SeriesPage page;
    EXPECT_THROW({ while (reader.NextPage(&page)) {} }, std::runtime_error)
        << "label '" << label << "'";
  }
}

TEST(UcrIoTest, ScientificNotationAndSignsAccepted) {
  const std::string path = TempPath("ucr_sci_ok.csv");
  // Old UCR files write labels in float notation.
  WriteText(path, "-1,+1.5e-3,-2E4,.5,5.\n1.0000000e+00,0.25\n");
  const Dataset ds = ReadUcrFile(path);
  ASSERT_EQ(ds.size(), 2u);
  EXPECT_EQ(ds.label(0), -1);
  EXPECT_EQ(ds.series(0),
            (Series{1.5e-3, -2e4, 0.5, 5.0}));
  EXPECT_EQ(ds.label(1), 1);
  EXPECT_EQ(ds.series(1), (Series{0.25}));
}

// ---------------------------------------------------------------------------
// PagedUcrReader
// ---------------------------------------------------------------------------

/// Writes `rows` synthetic series (ragged lengths) and returns the path.
std::string WriteSyntheticUcr(const std::string& name, size_t rows) {
  Dataset ds(name);
  for (size_t i = 0; i < rows; ++i) {
    Series s(8 + (i % 5));  // ragged: lengths 8..12
    for (size_t j = 0; j < s.size(); ++j) {
      s[j] = std::sin(0.1 * static_cast<double>(i + 1) *
                      static_cast<double>(j + 1)) +
             0.01 * static_cast<double>(i);
    }
    ds.Add(std::move(s), static_cast<int>(i % 3));
  }
  const std::string path = TempPath(name + ".csv");
  WriteUcrFile(ds, path);
  return path;
}

/// Reads everything through the pager and returns it as one Dataset.
Dataset DrainPaged(PagedUcrReader* reader) {
  Dataset out;
  SeriesPage page;
  size_t expected_first = 0;
  while (reader->NextPage(&page)) {
    EXPECT_EQ(page.first_row, expected_first);
    expected_first += page.size();
    for (size_t i = 0; i < page.size(); ++i) {
      out.Add(std::move(page.series[i]), page.labels[i]);
    }
  }
  return out;
}

void ExpectSameDataset(const Dataset& a, const Dataset& b) {
  ASSERT_EQ(a.size(), b.size());
  for (size_t i = 0; i < a.size(); ++i) {
    EXPECT_EQ(a.label(i), b.label(i)) << "row " << i;
    EXPECT_EQ(a.series(i), b.series(i)) << "row " << i;
  }
}

TEST(PagedUcrReaderTest, MatchesInRamReaderAcrossPageSizes) {
  const std::string path = WriteSyntheticUcr("paged_match", 23);
  const Dataset whole = ReadUcrFile(path);
  // Page sizes straddling every boundary case: 1, a divisor, a
  // non-divisor (ragged final page), exactly the file, larger than the
  // file.
  for (size_t page_rows : {size_t{1}, size_t{4}, size_t{7}, size_t{23},
                           size_t{1000}}) {
    PagedUcrReader::Options opt;
    opt.page_rows = page_rows;
    PagedUcrReader reader(path, opt);
    const Dataset paged = DrainPaged(&reader);
    ExpectSameDataset(paged, whole);
    EXPECT_EQ(reader.rows_read(), whole.size());
  }
}

TEST(PagedUcrReaderTest, ReadAheadOffMatchesReadAheadOn) {
  const std::string path = WriteSyntheticUcr("paged_sync", 17);
  PagedUcrReader::Options on, off;
  on.page_rows = off.page_rows = 5;
  off.read_ahead = false;
  PagedUcrReader reader_on(path, on);
  PagedUcrReader reader_off(path, off);
  ExpectSameDataset(DrainPaged(&reader_on), DrainPaged(&reader_off));
}

TEST(PagedUcrReaderTest, EmptyFileYieldsNoPages) {
  const std::string path = TempPath("paged_empty.csv");
  WriteText(path, "");
  PagedUcrReader reader(path);
  SeriesPage page;
  EXPECT_FALSE(reader.NextPage(&page));
  EXPECT_TRUE(page.empty());
  EXPECT_FALSE(reader.NextPage(&page));  // stays exhausted
}

TEST(PagedUcrReaderTest, BlankLinesAreSkippedLikeReadUcrFile) {
  const std::string path = TempPath("paged_blank.csv");
  WriteText(path, "1,0.5,0.25\n\n   \n2,1.5,0.75\n\n");
  const Dataset whole = ReadUcrFile(path);
  PagedUcrReader::Options opt;
  opt.page_rows = 1;
  PagedUcrReader reader(path, opt);
  ExpectSameDataset(DrainPaged(&reader), whole);
}

TEST(PagedUcrReaderTest, MissingFileThrows) {
  EXPECT_THROW(PagedUcrReader("/nonexistent/paged.csv"), std::runtime_error);
}

TEST(PagedUcrReaderTest, ParseErrorCarriesLineNumber) {
  const std::string path = TempPath("paged_garbage.csv");
  WriteText(path, "1,0.5\n1,0.5\n1,0.5\n2,2.5xyz\n");
  PagedUcrReader::Options opt;
  opt.page_rows = 2;
  PagedUcrReader reader(path, opt);
  SeriesPage page;
  ASSERT_TRUE(reader.NextPage(&page));  // rows 1-2 are fine
  try {
    while (reader.NextPage(&page)) {
    }
    FAIL() << "expected the malformed line to throw";
  } catch (const std::runtime_error& e) {
    EXPECT_NE(std::string(e.what()).find("line 4"), std::string::npos)
        << e.what();
  }
}

TEST(PagedUcrReaderTest, ResetRestartsFromTheTop) {
  const std::string path = WriteSyntheticUcr("paged_reset", 9);
  PagedUcrReader::Options opt;
  opt.page_rows = 4;
  PagedUcrReader reader(path, opt);
  const Dataset first = DrainPaged(&reader);
  reader.Reset();
  const Dataset second = DrainPaged(&reader);
  ExpectSameDataset(first, second);
}

// ---------------------------------------------------------------------------
// FeatureTable::Build input validation
// ---------------------------------------------------------------------------

TEST(FeatureTableTest, WidthMismatchThrows) {
  const Matrix x = {{1.0, 2.0}, {1.0, 2.0, 3.0}};
  FeatureTable ft;
  EXPECT_THROW(ft.Build(x), std::invalid_argument);
}

// ---------------------------------------------------------------------------
// FitPaged == Fit (the tentpole bit-identity contract)
// ---------------------------------------------------------------------------

TEST(FitPagedTest, ModelBitIdenticalToInRamFit) {
  const std::string path = WriteSyntheticUcr("fitpaged", 30);
  const Dataset train = ReadUcrFile(path);

  MvgClassifier::Config config;
  config.model = MvgModel::kXgboost;
  config.grid = GridPreset::kNone;
  MvgClassifier in_ram(config);
  in_ram.Fit(train);

  for (size_t page_rows : {size_t{7}, size_t{30}, size_t{1000}}) {
    PagedUcrReader::Options opt;
    opt.page_rows = page_rows;
    PagedUcrReader reader(path, opt);
    MvgClassifier paged(config);
    paged.FitPaged(&reader);

    EXPECT_EQ(paged.feature_width(), in_ram.feature_width());
    EXPECT_EQ(paged.train_length(), in_ram.train_length());

    // Byte-identity of the persisted model, whole file.
    std::ostringstream a, b;
    SaveModel(in_ram, a);
    SaveModel(paged, b);
    EXPECT_EQ(a.str(), b.str()) << "page_rows " << page_rows;
  }
}

TEST(FitPagedTest, EmptyFileThrows) {
  const std::string path = TempPath("fitpaged_empty.csv");
  WriteText(path, "\n\n");
  PagedUcrReader reader(path);
  MvgClassifier clf;
  EXPECT_THROW(clf.FitPaged(&reader), std::invalid_argument);
}

}  // namespace
}  // namespace mvg
