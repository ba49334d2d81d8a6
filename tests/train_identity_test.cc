// Training-identity ledger: the model bytes every fit path writes, pinned
// in tests/fixtures/train_identity.txt. One line per cell (a fit path and
// its settings on the in-process SynChaos set) holds the byte length and
// Crc32 of the saved model, and the Crc32 of its predictions on the
// SynChaos test split read back through LoadModelView(kFull). A change to
// any model byte or prediction fails here, and the failure lists every
// cell that moved with its recomputed line. See tests/fixtures/README.md
// for provenance and for how to re-record the file.

#include <cstdint>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <map>
#include <sstream>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include <gtest/gtest.h>

#include "core/multivariate_classifier.h"
#include "core/mvg_classifier.h"
#include "serve/model_io.h"
#include "tests/local_reducer_group.h"
#include "ts/generators.h"
#include "ts/multivariate.h"
#include "ts/paged_ucr_reader.h"
#include "ts/ucr_io.h"
#include "util/binary_io.h"
#include "vg/vg_workspace.h"

namespace mvg {
namespace {

const DatasetSplit& Chaos() {
  static const DatasetSplit split = MakeSyntheticByName("SynChaos");
  return split;
}

/// SynChaos with class 0 cut to its first 5 rows, so oversampling
/// duplicates rows.
Dataset ImbalancedChaos() {
  const Dataset& train = Chaos().train;
  std::vector<size_t> keep;
  size_t class0 = 0;
  for (size_t i = 0; i < train.size(); ++i) {
    if (train.label(i) != 0 || class0++ < 5) keep.push_back(i);
  }
  return train.Subset(keep);
}

std::string ModelBytes(const MvgClassifier& clf) {
  std::ostringstream os;
  SaveModel(clf, os);
  return os.str();
}

std::string Hex(uint32_t crc) {
  char buf[16];
  std::snprintf(buf, sizeof buf, "%08x", crc);
  return buf;
}

/// Crc32 of the predictions of `bytes`, loaded zero-copy with a full CRC
/// sweep, on the SynChaos test split: per probe the label and the model's
/// class probabilities as C99 hex floats.
uint32_t PredictionCrc(const std::string& bytes) {
  std::vector<uint64_t> buf((bytes.size() + 7) / 8);
  std::memcpy(buf.data(), bytes.data(), bytes.size());
  const MvgClassifier clf =
      LoadModelView(buf.data(), bytes.size(), ModelVerify::kFull);
  const Dataset& probes = Chaos().test;
  VgWorkspace ws;
  std::string text;
  char tok[40];
  for (size_t i = 0; i < probes.size(); ++i) {
    text += std::to_string(clf.Predict(probes.series(i), &ws));
    for (const double p : ws.proba) {
      std::snprintf(tok, sizeof tok, " %a", p);
      text += tok;
    }
    text += '\n';
  }
  return Crc32(text);
}

std::string LedgerLine(const std::string& cell, const std::string& bytes,
                       uint32_t pred_crc) {
  return cell + " " + std::to_string(bytes.size()) + " " +
         Hex(Crc32(bytes)) + " " + Hex(pred_crc);
}

MvgClassifier::Config MakeConfig(MvgModel model, GridPreset grid,
                                 size_t threads) {
  MvgClassifier::Config config;
  config.model = model;
  config.grid = grid;
  config.num_threads = threads;
  return config;
}

std::string FitInRam(const MvgClassifier::Config& config,
                     const Dataset& train) {
  MvgClassifier clf(config);
  clf.Fit(train);
  return ModelBytes(clf);
}

std::string FitPagedBytes(const MvgClassifier::Config& config,
                          const std::string& path) {
  PagedUcrReader::Options opt;
  opt.page_rows = 7;
  PagedUcrReader reader(path, opt);
  MvgClassifier clf(config);
  clf.FitPaged(&reader);
  return ModelBytes(clf);
}

/// One rank per thread through a LocalReducerGroup; every rank must write
/// the same bytes, and rank 0's are returned.
std::string FitWorld(const MvgClassifier::Config& config, size_t world) {
  LocalReducerGroup group(world);
  std::vector<std::string> bytes(world);
  std::vector<std::thread> ranks;
  for (size_t r = 0; r < world; ++r) {
    ranks.emplace_back([&, r] {
      MvgClassifier::Config rc = config;
      rc.reducer = group.reducer(r);
      bytes[r] = FitInRam(rc, Chaos().train);
    });
  }
  for (std::thread& t : ranks) t.join();
  for (size_t r = 1; r < world; ++r) {
    EXPECT_TRUE(bytes[r] == bytes[0]) << "world " << world << " rank " << r;
  }
  return bytes[0];
}

/// The multivariate pipeline has no model file: its cell pins the
/// type-tagged classifier body and the predicted labels.
std::string MultivariateLine() {
  const MultivariateSplit split =
      MakeSyntheticMultivariate(2, 3, 24, 12, 96, 11);
  MvgMultivariateClassifier clf(
      MakeConfig(MvgModel::kXgboost, GridPreset::kNone, 1));
  clf.Fit(split.train);
  BinaryWriter w;
  SaveClassifierBinary(clf.model(), &w);
  std::string labels;
  for (const int label : clf.PredictAll(split.test)) {
    labels += std::to_string(label) + "\n";
  }
  return LedgerLine("multivariate", w.data(), Crc32(labels));
}

std::vector<std::string> ComputeLedger() {
  const std::pair<const char*, MvgModel> families[] = {
      {"xgb", MvgModel::kXgboost},
      {"rf", MvgModel::kRandomForest},
      {"svm", MvgModel::kSvm},
      {"stack", MvgModel::kStacking}};
  const std::string path = ::testing::TempDir() + "/train_identity_chaos.csv";
  WriteUcrFile(Chaos().train, path);
  const Dataset imbalanced = ImbalancedChaos();

  std::vector<std::string> lines;
  const auto add = [&lines](const std::string& cell,
                            const std::string& bytes) {
    lines.push_back(LedgerLine(cell, bytes, PredictionCrc(bytes)));
  };
  for (const auto& [name, model] : families) {
    const std::string fam = name;
    for (const auto& [grid_name, grid] :
         {std::make_pair("none", GridPreset::kNone),
          std::make_pair("small", GridPreset::kSmall)}) {
      for (const size_t threads : {size_t{1}, size_t{4}}) {
        add(fam + "/" + grid_name + "/t" + std::to_string(threads),
            FitInRam(MakeConfig(model, grid, threads), Chaos().train));
      }
    }
    const MvgClassifier::Config base = MakeConfig(model, GridPreset::kNone, 1);
    add(fam + "/paged7", FitPagedBytes(base, path));
    if (model == MvgModel::kXgboost || model == MvgModel::kRandomForest) {
      add(fam + "/w1", FitWorld(base, 1));
      add(fam + "/w2", FitWorld(base, 2));
    }
    add(fam + "/imbalanced", FitInRam(base, imbalanced));
  }
  lines.push_back(MultivariateLine());
  return lines;
}

TEST(TrainIdentityTest, EveryFitPathMatchesTheLedger) {
  const std::vector<std::string> got = ComputeLedger();
  std::ifstream in(std::string(MVG_TEST_FIXTURE_DIR) + "/train_identity.txt");
  ASSERT_TRUE(in.good());
  std::map<std::string, std::string> want;
  for (std::string line; std::getline(in, line);) {
    if (line.empty() || line[0] == '#') continue;
    want[line.substr(0, line.find(' '))] = line;
  }

  std::string changed;
  for (const std::string& line : got) {
    const std::string cell = line.substr(0, line.find(' '));
    const auto it = want.find(cell);
    if (it == want.end()) {
      changed += "\n  new cell:  " + line;
      continue;
    }
    if (it->second != line) {
      changed += "\n  want " + it->second + "\n  got  " + line;
    }
    want.erase(it);
  }
  for (const auto& [cell, line] : want) changed += "\n  gone: " + line;
  EXPECT_TRUE(changed.empty()) << "cells that changed:" << changed;
}

}  // namespace
}  // namespace mvg
