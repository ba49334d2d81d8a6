// Polymorphic classifier serialization: a stable u32 type tag in front of
// each SaveBinary body. The tag values are part of the on-disk model
// format — never renumber them, only append.

#include <memory>

#include "ml/classifier.h"
#include "ml/decision_tree.h"
#include "ml/gradient_boosting.h"
#include "ml/random_forest.h"
#include "ml/stacking.h"
#include "ml/svm.h"
#include "util/binary_io.h"

namespace mvg {

namespace {

enum ClassifierTag : uint32_t {
  kTagDecisionTree = 1,
  kTagRandomForest = 2,
  kTagGradientBoosting = 3,
  kTagSvm = 4,
  // 5 was the retired logistic-regression classifier; never reuse it.
  kTagStacking = 6,
};

}  // namespace

void SaveClassifierBinary(const Classifier& c, BinaryWriter* w) {
  uint32_t tag = 0;
  if (dynamic_cast<const GradientBoostingClassifier*>(&c) != nullptr) {
    tag = kTagGradientBoosting;
  } else if (dynamic_cast<const RandomForestClassifier*>(&c) != nullptr) {
    tag = kTagRandomForest;
  } else if (dynamic_cast<const DecisionTreeClassifier*>(&c) != nullptr) {
    tag = kTagDecisionTree;
  } else if (dynamic_cast<const SvmClassifier*>(&c) != nullptr) {
    tag = kTagSvm;
  } else if (dynamic_cast<const StackingEnsemble*>(&c) != nullptr) {
    tag = kTagStacking;
  } else {
    throw std::runtime_error("SaveClassifierBinary: " + c.Name() +
                             " has no registered type tag");
  }
  w->WriteU32(tag);
  c.SaveBinary(w);
}

std::unique_ptr<Classifier> LoadClassifierBinary(BinaryReader* r) {
  const uint32_t tag = r->ReadU32();
  std::unique_ptr<Classifier> c;
  switch (tag) {
    case kTagDecisionTree:
      c = std::make_unique<DecisionTreeClassifier>();
      break;
    case kTagRandomForest:
      c = std::make_unique<RandomForestClassifier>();
      break;
    case kTagGradientBoosting:
      c = std::make_unique<GradientBoostingClassifier>();
      break;
    case kTagSvm:
      c = std::make_unique<SvmClassifier>();
      break;
    case kTagStacking:
      c = std::make_unique<StackingEnsemble>();
      break;
    default:
      throw SerializationError("LoadClassifierBinary: unknown type tag " +
                               std::to_string(tag));
  }
  c->LoadBinary(r);
  return c;
}

}  // namespace mvg
