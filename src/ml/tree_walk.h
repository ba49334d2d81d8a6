#ifndef MVG_ML_TREE_WALK_H_
#define MVG_ML_TREE_WALK_H_

// The one descent over fitted trees. GBT prediction, GBT's training-time
// logit update, and decision-tree / forest prediction all route rows
// through WalkTrees. It walks the models' own node records in place:
// owned vectors or mmap views, with no derived state and no load-time
// pass.
//
// The walker takes a fixed group of kTreeWalkGroup consecutive trees and
// moves every tree in the group down one level per step. It picks each
// child with arithmetic (left + go_right * (right - left)), not a branch
// on the data, so no step can be mispredicted; a group costs as many
// steps as its deepest leaf. The only branch is the loop exit, taken once
// every tree in the group sits on a leaf. Leaves stay put, so the walker
// never needs the trees' depth bound. It terminates because every loader
// validates its trees with ValidateTreeNodes below.
//
// Bit identity: each tree still ends on the leaf the plain scalar descent
// reaches, since go_right is that descent's comparison. Leaves are handed
// to `visit` in tree order, so a caller that adds contributions there adds
// them in the same order, with the same operations, as a tree-by-tree
// loop.

#include <algorithm>
#include <cstddef>
#include <cstdint>
#include <string>
#include <type_traits>

#include "util/binary_io.h"

namespace mvg {

/// Trees advanced together per group. A compile-time constant: the lane
/// loop unrolls and the per-lane cursors stay in registers.
inline constexpr size_t kTreeWalkGroup = 8;

/// Routes one row through trees [0, num_trees), kTreeWalkGroup at a time,
/// and calls visit(tree, leaf) for each tree in ascending tree order.
///
/// - `root_of(tree)` returns a pointer to the tree's node 0. A node is
///   any record with int32 `feature` (negative marks a leaf), `left` and
///   `right` (indices relative to node 0, -1 on leaves). Children must
///   point strictly forward, as the loaders' validation guarantees.
/// - `go_right(tree, feature, node, index)` returns whether the row goes
///   to `node.right`. It is called for every lane of a step, so it must
///   be cheap, branch-free and safe on a leaf: there `feature` is 0 and
///   the result is ignored. A group's unused lanes (the last group of a
///   walk, or a walk of fewer trees than a group) sit on a static leaf
///   record at index 0 and report the group's first tree.
/// - `visit(tree, leaf)` receives the leaf record the tree ended on.
template <typename RootOf, typename GoRight, typename Visit>
inline void WalkTrees(size_t num_trees, const RootOf& root_of,
                      const GoRight& go_right, const Visit& visit) {
  using Node = std::remove_cv_t<
      std::remove_pointer_t<decltype(root_of(size_t{0}))>>;
  static constexpr Node kIdleLane{};
  static_assert(kIdleLane.feature < 0 && kIdleLane.left == -1 &&
                    kIdleLane.right == -1,
                "a default node record must be a leaf");

  const Node* root[kTreeWalkGroup];
  size_t tree[kTreeWalkGroup];
  int32_t at[kTreeWalkGroup];
  for (size_t first = 0; first < num_trees; first += kTreeWalkGroup) {
    const size_t count = std::min(kTreeWalkGroup, num_trees - first);
    int32_t busy = 0;
    for (size_t t = 0; t < kTreeWalkGroup; ++t) {
      const bool live = t < count;
      root[t] = live ? root_of(first + t) : &kIdleLane;
      tree[t] = live ? first + t : first;
      at[t] = 0;
      busy |= root[t]->feature >= 0;
    }
    while (busy != 0) {
      busy = 0;
      for (size_t t = 0; t < kTreeWalkGroup; ++t) {
        const Node& node = root[t][at[t]];
        const int32_t internal = node.feature >= 0;
        const int32_t right =
            go_right(tree[t], static_cast<size_t>(node.feature * internal),
                     node, at[t]);
        const int32_t child = node.left + right * (node.right - node.left);
        at[t] += internal * (child - at[t]);
        busy |= root[t][at[t]].feature >= 0;
      }
    }
    for (size_t t = 0; t < count; ++t) visit(first + t, root[t][at[t]]);
  }
}

/// The node rules WalkTrees relies on, checked over one loaded tree of
/// `count` records (a crafted file that passes the CRCs must still fail
/// here, not at predict time):
/// - an internal node splits on a feature below `feature_bound`, so the
///   row read stays inside the row, and both children point strictly
///   forward inside the tree. Builders append children after their
///   parent, so genuine trees always satisfy this; it rules out -1
///   children and cycles, which is why the walk terminates.
/// - a leaf has feature -1 and no children, and passes `leaf(node)`, the
///   model's own check of what a leaf carries.
/// Throws SerializationError, prefixed with `model`.
template <typename Node, typename LeafCheck>
inline void ValidateTreeNodes(const Node* nodes, size_t count,
                              size_t feature_bound, const char* model,
                              const LeafCheck& leaf) {
  const auto fail = [model](const char* what) {
    throw SerializationError(std::string(model) + ": " + what);
  };
  for (size_t i = 0; i < count; ++i) {
    const Node& node = nodes[i];
    if (node.feature >= 0) {
      if (static_cast<size_t>(node.feature) >= feature_bound) {
        fail("split feature out of range");
      }
      const auto forward = [count, i](int32_t child) {
        return child > static_cast<int32_t>(i) &&
               static_cast<size_t>(child) < count;
      };
      if (!forward(node.left) || !forward(node.right)) {
        fail("internal node with invalid child index");
      }
    } else {
      if (node.feature != -1 || node.left != -1 || node.right != -1) {
        fail("malformed leaf node");
      }
      leaf(node);
    }
  }
}

/// The raw-feature split rule every fitted tree stores: a row goes left
/// iff x[feature] <= threshold, so NaN goes right. Reads x[0] on leaves,
/// which exists whenever the walk reaches a split.
struct GoRightOnValue {
  const double* x;
  template <typename Node>
  bool operator()(size_t /*tree*/, size_t feature, const Node& node,
                  int32_t /*index*/) const {
    return !(x[feature] <= node.threshold);
  }
};

}  // namespace mvg

#endif  // MVG_ML_TREE_WALK_H_
