// Structure-of-arrays forest inference engine — the library's only one.
//
// The fitted `DecisionTree`s are node-struct vectors: walking them loads a
// 32-byte Node per hop to use at most half of it, and a forest prediction
// chases those pointers once per tree per query. Prediction and per-tree
// jackknife variance dominate every acquisition round (PAPER.md §IV; the
// fig10/fig12 hot paths), so the trees are flattened once after
// fit()/from_json() into one shared arena of parallel arrays — split
// feature, threshold, left child, right child, leaf value — and every
// evaluation walks the arena.
//
// Equivalence contract: flattening copies node fields bit-for-bit and
// preserves node order, traversal uses the same `x[f] <= threshold`
// comparison as a walk over DecisionTree::nodes() (NaN routes right), and
// every mean/variance accumulates in tree order. Flat results are therefore
// bitwise-identical to that node walk. The walk itself lives in
// tests/reference_forest.hpp as the oracle that tests/test_flat_forest.cpp
// and the forest microbenchmark gate compare against.
#pragma once

#include <cstdint>
#include <vector>

#include "ml/tree.hpp"

namespace acclaim::ml {

class FlatForest {
 public:
  FlatForest() = default;

  /// Flattens fitted trees into one contiguous arena. Node order inside each
  /// tree is preserved (root first), so traversal visits the same nodes and
  /// yields bit-identical leaf values. Throws InvalidArgument on unfitted
  /// trees or mismatched feature counts.
  static FlatForest build(const std::vector<DecisionTree>& trees);

  bool built() const noexcept { return !roots_.empty(); }
  std::size_t n_trees() const noexcept { return roots_.size(); }
  std::size_t n_features() const noexcept { return n_features_; }
  /// Total nodes across all trees (the arena size).
  std::size_t n_nodes() const noexcept { return feature_.size(); }

  /// Mean of the per-tree predictions, accumulated in tree order — bitwise
  /// equal to averaging a node walk of each source tree.
  double predict(const FeatureRow& row) const;

  /// Per-tree predictions in tree order; `out` is resized to n_trees().
  void predict_trees(const FeatureRow& row, std::vector<double>& out) const;

  /// Batched evaluation: walks `n_rows` rows across all trees tree-major,
  /// so one tree's arrays stay cache-hot while a whole batch of rows runs
  /// through them. `out` is row-major [n_rows x n_trees()]: out[r * n_trees
  /// + t] is tree t's prediction for rows[r]. Requires built() and rows of
  /// n_features() width.
  void predict_trees_batch(const FeatureRow* rows, std::size_t n_rows, double* out) const;

  /// Fused batched predict + jackknife: one tree-major traversal pass fills
  /// a per-row prediction block, then each row's jackknife variance is
  /// reduced from that block in tree order — trees are never re-traversed,
  /// and the reduction is bitwise-identical to ml::jackknife_variance on the
  /// scalar path. `variances` receives n_rows values. `scratch` is
  /// caller-owned working memory (grown to n_rows * n_trees()), so hot
  /// loops can reuse one buffer per thread.
  void jackknife_batch(const FeatureRow* rows, std::size_t n_rows, double* variances,
                       std::vector<double>& scratch) const;

 private:
  // One arena for all trees; tree t's nodes occupy [roots_[t], roots_[t+1])
  // (with an implicit end at n_nodes() for the last tree). Child indices are
  // arena-absolute, so traversal never consults per-tree offsets. Leaves
  // self-loop (left == right == own index): the batched kernel can then step
  // a whole block of rows through a tree for a fixed number of levels with
  // no per-lane branch — rows that reach their leaf early just spin in
  // place, which changes no bit of the result.
  std::vector<std::int32_t> feature_;  ///< split feature; -1 marks a leaf
  std::vector<double> threshold_;      ///< go left if x[feature] <= threshold
  std::vector<std::int32_t> left_;
  std::vector<std::int32_t> right_;
  std::vector<double> value_;          ///< leaf prediction
  std::vector<std::int32_t> roots_;    ///< arena index of each tree's root
  std::vector<std::int32_t> depth_;    ///< max root-to-leaf edges per tree
  std::size_t n_features_ = 0;
};

}  // namespace acclaim::ml
