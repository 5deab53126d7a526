// Reference oracle for forest inference: the pointer walk over each fitted
// tree's node array, which is how the library evaluated forests before the
// FlatForest arena. The differential suites and the forest microbenchmark
// gate demand that every flat-engine result is bit-identical to these
// scalar walks and reductions. Test-only; the library has one inference
// engine.
#pragma once

#include <cstddef>
#include <cstdint>
#include <vector>

#include "ml/forest.hpp"
#include "ml/tree.hpp"
#include "util/error.hpp"

namespace acclaim::testing_support {

/// One root-to-leaf walk: `x[f] <= threshold` goes left, so NaN features
/// route right. Throws InvalidArgument on an unfitted tree or a row of the
/// wrong width.
inline double reference_predict(const ml::DecisionTree& tree, const ml::FeatureRow& row) {
  require(tree.fitted(), "DecisionTree::predict called before fit");
  require(row.size() == tree.n_features(), "feature count mismatch in predict");
  const std::vector<ml::DecisionTree::Node>& nodes = tree.nodes();
  std::int32_t cur = 0;
  while (true) {
    const ml::DecisionTree::Node& node = nodes[static_cast<std::size_t>(cur)];
    if (node.feature < 0) {
      return node.value;
    }
    cur = row[static_cast<std::size_t>(node.feature)] <= node.threshold ? node.left : node.right;
  }
}

/// Per-tree predictions in tree order; `out` is resized to the tree count.
inline void reference_predict_trees(const ml::RandomForest& forest, const ml::FeatureRow& row,
                                    std::vector<double>& out) {
  out.resize(forest.n_trees());
  for (std::size_t t = 0; t < forest.n_trees(); ++t) {
    out[t] = reference_predict(forest.trees()[t], row);
  }
}

inline std::vector<double> reference_predict_trees(const ml::RandomForest& forest,
                                                   const ml::FeatureRow& row) {
  std::vector<double> out;
  reference_predict_trees(forest, row, out);
  return out;
}

/// Tree-order mean of per-tree predictions.
inline double reference_mean(const std::vector<double>& preds) {
  double sum = 0.0;
  for (double v : preds) {
    sum += v;
  }
  return sum / static_cast<double>(preds.size());
}

/// Mean of the per-tree walks: what RandomForest::predict must return.
inline double reference_predict(const ml::RandomForest& forest, const ml::FeatureRow& row) {
  return reference_mean(reference_predict_trees(forest, row));
}

/// Scalar form of RandomForest::jackknife_batch: each row walks every tree,
/// then its jackknife variance is reduced from those predictions.
inline void reference_jackknife_batch(const ml::RandomForest& forest, const ml::FeatureRow* rows,
                                      std::size_t n_rows, double* variances,
                                      std::vector<double>& scratch) {
  for (std::size_t r = 0; r < n_rows; ++r) {
    reference_predict_trees(forest, rows[r], scratch);
    variances[r] = ml::jackknife_variance(scratch.data(), scratch.size());
  }
}

}  // namespace acclaim::testing_support
