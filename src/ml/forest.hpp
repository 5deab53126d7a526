// Random forest regressor (bootstrap-aggregated CART trees).
#pragma once

#include <vector>

#include "ml/flat_forest.hpp"
#include "ml/tree.hpp"

namespace acclaim::ml {

struct ForestParams {
  int n_trees = 64;
  bool bootstrap = true;
  TreeParams tree;
};

/// scikit-style RandomForestRegressor: each tree fits a bootstrap resample;
/// the forest predicts the mean of the trees. predict_trees() exposes the
/// per-tree predictions the jackknife variance (§IV-A) needs. After fit()
/// or from_json() the trees are flattened into a FlatForest arena, and every
/// evaluation entry point runs on it.
class RandomForest {
 public:
  void fit(const std::vector<FeatureRow>& X, const std::vector<double>& y,
           const ForestParams& params, std::uint64_t seed);

  bool fitted() const noexcept { return !trees_.empty(); }
  std::size_t n_trees() const noexcept { return trees_.size(); }

  /// The fitted trees (the serialization source, and what the test oracle
  /// in tests/reference_forest.hpp walks).
  const std::vector<DecisionTree>& trees() const noexcept { return trees_; }

  /// The flattened SoA arena shared by all hot-path evaluation.
  const FlatForest& flat() const noexcept { return flat_; }

  /// Mean of the per-tree predictions.
  double predict(const FeatureRow& row) const;

  /// Per-tree predictions, in tree order.
  std::vector<double> predict_trees(const FeatureRow& row) const;

  /// Fills `out` (resized to n_trees, shrinking an over-sized vector) —
  /// allocation-free in hot loops.
  void predict_trees(const FeatureRow& row, std::vector<double>& out) const;

  /// Fused batched predict + jackknife over `n_rows` rows: `variances[r]`
  /// gets the jackknife variance of row r's per-tree predictions — one
  /// traversal pass, no per-row re-walk of the trees. `scratch` is
  /// caller-owned working memory (one buffer per thread in parallel
  /// sweeps). Bitwise-identical to predict_trees + jackknife_variance per
  /// row.
  void jackknife_batch(const FeatureRow* rows, std::size_t n_rows, double* variances,
                       std::vector<double>& scratch) const;

  /// Serializes the fitted forest. Requires fitted().
  util::Json to_json() const;
  /// Rebuilds a forest from to_json() output.
  static RandomForest from_json(const util::Json& doc);

 private:
  std::vector<DecisionTree> trees_;
  FlatForest flat_;
};

/// Jackknife variance of a set of values exactly as the paper defines it
/// (§IV-A): the i-th jackknife sample is the mean with value i removed;
/// variance = sum((mean - sample_i)^2) / (n - 1). Returns 0 for n < 2.
double jackknife_variance(const std::vector<double>& values);

/// Span form for the batched sweeps; the vector overload forwards here, so
/// both compute identical floating-point operation sequences.
double jackknife_variance(const double* values, std::size_t n);

/// One-pass summary of a per-tree prediction vector, used by the decision
/// flight recorder to explain what the ensemble saw for one candidate.
struct PredictionStats {
  double mean = 0.0;      ///< sum-in-tree-order / n — bitwise-equal to predict()
  double min = 0.0;
  double max = 0.0;
  double variance = 0.0;  ///< jackknife variance of the per-tree predictions
};

/// Summarizes `tree_preds` (the predict_trees output). The mean accumulates
/// in tree order, so it is bitwise-identical to RandomForest::predict on the
/// same row — an explanation built from these stats names the same argmin
/// the selection path computed. Requires a non-empty vector.
PredictionStats summarize_predictions(const std::vector<double>& tree_preds);

}  // namespace acclaim::ml
