// CART regression tree.
//
// Splits minimize the weighted sum of child variances (equivalently,
// maximize variance reduction), the criterion scikit-learn's
// DecisionTreeRegressor uses — the paper's model family (§V).
//
// Fitting scans per-feature row lists kept in rank-code order instead of
// sorting at every node; DESIGN.md §5c explains why the fitted tree is
// bit-identical to the per-node-sort CART it replaced.
#pragma once

#include <cstddef>
#include <cstdint>
#include <vector>

#include "util/json.hpp"
#include "util/rng.hpp"

namespace acclaim::ml {

using FeatureRow = std::vector<double>;

struct TreeParams {
  int max_depth = 32;
  int min_samples_leaf = 1;
  int min_samples_split = 2;
  /// Features considered per split; -1 means all (scikit default for
  /// regression forests).
  int max_features = -1;
};

/// Column-major, rank-coded view of a feature matrix. Built once per forest
/// fit and shared read-only by every tree. Within a feature, codes are dense
/// ranks that compare exactly as `<` does on the values (so -0.0 and +0.0
/// share a code), and sorted_rows() lists every row in code order.
class FeatureColumns {
 public:
  /// Throws InvalidArgument on an empty or ragged matrix, a row without
  /// features, or a NaN feature value (±inf are ordinary values).
  explicit FeatureColumns(const std::vector<FeatureRow>& X);

  std::size_t n_rows() const noexcept { return n_rows_; }
  std::size_t n_features() const noexcept { return n_features_; }
  const double* values(std::size_t f) const noexcept { return values_.data() + f * n_rows_; }
  const std::uint32_t* codes(std::size_t f) const noexcept { return codes_.data() + f * n_rows_; }
  const std::uint32_t* sorted_rows(std::size_t f) const noexcept {
    return sorted_.data() + f * n_rows_;
  }

 private:
  std::size_t n_rows_ = 0;
  std::size_t n_features_ = 0;
  std::vector<double> values_;
  std::vector<std::uint32_t> codes_;
  std::vector<std::uint32_t> sorted_;
};

/// A fitted regression tree. Fit once; refitting replaces the model. Trees
/// are evaluated through FlatForest, which flattens nodes() into its arena.
class DecisionTree {
 public:
  /// Fits on the rows indexed by `sample_idx` (with repetition allowed — the
  /// forest passes bootstrap samples). All rows must share X[0].size()
  /// features. Throws InvalidArgument on empty/ragged input or NaN features.
  void fit(const std::vector<FeatureRow>& X, const std::vector<double>& y,
           const std::vector<std::size_t>& sample_idx, const TreeParams& params,
           util::Rng& rng);

  /// Same, on a prebuilt column view (RandomForest shares one across trees).
  void fit(const FeatureColumns& cols, const std::vector<double>& y,
           const std::vector<std::size_t>& sample_idx, const TreeParams& params,
           util::Rng& rng);

  /// Convenience: fit on all rows.
  void fit(const std::vector<FeatureRow>& X, const std::vector<double>& y,
           const TreeParams& params, util::Rng& rng);

  bool fitted() const noexcept { return !nodes_.empty(); }
  std::size_t node_count() const noexcept { return nodes_.size(); }
  int depth() const noexcept { return depth_; }
  std::size_t n_features() const noexcept { return n_features_; }

  struct Node {
    int feature = -1;         ///< -1 marks a leaf
    double threshold = 0.0;   ///< go left if x[feature] <= threshold
    std::int32_t left = -1;
    std::int32_t right = -1;
    double value = 0.0;       ///< leaf prediction (mean of samples)
  };

  /// Read access to the fitted node array (root at index 0) — the source
  /// FlatForest::build flattens into the structure-of-arrays arena.
  const std::vector<Node>& nodes() const noexcept { return nodes_; }

  /// Serializes the fitted tree (structure + leaf values). Requires fitted().
  util::Json to_json() const;
  /// Rebuilds a tree from to_json() output; throws InvalidArgument/ParseError
  /// on malformed documents (bad child indices, missing fields).
  static DecisionTree from_json(const util::Json& doc);

 private:
  std::vector<Node> nodes_;
  std::size_t n_features_ = 0;
  int depth_ = 0;
};

}  // namespace acclaim::ml
