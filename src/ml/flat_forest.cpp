#include "ml/flat_forest.hpp"

#include <algorithm>
#include <utility>

#include "ml/forest.hpp"  // jackknife_variance span overload
#include "util/error.hpp"

namespace acclaim::ml {

FlatForest FlatForest::build(const std::vector<DecisionTree>& trees) {
  require(!trees.empty(), "FlatForest::build requires at least one tree");
  FlatForest f;
  f.n_features_ = trees.front().n_features();
  std::size_t total = 0;
  for (const DecisionTree& tree : trees) {
    require(tree.fitted(), "FlatForest::build requires fitted trees");
    require(tree.n_features() == f.n_features_,
            "FlatForest::build requires trees over the same feature space");
    total += tree.node_count();
  }
  f.feature_.reserve(total);
  f.threshold_.reserve(total);
  f.left_.reserve(total);
  f.right_.reserve(total);
  f.value_.reserve(total);
  f.roots_.reserve(trees.size());
  f.depth_.reserve(trees.size());
  for (const DecisionTree& tree : trees) {
    const auto base = static_cast<std::int32_t>(f.feature_.size());
    f.roots_.push_back(base);  // each tree's root is its node 0
    std::int32_t arena_index = base;
    for (const DecisionTree::Node& node : tree.nodes()) {
      f.feature_.push_back(node.feature);
      f.threshold_.push_back(node.threshold);
      // Child indices become arena-absolute. Leaves self-loop: stepping a
      // row already at its leaf leaves it there, so the batched kernel can
      // run every row for the tree's full depth unconditionally.
      f.left_.push_back(node.feature < 0 ? arena_index : node.left + base);
      f.right_.push_back(node.feature < 0 ? arena_index : node.right + base);
      f.value_.push_back(node.value);
      ++arena_index;
    }
    // Max root-to-leaf edge count, by explicit DFS (child order in
    // from_json-built trees is only bounds-checked, so no layout assumption;
    // the visit bound rejects cyclic node graphs instead of spinning).
    std::int32_t depth = 0;
    std::size_t visits = 0;
    std::vector<std::pair<std::int32_t, std::int32_t>> stack{{0, 0}};
    while (!stack.empty()) {
      const auto [idx, d] = stack.back();
      stack.pop_back();
      require(++visits <= tree.node_count(), "tree node graph is not a tree");
      const DecisionTree::Node& node = tree.nodes()[static_cast<std::size_t>(idx)];
      if (node.feature < 0) {
        depth = std::max(depth, d);
      } else {
        stack.push_back({node.left, d + 1});
        stack.push_back({node.right, d + 1});
      }
    }
    f.depth_.push_back(depth);
  }
  return f;
}

namespace {

/// One root-to-leaf walk over the arena. The comparison is
/// `x[f] <= threshold`, so NaN features route right.
inline double walk(const double* x, std::int32_t root, const std::int32_t* feature,
                   const double* threshold, const std::int32_t* left,
                   const std::int32_t* right, const double* value) {
  std::int32_t cur = root;
  std::int32_t f = feature[cur];
  while (f >= 0) {
    cur = x[static_cast<std::size_t>(f)] <= threshold[cur] ? left[cur] : right[cur];
    f = feature[cur];
  }
  return value[cur];
}

}  // namespace

double FlatForest::predict(const FeatureRow& row) const {
  require(built(), "FlatForest::predict called before build");
  require(row.size() == n_features_, "feature count mismatch in predict");
  double sum = 0.0;
  for (const std::int32_t root : roots_) {
    sum += walk(row.data(), root, feature_.data(), threshold_.data(), left_.data(),
                right_.data(), value_.data());
  }
  return sum / static_cast<double>(roots_.size());
}

void FlatForest::predict_trees(const FeatureRow& row, std::vector<double>& out) const {
  require(built(), "FlatForest::predict_trees called before build");
  require(row.size() == n_features_, "feature count mismatch in predict_trees");
  out.resize(roots_.size());
  for (std::size_t t = 0; t < roots_.size(); ++t) {
    out[t] = walk(row.data(), roots_[t], feature_.data(), threshold_.data(), left_.data(),
                  right_.data(), value_.data());
  }
}

void FlatForest::predict_trees_batch(const FeatureRow* rows, std::size_t n_rows,
                                     double* out) const {
  require(built(), "FlatForest::predict_trees_batch called before build");
  for (std::size_t r = 0; r < n_rows; ++r) {
    require(rows[r].size() == n_features_, "feature count mismatch in predict_trees_batch");
  }
  const std::size_t nt = roots_.size();
  const std::int32_t* feature = feature_.data();
  const double* threshold = threshold_.data();
  const std::int32_t* left = left_.data();
  const std::int32_t* right = right_.data();
  const double* value = value_.data();
  // Tree-major: tree t's slice of the arena stays cache-hot while the whole
  // batch of rows walks it; each (tree, row) pair writes its own slot.
  //
  // Rows advance kLanes at a time in lockstep for depth_[t] levels. A single
  // walk is a chain of dependent loads (node -> child -> grandchild), so one
  // row at a time leaves the core idle between hops; kLanes independent
  // chains in flight cover that latency. The per-level step is branchless:
  // leaves self-loop (left == right == self), so a lane that reached its
  // leaf early re-selects the same node — clamping its -1 split feature to
  // 0 only feeds the comparison whose two outcomes are identical. Each lane
  // evaluates the exact `x[f] <= threshold` expression of the scalar walk
  // and lands on the same leaf, so results are bit-identical and
  // independent of the lane count.
  constexpr std::size_t kLanes = 8;
  for (std::size_t t = 0; t < nt; ++t) {
    const std::int32_t root = roots_[t];
    const std::int32_t depth = depth_[t];
    std::size_t r = 0;
    for (; r + kLanes <= n_rows; r += kLanes) {
      std::int32_t cur[kLanes];
      const double* x[kLanes];
      for (std::size_t l = 0; l < kLanes; ++l) {
        cur[l] = root;
        x[l] = rows[r + l].data();
      }
      for (std::int32_t level = 0; level < depth; ++level) {
        for (std::size_t l = 0; l < kLanes; ++l) {
          const std::int32_t c = cur[l];
          const std::int32_t f = std::max(feature[c], 0);
          cur[l] = x[l][static_cast<std::size_t>(f)] <= threshold[c] ? left[c] : right[c];
        }
      }
      for (std::size_t l = 0; l < kLanes; ++l) {
        out[(r + l) * nt + t] = value[cur[l]];
      }
    }
    for (; r < n_rows; ++r) {
      out[r * nt + t] = walk(rows[r].data(), root, feature, threshold, left, right, value);
    }
  }
}

void FlatForest::jackknife_batch(const FeatureRow* rows, std::size_t n_rows,
                                 double* variances, std::vector<double>& scratch) const {
  require(built(), "FlatForest::jackknife_batch called before build");
  if (n_rows == 0) {
    return;
  }
  const std::size_t nt = roots_.size();
  if (scratch.size() < n_rows * nt) {
    scratch.resize(n_rows * nt);
  }
  predict_trees_batch(rows, n_rows, scratch.data());
  // Per-row reductions in tree order, serially over the same values
  // ml::jackknife_variance sees on the scalar path, so the fusion changes
  // no bit.
  for (std::size_t r = 0; r < n_rows; ++r) {
    variances[r] = jackknife_variance(scratch.data() + r * nt, nt);
  }
}

}  // namespace acclaim::ml
