// Differential suite pinning the SoA FlatForest engine to the reference
// node walk (tests/reference_forest.hpp): randomized forests x randomized
// feature rows must produce bitwise-identical predictions, per-tree
// outputs, and fused jackknife results, including degenerate trees (single
// leaf, constant features, duplicate thresholds) and adversarial row
// values (NaN, infinities, extremes). This suite is the contract
// flat_forest.hpp's header states.
#include <gtest/gtest.h>

#include <cmath>
#include <cstdint>
#include <limits>
#include <vector>

#include "ml/flat_forest.hpp"
#include "ml/forest.hpp"
#include "reference_forest.hpp"
#include "util/error.hpp"
#include "util/json.hpp"
#include "util/rng.hpp"

namespace {

using namespace acclaim;

/// Seeded random training set: `n_features` columns, mixed continuous and
/// small-integer (duplicate-threshold-inducing) features.
void random_data(util::Rng& rng, std::size_t n_features, std::size_t n_samples,
                 std::vector<ml::FeatureRow>& X, std::vector<double>& y) {
  X.clear();
  y.clear();
  for (std::size_t i = 0; i < n_samples; ++i) {
    ml::FeatureRow row(n_features);
    double label = 0.0;
    for (std::size_t f = 0; f < n_features; ++f) {
      // Even columns continuous, odd columns drawn from {0,1,2,3} so many
      // split candidates tie at identical thresholds.
      row[f] = (f % 2 == 0) ? rng.uniform(-3.0, 3.0)
                            : static_cast<double>(rng.uniform_int(0, 3));
      label += row[f] * (0.3 + 0.2 * static_cast<double>(f));
    }
    X.push_back(std::move(row));
    y.push_back(label + rng.normal(0.0, 0.1));
  }
}

/// Random probe rows over (and beyond) the training range.
std::vector<ml::FeatureRow> random_rows(util::Rng& rng, std::size_t n_features,
                                        std::size_t n_rows) {
  std::vector<ml::FeatureRow> rows;
  for (std::size_t i = 0; i < n_rows; ++i) {
    ml::FeatureRow row(n_features);
    for (double& v : row) {
      v = rng.uniform(-10.0, 10.0);
    }
    rows.push_back(std::move(row));
  }
  return rows;
}

using testing_support::reference_mean;
using testing_support::reference_predict_trees;

TEST(FlatForestBuild, ArenaCoversEveryNodeOfEveryTree) {
  util::Rng rng(11);
  std::vector<ml::FeatureRow> X;
  std::vector<double> y;
  random_data(rng, 4, 120, X, y);
  ml::ForestParams params;
  params.n_trees = 9;
  ml::RandomForest forest;
  forest.fit(X, y, params, 5);

  const ml::FlatForest& flat = forest.flat();
  ASSERT_TRUE(flat.built());
  EXPECT_EQ(flat.n_trees(), forest.n_trees());
  EXPECT_EQ(flat.n_features(), 4u);
  std::size_t total = 0;
  for (const ml::DecisionTree& tree : forest.trees()) {
    total += tree.node_count();
  }
  EXPECT_EQ(flat.n_nodes(), total);
}

TEST(FlatForestDifferential, RandomForestsBitwiseEqualAcrossEngines) {
  util::Rng rng(2024);
  for (int trial = 0; trial < 8; ++trial) {
    const std::size_t n_features = 2 + static_cast<std::size_t>(rng.uniform_int(0, 4));
    std::vector<ml::FeatureRow> X;
    std::vector<double> y;
    random_data(rng, n_features, 40 + static_cast<std::size_t>(rng.uniform_int(0, 160)), X, y);
    ml::ForestParams params;
    params.n_trees = 1 + static_cast<int>(rng.uniform_int(0, 40));
    params.bootstrap = trial % 2 == 0;
    params.tree.max_depth = 2 + static_cast<int>(rng.uniform_int(0, 20));
    params.tree.min_samples_leaf = 1 + static_cast<int>(rng.uniform_int(0, 4));
    ml::RandomForest forest;
    forest.fit(X, y, params, static_cast<std::uint64_t>(100 + trial));

    for (const ml::FeatureRow& row : random_rows(rng, n_features, 25)) {
      const std::vector<double> ref = reference_predict_trees(forest, row);
      std::vector<double> flat_preds;
      forest.predict_trees(row, flat_preds);
      ASSERT_EQ(flat_preds, ref) << "trial=" << trial;
      ASSERT_EQ(forest.predict(row), reference_mean(ref)) << "trial=" << trial;
    }
  }
}

TEST(FlatForestDifferential, BatchedMatchesScalarForRandomBatchSizes) {
  util::Rng rng(31);
  std::vector<ml::FeatureRow> X;
  std::vector<double> y;
  random_data(rng, 5, 150, X, y);
  ml::ForestParams params;
  params.n_trees = 17;
  ml::RandomForest forest;
  forest.fit(X, y, params, 9);
  const ml::FlatForest& flat = forest.flat();

  // Sizes straddling the kernel's lane width: tail-only, one full block,
  // full blocks plus tail, and larger random batches.
  for (const std::size_t n_rows : {std::size_t{1}, std::size_t{3}, std::size_t{8},
                                   std::size_t{9}, std::size_t{16}, std::size_t{21},
                                   static_cast<std::size_t>(rng.uniform_int(30, 200))}) {
    const std::vector<ml::FeatureRow> rows = random_rows(rng, 5, n_rows);
    std::vector<double> batched(n_rows * flat.n_trees());
    flat.predict_trees_batch(rows.data(), n_rows, batched.data());
    std::vector<double> scalar;
    for (std::size_t r = 0; r < n_rows; ++r) {
      flat.predict_trees(rows[r], scalar);
      for (std::size_t t = 0; t < flat.n_trees(); ++t) {
        ASSERT_EQ(batched[r * flat.n_trees() + t], scalar[t])
            << "n_rows=" << n_rows << " row=" << r << " tree=" << t;
      }
      ASSERT_EQ(scalar, reference_predict_trees(forest, rows[r]));
    }
  }
}

TEST(FlatForestDifferential, FusedJackknifeMatchesScalarReductions) {
  util::Rng rng(47);
  std::vector<ml::FeatureRow> X;
  std::vector<double> y;
  random_data(rng, 4, 180, X, y);
  ml::ForestParams params;
  params.n_trees = 33;
  ml::RandomForest forest;
  forest.fit(X, y, params, 21);

  const std::vector<ml::FeatureRow> rows = random_rows(rng, 4, 57);
  std::vector<double> var(rows.size()), scratch;
  forest.flat().jackknife_batch(rows.data(), rows.size(), var.data(), scratch);

  // Also through the RandomForest entry point, and the scalar reference
  // reduction over the node walk.
  std::vector<double> var_flat(rows.size()), var_ref(rows.size());
  {
    std::vector<double> s;
    forest.jackknife_batch(rows.data(), rows.size(), var_flat.data(), s);
    testing_support::reference_jackknife_batch(forest, rows.data(), rows.size(), var_ref.data(),
                                               s);
  }
  forest.jackknife_batch(rows.data(), 0, nullptr, scratch);  // no rows: a no-op

  for (std::size_t r = 0; r < rows.size(); ++r) {
    const double want_var = ml::jackknife_variance(reference_predict_trees(forest, rows[r]));
    ASSERT_EQ(var[r], want_var) << "row=" << r;
    ASSERT_EQ(var_flat[r], want_var) << "row=" << r;
    ASSERT_EQ(var_ref[r], want_var) << "row=" << r;
  }
}

TEST(FlatForestDegenerate, SingleLeafTreesPredictTheConstant) {
  // Constant target: every tree collapses to a single leaf (depth 0), the
  // batched kernel's zero-iteration path.
  std::vector<ml::FeatureRow> X;
  std::vector<double> y;
  util::Rng rng(8);
  for (int i = 0; i < 30; ++i) {
    X.push_back({rng.uniform(), rng.uniform()});
    y.push_back(2.5);
  }
  ml::ForestParams params;
  params.n_trees = 10;
  ml::RandomForest forest;
  forest.fit(X, y, params, 2);

  const std::vector<ml::FeatureRow> rows = random_rows(rng, 2, 19);
  std::vector<double> batched(rows.size() * forest.n_trees());
  forest.flat().predict_trees_batch(rows.data(), rows.size(), batched.data());
  for (std::size_t r = 0; r < rows.size(); ++r) {
    const std::vector<double> ref = reference_predict_trees(forest, rows[r]);
    for (std::size_t t = 0; t < forest.n_trees(); ++t) {
      ASSERT_EQ(batched[r * forest.n_trees() + t], ref[t]);
    }
    ASSERT_EQ(forest.predict(rows[r]), reference_mean(ref));
  }
}

TEST(FlatForestDegenerate, ConstantFeaturesAndDuplicateThresholds) {
  // One informative small-integer column among constant columns: splits
  // stack on duplicated thresholds, constant columns are never split on.
  std::vector<ml::FeatureRow> X;
  std::vector<double> y;
  util::Rng rng(6);
  for (int i = 0; i < 80; ++i) {
    const double v = static_cast<double>(rng.uniform_int(0, 2));
    X.push_back({1.0, v, -7.0});
    y.push_back(v * 3.0 + rng.normal(0.0, 0.01));
  }
  ml::ForestParams params;
  params.n_trees = 12;
  ml::RandomForest forest;
  forest.fit(X, y, params, 13);

  // Probe exactly on the duplicated threshold values (the <= boundary) and
  // on the constant columns' value.
  std::vector<ml::FeatureRow> rows;
  for (double v : {0.0, 0.5, 1.0, 1.5, 2.0, -1.0, 3.0}) {
    rows.push_back({1.0, v, -7.0});
  }
  for (const ml::FeatureRow& row : rows) {
    const std::vector<double> ref = reference_predict_trees(forest, row);
    std::vector<double> flat_preds;
    forest.flat().predict_trees(row, flat_preds);
    ASSERT_EQ(flat_preds, ref);
  }
  std::vector<double> batched(rows.size() * forest.n_trees());
  forest.flat().predict_trees_batch(rows.data(), rows.size(), batched.data());
  for (std::size_t r = 0; r < rows.size(); ++r) {
    const std::vector<double> ref = reference_predict_trees(forest, rows[r]);
    for (std::size_t t = 0; t < forest.n_trees(); ++t) {
      ASSERT_EQ(batched[r * forest.n_trees() + t], ref[t]);
    }
  }
}

TEST(FlatForestDegenerate, NanAndExtremeValuesRouteIdentically) {
  util::Rng rng(77);
  std::vector<ml::FeatureRow> X;
  std::vector<double> y;
  random_data(rng, 3, 100, X, y);
  ml::ForestParams params;
  params.n_trees = 15;
  ml::RandomForest forest;
  forest.fit(X, y, params, 3);

  const double nan = std::numeric_limits<double>::quiet_NaN();
  const double inf = std::numeric_limits<double>::infinity();
  const double huge = std::numeric_limits<double>::max();
  const double tiny = std::numeric_limits<double>::denorm_min();
  const std::vector<ml::FeatureRow> rows = {
      {nan, 0.0, 0.0},   {0.0, nan, 1.0},    {nan, nan, nan},
      {inf, -inf, 0.0},  {-inf, inf, nan},   {huge, -huge, tiny},
      {tiny, -tiny, inf}, {0.0, -0.0, nan},
  };
  for (const ml::FeatureRow& row : rows) {
    // NaN fails `x <= threshold`, so the arena must route right at every
    // NaN-featured split — verified against the reference node walk.
    const std::vector<double> ref = reference_predict_trees(forest, row);
    std::vector<double> flat_preds;
    forest.flat().predict_trees(row, flat_preds);
    ASSERT_EQ(flat_preds, ref);
    ASSERT_EQ(forest.flat().predict(row), reference_mean(ref));
  }
  std::vector<double> batched(rows.size() * forest.n_trees());
  forest.flat().predict_trees_batch(rows.data(), rows.size(), batched.data());
  std::vector<double> var(rows.size()), scratch;
  forest.flat().jackknife_batch(rows.data(), rows.size(), var.data(), scratch);
  for (std::size_t r = 0; r < rows.size(); ++r) {
    const std::vector<double> ref = reference_predict_trees(forest, rows[r]);
    for (std::size_t t = 0; t < forest.n_trees(); ++t) {
      ASSERT_EQ(batched[r * forest.n_trees() + t], ref[t]);
    }
    ASSERT_EQ(var[r], ml::jackknife_variance(ref));
  }
}

TEST(FlatForestSerialization, FromJsonRebuildsTheArena) {
  util::Rng rng(91);
  std::vector<ml::FeatureRow> X;
  std::vector<double> y;
  random_data(rng, 4, 90, X, y);
  ml::ForestParams params;
  params.n_trees = 11;
  ml::RandomForest forest;
  forest.fit(X, y, params, 17);

  const ml::RandomForest restored = ml::RandomForest::from_json(forest.to_json());
  ASSERT_TRUE(restored.flat().built());
  EXPECT_EQ(restored.flat().n_nodes(), forest.flat().n_nodes());
  for (const ml::FeatureRow& row : random_rows(rng, 4, 20)) {
    std::vector<double> a, b;
    forest.flat().predict_trees(row, a);
    restored.flat().predict_trees(row, b);
    ASSERT_EQ(a, b);
  }
}

TEST(FlatForestSerialization, CyclicNodeGraphIsRejectedAtLoadTime) {
  // DecisionTree::from_json only bounds-checks child indices; a cycle used
  // to hang predict(). The arena build's DFS visit bound now rejects it
  // when RandomForest::from_json flattens the trees.
  util::Json tree = util::Json::object();
  tree["n_features"] = 1;
  tree["depth"] = 1;
  tree["feature"] = util::Json::array();
  tree["threshold"] = util::Json::array();
  tree["left"] = util::Json::array();
  tree["right"] = util::Json::array();
  tree["value"] = util::Json::array();
  // Node 0 splits and points both children back at itself.
  tree["feature"].push_back(0);
  tree["threshold"].push_back(0.5);
  tree["left"].push_back(0);
  tree["right"].push_back(0);
  tree["value"].push_back(0.0);

  util::Json doc = util::Json::object();
  doc["model"] = "acclaim-random-forest-v1";
  util::Json trees = util::Json::array();
  trees.push_back(std::move(tree));
  doc["trees"] = std::move(trees);
  EXPECT_THROW(ml::RandomForest::from_json(doc), InvalidArgument);
}

}  // namespace
