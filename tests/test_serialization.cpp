// Tests for model persistence: trees, forests, and collective models must
// round-trip through JSON with bit-identical predictions.
#include <gtest/gtest.h>

#include <cstdio>
#include <filesystem>

#include "core/model.hpp"
#include "ml/forest.hpp"
#include "ml/tree.hpp"
#include "reference_forest.hpp"
#include "test_helpers.hpp"
#include "util/error.hpp"

namespace {

using namespace acclaim;

struct Synth {
  std::vector<ml::FeatureRow> X;
  std::vector<double> y;
};

Synth make_synth(std::size_t n, std::uint64_t seed) {
  util::Rng rng(seed);
  Synth s;
  for (std::size_t i = 0; i < n; ++i) {
    const double a = rng.uniform(0, 8);
    const double b = rng.uniform(0, 4);
    s.X.push_back({a, b});
    s.y.push_back(2.0 * a + (b > 2.0 ? 10.0 : 0.0) + rng.normal(0, 0.1));
  }
  return s;
}

TEST(TreeSerialization, RoundTripPredictionsIdentical) {
  const Synth s = make_synth(300, 1);
  ml::DecisionTree tree;
  util::Rng rng(2);
  tree.fit(s.X, s.y, ml::TreeParams{}, rng);
  const ml::DecisionTree back = ml::DecisionTree::from_json(tree.to_json());
  EXPECT_EQ(back.node_count(), tree.node_count());
  EXPECT_EQ(back.depth(), tree.depth());
  for (const auto& row : s.X) {
    EXPECT_DOUBLE_EQ(testing_support::reference_predict(back, row),
                     testing_support::reference_predict(tree, row));
  }
  // Text round trip too.
  const auto reparsed = ml::DecisionTree::from_json(util::Json::parse(tree.to_json().dump()));
  EXPECT_DOUBLE_EQ(testing_support::reference_predict(reparsed, s.X[0]),
                   testing_support::reference_predict(tree, s.X[0]));
}

TEST(TreeSerialization, RejectsMalformedDocuments) {
  ml::DecisionTree tree;
  EXPECT_THROW(tree.to_json(), InvalidArgument);  // unfitted
  EXPECT_THROW(ml::DecisionTree::from_json(util::Json::parse("{}")), NotFoundError);
  // Child index out of range.
  const std::string bad = R"({"n_features": 1, "depth": 1,
      "feature": [0], "threshold": [1.0], "left": [5], "right": [0],
      "value": [0.0]})";
  EXPECT_THROW(ml::DecisionTree::from_json(util::Json::parse(bad)), InvalidArgument);
  // Misaligned arrays.
  const std::string ragged = R"({"n_features": 1, "depth": 0,
      "feature": [-1, -1], "threshold": [0.0], "left": [-1], "right": [-1],
      "value": [1.0]})";
  EXPECT_THROW(ml::DecisionTree::from_json(util::Json::parse(ragged)), InvalidArgument);
}

TEST(ForestSerialization, RoundTripPredictionsIdentical) {
  const Synth s = make_synth(300, 3);
  ml::RandomForest forest;
  ml::ForestParams params;
  params.n_trees = 12;
  forest.fit(s.X, s.y, params, 4);
  const ml::RandomForest back = ml::RandomForest::from_json(forest.to_json());
  EXPECT_EQ(back.n_trees(), 12u);
  for (const auto& row : s.X) {
    EXPECT_DOUBLE_EQ(back.predict(row), forest.predict(row));
    EXPECT_EQ(back.predict_trees(row), forest.predict_trees(row));
  }
  EXPECT_THROW(ml::RandomForest::from_json(util::Json::parse("{\"model\": \"x\"}")),
               InvalidArgument);
}

TEST(ModelSerialization, RoundTripSelectionsIdentical) {
  const bench::Dataset& ds = testing_support::small_dataset();
  std::vector<core::LabeledPoint> data;
  for (const auto& p : ds.points(coll::Collective::Bcast)) {
    data.push_back({p, ds.at(p).mean_us});
  }
  core::CollectiveModel model(coll::Collective::Bcast);
  model.fit(data, 5);

  // Through a file, like a job would persist it.
  const std::string path =
      (std::filesystem::temp_directory_path() / "acclaim_model_test.json").string();
  model.to_json().dump_file(path);
  const core::CollectiveModel back =
      core::CollectiveModel::from_json(util::Json::parse_file(path));
  std::remove(path.c_str());

  EXPECT_EQ(back.collective(), coll::Collective::Bcast);
  EXPECT_EQ(back.training_points(), data.size());
  ASSERT_TRUE(back.trained());
  for (const auto& s : testing_support::small_space().scenarios(coll::Collective::Bcast)) {
    EXPECT_EQ(back.select(s), model.select(s)) << s.to_string();
  }
  for (const auto& p : ds.points(coll::Collective::Bcast)) {
    EXPECT_DOUBLE_EQ(back.predict_log_us(p), model.predict_log_us(p));
    EXPECT_DOUBLE_EQ(back.jackknife_variance(p), model.jackknife_variance(p));
  }
}

TEST(ModelSerialization, UntrainedAndWrongFormatRejected) {
  core::CollectiveModel model(coll::Collective::Reduce);
  EXPECT_THROW(model.to_json(), InvalidArgument);
  EXPECT_THROW(core::CollectiveModel::from_json(util::Json::parse("{\"model\": \"other\"}")),
               InvalidArgument);
}

}  // namespace
