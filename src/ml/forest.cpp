#include "ml/forest.hpp"

#include <algorithm>
#include <numeric>

#include "telemetry/metrics.hpp"
#include "telemetry/profiler.hpp"
#include "util/error.hpp"
#include "util/thread_pool.hpp"

namespace acclaim::ml {

void RandomForest::fit(const std::vector<FeatureRow>& X, const std::vector<double>& y,
                       const ForestParams& params, std::uint64_t seed) {
  require(params.n_trees >= 1, "forest requires at least one tree");
  require(!X.empty() && X.size() == y.size(), "forest requires non-empty, aligned X/y");
  static telemetry::Counter& fits = telemetry::metrics().counter("ml.forest.fits");
  static telemetry::Histogram& fit_ms =
      telemetry::metrics().histogram("ml.forest.fit_ms", {0.01, 32});
  const telemetry::Span span("forest.fit", fit_ms, telemetry::Unit::ms);
  // One column view (and its per-feature rank codes) serves every tree;
  // building it validates X before the current model is replaced.
  const FeatureColumns cols(X);
  trees_.assign(static_cast<std::size_t>(params.n_trees), DecisionTree{});
  // One independent stream per tree, derived from the run seed *before* the
  // parallel region. Tree i always sees the i-th derived seed, so the forest
  // is bitwise-identical for any thread count (and identical to the old
  // sequential rng.split() chain, which produced exactly these seeds).
  util::Rng rng(seed);
  std::vector<std::uint64_t> tree_seeds(trees_.size());
  for (std::uint64_t& s : tree_seeds) {
    s = rng.next_u64();
  }
  std::vector<std::size_t> all_rows;
  if (!params.bootstrap) {
    all_rows.resize(X.size());
    std::iota(all_rows.begin(), all_rows.end(), 0);
  }
  util::global_pool().parallel_for(0, trees_.size(), [&](std::size_t i) {
    util::Rng tree_rng(tree_seeds[i]);
    if (params.bootstrap) {
      std::vector<std::size_t> sample(X.size());
      for (auto& s : sample) {
        s = tree_rng.index(X.size());
      }
      trees_[i].fit(cols, y, sample, params.tree, tree_rng);
    } else {
      trees_[i].fit(cols, y, all_rows, params.tree, tree_rng);
    }
  });
  // Flatten once per fit: the SoA arena is immutable until the next fit,
  // so every prediction from here on is a pure read.
  flat_ = FlatForest::build(trees_);
  fits.add();
}

double RandomForest::predict(const FeatureRow& row) const {
  require(fitted(), "RandomForest::predict called before fit");
  return flat_.predict(row);
}

std::vector<double> RandomForest::predict_trees(const FeatureRow& row) const {
  std::vector<double> out;
  predict_trees(row, out);
  return out;
}

void RandomForest::predict_trees(const FeatureRow& row, std::vector<double>& out) const {
  require(fitted(), "RandomForest::predict_trees called before fit");
  // The flat walk is a serial sweep over the arena: for the 24-100 tree
  // forests the pipeline runs, one cache-friendly pass beats farming
  // per-tree tasks out to the pool (and is trivially thread-invariant).
  flat_.predict_trees(row, out);
  // Hot path (jackknife variance sweeps call this per candidate per
  // iteration): a relaxed increment only, no clock reads.
  static telemetry::Counter& predicts = telemetry::metrics().counter("ml.forest.predicts");
  predicts.add();
}

void RandomForest::jackknife_batch(const FeatureRow* rows, std::size_t n_rows,
                                   double* variances, std::vector<double>& scratch) const {
  require(fitted(), "RandomForest::jackknife_batch called before fit");
  if (n_rows == 0) {
    return;
  }
  flat_.jackknife_batch(rows, n_rows, variances, scratch);
  // One "predict" per row keeps the counter's meaning (forest evaluations)
  // identical between the scalar and batched entry points.
  static telemetry::Counter& predicts = telemetry::metrics().counter("ml.forest.predicts");
  static telemetry::Counter& batched = telemetry::metrics().counter("ml.forest.batched_rows");
  predicts.add(n_rows);
  batched.add(n_rows);
}

util::Json RandomForest::to_json() const {
  require(fitted(), "cannot serialize an unfitted forest");
  util::Json doc = util::Json::object();
  doc["model"] = "acclaim-random-forest-v1";
  util::Json trees = util::Json::array();
  for (const DecisionTree& tree : trees_) {
    trees.push_back(tree.to_json());
  }
  doc["trees"] = std::move(trees);
  return doc;
}

RandomForest RandomForest::from_json(const util::Json& doc) {
  require(doc.contains("model") && doc.at("model").as_string() == "acclaim-random-forest-v1",
          "unknown forest serialization format");
  RandomForest forest;
  for (const util::Json& tree : doc.at("trees").as_array()) {
    forest.trees_.push_back(DecisionTree::from_json(tree));
  }
  require(forest.fitted(), "serialized forest must contain at least one tree");
  forest.flat_ = FlatForest::build(forest.trees_);
  return forest;
}

PredictionStats summarize_predictions(const std::vector<double>& tree_preds) {
  require(!tree_preds.empty(), "summarize_predictions requires at least one prediction");
  PredictionStats stats;
  stats.min = tree_preds.front();
  stats.max = tree_preds.front();
  double sum = 0.0;
  for (double v : tree_preds) {
    sum += v;  // tree order, matching RandomForest::predict exactly
    stats.min = std::min(stats.min, v);
    stats.max = std::max(stats.max, v);
  }
  stats.mean = sum / static_cast<double>(tree_preds.size());
  stats.variance = jackknife_variance(tree_preds);
  return stats;
}

double jackknife_variance(const std::vector<double>& values) {
  return jackknife_variance(values.data(), values.size());
}

double jackknife_variance(const double* values, std::size_t n) {
  if (n < 2) {
    return 0.0;
  }
  double sum = 0.0;
  for (std::size_t i = 0; i < n; ++i) {
    sum += values[i];
  }
  const double mean = sum / static_cast<double>(n);
  // The i-th jackknife sample is (sum - v_i) / (n - 1), so
  // mean - sample_i = (v_i - mean) / (n - 1).
  double acc = 0.0;
  for (std::size_t i = 0; i < n; ++i) {
    const double d = (values[i] - mean) / static_cast<double>(n - 1);
    acc += d * d;
  }
  return acc / static_cast<double>(n - 1);
}

}  // namespace acclaim::ml
