// Differential suite for the CART fit: the presorted rank-code scan with its
// certified split margin must build the very tree the per-node-sort oracle
// in reference_tree.hpp builds — same JSON byte for byte, same node bits,
// same random draws — on randomized datasets shaped like the encoded
// benchmark points (discrete log2 axes, one-hot blocks) and on the edge
// cases (±0.0, ±inf, duplicate rows, constant columns and targets,
// bootstrap multiplicities, small leaves and depths, feature subsets).
#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <cmath>
#include <cstdint>
#include <limits>
#include <numeric>
#include <string>
#include <vector>

#include "ml/forest.hpp"
#include "ml/tree.hpp"
#include "reference_tree.hpp"
#include "telemetry/metrics.hpp"
#include "util/error.hpp"
#include "util/rng.hpp"
#include "util/thread_pool.hpp"

namespace {

using namespace acclaim;
using ml::DecisionTree;
using ml::FeatureRow;
using ml::TreeParams;
using testing_support::ReferenceTree;

constexpr double kInf = std::numeric_limits<double>::infinity();

struct Case {
  std::vector<FeatureRow> X;
  std::vector<double> y;
  std::vector<std::size_t> sample;
  TreeParams params;
};

/// Appends one column group to every row: a discrete log2 axis, a one-hot
/// block, a continuous feature, a signed-zero or infinite column, or a
/// constant column.
void add_columns(std::vector<FeatureRow>& X, util::Rng& rng) {
  const std::size_t n = X.size();
  switch (rng.index(6)) {
    case 0: {  // log2 grid axis, every 5th row off the power-of-two grid
      const std::size_t levels = 2 + rng.index(8);
      for (std::size_t i = 0; i < n; ++i) {
        double v = static_cast<double>(rng.index(levels));
        if (i % 5 == 4) {
          v += std::log2(1.0 + rng.uniform());
        }
        X[i].push_back(v);
      }
      break;
    }
    case 1: {  // one-hot block of 2..4 algorithms
      const std::size_t width = 2 + rng.index(3);
      for (std::size_t i = 0; i < n; ++i) {
        const std::size_t hot = rng.index(width);
        for (std::size_t j = 0; j < width; ++j) {
          X[i].push_back(j == hot ? 1.0 : 0.0);
        }
      }
      break;
    }
    case 2:
      for (auto& row : X) {
        row.push_back(rng.uniform(-3.0, 3.0));
      }
      break;
    case 3: {
      constexpr double kZeros[] = {-0.0, 0.0, -1.0, 1.0};
      for (auto& row : X) {
        row.push_back(kZeros[rng.index(4)]);
      }
      break;
    }
    case 4: {
      const double kInfs[] = {-kInf, -1.5, 0.0, 2.0, kInf};
      for (auto& row : X) {
        row.push_back(kInfs[rng.index(5)]);
      }
      break;
    }
    default: {
      const double c = rng.uniform(-1.0, 1.0);
      for (auto& row : X) {
        row.push_back(c);
      }
      break;
    }
  }
}

Case make_case(std::uint64_t seed) {
  util::Rng rng(seed);
  Case c;
  const std::size_t n = seed == 0 ? 1 : seed == 1 ? 300 : 1 + rng.index(300);
  c.X.assign(n, FeatureRow{});
  const std::size_t groups = 1 + rng.index(4);
  for (std::size_t g = 0; g < groups; ++g) {
    add_columns(c.X, rng);
  }
  // Duplicate rows with their own targets.
  const std::size_t dups = rng.chance(0.3) ? n / 4 : 0;
  for (std::size_t d = 0; d < dups; ++d) {
    c.X[rng.index(n)] = c.X[rng.index(n)];
  }
  const std::size_t nf = c.X[0].size();
  const std::size_t target = rng.index(4);
  for (std::size_t i = 0; i < n; ++i) {
    double v = 0.0;
    for (std::size_t f = 0; f < nf; ++f) {
      const double x = c.X[i][f];
      v += std::isfinite(x) ? x * static_cast<double>(f + 1) : (x > 0 ? 7.0 : -7.0);
    }
    switch (target) {
      case 0:  // constant target
        c.y.push_back(3.25);
        break;
      case 1:  // few distinct levels: exact score ties between features
        c.y.push_back(std::round(v));
        break;
      case 2:  // latency-like: positive, wide dynamic range
        c.y.push_back(std::exp2(v / 4.0) * (1.0 + 0.05 * rng.uniform()));
        break;
      default:
        c.y.push_back(v + rng.normal(0.0, 0.5));
        break;
    }
  }
  switch (rng.index(3)) {
    case 0:  // the forest's bootstrap
      for (std::size_t i = 0; i < n; ++i) {
        c.sample.push_back(rng.index(n));
      }
      break;
    case 1: {  // heavy multiplicities of a few rows
      const std::size_t rows = 1 + rng.index(std::min<std::size_t>(n, 8));
      for (std::size_t i = 0; i < n; ++i) {
        c.sample.push_back(rng.index(rows));
      }
      break;
    }
    default:
      c.sample.resize(n);
      std::iota(c.sample.begin(), c.sample.end(), 0);
      break;
  }
  constexpr int kDepths[] = {32, 1, 2, 3, 6};
  constexpr int kLeaves[] = {1, 1, 2, 3, 7};
  c.params.max_depth = kDepths[rng.index(5)];
  c.params.min_samples_leaf = kLeaves[rng.index(5)];
  c.params.min_samples_split = rng.chance(0.25) ? 5 : 2;
  c.params.max_features = rng.chance(0.5) ? -1 : static_cast<int>(1 + rng.index(nf));
  return c;
}

/// Node arrays equal bit for bit (the JSON text would hide -0.0 vs 0.0).
void expect_same_bits(const std::vector<DecisionTree::Node>& a,
                      const std::vector<DecisionTree::Node>& b) {
  ASSERT_EQ(a.size(), b.size());
  for (std::size_t i = 0; i < a.size(); ++i) {
    EXPECT_EQ(a[i].feature, b[i].feature) << "node " << i;
    EXPECT_EQ(std::bit_cast<std::uint64_t>(a[i].threshold),
              std::bit_cast<std::uint64_t>(b[i].threshold))
        << "node " << i;
    EXPECT_EQ(a[i].left, b[i].left) << "node " << i;
    EXPECT_EQ(a[i].right, b[i].right) << "node " << i;
    EXPECT_EQ(std::bit_cast<std::uint64_t>(a[i].value), std::bit_cast<std::uint64_t>(b[i].value))
        << "node " << i;
  }
}

/// Fits both builders on one case and demands identical trees and draws.
void expect_matches_oracle(const Case& c, std::uint64_t seed) {
  util::Rng fast_rng(seed);
  util::Rng ref_rng(seed);
  DecisionTree tree;
  tree.fit(c.X, c.y, c.sample, c.params, fast_rng);
  ReferenceTree ref;
  ref.fit(c.X, c.y, c.sample, c.params, ref_rng);
  EXPECT_EQ(tree.to_json().dump(), ref.to_json().dump());
  expect_same_bits(tree.nodes(), ref.nodes());
  EXPECT_EQ(fast_rng.next_u64(), ref_rng.next_u64()) << "feature draws diverged";
}

TEST(TreeFit, MatchesOracleOnRandomizedDatasets) {
  for (std::uint64_t seed = 0; seed < 240; ++seed) {
    SCOPED_TRACE("dataset seed " + std::to_string(seed));
    expect_matches_oracle(make_case(seed), seed * 7919 + 1);
  }
}

/// Trees of one forest fit concurrently and share one column view; the
/// forest must equal the oracle's (fitted one tree after another) at any
/// pool size.
TEST(TreeFit, ForestMatchesOracleAtAnyThreadCount) {
  const int original_threads = util::global_threads();
  for (std::uint64_t seed = 0; seed < 6; ++seed) {
    const Case c = make_case(1000 + seed);
    ml::ForestParams params;
    params.n_trees = 8;
    params.bootstrap = seed % 3 != 0;
    params.tree = c.params;
    const std::string expected =
        testing_support::reference_forest_json(c.X, c.y, params, seed).dump();
    for (int threads : {1, 3, 8}) {
      util::set_global_threads(threads);
      ml::RandomForest forest;
      forest.fit(c.X, c.y, params, seed);
      EXPECT_EQ(forest.to_json().dump(), expected)
          << "dataset seed " << 1000 + seed << ", " << threads << " threads";
    }
  }
  util::set_global_threads(original_threads);
}

/// Two algorithms' one-hot columns are exact mirrors: both give the same
/// partition and the same exact score, so only the tie path can say which
/// feature the reference keeps.
TEST(TreeFit, MirroredOneHotTiesTakeTheExactPath) {
  util::Rng rng(5);
  std::vector<FeatureRow> X;
  std::vector<double> y;
  for (int i = 0; i < 120; ++i) {
    const double nodes = static_cast<double>(rng.index(6));
    const double msg = static_cast<double>(rng.index(9));
    const bool second = rng.chance(0.5);
    X.push_back({nodes, 1.0, msg, second ? 0.0 : 1.0, second ? 1.0 : 0.0});
    y.push_back(std::exp2(msg * 0.5) * (second ? 1.7 : 1.0) + nodes);
  }
  telemetry::Counter& searched = telemetry::metrics().counter("ml.tree.nodes");
  telemetry::Counter& fallbacks = telemetry::metrics().counter("ml.tree.exact_fallback_nodes");
  const std::uint64_t searched0 = searched.value();
  const std::uint64_t fallbacks0 = fallbacks.value();
  Case c{X, y, {}, TreeParams{}};
  c.sample.resize(X.size());
  std::iota(c.sample.begin(), c.sample.end(), 0);
  expect_matches_oracle(c, 11);
  const std::uint64_t nodes = searched.value() - searched0;
  const std::uint64_t exact = fallbacks.value() - fallbacks0;
  EXPECT_GT(exact, 0u) << "the mirrored split never reached the tie path";
  EXPECT_LT(exact, nodes) << "every node fell back: the certified scan never ran";
}

TEST(TreeFit, ColumnViewRanksCompareAsTheValues) {
  const ml::FeatureColumns cols({{2.0, -kInf}, {-0.0, 1.0}, {0.0, kInf}, {-5.0, 1.0}});
  ASSERT_EQ(cols.n_rows(), 4u);
  ASSERT_EQ(cols.n_features(), 2u);
  const std::uint32_t* c0 = cols.codes(0);
  EXPECT_EQ(c0[1], c0[2]);  // -0.0 and +0.0 compare equal, so share a code
  EXPECT_LT(c0[3], c0[1]);
  EXPECT_LT(c0[1], c0[0]);
  const std::uint32_t* c1 = cols.codes(1);
  EXPECT_EQ(c1[0], 0u);
  EXPECT_EQ(c1[1], c1[3]);
  EXPECT_EQ(c1[2], 2u);
  const std::uint32_t* rows = cols.sorted_rows(1);
  EXPECT_EQ(std::vector<std::uint32_t>(rows, rows + 4), (std::vector<std::uint32_t>{0, 1, 3, 2}));
}

TEST(TreeFit, RejectsNaNFeaturesAcceptsInfinities) {
  const double nan = std::numeric_limits<double>::quiet_NaN();
  const std::vector<FeatureRow> bad = {{1.0, 2.0}, {nan, 3.0}, {2.0, 4.0}};
  const std::vector<double> y = {1.0, 2.0, 3.0};
  DecisionTree tree;
  util::Rng rng(1);
  EXPECT_THROW(tree.fit(bad, y, TreeParams{}, rng), InvalidArgument);
  ml::RandomForest forest;
  EXPECT_THROW(forest.fit(bad, y, ml::ForestParams{}, 1), InvalidArgument);
  EXPECT_FALSE(forest.fitted());

  const std::vector<FeatureRow> inf = {{-kInf, 2.0}, {kInf, 3.0}, {2.0, -kInf}, {0.0, 1.0}};
  Case c{inf, {1.0, 5.0, 2.0, 4.0}, {0, 1, 2, 3, 1, 0}, TreeParams{}};
  expect_matches_oracle(c, 3);
}

/// Infinite or NaN targets make the error bound meaningless; such nodes must
/// never be certified, so they take the tie path and still match.
TEST(TreeFit, NonFiniteTargetsMatchTheOracle) {
  const double nan = std::numeric_limits<double>::quiet_NaN();
  for (const double bad : {kInf, -kInf, nan, 1e300, 1e153}) {
    Case c = make_case(7);
    for (std::size_t i = 0; i < c.y.size(); i += 3) {
      c.y[i] = bad;
    }
    expect_matches_oracle(c, 5);
  }
}

}  // namespace
