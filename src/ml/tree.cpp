#include "ml/tree.hpp"

#include <algorithm>
#include <cmath>
#include <limits>
#include <numeric>

#include "telemetry/metrics.hpp"
#include "util/error.hpp"

namespace acclaim::ml {

namespace {

/// The reference CART's acceptance floor: a split must reduce the sum of
/// squared deviations by more than -1e-12 (i.e. by a non-negative amount,
/// up to rounding) to beat "make a leaf".
constexpr double kScoreFloor = -1e-12;

/// Scale of the certification margin; DESIGN.md §5c derives a factor of
/// about 16 and keeps this much headroom on top of it.
constexpr double kMarginFactor = 1024.0;

/// One sample of a node, as both search paths order it: the sample's rank
/// code for the feature being scanned, and its row.
struct Entry {
  std::uint32_t code = 0;
  std::uint32_t row = 0;
};

/// Best and runner-up score over every candidate split a node offers, in
/// offer order. The best is the *first* candidate reaching the maximum,
/// which is the one the reference's strict `score > best_score` update
/// keeps; an exact tie lands in `second`, so it can never be certified.
struct SplitSearch {
  double best = -std::numeric_limits<double>::infinity();
  double second = -std::numeric_limits<double>::infinity();
  int feature = -1;
  double threshold = 0.0;

  void offer(double score, int f, double split_at) {
    if (score > best) {
      second = best;
      best = score;
      feature = f;
      threshold = split_at;
    } else if (score > second) {
      second = score;
    }
  }
};

/// The scan kernel both paths share: walks a node's samples in ascending
/// code order of feature f (values `x`) and offers every admissible
/// threshold. The expressions are the reference CART's verbatim, so on the
/// same row order it computes the same scores bit for bit. Equal codes are
/// equal values (only ±0.0 differ in bits, and they give the same
/// midpoint), so "next code differs" is the reference's `xn > xv`.
void scan_feature(const Entry* entries, std::size_t n, int f, const double* x, const double* y,
                  double sum, double sum2, double sse, std::size_t min_leaf,
                  SplitSearch& search) {
  double left_sum = 0.0;
  double left_sum2 = 0.0;
  for (std::size_t k = 0; k + 1 < n; ++k) {
    const double yi = y[entries[k].row];
    left_sum += yi;
    left_sum2 += yi * yi;
    if (entries[k + 1].code == entries[k].code) {
      continue;  // no valid threshold between identical values
    }
    const std::size_t nl = k + 1;
    const std::size_t nr = n - nl;
    if (nl < min_leaf || nr < min_leaf) {
      continue;
    }
    const double right_sum = sum - left_sum;
    const double right_sum2 = sum2 - left_sum2;
    const double sse_l = left_sum2 - left_sum * left_sum / static_cast<double>(nl);
    const double sse_r = right_sum2 - right_sum * right_sum / static_cast<double>(nr);
    const double score = sse - sse_l - sse_r;  // variance reduction
    search.offer(score, f, 0.5 * (x[entries[k].row] + x[entries[k + 1].row]));
  }
}

}  // namespace

FeatureColumns::FeatureColumns(const std::vector<FeatureRow>& X) {
  require(!X.empty(), "DecisionTree::fit requires at least one row");
  require(X.size() <= std::numeric_limits<std::uint32_t>::max(), "too many rows to fit");
  n_rows_ = X.size();
  n_features_ = X[0].size();
  require(n_features_ >= 1, "rows must have at least one feature");
  values_.resize(n_features_ * n_rows_);
  for (std::size_t r = 0; r < n_rows_; ++r) {
    require(X[r].size() == n_features_, "ragged feature matrix");
    for (std::size_t f = 0; f < n_features_; ++f) {
      // NaN has no rank: `<` is not a strict weak order over it.
      require(!std::isnan(X[r][f]), "feature matrix contains NaN");
      values_[f * n_rows_ + r] = X[r][f];
    }
  }
  codes_.resize(values_.size());
  sorted_.resize(values_.size());
  for (std::size_t f = 0; f < n_features_; ++f) {
    const double* x = values(f);
    std::uint32_t* rows = sorted_.data() + f * n_rows_;
    std::uint32_t* code = codes_.data() + f * n_rows_;
    std::iota(rows, rows + n_rows_, std::uint32_t{0});
    std::stable_sort(rows, rows + n_rows_,
                     [x](std::uint32_t a, std::uint32_t b) { return x[a] < x[b]; });
    std::uint32_t rank = 0;
    for (std::size_t k = 0; k < n_rows_; ++k) {
      if (k > 0 && x[rows[k - 1]] < x[rows[k]]) {
        ++rank;
      }
      code[rows[k]] = rank;
    }
  }
}

/// Builds one tree. Every node first scans presorted per-feature row lists
/// and accepts the result when a floating-point error bound certifies it
/// equals what the reference per-node-sort CART computes; near ties take
/// that reference algorithm itself (the exact tie path). Either way the
/// node — and so the whole tree — is bit-identical to the reference.
class TreeBuilder {
 public:
  TreeBuilder(const FeatureColumns& cols, const std::vector<double>& y,
              const std::vector<std::size_t>& sample, const TreeParams& params, util::Rng& rng)
      : cols_(cols), y_(y.data()), params_(params), rng_(rng), m_(sample.size()) {
    idx_.assign(sample.begin(), sample.end());
    // Each feature's list holds the sample in code order, one entry per
    // bootstrap draw of a row.
    std::vector<std::uint32_t> copies(cols.n_rows(), 0);
    for (std::uint32_t row : idx_) {
      ++copies[row];
    }
    const std::size_t nf = cols.n_features();
    lists_.resize(nf * m_);
    for (std::size_t f = 0; f < nf; ++f) {
      Entry* out = list(f);
      const std::uint32_t* rows = cols.sorted_rows(f);
      const std::uint32_t* code = cols.codes(f);
      for (std::size_t k = 0; k < cols.n_rows(); ++k) {
        out = std::fill_n(out, copies[rows[k]], Entry{code[rows[k]], rows[k]});
      }
      live_.push_back(static_cast<int>(f));
    }
    in_node_.assign(nf, 0);
    spill_.resize(m_);
  }

  void run() { build(0, m_, 0, 0, live_.size()); }

  std::vector<DecisionTree::Node> nodes;
  int depth = 0;
  std::uint64_t searched = 0;
  std::uint64_t fallbacks = 0;

 private:
  Entry* list(std::size_t f) { return lists_.data() + f * m_; }

  /// Node over sample slots [begin, end). live_[live_begin, live_end) are
  /// the features not constant in the parent: only their lists are kept
  /// partitioned, since a feature constant in a node stays so below it.
  std::int32_t build(std::size_t begin, std::size_t end, int level, std::size_t live_begin,
                     std::size_t live_end);
  /// The reference CART's search over this node, verbatim in effect.
  void exact_search(std::size_t begin, std::size_t end, double sum, double sum2, double sse,
                    std::size_t min_leaf, SplitSearch& search);

  const FeatureColumns& cols_;
  const double* y_;
  const TreeParams& params_;
  util::Rng& rng_;
  const std::size_t m_;
  /// Sample slots in the reference's order (std::partition'ed per split):
  /// node sums and leaf means accumulate in this order.
  std::vector<std::uint32_t> idx_;
  std::vector<Entry> lists_;            ///< per-feature code-ordered lists
  std::vector<int> live_;               ///< stack of per-node live features
  std::vector<unsigned char> in_node_;  ///< live-here flags during a search
  std::vector<int> features_;           ///< this node's drawn candidates
  std::vector<Entry> spill_;            ///< right-hand rows mid-partition
  std::vector<Entry> keys_;             ///< the tie path's sort keys
};

std::int32_t TreeBuilder::build(std::size_t begin, std::size_t end, int level,
                                std::size_t live_begin, std::size_t live_end) {
  depth = std::max(depth, level);
  const std::size_t n = end - begin;

  double sum = 0.0;
  double sum2 = 0.0;
  double abs_sum = 0.0;
  for (std::size_t i = begin; i < end; ++i) {
    const double yi = y_[idx_[i]];
    sum += yi;
    sum2 += yi * yi;
    abs_sum += std::fabs(yi);
  }
  const double mean = sum / static_cast<double>(n);
  // Total sum of squared deviations (not variance: avoids dividing twice).
  const double sse = sum2 - sum * mean;

  auto make_leaf = [&]() -> std::int32_t {
    DecisionTree::Node leaf;
    leaf.value = mean;
    nodes.push_back(leaf);
    return static_cast<std::int32_t>(nodes.size() - 1);
  };

  if (level >= params_.max_depth || n < static_cast<std::size_t>(params_.min_samples_split) ||
      sse <= 1e-12) {
    return make_leaf();
  }

  // Candidate features: all, or a uniform subset of size max_features.
  const std::size_t nf = cols_.n_features();
  features_.clear();
  if (params_.max_features < 0 || params_.max_features >= static_cast<int>(nf)) {
    for (std::size_t f = 0; f < nf; ++f) {
      features_.push_back(static_cast<int>(f));
    }
  } else {
    for (std::size_t f :
         rng_.sample_without_replacement(nf, static_cast<std::size_t>(params_.max_features))) {
      features_.push_back(static_cast<int>(f));
    }
  }
  ++searched;

  // This node's live features: the parent's, minus those constant here.
  const std::size_t mine_begin = live_.size();
  for (std::size_t i = live_begin; i < live_end; ++i) {
    const Entry* seg = list(static_cast<std::size_t>(live_[i])) + begin;
    if (seg[0].code != seg[n - 1].code) {
      live_.push_back(live_[i]);
    }
  }
  const std::size_t mine_end = live_.size();

  const auto min_leaf = static_cast<std::size_t>(params_.min_samples_leaf);
  SplitSearch search;
  for (std::size_t i = mine_begin; i < mine_end; ++i) {
    in_node_[static_cast<std::size_t>(live_[i])] = 1;
  }
  for (int f : features_) {
    if (in_node_[static_cast<std::size_t>(f)] != 0) {
      const auto fu = static_cast<std::size_t>(f);
      scan_feature(list(fu) + begin, n, f, cols_.values(fu), y_, sum, sum2, sse, min_leaf,
                   search);
    }
  }
  for (std::size_t i = mine_begin; i < mine_end; ++i) {
    in_node_[static_cast<std::size_t>(live_[i])] = 0;
  }

  // The scan differs from the reference only in the order tied rows are
  // summed; `tol` bounds what that can do to any score (DESIGN.md §5c).
  const double mass = sum2 + abs_sum * abs_sum;
  const double tol =
      kMarginFactor * static_cast<double>(n + 2) * std::numeric_limits<double>::epsilon() * mass;
  const bool in_range = 4.0 * mass <= std::numeric_limits<double>::max();  // false for inf/NaN
  const bool certified =
      in_range && (search.best < kScoreFloor - tol ||
                   (search.best > kScoreFloor + tol && search.best - search.second > tol));
  if (!certified) {
    ++fallbacks;
    search = SplitSearch{};
    exact_search(begin, end, sum, sum2, sse, min_leaf, search);
  }

  if (!(search.best > kScoreFloor)) {
    live_.resize(mine_begin);
    return make_leaf();
  }

  // Partition [begin, end) of idx_ in place around the threshold, exactly
  // as the reference does (std::partition's swaps depend only on the
  // predicate outcomes, so the children see the reference's order).
  const double* xs = cols_.values(static_cast<std::size_t>(search.feature));
  const double threshold = search.threshold;
  const auto mid_it =
      std::partition(idx_.begin() + static_cast<std::ptrdiff_t>(begin),
                     idx_.begin() + static_cast<std::ptrdiff_t>(end),
                     [xs, threshold](std::uint32_t row) { return xs[row] <= threshold; });
  const auto mid = static_cast<std::size_t>(mid_it - idx_.begin());
  if (mid == begin || mid == end) {
    live_.resize(mine_begin);
    return make_leaf();  // numeric degeneracy; refuse an empty child
  }

  // Stable, branch-free partition of every live list: left rows compact in
  // place, right rows spill and are copied back after them.
  for (std::size_t i = mine_begin; i < mine_end; ++i) {
    Entry* seg = list(static_cast<std::size_t>(live_[i])) + begin;
    std::size_t nl = 0;
    std::size_t nr = 0;
    for (std::size_t k = 0; k < n; ++k) {
      const Entry e = seg[k];
      const bool left = xs[e.row] <= threshold;
      seg[nl] = e;
      spill_[nr] = e;
      nl += left ? 1 : 0;
      nr += left ? 0 : 1;
    }
    std::copy_n(spill_.begin(), nr, seg + nl);
  }

  // Reserve this node's slot before recursing (children append after it).
  nodes.emplace_back();
  const auto self = static_cast<std::int32_t>(nodes.size() - 1);
  const std::int32_t left = build(begin, mid, level + 1, mine_begin, mine_end);
  const std::int32_t right = build(mid, end, level + 1, mine_begin, mine_end);
  live_.resize(mine_begin);
  DecisionTree::Node& node = nodes[static_cast<std::size_t>(self)];
  node.feature = search.feature;
  node.threshold = threshold;
  node.left = left;
  node.right = right;
  return self;
}

void TreeBuilder::exact_search(std::size_t begin, std::size_t end, double sum, double sum2,
                               double sse, std::size_t min_leaf, SplitSearch& search) {
  // The reference sorts the node's rows by each candidate feature in turn,
  // each sort starting from the previous one's output. std::sort's moves
  // depend only on comparison outcomes, and codes compare as the values
  // do, so sorting {code,row} keys reproduces its permutation exactly.
  const std::size_t n = end - begin;
  keys_.resize(n);
  for (std::size_t k = 0; k < n; ++k) {
    keys_[k].row = idx_[begin + k];
  }
  for (int f : features_) {
    const auto fu = static_cast<std::size_t>(f);
    const std::uint32_t* code = cols_.codes(fu);
    for (Entry& e : keys_) {
      e.code = code[e.row];
    }
    std::sort(keys_.begin(), keys_.end(),
              [](const Entry& a, const Entry& b) { return a.code < b.code; });
    scan_feature(keys_.data(), n, f, cols_.values(fu), y_, sum, sum2, sse, min_leaf, search);
  }
}

void DecisionTree::fit(const std::vector<FeatureRow>& X, const std::vector<double>& y,
                       const TreeParams& params, util::Rng& rng) {
  std::vector<std::size_t> idx(X.size());
  std::iota(idx.begin(), idx.end(), 0);
  fit(X, y, idx, params, rng);
}

void DecisionTree::fit(const std::vector<FeatureRow>& X, const std::vector<double>& y,
                       const std::vector<std::size_t>& sample_idx, const TreeParams& params,
                       util::Rng& rng) {
  fit(FeatureColumns(X), y, sample_idx, params, rng);
}

void DecisionTree::fit(const FeatureColumns& cols, const std::vector<double>& y,
                       const std::vector<std::size_t>& sample_idx, const TreeParams& params,
                       util::Rng& rng) {
  require(cols.n_rows() == y.size(), "X and y must have the same length");
  require(!sample_idx.empty(), "DecisionTree::fit requires a non-empty sample");
  for (std::size_t i : sample_idx) {
    require(i < cols.n_rows(), "sample index out of range");
  }
  TreeBuilder builder(cols, y, sample_idx, params, rng);
  builder.run();
  nodes_ = std::move(builder.nodes);
  n_features_ = cols.n_features();
  depth_ = builder.depth;
  // Added once per tree: a relaxed increment per node would contend across
  // the pool's fit lanes.
  static telemetry::Counter& searched = telemetry::metrics().counter("ml.tree.nodes");
  static telemetry::Counter& fallbacks =
      telemetry::metrics().counter("ml.tree.exact_fallback_nodes");
  searched.add(builder.searched);
  fallbacks.add(builder.fallbacks);
}

util::Json DecisionTree::to_json() const {
  require(fitted(), "cannot serialize an unfitted tree");
  util::Json doc = util::Json::object();
  doc["n_features"] = static_cast<double>(n_features_);
  doc["depth"] = depth_;
  // Column-wise arrays keep the document compact and fast to parse.
  util::Json feature = util::Json::array();
  util::Json threshold = util::Json::array();
  util::Json left = util::Json::array();
  util::Json right = util::Json::array();
  util::Json value = util::Json::array();
  for (const Node& node : nodes_) {
    feature.push_back(node.feature);
    threshold.push_back(node.threshold);
    left.push_back(node.left);
    right.push_back(node.right);
    value.push_back(node.value);
  }
  doc["feature"] = std::move(feature);
  doc["threshold"] = std::move(threshold);
  doc["left"] = std::move(left);
  doc["right"] = std::move(right);
  doc["value"] = std::move(value);
  return doc;
}

DecisionTree DecisionTree::from_json(const util::Json& doc) {
  DecisionTree tree;
  tree.n_features_ = static_cast<std::size_t>(doc.at("n_features").as_int());
  tree.depth_ = static_cast<int>(doc.at("depth").as_int());
  require(tree.n_features_ >= 1, "serialized tree must have features");
  const auto& feature = doc.at("feature").as_array();
  const auto& threshold = doc.at("threshold").as_array();
  const auto& left = doc.at("left").as_array();
  const auto& right = doc.at("right").as_array();
  const auto& value = doc.at("value").as_array();
  const std::size_t n = feature.size();
  require(n >= 1 && threshold.size() == n && left.size() == n && right.size() == n &&
              value.size() == n,
          "serialized tree arrays must be non-empty and aligned");
  tree.nodes_.resize(n);
  for (std::size_t i = 0; i < n; ++i) {
    Node& node = tree.nodes_[i];
    node.feature = static_cast<int>(feature[i].as_int());
    node.threshold = threshold[i].as_number();
    node.left = static_cast<std::int32_t>(left[i].as_int());
    node.right = static_cast<std::int32_t>(right[i].as_int());
    node.value = value[i].as_number();
    require(node.feature < static_cast<int>(tree.n_features_),
            "serialized tree references a feature out of range");
    if (node.feature >= 0) {
      require(node.left >= 0 && node.left < static_cast<std::int32_t>(n) && node.right >= 0 &&
                  node.right < static_cast<std::int32_t>(n),
              "serialized tree has child indices out of range");
    }
  }
  return tree;
}

}  // namespace acclaim::ml
