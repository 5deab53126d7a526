#include "core/acquisition.hpp"

#include <algorithm>
#include <numeric>

#include "core/feature_space.hpp"
#include "telemetry/audit.hpp"
#include "telemetry/metrics.hpp"
#include "telemetry/trace.hpp"
#include "util/error.hpp"

namespace acclaim::core {

void AcquisitionPolicy::observe(const bench::BenchmarkPoint&, double) {}

std::vector<std::size_t> AcquisitionPolicy::rank(const CollectiveModel&,
                                                 const std::vector<bench::BenchmarkPoint>&) const {
  return {};
}

AcquisitionPolicy::Pick RandomAcquisition::next(const CollectiveModel&,
                                                const std::vector<bench::BenchmarkPoint>& pool,
                                                TuningEnvironment&, util::Rng& rng) {
  require(!pool.empty(), "acquisition requires a non-empty pool");
  const std::size_t i = rng.index(pool.size());
  return {i, pool[i]};
}

namespace {

/// Shared variance-to-pick logic for both variance-guided policies. The
/// candidate sweep (jackknife_variances: fixed-size blocks of pool entries
/// through the fused SoA predict+jackknife kernel) runs on the global
/// thread pool; the pick itself — argmax scan or the single weighted draw —
/// stays sequential over the in-order variance vector, so the chosen index
/// and the rng stream are independent of the thread count.
std::size_t pick_from_variances(const std::vector<double>& var, VariancePick mode,
                                util::Rng& rng) {
  if (mode == VariancePick::Argmax) {
    std::size_t best = 0;
    double best_var = -1.0;
    for (std::size_t i = 0; i < var.size(); ++i) {
      if (var[i] > best_var) {
        best_var = var[i];
        best = i;
      }
    }
    return best;
  }
  // Weighted sampling: probability proportional to jackknife variance.
  double total = 0.0;
  for (double v : var) {
    total += v + 1e-12;
  }
  double pick = rng.uniform(0.0, total);
  for (std::size_t i = 0; i < var.size(); ++i) {
    const double w = var[i] + 1e-12;
    if (pick < w) {
      return i;
    }
    pick -= w;
  }
  return var.size() - 1;
}

std::size_t pick_by_variance(const CollectiveModel& model,
                             const std::vector<bench::BenchmarkPoint>& pool, VariancePick mode,
                             util::Rng& rng) {
  return pick_from_variances(model.jackknife_variances(pool), mode, rng);
}

}  // namespace

AcclaimAcquisition::AcclaimAcquisition(AcclaimAcquisitionConfig config) : config_(config) {}

std::vector<std::size_t> AcclaimAcquisition::rank(
    const CollectiveModel& model, const std::vector<bench::BenchmarkPoint>& pool) const {
  if (!model.trained()) {
    return {};
  }
  const std::vector<double> var = model.jackknife_variances(pool);
  std::vector<std::size_t> order(pool.size());
  std::iota(order.begin(), order.end(), 0);
  std::stable_sort(order.begin(), order.end(),
                   [&](std::size_t a, std::size_t b) { return var[a] > var[b]; });
  return order;
}

AcquisitionPolicy::Pick AcclaimAcquisition::next(const CollectiveModel& model,
                                                 const std::vector<bench::BenchmarkPoint>& pool,
                                                 TuningEnvironment& env, util::Rng& rng) {
  require(!pool.empty(), "acquisition requires a non-empty pool");
  ++picks_;
  // The variance sweep is kept (not recomputed) so the audit record can name
  // the runner-up candidate without a second forest pass.
  std::vector<double> var;
  std::size_t best;
  if (model.trained()) {
    var = model.jackknife_variances(pool);
    best = pick_from_variances(var, config_.pick, rng);
  } else {
    best = rng.index(pool.size());
  }
  bench::BenchmarkPoint point = pool[best];
  const bool nonp2_turn = config_.nonp2_cadence > 0 && picks_ % config_.nonp2_cadence == 0;
  bool swapped = false;
  if (nonp2_turn) {
    // Swap the message size for a random non-P2 size whose closest P2 value
    // is the selected one (§IV-B).
    if (const auto m = env.nonp2_msg_near(point.scenario.msg_bytes, rng)) {
      point.scenario.msg_bytes = *m;
      swapped = true;
    }
  }
  static telemetry::Counter& picks = telemetry::metrics().counter("acquisition.picks");
  static telemetry::Counter& swaps = telemetry::metrics().counter("acquisition.nonp2_swaps");
  picks.add();
  if (swapped) {
    swaps.add();
  }
  if (telemetry::tracer().enabled()) {
    telemetry::TraceEvent ev;
    ev.kind = telemetry::EventKind::PointAcquired;
    ev.label = coll::collective_name(point.scenario.collective);
    ev.fields["nnodes"] = point.scenario.nnodes;
    ev.fields["ppn"] = point.scenario.ppn;
    ev.fields["msg_bytes"] = point.scenario.msg_bytes;
    ev.fields["algorithm"] = coll::algorithm_info(point.algorithm).name;
    // The signal that drove the pick: the chosen point's jackknife variance
    // under the current model (0 during the random seed phase).
    ev.fields["variance"] = var.empty() ? 0.0 : var[best];
    ev.fields["nonp2"] = swapped;
    telemetry::tracer().record(std::move(ev));
  }
  if (telemetry::audit().enabled()) {
    // This site sits on the learner's serial loop (det-audit-order): one
    // next() call per acquisition round, never inside a parallel_for.
    const telemetry::Span cost = telemetry::decision_cost_span();
    telemetry::DecisionRecord rec;
    rec.kind = telemetry::DecisionKind::Acquisition;
    rec.source = "policy";
    rec.collective = coll::collective_name(point.scenario.collective);
    rec.nnodes = point.scenario.nnodes;
    rec.ppn = point.scenario.ppn;
    rec.msg_bytes = point.scenario.msg_bytes;
    rec.features = encode_point(point);
    rec.chosen = coll::algorithm_info(point.algorithm).name;
    if (!var.empty()) {
      rec.variance = var[best];
      rec.acq_score = var[best];
      std::size_t second = best == 0 ? (var.size() > 1 ? 1 : 0) : 0;
      for (std::size_t i = 0; i < var.size(); ++i) {
        if (i != best && var[i] > var[second]) {
          second = i;
        }
      }
      if (second != best) {
        rec.runner_up = coll::algorithm_info(pool[second].algorithm).name;
        // Relative score gap: how much more informative the pick looked than
        // the next-best candidate (negative under weighted sampling when a
        // lower-variance point won the draw).
        rec.margin = var[second] > 0.0 ? var[best] / var[second] - 1.0 : 0.0;
      }
      rec.tree_evals =
          static_cast<std::int64_t>(pool.size()) * static_cast<std::int64_t>(model.n_trees());
    }
    rec.pool_size = static_cast<std::int64_t>(pool.size());
    rec.round = static_cast<std::int64_t>(picks_);
    rec.nonp2 = swapped;
    telemetry::audit().record(std::move(rec));
  }
  return {best, point};
}

SurrogateAcquisition::SurrogateAcquisition(coll::Collective c, std::uint64_t seed,
                                           SurrogateAcquisitionConfig config)
    : surrogate_(c, config.surrogate), config_(config), seed_(seed) {
  require(config_.refresh_every >= 1, "surrogate refresh_every must be >= 1");
}

void SurrogateAcquisition::observe(const bench::BenchmarkPoint& point, double time_us) {
  seen_.push_back({point, time_us});
  ++since_refresh_;
}

void SurrogateAcquisition::maybe_refresh() {
  if (seen_.empty()) {
    return;
  }
  if (!surrogate_.trained() || since_refresh_ >= config_.refresh_every) {
    surrogate_.fit(seen_, seed_ + static_cast<std::uint64_t>(trainings_));
    ++trainings_;
    since_refresh_ = 0;
  }
}

AcquisitionPolicy::Pick SurrogateAcquisition::next(
    const CollectiveModel& /*primary — deliberately unused: FACT's selections
                             are blind to the model they serve (§III-A)*/,
    const std::vector<bench::BenchmarkPoint>& pool, TuningEnvironment&, util::Rng& rng) {
  require(!pool.empty(), "acquisition requires a non-empty pool");
  maybe_refresh();
  if (!surrogate_.trained()) {
    const std::size_t i = rng.index(pool.size());
    return {i, pool[i]};
  }
  const std::size_t best = pick_by_variance(surrogate_, pool, config_.pick, rng);
  return {best, pool[best]};
}

}  // namespace acclaim::core
