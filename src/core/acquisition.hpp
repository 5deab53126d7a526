// Training-point acquisition policies.
//
//  * AcclaimAcquisition — the paper's contribution (§IV-A/§IV-B): jackknife
//    variance on the *primary* model's own trees picks the highest-variance
//    uncollected point; every `nonp2_cadence`-th pick swaps the point's
//    message size for a random non-P2 size adjacent to it (80-20 split).
//  * SurrogateAcquisition — the FACT baseline (§III-A): a *second*,
//    independently trained forest (standing in for the DeepHyper surrogate)
//    is retrained on everything collected so far and its own jackknife
//    variance drives the selection; the primary model never informs it.
//  * RandomAcquisition — Hunold-style random sampling, also the ablation
//    contrast that isolates the value of variance-guided selection.
#pragma once

#include <memory>
#include <vector>

#include "core/env.hpp"
#include "core/model.hpp"

namespace acclaim::core {

/// Strategy interface. The learner calls next() with the current primary
/// model and the uncollected candidate pool; the policy returns the pool
/// index to collect and may rewrite the point (non-P2 variant). observe()
/// reports every measurement so stateful policies (the surrogate) can learn.
class AcquisitionPolicy {
 public:
  virtual ~AcquisitionPolicy() = default;

  struct Pick {
    std::size_t pool_index = 0;          ///< candidate consumed from the pool
    bench::BenchmarkPoint point;         ///< point to actually benchmark
  };

  /// Requires a non-empty pool.
  virtual Pick next(const CollectiveModel& model,
                    const std::vector<bench::BenchmarkPoint>& pool, TuningEnvironment& env,
                    util::Rng& rng) = 0;

  virtual void observe(const bench::BenchmarkPoint& point, double time_us);

  /// Pool indices in decreasing priority order, for batch (parallel)
  /// collection. An empty result means the policy cannot rank (the learner
  /// then falls back to sequential next() calls).
  virtual std::vector<std::size_t> rank(const CollectiveModel& model,
                                        const std::vector<bench::BenchmarkPoint>& pool) const;

  virtual const char* name() const = 0;
};

class RandomAcquisition final : public AcquisitionPolicy {
 public:
  Pick next(const CollectiveModel& model, const std::vector<bench::BenchmarkPoint>& pool,
            TuningEnvironment& env, util::Rng& rng) override;
  const char* name() const override { return "random"; }
};

/// How a variance-guided policy turns per-candidate variances into a pick.
///
/// The paper states "select the point with highest variance" (Argmax). On
/// our simulated machine the measured response surface has sharper cliffs
/// than Theta's, and pure argmax exhibits the classic noise-chasing failure:
/// it drills into intrinsically rough regions and starves the rest of the
/// space. WeightedSampling draws the next point with probability
/// proportional to its variance — the same signal, robust to roughness —
/// and is the default; Argmax remains available for the ablation bench.
/// (See DESIGN.md "deviations".)
enum class VariancePick { WeightedSampling, Argmax };

/// The paper's non-P2 cadence (§IV-B): every 5th collected point is a
/// non-P2 message-size variant, an 80-20 split.
inline constexpr int kPaperNonp2Cadence = 5;

struct AcclaimAcquisitionConfig {
  /// Every n-th pick becomes a non-P2 message-size variant; 0 disables
  /// non-P2 sampling entirely (the fig11 ablation sweeps this).
  int nonp2_cadence = kPaperNonp2Cadence;
  VariancePick pick = VariancePick::WeightedSampling;
};

class AcclaimAcquisition final : public AcquisitionPolicy {
 public:
  explicit AcclaimAcquisition(AcclaimAcquisitionConfig config = {});

  Pick next(const CollectiveModel& model, const std::vector<bench::BenchmarkPoint>& pool,
            TuningEnvironment& env, util::Rng& rng) override;
  const char* name() const override { return "acclaim-jackknife"; }

  /// Ranks the whole pool by decreasing jackknife variance (used by the
  /// parallel-collection scheduler, which wants a list, not one point).
  std::vector<std::size_t> rank(const CollectiveModel& model,
                                const std::vector<bench::BenchmarkPoint>& pool) const override;

 private:
  AcclaimAcquisitionConfig config_;
  int picks_ = 0;
};

struct SurrogateAcquisitionConfig {
  ml::ForestParams surrogate = default_forest_params();
  /// Retrain the surrogate after this many new observations (1 = every
  /// iteration, matching FACT; larger values trade fidelity for speed in
  /// long traces).
  int refresh_every = 1;
  /// FACT is modeled as published: DeepHyper hands back the maximizer of
  /// its acquisition, so Argmax is the default here (unlike ACCLAiM's
  /// weighted adaptation — see DESIGN.md deviations).
  VariancePick pick = VariancePick::Argmax;
};

class SurrogateAcquisition final : public AcquisitionPolicy {
 public:
  SurrogateAcquisition(coll::Collective c, std::uint64_t seed,
                       SurrogateAcquisitionConfig config = {});

  Pick next(const CollectiveModel& model, const std::vector<bench::BenchmarkPoint>& pool,
            TuningEnvironment& env, util::Rng& rng) override;
  void observe(const bench::BenchmarkPoint& point, double time_us) override;
  const char* name() const override { return "fact-surrogate"; }

  /// Number of times the surrogate has been (re)trained — FACT's structural
  /// overhead, visible to the benches.
  int surrogate_trainings() const noexcept { return trainings_; }

 private:
  void maybe_refresh();

  CollectiveModel surrogate_;
  std::vector<LabeledPoint> seen_;
  SurrogateAcquisitionConfig config_;
  std::uint64_t seed_;
  int since_refresh_ = 0;
  int trainings_ = 0;
};

}  // namespace acclaim::core
