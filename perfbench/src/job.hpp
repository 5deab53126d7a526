// One tuned job, shared by the tune_job and serve workloads: the public
// AcclaimPipeline run, the same pipeline composed from its public parts
// with timing decorators (the traced run), and the pricing of the rules it
// produces against the deterministic cost model.
#pragma once

#include <atomic>
#include <cstdint>
#include <string>
#include <vector>

#include "core/pipeline.hpp"
#include "harness.hpp"
#include "simnet/machine.hpp"

namespace perfbench {

/// The tuned jobs are fixed: a different job seed is a different job, whose
/// host cost differs by up to +-20%. --seed draws everything around them
/// (pricing traces and samples, request streams).
inline constexpr std::uint64_t kJobSeed = 1;

struct JobWorkload {
  acclaim::simnet::MachineConfig machine;
  acclaim::core::JobSpec spec;
  acclaim::core::ActiveLearnerConfig learner;
};

/// Host time the decorators attribute to the environment, its solo-cost
/// oracle and the acquisition policy during a composed run. The oracle runs
/// on pool threads, so its total is summed over threads.
struct DecoratedTimes {
  double measure_s = 0.0;
  std::uint64_t measure_calls = 0;
  double measure_scheduled_s = 0.0;
  std::uint64_t scheduled_items = 0;
  std::atomic<std::uint64_t> solo_cost_ns{0};
  std::atomic<std::uint64_t> solo_cost_calls{0};
  double rank_s = 0.0;
  std::uint64_t rank_calls = 0;
  double next_s = 0.0;
  /// Jackknife sweeps run inside rank()/next(), already inside their times.
  double policy_sweep_s = 0.0;
};

/// AcclaimPipeline::run rebuilt from JobScheduler, FeatureSpace,
/// LiveEnvironment, AcclaimAcquisition, ActiveLearner, RuleGenerator and
/// rules_to_json, with the environment, oracle and policy wrapped in timing
/// decorators. Produces the same rules as the pipeline.
acclaim::core::PipelineResult run_composed(const acclaim::core::AcclaimPipeline& pipeline,
                                           const JobWorkload& job, DecoratedTimes& times);

struct JobQuality {
  double speedup = 1.0;   ///< trace-priced MPICH-default time / tuned time
  double slowdown = 1.0;  ///< mean time(chosen) / time(best) over a grid sample
};

/// Checks the job's rules and prices them on its allocation. The rules
/// (corrupted first under --corrupt rules) must reload through
/// SelectionEngine::from_json, cover every tuned collective and answer only
/// algorithms of their collective; each collective that does not is a
/// failed operation. The speedup prices a 128-call trace of the job's
/// collectives at full job scale, the slowdown a 64-scenario sample of the
/// job's P2 grid; both are drawn from the job seed, so they repeat exactly.
JobQuality check_and_price_rules(Report& report, const acclaim::core::AcclaimPipeline& pipeline,
                                 const JobWorkload& job,
                                 const acclaim::core::PipelineResult& result,
                                 const Options& opts);

/// The per-layer metrics of the learning path, read from the profiler
/// scopes and registry counters of a traced section; `decorated` (null when
/// the workload cannot wrap the environment) adds the decorator breakdown.
/// `pipeline_s` is the traced pipeline wall time.
void report_learning_layers(Report& report, const DecoratedTimes* decorated, double pipeline_s);

}  // namespace perfbench
