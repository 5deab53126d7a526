#include "job.hpp"

#include <algorithm>
#include <cmath>
#include <map>

#include "core/acquisition.hpp"
#include "core/env.hpp"
#include "core/heuristic.hpp"
#include "traces/traces.hpp"
#include "util/error.hpp"

namespace perfbench {

using namespace acclaim;

namespace {

double sweep_total_s() { return histogram_sum("model.variance_sweep_ms") * 1e-3; }

/// Forwards to the job's LiveEnvironment, timing each call and mirroring
/// the inner collection clock (the learner reads the clock it is handed).
class TimedEnvironment final : public core::TuningEnvironment {
 public:
  TimedEnvironment(core::TuningEnvironment& inner, DecoratedTimes& times)
      : inner_(inner), times_(times) {}

  bench::Measurement measure(const bench::BenchmarkPoint& point) override {
    const double before = inner_.clock_s();
    const auto t0 = Clock::now();
    bench::Measurement m = inner_.measure(point);
    times_.measure_s += seconds_since(t0);
    ++times_.measure_calls;
    charge_s(inner_.clock_s() - before);
    return m;
  }

  std::vector<bench::Measurement> measure_scheduled(
      const std::vector<core::ScheduledBenchmark>& batch) override {
    return measure_scheduled(batch, {});
  }

  std::vector<bench::Measurement> measure_scheduled(
      const std::vector<core::ScheduledBenchmark>& batch,
      const std::vector<double>& predicted_solo_us) override {
    const double before = inner_.clock_s();
    const auto t0 = Clock::now();
    std::vector<bench::Measurement> out = inner_.measure_scheduled(batch, predicted_solo_us);
    times_.measure_scheduled_s += seconds_since(t0);
    times_.scheduled_items += batch.size();
    charge_s(inner_.clock_s() - before);
    return out;
  }

  std::optional<std::uint64_t> nonp2_msg_near(std::uint64_t p2_anchor,
                                              util::Rng& rng) override {
    return inner_.nonp2_msg_near(p2_anchor, rng);
  }

  const simnet::Topology* topology() const override { return inner_.topology(); }
  const simnet::Allocation* allocation() const override { return inner_.allocation(); }

  core::SoloCostFn solo_cost_oracle() const override {
    core::SoloCostFn inner = inner_.solo_cost_oracle();
    if (!inner) {
      return inner;
    }
    DecoratedTimes* times = &times_;
    return [inner = std::move(inner), times](const core::ScheduledBenchmark& item) {
      const auto t0 = Clock::now();
      const double us = inner(item);
      times->solo_cost_ns.fetch_add(
          static_cast<std::uint64_t>(
              std::chrono::duration_cast<std::chrono::nanoseconds>(Clock::now() - t0).count()),
          std::memory_order_relaxed);
      times->solo_cost_calls.fetch_add(1, std::memory_order_relaxed);
      return us;
    };
  }

 private:
  core::TuningEnvironment& inner_;
  DecoratedTimes& times_;
};

class TimedPolicy final : public core::AcquisitionPolicy {
 public:
  TimedPolicy(core::AcquisitionPolicy& inner, DecoratedTimes& times)
      : inner_(inner), times_(times) {}

  Pick next(const core::CollectiveModel& model, const std::vector<bench::BenchmarkPoint>& pool,
            core::TuningEnvironment& env, util::Rng& rng) override {
    const double sweep0 = sweep_total_s();
    const auto t0 = Clock::now();
    Pick pick = inner_.next(model, pool, env, rng);
    times_.next_s += seconds_since(t0);
    times_.policy_sweep_s += sweep_total_s() - sweep0;
    return pick;
  }

  void observe(const bench::BenchmarkPoint& point, double time_us) override {
    inner_.observe(point, time_us);
  }

  std::vector<std::size_t> rank(const core::CollectiveModel& model,
                                const std::vector<bench::BenchmarkPoint>& pool) const override {
    const double sweep0 = sweep_total_s();
    const auto t0 = Clock::now();
    std::vector<std::size_t> ranked = inner_.rank(model, pool);
    times_.rank_s += seconds_since(t0);
    ++times_.rank_calls;
    times_.policy_sweep_s += sweep_total_s() - sweep0;
    return ranked;
  }

  const char* name() const override { return inner_.name(); }

 private:
  core::AcquisitionPolicy& inner_;
  DecoratedTimes& times_;
};

std::vector<int> p2_axis(int lo, int hi) {
  std::vector<int> out;
  for (int v = lo; v <= hi; v *= 2) {
    out.push_back(v);
  }
  return out;
}

core::FeatureSpace job_space(const core::JobSpec& spec) {
  std::vector<std::uint64_t> msgs;
  for (std::uint64_t m = spec.min_msg; m <= spec.max_msg; m *= 2) {
    msgs.push_back(m);
  }
  return core::FeatureSpace(p2_axis(2, spec.nnodes), p2_axis(1, spec.ppn), msgs);
}

/// Replaces one algorithm in the rules with a name no collective has
/// (smoke-test fault injection).
void corrupt_rules(util::Json& rules) {
  util::Json& buckets = rules["collectives"].as_object().begin()->second;
  buckets.as_array().front()["rules"].as_array().front()["algorithm"] = "corrupted-algorithm";
}

}  // namespace

core::PipelineResult run_composed(const core::AcclaimPipeline& pipeline, const JobWorkload& job,
                                  DecoratedTimes& times) {
  const core::JobSpec& spec = job.spec;
  // Same allocation, axes, seeds and learner settings as AcclaimPipeline::run.
  simnet::JobScheduler sched(pipeline.topology(), spec.machine_busy_fraction,
                             util::Rng(spec.job_seed * 0x9e3779b97f4a7c15ULL + 1));
  core::PipelineResult result;
  result.allocation = sched.allocate(spec.nnodes);
  result.job_seed = spec.job_seed;
  const core::FeatureSpace space = job_space(spec);
  core::LiveEnvironment live(pipeline.topology(), result.allocation, spec.job_seed);
  TimedEnvironment env(live, times);

  core::ActiveLearnerConfig cfg = job.learner;
  cfg.parallel_collection = true;
  cfg.topology_aware = true;
  std::vector<core::RuleTable> tables;
  for (coll::Collective c : spec.collectives) {
    core::AcclaimAcquisition acclaim_policy;
    TimedPolicy policy(acclaim_policy, times);
    cfg.seed = spec.job_seed ^ (static_cast<std::uint64_t>(c) + 0x51ULL);
    core::ActiveLearner learner(c, space, env, policy, cfg);
    core::TrainingResult tr = learner.run();
    core::CollectiveTrainingSummary summary;
    summary.collective = c;
    summary.points = tr.collected.size();
    summary.iterations = tr.iterations;
    summary.train_time_s = tr.train_time_s;
    summary.converged = tr.converged;
    result.training.push_back(summary);
    tables.push_back(core::RuleGenerator().generate(tr.model, space));
    result.trained.push_back(
        core::TrainedCollective{std::move(tr.model), std::move(tr.collected)});
  }
  result.total_training_s = live.clock_s();
  result.config = core::rules_to_json(tables);
  return result;
}

JobQuality check_and_price_rules(Report& report, const core::AcclaimPipeline& pipeline,
                                 const JobWorkload& job, const core::PipelineResult& result,
                                 const Options& opts) {
  constexpr std::size_t kTraceCalls = 128;
  constexpr std::size_t kGridSample = 64;
  const core::JobSpec& spec = job.spec;
  // The pricing samples come from the job seed, not --seed: like the job
  // they are fixed, so the quality metrics repeat exactly.
  const std::uint64_t seed = spec.job_seed;
  report.attempt(spec.collectives.size(), 0);
  util::Json rules = result.config;
  if (opts.corrupt == "rules") {
    corrupt_rules(rules);
  }
  JobQuality q;
  std::optional<core::SelectionEngine> engine;
  try {
    engine.emplace(core::SelectionEngine::from_json(rules));
  } catch (const acclaim::Error& e) {
    report.check(false, std::string("rules do not reload: ") + e.what());
    report.attempt(0, spec.collectives.size());
    return q;
  }
  std::map<coll::Collective, bool> bad;
  const auto choose = [&](const bench::Scenario& s) {
    if (!engine->covers(s.collective)) {
      bad[s.collective] = true;
      return core::mpich_default_selection(s);
    }
    const coll::Algorithm a = engine->select(s);
    if (coll::algorithm_info(a).collective != s.collective) {
      bad[s.collective] = true;
    }
    return a;
  };

  const core::LiveEnvironment env(pipeline.topology(), result.allocation, spec.job_seed);
  std::map<bench::BenchmarkPoint, double> prices;
  const auto price = [&](const bench::Scenario& s, coll::Algorithm a) {
    const bench::BenchmarkPoint point{s, a};
    const auto it = prices.find(point);
    if (it != prices.end()) {
      return it->second;
    }
    const double us = env.predicted_solo_us(core::ScheduledBenchmark{point, 0});
    prices.emplace(point, us);
    return us;
  };

  // Speedup: an application trace over the job's collectives and message
  // range at full job scale, priced under the rules and the MPICH default.
  traces::AppTraceSpec app;
  app.name = "perfbench-job";
  app.type_sizes = {spec.min_msg};
  app.min_count_log2 = 0;
  app.max_count_log2 =
      static_cast<int>(std::log2(static_cast<double>(spec.max_msg / spec.min_msg)));
  app.mix.clear();
  for (coll::Collective c : spec.collectives) {
    app.mix[c] = 1.0;
  }
  util::Rng trace_rng = util::Rng::stream(seed, 0x7ACEULL);
  double tuned_us = 0.0;
  double default_us = 0.0;
  for (const traces::CollectiveCall& call :
       traces::generate_trace(app, spec.nnodes, kTraceCalls, trace_rng)) {
    const bench::Scenario s{call.collective, spec.nnodes, spec.ppn, call.msg_bytes};
    tuned_us += price(s, choose(s));
    default_us += price(s, core::mpich_default_selection(s));
  }
  q.speedup = default_us / tuned_us;

  // Slowdown: a seeded sample of the job's P2 grid, each scenario priced for
  // every algorithm of its collective.
  const core::FeatureSpace space = job_space(spec);
  std::vector<bench::Scenario> grid;
  for (coll::Collective c : spec.collectives) {
    const std::vector<bench::Scenario> s = space.scenarios(c);
    grid.insert(grid.end(), s.begin(), s.end());
  }
  util::Rng grid_rng = util::Rng::stream(seed, 0x6A1DULL);
  double ratio_sum = 0.0;
  const std::vector<std::size_t> picks =
      grid_rng.sample_without_replacement(grid.size(), std::min(kGridSample, grid.size()));
  for (std::size_t i : picks) {
    const bench::Scenario& s = grid[i];
    double best = std::numeric_limits<double>::infinity();
    for (coll::Algorithm a : coll::algorithms_for(s.collective)) {
      best = std::min(best, price(s, a));
    }
    ratio_sum += price(s, choose(s)) / best;
  }
  q.slowdown = ratio_sum / static_cast<double>(picks.size());
  for (const auto& [c, is_bad] : bad) {
    report.check(!is_bad, std::string("rules for ") + coll::collective_name(c) +
                              " are missing or answer outside the collective");
    report.attempt(0, is_bad ? 1 : 0);
  }
  return q;
}

void report_learning_layers(Report& report, const DecoratedTimes* decorated, double pipeline_s) {
  const ProfileTotal fit = profile_total("forest.fit");
  const ProfileTotal learner = profile_total("learner.run");
  const ProfileTotal plan = profile_total("scheduler.plan");
  const double sweep_s = sweep_total_s();
  const double batch_wall_s = histogram_sum("simnet.batch_wall_ms") * 1e-3;
  const std::uint64_t batches = counter_value("simnet.parallel_batches");
  const std::uint64_t items = counter_value("simnet.batch_items");

  // Learner time no named child accounts for. Children on the learner's own
  // thread: fits, scheduler plans, jackknife sweeps and batch measurement;
  // with decorators also sequential measurement and the policy (whose own
  // sweeps are already inside the policy times).
  double unattributed = learner.seconds - fit.seconds - plan.seconds;
  if (decorated != nullptr) {
    unattributed -= decorated->measure_s + decorated->measure_scheduled_s + decorated->rank_s +
                    decorated->next_s + (sweep_s - decorated->policy_sweep_s);
  } else {
    unattributed -= batch_wall_s + sweep_s;
  }

  report.metric("forest.fit_s", fit.seconds, "s");
  report.metric("forest.fit_calls", static_cast<double>(fit.count), "count");
  report.metric("forest.predict_rows", static_cast<double>(counter_value("ml.forest.predicts")),
                "count");
  report.metric("model.variance_sweep_s", sweep_s, "s");
  report.metric("learner.run_s", learner.seconds, "s");
  report.metric("learner.unattributed_s", unattributed, "s");
  report.metric("scheduler.plan_s", plan.seconds, "s");
  report.metric("scheduler.batches", static_cast<double>(counter_value("scheduler.batches")),
                "count");
  report.metric("scheduler.mean_batch",
                batches > 0 ? static_cast<double>(items) / static_cast<double>(batches) : 0.0,
                "items");
  report.metric("env.measure_scheduled_s", batch_wall_s, "s");
  report.metric("env.scheduled_items", static_cast<double>(items), "count");
  report.metric("rulegen.generate_s", profile_total("rulegen.generate").seconds, "s");
  report.metric("pipeline.run_s", pipeline_s, "s");
  report.metric("simnet.schedule_s", histogram_sum("simnet.microbench_wall_us") * 1e-6, "s");
  report.metric("simnet.microbench_runs",
                static_cast<double>(counter_value("simnet.microbench_runs")), "count");
  if (decorated != nullptr) {
    report.note("env.measure_s", decorated->measure_s, "s");
    report.note("env.measure_calls", static_cast<double>(decorated->measure_calls), "count");
    report.note("env.solo_cost_s", static_cast<double>(decorated->solo_cost_ns.load()) * 1e-9,
                "s");
    report.note("env.solo_cost_calls", static_cast<double>(decorated->solo_cost_calls.load()),
                "count");
    report.note("acquisition.rank_s", decorated->rank_s, "s");
    report.note("acquisition.rank_calls", static_cast<double>(decorated->rank_calls), "count");
    report.note("acquisition.next_s", decorated->next_s, "s");
  }
}

}  // namespace perfbench
