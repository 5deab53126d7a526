// fleet: fleet::replay_fleet with warm start on the bebop-like machine (the
// only path with warm-start refits on transferred support sets and
// ModelStore publish/nearest), then the fleet's store served by acclaimd.
#include "fleet/fleet.hpp"

#include <limits>
#include <map>
#include <optional>
#include <set>

#include "core/env.hpp"
#include "job.hpp"
#include "serving.hpp"
#include "simnet/allocation.hpp"
#include "simnet/topology.hpp"
#include "workloads.hpp"

namespace perfbench {

using namespace acclaim;

namespace {

/// The `acclaim fleet` defaults at the benchmark's job count and threads.
fleet::FleetConfig fleet_config(const Options& opts) {
  fleet::FleetConfig config;
  config.machine = simnet::bebop_like();
  config.stream.n_jobs = opts.tiny ? 3 : 30;
  config.stream.mean_interarrival_s = 45.0;
  config.stream.seed = 7;  // the `acclaim fleet` default stream
  config.collectives_per_job = 2;
  config.learner.forest.n_trees = 20;
  config.learner.max_points = 90;
  config.learner.threads = kThreads;
  return config;
}

/// Every model in the fleet's store, asked at the (nodes, ppn) shapes of
/// the jobs that published it.
ServeInputs served_store(const serve::ModelStore& store, const fleet::FleetResult& result) {
  ServeInputs inputs;
  for (const serve::ModelKey& key : store.keys()) {
    inputs.topology = key.topology;
    std::set<std::pair<int, int>> shapes;
    for (const fleet::JobOutcome& j : result.jobs) {
      if (j.nnodes * j.ppn == key.comm_size) {
        shapes.emplace(j.nnodes, j.ppn);
      }
    }
    const auto [nodes, ppn] = *shapes.begin();
    inputs.models.push_back({key, nodes, ppn, store.lookup(key)->model});
    for (const auto& [n, p] : shapes) {
      inputs.shapes.push_back({key.collective, n, p, inputs.models.size() - 1});
    }
  }
  return inputs;
}

struct StoreQuality {
  double slowdown = 1.0;
  std::uint64_t bad_answers = 0;
};

/// Mean time(chosen)/time(best) of the served models over every P2 message
/// size of the fleet's training range at each served shape, each shape
/// priced on a fresh allocation of the machine drawn from the job seed.
/// Nothing is sampled, so the figure repeats exactly.
StoreQuality price_store(const fleet::FleetConfig& config, const ServeInputs& served) {
  const simnet::Topology topo(config.machine);
  std::map<int, simnet::Allocation> allocations;
  StoreQuality q;
  double ratio_sum = 0.0;
  int samples = 0;
  for (const Shape& shape : served.shapes) {
    auto it = allocations.find(shape.nnodes);
    if (it == allocations.end()) {
      simnet::JobScheduler sched(topo, 0.0, util::Rng(kJobSeed));
      it = allocations.emplace(shape.nnodes, sched.allocate(shape.nnodes)).first;
    }
    const core::LiveEnvironment env(topo, it->second, kJobSeed);
    for (std::uint64_t msg = config.min_msg; msg <= config.max_msg; msg *= 2) {
      const bench::Scenario s{shape.collective, shape.nnodes, shape.ppn, msg};
      const coll::Algorithm chosen = served.models[shape.model].model.select(s);
      if (coll::algorithm_info(chosen).collective != s.collective) {
        ++q.bad_answers;
        continue;
      }
      double best = std::numeric_limits<double>::infinity();
      double chosen_us = 0.0;
      for (coll::Algorithm a : coll::algorithms_for(s.collective)) {
        const double us = env.predicted_solo_us(core::ScheduledBenchmark{{s, a}, 0});
        best = std::min(best, us);
        chosen_us = a == chosen ? us : chosen_us;
      }
      ratio_sum += chosen_us / best;
      ++samples;
    }
  }
  q.slowdown = ratio_sum / samples;
  return q;
}

/// Jobs whose outcome is not a finished, priced tuning run.
std::uint64_t broken_jobs(const fleet::FleetResult& result) {
  std::uint64_t bad = 0;
  for (const fleet::JobOutcome& j : result.jobs) {
    bad += (j.points == 0 || !(j.speedup > 0.0) || !(j.training_s > 0.0)) ? 1 : 0;
  }
  return bad;
}

}  // namespace

void run_fleet(const Options& opts, Report& report) {
  std::vector<double> setup_s;
  fleet::FleetConfig config;
  for (int i = 0; i < (opts.trace ? 1 : kSetupRepeats); ++i) {
    const auto t0 = Clock::now();
    config = fleet_config(opts);
    setup_s.push_back(seconds_since(t0));
  }

  std::vector<double> walls;
  std::vector<std::string> fingerprints;
  auto store = std::make_unique<serve::ModelStore>();
  fleet::FleetResult result;
  std::vector<double> runs_cpu_s;  ///< the timed runs in their thread's CPU time
  CpuRotation cpu;
  HostSpeed speed;
  // A traced run replays twice untraced; the second, warm replay is the
  // tracing-overhead baseline.
  const auto start = Clock::now();
  do {
    cpu.pin(walls.size());
    std::optional<SpeedProbe> probe;
    if (!opts.trace) {
      probe.emplace(speed);
    }
    store = std::make_unique<serve::ModelStore>();
    const auto t0 = Clock::now();
    const double cpu0 = thread_cpu_s();
    result = fleet::replay_fleet(config, *store);
    runs_cpu_s.push_back(thread_cpu_s() - cpu0);
    walls.push_back(seconds_since(t0));
    probe.reset();
    fingerprints.push_back(result.fingerprint);
  } while (opts.trace ? walls.size() < 2 : seconds_since(start) < opts.seconds);
  std::uint64_t failed = broken_jobs(result);
  report.check(failed == 0, "fleet jobs without a finished, priced tuning run");
  for (const std::string& fp : fingerprints) {
    report.check(fp == fingerprints.front(), "repeated replay_fleet changed its fingerprint");
    failed += fp == fingerprints.front() ? 0 : result.jobs.size();
  }

  if (opts.trace) {
    TracedSection traced;
    serve::ModelStore traced_store;
    const auto t0 = Clock::now();
    const fleet::FleetResult traced_result = fleet::replay_fleet(config, traced_store);
    const double traced_wall = seconds_since(t0);
    const double pipelines_s = profile_total("pipeline.run").seconds;
    report_learning_layers(report, nullptr, pipelines_s);
    report.note("fleet.pricing_s", traced_wall - pipelines_s, "s");
    report.note("fleet.warm_jobs", static_cast<double>(traced_result.totals.warm_jobs), "count");
    report.note("fleet.points", static_cast<double>(traced_result.totals.points), "count");
    const bool same = traced_result.fingerprint == result.fingerprint;
    report.check(same, "traced and untraced fleet fingerprints differ");
    report.attempt(result.jobs.size(), same ? failed : result.jobs.size());
    const ServeInputs inputs = served_store(traced_store, traced_result);
    ServeSession session(inputs, opts.seed, serve_groups(opts), "fleet");
    session.start(inputs);
    run_serving(report, session, inputs, opts, traced_serve_seconds(opts));
    traced.finish(report, traced_wall - walls.back());
    return;
  }

  const ServeInputs inputs = served_store(*store, result);
  const StoreQuality quality = price_store(config, inputs);
  report.check(quality.bad_answers == 0, "served models answered outside their collective");
  report.attempt(result.jobs.size() * walls.size(), failed + quality.bad_answers);
  // Set-up also covers the program's serving set-up (ServeCore and daemon).
  ServeSession session(inputs, opts.seed, serve_groups(opts), "fleet");
  HostSpeed setup_speed;
  for (std::size_t i = 0; i < setup_s.size(); ++i) {
    cpu.pin(i);
    setup_speed.sample(1);
    setup_s[i] += session.start(inputs);
  }
  run_serving(report, session, inputs, opts, 0.0);

  report_host_times(report, setup_s, setup_speed, runs_cpu_s, speed);
  report.metric("sim_training_s", result.totals.training_s, "sim_s");
  report.metric("tuned_speedup", result.totals.mean_speedup, "x");
  report.metric("tuned_slowdown", quality.slowdown, "x");
  report.metric("peak_rss_mb", peak_rss_mb(), "MB");
}

}  // namespace perfbench
