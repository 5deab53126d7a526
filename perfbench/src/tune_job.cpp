// tune_job: one cold AcclaimPipeline::run on the theta-like machine (the
// paper's production use, Fig. 14), then its models served by acclaimd.
#include <memory>
#include <optional>

#include "job.hpp"
#include "serving.hpp"
#include "workloads.hpp"

namespace perfbench {

using namespace acclaim;

namespace {

JobWorkload tune_job_workload(const Options& opts) {
  JobWorkload job;
  job.machine = opts.tiny ? simnet::bebop_like() : simnet::theta_like();
  job.spec.collectives = {coll::Collective::Bcast, coll::Collective::Allreduce,
                          coll::Collective::Allgather, coll::Collective::Alltoall};
  job.spec.nnodes = opts.tiny ? 4 : 512;
  job.spec.ppn = 2;
  job.spec.job_seed = kJobSeed;
  job.learner.forest.n_trees = opts.tiny ? 8 : 50;
  job.learner.max_points = opts.tiny ? 24 : 250;
  job.learner.threads = kThreads;
  return job;
}

}  // namespace

void run_tune_job(const Options& opts, Report& report) {
  const JobWorkload job = tune_job_workload(opts);
  std::vector<double> setup_s;
  std::unique_ptr<core::AcclaimPipeline> pipeline;
  for (int i = 0; i < (opts.trace ? 1 : kSetupRepeats); ++i) {
    const auto t0 = Clock::now();
    pipeline = std::make_unique<core::AcclaimPipeline>(job.machine, job.learner);
    setup_s.push_back(seconds_since(t0));
  }

  // Untraced timed section: whole pipeline runs until the time is used. A
  // traced run makes two; the second, warm one is the tracing-overhead
  // baseline, since the first pays one-time warm-up the traced run does not.
  std::vector<double> walls;
  core::PipelineResult result;
  std::string rules_text;
  std::uint64_t failed = 0;
  std::vector<double> runs_cpu_s;  ///< the timed runs in their thread's CPU time
  CpuRotation cpu;
  HostSpeed speed;
  const auto start = Clock::now();
  do {
    cpu.pin(walls.size());
    std::optional<SpeedProbe> probe;
    if (!opts.trace) {
      probe.emplace(speed);
    }
    const auto t0 = Clock::now();
    const double cpu0 = thread_cpu_s();
    core::PipelineResult run = pipeline->run(job.spec);
    runs_cpu_s.push_back(thread_cpu_s() - cpu0);
    walls.push_back(seconds_since(t0));
    probe.reset();
    if (walls.size() == 1) {
      result = std::move(run);
      rules_text = result.config.dump();
    } else {
      const bool same = run.config.dump() == rules_text;
      report.check(same, "repeated AcclaimPipeline::run produced different rules");
      failed += same ? 0 : job.spec.collectives.size();
    }
  } while (opts.trace ? walls.size() < 2 : seconds_since(start) < opts.seconds);

  if (opts.trace) {
    TracedSection traced;
    DecoratedTimes times;
    const auto t0 = Clock::now();
    const core::PipelineResult composed = run_composed(*pipeline, job, times);
    const double traced_wall = seconds_since(t0);
    report_learning_layers(report, &times, traced_wall);
    const bool same = composed.config.dump() == rules_text &&
                      composed.total_training_s == result.total_training_s;
    report.check(same, "traced composition rules differ from AcclaimPipeline::run");
    report.attempt(job.spec.collectives.size(), same ? failed : job.spec.collectives.size());
    const ServeInputs inputs = served_at_wildcard(composed, job.spec.nnodes, job.spec.ppn);
    ServeSession session(inputs, opts.seed, serve_groups(opts), "tune_job");
    session.start(inputs);
    run_serving(report, session, inputs, opts, traced_serve_seconds(opts));
    traced.finish(report, traced_wall - walls.back());
    return;
  }

  const JobQuality quality = check_and_price_rules(report, *pipeline, job, result, opts);
  report.attempt(job.spec.collectives.size() * walls.size(), failed);

  // Set-up also covers the program's serving set-up (ServeCore and daemon).
  const ServeInputs inputs = served_at_wildcard(result, job.spec.nnodes, job.spec.ppn);
  ServeSession session(inputs, opts.seed, serve_groups(opts), "tune_job");
  HostSpeed setup_speed;
  for (std::size_t i = 0; i < setup_s.size(); ++i) {
    cpu.pin(i);
    setup_speed.sample(1);
    setup_s[i] += session.start(inputs);
  }
  run_serving(report, session, inputs, opts, 0.0);

  report_host_times(report, setup_s, setup_speed, runs_cpu_s, speed);
  report.metric("sim_training_s", result.total_training_s, "sim_s");
  report.metric("tuned_speedup", quality.speedup, "x");
  report.metric("tuned_slowdown", quality.slowdown, "x");
  report.metric("peak_rss_mb", peak_rss_mb(), "MB");
}

}  // namespace perfbench
