// serve: acclaimd over a real unix socket, closed loop, one client on one
// persistent connection. Set-up trains the served models with
// AcclaimPipeline::run at production forest size.
#include <memory>

#include "job.hpp"
#include "serving.hpp"
#include "workloads.hpp"

namespace perfbench {

using namespace acclaim;

namespace {

JobWorkload serve_job(const Options& opts) {
  JobWorkload job;
  job.machine = simnet::bebop_like();
  job.spec.collectives = {coll::Collective::Bcast, coll::Collective::Allreduce,
                          coll::Collective::Allgather, coll::Collective::Alltoall};
  job.spec.nnodes = opts.tiny ? 4 : 16;
  job.spec.ppn = opts.tiny ? 2 : 4;
  job.spec.job_seed = kJobSeed;
  job.learner.forest.n_trees = opts.tiny ? 8 : 50;
  job.learner.max_points = opts.tiny ? 24 : 120;
  job.learner.threads = kThreads;
  return job;
}

}  // namespace

void run_serve(const Options& opts, Report& report) {
  const JobWorkload job = serve_job(opts);
  // The loadgen_serve shape range: 2..64 nodes x 1..32 ppn.
  constexpr int kMaxNodes = 64;
  constexpr int kMaxPpn = 32;

  if (opts.trace) {
    const core::AcclaimPipeline pipeline(job.machine, job.learner);
    const core::PipelineResult untraced = pipeline.run(job.spec);
    const ServeInputs inputs = served_at_wildcard(untraced, kMaxNodes, kMaxPpn);
    ServeSession session(inputs, opts.seed, serve_groups(opts), "serve");
    session.start(inputs);
    // The overhead baseline: the median pass of an untraced loop as long as
    // the traced one. A single pass reads within the host's noise.
    const double untraced_pass_s =
        median(closed_loop(*session.daemon, session.stream, traced_serve_seconds(opts), false)
                   .pass_s);

    TracedSection traced;
    DecoratedTimes times;
    const auto t0 = Clock::now();
    const core::PipelineResult composed = run_composed(pipeline, job, times);
    report_learning_layers(report, &times, seconds_since(t0));
    const bool same = composed.config.dump() == untraced.config.dump();
    report.check(same, "traced composition rules differ from AcclaimPipeline::run");
    report.attempt(job.spec.collectives.size(), same ? 0 : job.spec.collectives.size());
    const LoopStats loop = run_serving(report, session, inputs, opts, traced_serve_seconds(opts));
    traced.finish(report, median(loop.pass_s) - untraced_pass_s);
    return;
  }

  // Set-up: train the served models, then start acclaimd on an empty
  // ServeCore and publish the model files through it. The request stream
  // and model files are benchmark inputs, made once and not timed.
  std::vector<double> setup_s;
  std::unique_ptr<core::AcclaimPipeline> pipeline;
  core::PipelineResult result;
  ServeInputs inputs;
  std::unique_ptr<ServeSession> session;
  CpuRotation cpu;
  HostSpeed setup_speed;
  for (int i = 0; i < kTrainingSetupRepeats; ++i) {
    cpu.pin(static_cast<std::size_t>(i));
    setup_speed.sample(kSpeedSamples);
    const auto t0 = Clock::now();
    pipeline = std::make_unique<core::AcclaimPipeline>(job.machine, job.learner);
    result = pipeline->run(job.spec);
    const double train_s = seconds_since(t0);
    inputs = served_at_wildcard(result, kMaxNodes, kMaxPpn);
    if (!session) {
      session = std::make_unique<ServeSession>(inputs, opts.seed, serve_groups(opts), "serve");
    }
    setup_s.push_back(train_s + session->start(inputs));
  }

  HostSpeed speed;
  const LoopStats loop = run_serving(report, *session, inputs, opts, opts.seconds, &speed);

  const JobQuality quality = check_and_price_rules(report, *pipeline, job, result, opts);

  report_host_times(report, setup_s, setup_speed, loop.pass_s, speed);
  report.metric("sim_training_s", result.total_training_s, "sim_s");
  report.metric("tuned_speedup", quality.speedup, "x");
  report.metric("tuned_slowdown", quality.slowdown, "x");
  report.metric("peak_rss_mb", peak_rss_mb(), "MB");
}

}  // namespace perfbench
