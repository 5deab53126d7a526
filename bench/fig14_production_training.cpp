// Fig. 14 — ACCLAiM training time on a leadership-class machine. Paper: on
// Theta, for jobs up to 128 nodes (16 ppn, <= 1 MiB messages), training
// converges in minutes — versus the many hours the previous state of the
// art was estimated to need — achieving production practicality.
//
// The table reports simulated quantities only: training time on the
// simulated collection clock (the paper's quantity) and the largest
// parallel batch. Both are the same at any `--threads N`. perfbench's
// `tune_job` workload measures the host time of such a training job.
#include <iostream>

#include "common.hpp"
#include "core/pipeline.hpp"
#include "util/csv.hpp"
#include "util/units.hpp"

using namespace acclaim;

int main(int argc, char** argv) {
  benchharness::BenchEnv bench_env(argc, argv);
  benchharness::banner("Fig. 14: ACCLAiM training time up to 128 nodes (Theta-like machine)",
                       "Expectation: minutes per job, growing modestly with job size");

  core::ActiveLearnerConfig learner;
  learner.forest = benchharness::bench_forest();
  learner.max_points = 250;
  const core::AcclaimPipeline pipeline(simnet::theta_like(), learner);

  util::TablePrinter table({"job size (nodes)", "allgather", "allreduce", "bcast", "reduce",
                            "total", "max batch"});
  util::CsvWriter csv(benchharness::results_path("fig14"));
  csv.header({"nnodes", "allgather_s", "allreduce_s", "bcast_s", "reduce_s", "total_s"});
  for (int nodes : {16, 32, 64, 128}) {
    core::JobSpec spec;
    spec.collectives = coll::paper_collectives();
    spec.nnodes = nodes;
    spec.ppn = 16;
    spec.min_msg = 8;
    spec.max_msg = 1 << 20;
    spec.job_seed = 40 + static_cast<std::uint64_t>(nodes);
    const core::PipelineResult result = pipeline.run(spec);

    std::vector<std::string> row = {std::to_string(nodes)};
    std::vector<double> csv_row = {static_cast<double>(nodes)};
    int max_batch = 1;
    for (const auto& t : result.training) {
      row.push_back(util::format_seconds(t.train_time_s));
      csv_row.push_back(t.train_time_s);
      max_batch = std::max(max_batch, t.max_batch);
    }
    row.push_back(util::format_seconds(result.total_training_s));
    row.push_back(std::to_string(max_batch));
    csv_row.push_back(result.total_training_s);
    table.add_row(row);
    csv.row_numeric(csv_row);
    std::cout << "  " << nodes << "-node job trained ("
              << util::format_seconds(result.total_training_s) << " simulated)\n";
  }
  table.print(std::cout);
  std::cout << "\n(paper: a matter of minutes at 128 nodes; prior art estimated ~24 hours)\n";
  return 0;
}
