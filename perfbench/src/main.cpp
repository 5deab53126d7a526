// perfbench — the repository benchmark.
//
//   perfbench --workload tune_job|fleet|serve --seed N --seconds S --trace 0|1
//             [--size full|tiny] [--corrupt rules|answer]
//
// Runs one workload in one process at a fixed compute-pool size. --trace 0
// times the workload and prints its end-to-end metrics; --trace 1 runs it
// traced and prints the per-layer metrics. Every run checks the workload's
// outputs; a failed check makes the run exit 1. The last stdout line is a
// JSON object {"correct", "attempted", "failed", "metrics"}. --size tiny
// and --corrupt exist for the smoke test (smoke_test.py).
#include <cstdlib>
#include <cstring>
#include <iostream>
#include <string>

#include "util/error.hpp"
#include "util/log.hpp"
#include "workloads.hpp"

using namespace perfbench;
using acclaim::require;

namespace {

Options parse(int argc, char** argv) {
  Options opts;
  bool have_workload = false;
  for (int i = 1; i < argc; i += 2) {
    const std::string flag = argv[i];
    if (i + 1 >= argc) {
      throw acclaim::InvalidArgument(flag + " needs a value");
    }
    const std::string value = argv[i + 1];
    char* end = nullptr;
    if (flag == "--workload") {
      opts.workload = value;
      have_workload = true;
    } else if (flag == "--seed") {
      opts.seed = std::strtoull(value.c_str(), &end, 10);
    } else if (flag == "--seconds") {
      opts.seconds = std::strtod(value.c_str(), &end);
    } else if (flag == "--trace") {
      require(value == "0" || value == "1", "--trace takes 0 or 1");
      opts.trace = value == "1";
    } else if (flag == "--size") {
      require(value == "full" || value == "tiny", "--size takes full or tiny");
      opts.tiny = value == "tiny";
    } else if (flag == "--corrupt") {
      require(value == "rules" || value == "answer", "--corrupt takes rules or answer");
      opts.corrupt = value;
    } else {
      throw acclaim::InvalidArgument("unknown flag " + flag);
    }
    require(end == nullptr || (*end == '\0' && end != value.c_str()),
            flag + " expects a number, got '" + value + "'");
  }
  require(have_workload, "--workload is required");
  require(opts.seconds > 0.0, "--seconds must be positive");
  return opts;
}

}  // namespace

int main(int argc, char** argv) {
  try {
    const Options opts = parse(argc, argv);
    acclaim::util::set_log_level(acclaim::util::LogLevel::Warn);
    allowed_cpus();  // the process's CPU set, before any thread is pinned
    acclaim::util::set_global_threads(kThreads);
    acclaim::util::global_pool();  // any workers start unpinned
    Report report;
    if (opts.workload == "tune_job") {
      run_tune_job(opts, report);
    } else if (opts.workload == "fleet") {
      run_fleet(opts, report);
    } else if (opts.workload == "serve") {
      run_serve(opts, report);
    } else {
      throw acclaim::InvalidArgument("unknown workload '" + opts.workload +
                                     "' (tune_job | fleet | serve)");
    }
    return report.finish();
  } catch (const std::exception& e) {
    std::cerr << "perfbench: " << e.what() << "\n";
    return 2;
  }
}
