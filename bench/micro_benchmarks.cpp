// Forest inference regression gate: times the reference pointer walk
// (tests/reference_forest.hpp) against the fused SoA kernel on a
// fig10/fig12-shaped jackknife sweep, checks the two paths bitwise-equal,
// and writes DIR/BENCH_micro_forest.json for CI to parse.
//
//   micro_benchmarks --json-out DIR
//
// Host time of every library layer (forest fit, variance sweep, schedule
// build, model JSON) is measured end to end by perfbench/, not here.
#include <algorithm>
#include <chrono>
#include <cstdint>
#include <cstring>
#include <filesystem>
#include <iostream>
#include <limits>
#include <string>
#include <vector>

#include "core/feature_space.hpp"
#include "ml/forest.hpp"
#include "reference_forest.hpp"
#include "util/json.hpp"
#include "util/rng.hpp"

namespace {

using namespace acclaim;

/// A fig10/fig12-shaped forest workload: the full bebop P2 candidate pool of
/// one collective (every scenario x algorithm the jackknife acquisition
/// scores per round), a bench-forest-sized ensemble trained on smooth
/// synthetic log-times over those same encoded features.
struct SweepFixture {
  std::vector<ml::FeatureRow> rows;
  ml::RandomForest forest;

  SweepFixture() {
    std::vector<std::uint64_t> msgs;
    for (std::uint64_t m = 8; m <= (1u << 20); m *= 2) {
      msgs.push_back(m);
    }
    const core::FeatureSpace space({2, 4, 8, 16, 32, 64}, {1, 2, 4, 8, 16, 32}, msgs);
    util::Rng rng(17);
    std::vector<double> y;
    for (const bench::BenchmarkPoint& p : space.candidates(coll::Collective::Allreduce)) {
      const ml::FeatureRow f = core::encode_point(p);
      // log-time surface: latency + bandwidth terms over the log2 axes, a
      // per-algorithm offset from the one-hot block, mild noise.
      double alg_bias = 0.0;
      for (std::size_t i = 3; i < f.size(); ++i) {
        alg_bias += f[i] * 0.2 * static_cast<double>(i - 2);
      }
      y.push_back(0.4 * f[0] + 0.2 * f[1] + 0.15 * f[2] + alg_bias + rng.normal(0.0, 0.05));
      rows.push_back(f);
    }
    ml::ForestParams params;
    params.n_trees = 50;  // the figure harnesses' bench_forest() size
    forest.fit(rows, y, params, 7);
  }
};

/// Single-threaded pointer-vs-SoA comparison on the SweepFixture workload,
/// bitwise-equality check, and a BENCH_micro_forest.json artifact in the
/// house format (figure/rows) so CI can fail the PR if the SoA engine ever
/// loses ground.
int run_forest_gate(const std::string& out_dir) {
  const SweepFixture fx;
  const std::size_t n = fx.rows.size();

  std::vector<double> var_ptr(n), var_flat(n);
  std::vector<double> scratch;
  constexpr int kReps = 7;
  auto time_path = [&](auto sweep, double* var) {
    double best_s = std::numeric_limits<double>::infinity();
    for (int rep = 0; rep < kReps; ++rep) {  // first rep doubles as warmup
      const auto t0 = std::chrono::steady_clock::now();
      sweep(fx.rows.data(), n, var, scratch);
      const double s =
          std::chrono::duration<double>(std::chrono::steady_clock::now() - t0).count();
      if (rep > 0) {
        best_s = std::min(best_s, s);
      }
    }
    return best_s;
  };
  const double ptr_s = time_path(
      [&](const ml::FeatureRow* rows, std::size_t n_rows, double* var, std::vector<double>& s) {
        testing_support::reference_jackknife_batch(fx.forest, rows, n_rows, var, s);
      },
      var_ptr.data());
  const double flat_s = time_path(
      [&](const ml::FeatureRow* rows, std::size_t n_rows, double* var, std::vector<double>& s) {
        fx.forest.jackknife_batch(rows, n_rows, var, s);
      },
      var_flat.data());

  const bool bitwise_equal =
      std::memcmp(var_ptr.data(), var_flat.data(), n * sizeof(double)) == 0;
  const double speedup = ptr_s / flat_s;

  std::cout << "forest gate: " << n << " rows x " << fx.forest.n_trees() << " trees\n"
            << "  pointer   " << ptr_s * 1e3 << " ms  ("
            << static_cast<double>(n) / ptr_s << " rows/s)\n"
            << "  flat+fuse " << flat_s * 1e3 << " ms  ("
            << static_cast<double>(n) / flat_s << " rows/s)\n"
            << "  speedup   " << speedup << "x, bitwise_equal="
            << (bitwise_equal ? "true" : "false") << "\n";

  util::Json doc = util::Json::object();
  doc["figure"] = "micro_forest";
  util::Json rows = util::Json::array();
  auto make_row = [&](const char* path, double seconds) {
    util::Json row = util::Json::object();
    row["path"] = path;
    row["seconds"] = seconds;
    row["rows_per_s"] = static_cast<double>(n) / seconds;
    return row;
  };
  rows.push_back(make_row("pointer", ptr_s));
  util::Json flat_row = make_row("flat_fused", flat_s);
  flat_row["speedup"] = speedup;
  flat_row["bitwise_equal"] = bitwise_equal;
  rows.push_back(std::move(flat_row));
  doc["rows"] = std::move(rows);
  std::filesystem::create_directories(out_dir);
  doc.dump_file(out_dir + "/BENCH_micro_forest.json");

  if (!bitwise_equal) {
    std::cerr << "forest gate: SoA results diverge from the reference pointer walk\n";
    return 1;
  }
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  if (argc != 3 || std::strcmp(argv[1], "--json-out") != 0) {
    std::cerr << "usage: " << argv[0] << " --json-out DIR\n";
    return 2;
  }
  return run_forest_gate(argv[2]);
}
