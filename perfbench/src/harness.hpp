// Shared benchmark plumbing: options, timing, process counters, and the
// result report whose last stdout line is the JSON object the benchmark
// contract asks for. Statistics over raw samples come from util/stats.
#pragma once

#include <chrono>
#include <condition_variable>
#include <cstdint>
#include <map>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

#include "util/stats.hpp"
#include "util/thread_pool.hpp"

namespace perfbench {

// Exact statistics over raw samples (linear interpolation between the two
// closest order statistics).
using acclaim::util::median;
using acclaim::util::percentile;

/// Every workload runs the library's compute pool at this size. One: the
/// host's virtual CPUs are not independent cores. Two threads of
/// independent work each ran at half the speed of one for seconds at a
/// time, so a second thread measures where the host places it.
inline constexpr int kThreads = 1;

/// Untraced runs set up this many times and report the median. A set-up
/// that trains models (serve) takes about a second; the others take tens
/// of milliseconds, so they repeat more.
inline constexpr int kSetupRepeats = 25;
inline constexpr int kTrainingSetupRepeats = 5;

/// Host-speed samples (HostSpeed::sample) taken before each serve set-up.
inline constexpr int kSpeedSamples = 8;

struct Options {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  bool tiny = false;    ///< smoke-test sizes
  std::string corrupt;  ///< fault injection for the smoke test: "rules" or "answer"
};

using Clock = std::chrono::steady_clock;

inline double seconds_since(Clock::time_point t0) {
  return std::chrono::duration<double>(Clock::now() - t0).count();
}

class Report;

double peak_rss_mb();

/// Keeps the calling thread, and optionally one partner thread, on one CPU
/// at a time: pin(step) moves both to the step-th allowed CPU, cyclically,
/// so the timed work and the host-speed reference beside it share a CPU
/// and no single busy CPU of the host decides every figure. The allowed
/// set is the one the process started with (see allowed_cpus); both
/// threads get it back on destruction.
class CpuRotation {
 public:
  explicit CpuRotation(std::thread* partner = nullptr) : partner_(partner) {}
  ~CpuRotation();
  CpuRotation(const CpuRotation&) = delete;
  CpuRotation& operator=(const CpuRotation&) = delete;

  void pin(std::size_t step);

 private:
  std::thread* partner_;
};

/// The CPUs the process may run on, read on the first call; main() calls
/// it before any thread is pinned.
const std::vector<int>& allowed_cpus();

/// The host's speed, sampled next to the timed work. The benchmark runs on
/// a shared virtual machine whose speed changes by up to 2x over minutes,
/// on the program and on any other code alike. Each sample times a fixed,
/// benchmark-owned computation (sorting and scanning doubles for the best
/// variance split, as a forest fit does, and churning an ordered map, as
/// the simulator's event queues do) on the CPU the timed work runs on; it
/// runs no program code, so only the host moves it. normalise() rescales a
/// time measured beside the samples to a host on which that computation
/// takes kReferenceS, dividing out the host's speed over the samples'
/// window.
class HostSpeed {
 public:
  /// The reference computation's time on the nominal host.
  static constexpr double kReferenceS = 0.010;

  /// Times the reference computation `times` times on the calling thread,
  /// in wall time, after one untimed run.
  void sample(int times);
  /// Adds samples timed elsewhere (SpeedProbe).
  void add(const std::vector<double>& samples);
  /// `seconds` measured beside the samples, on the nominal host.
  double normalise(double seconds) const;
  /// Prints the median reference time and the host's speed factor.
  void note(Report& report, const std::string& what) const;

 private:
  std::vector<double> samples_;
};

/// Samples the host's speed all through a long timed run. A helper thread,
/// created on the calling thread's CPU set (a pinned caller keeps it on
/// its own CPU), runs the reference computation at once and then every
/// kInterval, timed in the helper's own CPU time, so the time the timed
/// work runs in between does not count. The timed work is then measured in
/// its thread's CPU time too (thread_cpu_s), which leaves the helper's
/// turns out. Destruction stops the helper, waits for it, and hands its
/// samples to `speed`.
class SpeedProbe {
 public:
  static constexpr std::chrono::milliseconds kInterval{250};

  explicit SpeedProbe(HostSpeed& speed);
  ~SpeedProbe();
  SpeedProbe(const SpeedProbe&) = delete;
  SpeedProbe& operator=(const SpeedProbe&) = delete;

 private:
  HostSpeed& speed_;
  std::mutex mu_;
  std::condition_variable wake_;
  bool stop_ = false;
  std::vector<double> samples_;  ///< read only after the thread is joined
  std::thread thread_;           ///< last: runs on the members above
};

/// CPU time of the calling thread.
double thread_cpu_s();

/// Host-side profiler and registry readers. Profiler paths are summed over
/// every path whose last label is `label`.
struct ProfileTotal {
  double seconds = 0.0;
  std::uint64_t count = 0;
};
ProfileTotal profile_total(const std::string& label);
double histogram_sum(const std::string& name);
std::uint64_t counter_value(const std::string& name);

/// Reports setup_s and wall_s, the medians of the set-ups and of the timed
/// runs, each rescaled to the nominal host by the speed sampled beside it,
/// and prints the raw medians and the host's speed.
void report_host_times(Report& report, const std::vector<double>& setup_s,
                       const HostSpeed& setup_speed, const std::vector<double>& runs,
                       const HostSpeed& speed);

/// A workload's traced run. Construction enables the library profiler and
/// zeroes the metrics registry, so the readers above see only the traced
/// section; finish() reports the thread-pool and process counters over the
/// section and the tracing overhead (traced minus untraced wall of the
/// timed section), and disables the profiler.
class TracedSection {
 public:
  TracedSection();
  void finish(Report& report, double overhead_s);

 private:
  acclaim::util::ThreadPoolStats pool0_;
  double cpu0_s_;
};

/// Collects metrics, human-readable notes, and correctness verdicts, then
/// prints them. `failed` counts operations whose output failed a check.
class Report {
 public:
  void metric(const std::string& name, double value, const std::string& unit);
  /// A percentile printed with its sample count beside it.
  void percentile_metric(const std::string& name, double value, std::size_t samples);
  /// A per-layer number that is not one of the benchmark's declared
  /// metrics (it applies to this workload only); printed, not in the JSON.
  void note(const std::string& name, double value, const std::string& unit);
  /// Records one check; a false `ok` marks the run incorrect.
  void check(bool ok, const std::string& what);
  void attempt(std::uint64_t operations, std::uint64_t failed_operations);

  bool correct() const noexcept { return failures_.empty(); }

  /// Prints the notes, the checks, and the final JSON line. Returns the
  /// process exit code (non-zero when a check failed).
  int finish() const;

 private:
  struct Entry {
    std::string name;
    double value;
    std::string unit;
    std::size_t samples = 0;
  };
  std::vector<Entry> metrics_;
  std::vector<Entry> notes_;
  std::vector<std::string> failures_;
  std::size_t checks_ = 0;
  std::uint64_t attempted_ = 0;
  std::uint64_t failed_ = 0;
};

}  // namespace perfbench
