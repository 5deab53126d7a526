#include "harness.hpp"

#include <pthread.h>
#include <sched.h>
#include <sys/resource.h>
#include <time.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <iostream>
#include <map>
#include <sstream>

#include "telemetry/metrics.hpp"
#include "telemetry/profiler.hpp"

namespace perfbench {

using namespace acclaim;

namespace {

double process_cpu_s() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  const auto secs = [](const timeval& tv) {
    return static_cast<double>(tv.tv_sec) + static_cast<double>(tv.tv_usec) * 1e-6;
  };
  return secs(ru.ru_utime) + secs(ru.ru_stime);
}

/// The reference computation of HostSpeed: about 10 ms on the nominal host.
double reference_work() {
  constexpr std::size_t kValues = 1 << 12;
  constexpr int kRounds = 24;
  std::vector<double> v(kValues);
  std::map<std::uint64_t, double> events;
  std::uint64_t x = 0x9E3779B97F4A7C15ULL;
  double acc = 0.0;
  for (int round = 0; round < kRounds; ++round) {
    for (double& d : v) {
      x ^= x << 13;
      x ^= x >> 7;
      x ^= x << 17;
      d = static_cast<double>(x >> 11) * 0x1.0p-53;
    }
    std::sort(v.begin(), v.end());
    double sum = 0.0;
    double sq = 0.0;
    double best = 1.0;
    for (std::size_t i = 0; i < v.size(); ++i) {
      sum += v[i];
      sq += v[i] * v[i];
      const double n = static_cast<double>(i + 1);
      const double var = sq / n - (sum / n) * (sum / n);
      if (i > 16 && var < best) {
        best = var;
      }
    }
    for (const double d : v) {
      events.emplace(static_cast<std::uint64_t>(d * 0x1.0p53), d);
      if (events.size() > 256) {
        acc += events.begin()->second;
        events.erase(events.begin());
      }
    }
    acc += best;
  }
  return acc;
}

void pin_thread(pthread_t thread, const std::vector<int>& cpus) {
  cpu_set_t set;
  CPU_ZERO(&set);
  for (const int c : cpus) {
    CPU_SET(c, &set);
  }
  pthread_setaffinity_np(thread, sizeof(set), &set);
}

}  // namespace

const std::vector<int>& allowed_cpus() {
  static const std::vector<int> cpus = [] {
    cpu_set_t set;
    CPU_ZERO(&set);
    sched_getaffinity(0, sizeof(set), &set);
    std::vector<int> out;
    for (int c = 0; c < CPU_SETSIZE; ++c) {
      if (CPU_ISSET(c, &set)) {
        out.push_back(c);
      }
    }
    return out;
  }();
  return cpus;
}

CpuRotation::~CpuRotation() {
  pin_thread(pthread_self(), allowed_cpus());
  if (partner_ != nullptr) {
    pin_thread(partner_->native_handle(), allowed_cpus());
  }
}

void CpuRotation::pin(std::size_t step) {
  const std::vector<int> one{allowed_cpus()[step % allowed_cpus().size()]};
  pin_thread(pthread_self(), one);
  if (partner_ != nullptr) {
    pin_thread(partner_->native_handle(), one);
  }
}

void HostSpeed::sample(int times) {
  // The first run after a move to another CPU or after the timed work
  // starts from cold caches; it is not kept.
  for (int i = 0; i <= times; ++i) {
    const auto t0 = Clock::now();
    volatile double sink = reference_work();  // keeps the work from being optimised away
    (void)sink;
    if (i > 0) {
      samples_.push_back(seconds_since(t0));
    }
  }
}

void HostSpeed::add(const std::vector<double>& samples) {
  samples_.insert(samples_.end(), samples.begin(), samples.end());
}

double HostSpeed::normalise(double seconds) const {
  return seconds * kReferenceS / median(samples_);
}

void HostSpeed::note(Report& report, const std::string& what) const {
  report.note("host." + what + "_reference_ms", median(samples_) * 1e3, "ms");
  report.note("host." + what + "_slowdown", median(samples_) / kReferenceS, "x");
}

SpeedProbe::SpeedProbe(HostSpeed& speed)
    : speed_(speed), thread_([this] {
        std::unique_lock<std::mutex> lock(mu_);
        do {
          lock.unlock();
          const double t0 = thread_cpu_s();
          volatile double sink = reference_work();
          (void)sink;
          samples_.push_back(thread_cpu_s() - t0);
          lock.lock();
        } while (!wake_.wait_for(lock, kInterval, [this] { return stop_; }));
      }) {}

SpeedProbe::~SpeedProbe() {
  {
    std::lock_guard<std::mutex> lock(mu_);
    stop_ = true;
  }
  wake_.notify_one();
  thread_.join();
  speed_.add(samples_);
}

double thread_cpu_s() {
  timespec ts{};
  clock_gettime(CLOCK_THREAD_CPUTIME_ID, &ts);
  return static_cast<double>(ts.tv_sec) + static_cast<double>(ts.tv_nsec) * 1e-9;
}

void report_host_times(Report& report, const std::vector<double>& setup_s,
                       const HostSpeed& setup_speed, const std::vector<double>& runs,
                       const HostSpeed& speed) {
  report.metric("setup_s", setup_speed.normalise(median(setup_s)), "s");
  report.metric("wall_s", speed.normalise(median(runs)), "s");
  report.note("host.setup_raw_s", median(setup_s), "s");
  setup_speed.note(report, "setup");
  report.note("host.wall_raw_s", median(runs), "s");
  speed.note(report, "wall");
}

double peak_rss_mb() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_maxrss) / 1024.0;  // ru_maxrss is in KiB on Linux
}

ProfileTotal profile_total(const std::string& label) {
  ProfileTotal total;
  for (const auto& [path, node] : telemetry::profiler().snapshot()) {
    const std::size_t cut = path.rfind(';');
    const std::string leaf = cut == std::string::npos ? path : path.substr(cut + 1);
    if (leaf == label) {
      total.seconds += static_cast<double>(node.total_ns) * 1e-9;
      total.count += node.count;
    }
  }
  return total;
}

double histogram_sum(const std::string& name) {
  return telemetry::metrics().histogram(name).sum();
}

std::uint64_t counter_value(const std::string& name) {
  return telemetry::metrics().counter(name).value();
}

TracedSection::TracedSection()
    : pool0_(util::global_pool().stats()), cpu0_s_(process_cpu_s()) {
  telemetry::profiler().enable();
  telemetry::profiler().reset();
  telemetry::metrics().reset();
}

void TracedSection::finish(Report& report, double overhead_s) {
  const util::ThreadPoolStats pool = util::global_pool().stats();
  report.metric("pool.parallel_fors",
                static_cast<double>(pool.parallel_fors - pool0_.parallel_fors), "count");
  report.metric("pool.inline_runs", static_cast<double>(pool.inline_runs - pool0_.inline_runs),
                "count");
  report.metric("process.cpu_s", process_cpu_s() - cpu0_s_, "s");
  report.metric("trace.overhead_s", overhead_s, "s");
  telemetry::profiler().disable();
}

void Report::metric(const std::string& name, double value, const std::string& unit) {
  metrics_.push_back({name, value, unit});
}

void Report::percentile_metric(const std::string& name, double value, std::size_t samples) {
  metrics_.push_back({name, value, "us", samples});
}

void Report::note(const std::string& name, double value, const std::string& unit) {
  notes_.push_back({name, value, unit});
}

void Report::check(bool ok, const std::string& what) {
  ++checks_;
  if (!ok) {
    failures_.push_back(what);
  }
}

void Report::attempt(std::uint64_t operations, std::uint64_t failed_operations) {
  attempted_ += operations;
  failed_ += failed_operations;
}

namespace {

std::string number(double v) {
  if (!std::isfinite(v)) {
    return "null";
  }
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%.17g", v);
  return buf;
}

void print_entry(const char* kind, const std::string& name, double value,
                 const std::string& unit, std::size_t samples) {
  std::cout << kind << " " << name << " = " << number(value) << " " << unit;
  if (samples > 0) {
    std::cout << " (n=" << samples << ")";
  }
  std::cout << "\n";
}

}  // namespace

int Report::finish() const {
  for (const Entry& e : metrics_) {
    print_entry("metric", e.name, e.value, e.unit, e.samples);
  }
  for (const Entry& e : notes_) {
    print_entry("layer ", e.name, e.value, e.unit, 0);
  }
  for (const std::string& f : failures_) {
    std::cout << "CHECK FAILED: " << f << "\n";
  }
  std::cout << "checks: " << checks_ - failures_.size() << "/" << checks_ << " passed; "
            << "operations: " << failed_ << " failed of " << attempted_ << " attempted"
            << " (error_rate " << number(attempted_ > 0 ? static_cast<double>(failed_) /
                                                              static_cast<double>(attempted_)
                                                        : 0.0)
            << ")\n";
  std::ostringstream json;
  json << "{\"correct\": " << (correct() ? "true" : "false") << ", \"attempted\": "
       << std::max<std::uint64_t>(attempted_, 1) << ", \"failed\": " << failed_
       << ", \"metrics\": {";
  for (std::size_t i = 0; i < metrics_.size(); ++i) {
    json << (i == 0 ? "" : ", ") << "\"" << metrics_[i].name << "\": {\"value\": "
         << number(metrics_[i].value) << ", \"unit\": \"" << metrics_[i].unit << "\"}";
  }
  json << "}}";
  std::cout << json.str() << std::endl;
  return correct() ? 0 : 1;
}

}  // namespace perfbench
