// Lightweight self-profiler and the library's one scoped timer, Span.
//
// A Span reads the steady clock when it opens and when it closes, and feeds
// that one interval to up to three consumers:
//  * the profiler, for a labelled span opened while it is on: nested labels
//    on a thread form an attribution path ("pipeline.run;train:bcast;
//    learner.run"), aggregated into wall time and hit counts per path and
//    exported as folded stacks ("a;b;c <self_us>", for flamegraph.pl);
//  * a metrics Histogram, observed in the histogram's own unit;
//  * the tracer, for a Span::phase() opened while it is on: one Phase event
//    with `wall_ms` plus any annotate()d fields.
// Both sinks are off by default (one relaxed load each). Labels belong on a
// thread's serial path; per-query serving, audit and pool-worker spans take
// none. Host-wall time is observability only: it never feeds back into the
// deterministic computation (the audit log and models never see it).
#pragma once

#include <atomic>
#include <chrono>
#include <cstdint>
#include <map>
#include <mutex>
#include <optional>
#include <string>
#include <string_view>

#include "telemetry/trace.hpp"

namespace acclaim::telemetry {

class Histogram;

class Profiler {
 public:
  static Profiler& global();

  bool enabled() const noexcept { return enabled_.load(std::memory_order_relaxed); }
  void enable();
  /// Stops recording and clears all accumulated attribution.
  void disable();
  /// Clears accumulated attribution, keeps the enabled state.
  void reset();

  struct Node {
    std::uint64_t count = 0;
    std::uint64_t total_ns = 0;  ///< inclusive wall time
  };

  /// Adds one timed interval under `path` (";"-joined label stack).
  void record(const std::string& path, std::uint64_t wall_ns);

  /// Accumulated attribution, keyed by path (ordered, so exports are stable).
  std::map<std::string, Node> snapshot() const;

  /// Folded-stack export: one "a;b;c <self_us>" line per path with non-zero
  /// self time (inclusive time minus the inclusive time of direct children),
  /// in path order. Feed to flamegraph.pl or speedscope.
  std::string folded() const;

  /// Writes folded() to `path`; throws IoError.
  void write_folded(const std::string& path) const;

 private:
  Profiler() = default;

  mutable std::mutex mu_;
  std::atomic<bool> enabled_{false};
  std::map<std::string, Node> nodes_;
};

/// Shorthand for Profiler::global().
inline Profiler& profiler() { return Profiler::global(); }

/// The unit a Span observes its histogram in (its value: nanoseconds per unit).
enum class Unit : std::int64_t { ns = 1, us = 1'000, ms = 1'000'000 };

/// RAII host-wall timer; see the file comment for its three consumers.
class Span {
 public:
  /// A profiler layer named `label`.
  explicit Span(std::string_view label);
  /// A profiler layer that also observes `hist` in `unit`.
  Span(std::string_view label, Histogram& hist, Unit unit);
  /// No profiler layer: observes `hist` in `unit` only.
  Span(Histogram& hist, Unit unit);
  /// A profiler layer that also emits a Phase event labelled `label`.
  static Span phase(std::string label);

  ~Span();
  Span(const Span&) = delete;
  Span& operator=(const Span&) = delete;

  /// Host milliseconds since the span opened.
  double elapsed_ms() const;
  /// Attaches a field to the Phase event (no-op when none will be emitted).
  void annotate(const std::string& key, util::Json value);

 private:
  Span(std::string_view label, Histogram* hist, Unit unit, bool phase);

  Histogram* hist_;
  Unit unit_;
  bool profiled_ = false;
  std::size_t restore_len_ = 0;  ///< thread-local path length to restore
  std::optional<TraceEvent> phase_;
  std::chrono::steady_clock::time_point start_;
};

}  // namespace acclaim::telemetry
