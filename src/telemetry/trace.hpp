// Structured tracing for the autotuning pipeline.
//
// Instrumented code emits typed events (one per training iteration,
// acquisition pick, scheduled batch, benchmark run, model refit,
// convergence check, and pipeline phase) into the process-wide Tracer, a
// JsonlSink (jsonl_sink.hpp): off by default, with an in-memory ring (tests,
// the report builder after an in-process run) and a JSON-lines stream (the
// format `acclaim report` consumes) as independent destinations.
// Events carry a wall-clock timestamp relative to the tracer epoch plus a
// free-form field object; the fields that matter to the report builder are
// documented per event kind in DESIGN.md ("Observability").
#pragma once

#include <chrono>
#include <optional>
#include <string>
#include <vector>

#include "telemetry/jsonl_sink.hpp"
#include "util/json.hpp"

namespace acclaim::telemetry {

enum class EventKind {
  TrainingIteration,  ///< one active-learning iteration completed
  PointAcquired,      ///< acquisition policy picked a benchmark point
  BatchScheduled,     ///< parallel-collection scheduler planned a batch
  BenchmarkRun,       ///< environment measured one benchmark point
  ModelRefit,         ///< primary model retrained
  ConvergenceCheck,   ///< variance-convergence criterion evaluated
  Phase,              ///< a timed pipeline phase (per-collective training, ...)
  FleetJob,           ///< one fleet-replay job finished tuning
};

const char* event_kind_name(EventKind kind);
/// Inverse of event_kind_name; nullopt for unknown names (the trace format
/// is forward-compatible: readers skip kinds they do not know).
std::optional<EventKind> parse_event_kind(const std::string& name);

struct TraceEvent {
  EventKind kind = EventKind::Phase;
  /// Subject of the event — the collective being trained for most kinds,
  /// the phase name for Phase events.
  std::string label;
  /// Wall-clock milliseconds since the tracer epoch.
  double t_wall_ms = 0.0;
  /// Kind-specific payload (numbers, strings, bools).
  util::JsonObject fields;

  /// Flat object: {"event": .., "t_ms": .., "label": .., <fields>...}.
  util::Json to_json() const;
  /// Inverse of to_json; throws InvalidArgument on unknown event kinds.
  static TraceEvent from_json(const util::Json& doc);
};

/// The process-wide trace sink. Lifecycle, destinations and counters come
/// from JsonlSink; record() stamps each event with its wall-clock offset
/// from the tracer epoch.
class Tracer : public JsonlSink<TraceEvent> {
 public:
  /// The process-wide tracer all instrumented library code records into.
  static Tracer& global();

  void record(TraceEvent ev);

 private:
  Tracer();

  std::chrono::steady_clock::time_point epoch_;
};

/// Shorthand for Tracer::global().
inline Tracer& tracer() { return Tracer::global(); }

/// Parses a JSON-lines trace file (blank lines skipped, events of unknown
/// kind skipped). Throws IoError on unreadable paths, ParseError naming
/// "path:line" on malformed lines.
std::vector<TraceEvent> read_trace_file(const std::string& path);

}  // namespace acclaim::telemetry
