// The serving phase every workload ends with: the models a workload trained
// are published into a ServeCore behind a real acclaimd (Daemon over a unix
// socket on its own thread), and one closed-loop client on one persistent
// connection replays a seeded NDJSON stream of query, batch and publish
// lines. Also the traced replay of the same stream through the serving
// layers' public functions, and the answer checks.
#pragma once

#include <atomic>
#include <cstdint>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "core/model.hpp"
#include "core/pipeline.hpp"
#include "harness.hpp"
#include "serve/daemon.hpp"
#include "serve/serve_core.hpp"

namespace perfbench {

/// How long a traced run serves closed loop.
inline double traced_serve_seconds(const Options& opts) { return opts.tiny ? 0.2 : 3.0; }

/// Groups of 64 scenarios in one pass of a request stream (see ServeSession).
inline std::size_t serve_groups(const Options& opts) { return opts.tiny ? 32 : 448; }

struct ServedModel {
  acclaim::serve::ModelKey key;  ///< comm_size 0 = the wildcard scale
  int nodes = 0;                 ///< publish-line scale (0 with the wildcard)
  int ppn = 0;
  acclaim::core::CollectiveModel model;
};

/// A (collective, nodes, ppn) the stream may ask, answered by models[model].
struct Shape {
  acclaim::coll::Collective collective;
  int nnodes = 1;
  int ppn = 1;
  std::size_t model = 0;
};

struct ServeInputs {
  std::vector<ServedModel> models;
  std::vector<Shape> shapes;
  std::string topology = "default";
};

/// A tuned job's models at the wildcard scale, asked at every P2 shape of
/// 2..max_nodes nodes x 1..max_ppn ppn.
ServeInputs served_at_wildcard(const acclaim::core::PipelineResult& result, int max_nodes,
                               int max_ppn);

struct RequestLine {
  enum class Kind { Query, Batch, Publish };
  Kind kind = Kind::Query;
  std::string text;
  std::vector<std::size_t> scenarios;  ///< indices into RequestStream::distinct
};

struct RequestStream {
  std::vector<RequestLine> lines;
  std::vector<acclaim::bench::Scenario> distinct;
  /// Direct CollectiveModel::select answer per distinct scenario.
  std::vector<acclaim::coll::Algorithm> expected;
  std::vector<std::string> model_files;  ///< parallel to ServeInputs::models
  std::string topology;
};

/// acclaimd on a unix socket, served from its own thread, plus one
/// connected client. Construction returns once the client is connected; it
/// waits for the daemon's socket file with inotify rather than polling. The
/// inotify instance lives as long as the daemon: closing one waits for a
/// kernel grace period (milliseconds), which set-up should not time.
class LiveDaemon {
 public:
  LiveDaemon(acclaim::serve::ServeCore& core, std::string socket_path);
  ~LiveDaemon();
  LiveDaemon(const LiveDaemon&) = delete;
  LiveDaemon& operator=(const LiveDaemon&) = delete;

  /// Sends one line and waits for its reply line.
  std::string request(const std::string& line);

  std::thread& thread() noexcept { return thread_; }

 private:
  acclaim::serve::Daemon daemon_;
  std::string path_;
  std::atomic<bool> exited_{false};
  std::string error_;  ///< read only after the thread is joined
  int fd_ = -1;
  int watch_fd_ = -1;  ///< inotify instance watching the socket's directory
  std::string buffer_;
  std::thread thread_;  ///< last: runs on the members above
};

struct LoopStats {
  /// Per-request latencies, kept only when asked (see closed_loop).
  std::vector<double> query_us;
  std::vector<double> batch_us;
  std::vector<double> publish_ms;
  std::vector<double> pass_s;
  std::uint64_t scenarios = 0;
  std::uint64_t not_ok = 0;  ///< scenarios in replies without "ok":true
  double elapsed_s = 0.0;
  std::vector<std::string> first_pass;  ///< every reply of the first pass
};

/// Replays whole passes of the stream, closed loop, until `seconds` have
/// elapsed (at least one pass). The calling thread and the daemon thread
/// share one CPU per pass, a different one each pass (CpuRotation); with a
/// `speed`, the host's speed is sampled on that CPU before each pass.
/// Per-request latencies are kept only with `keep_latencies`: they grow
/// with the number of passes, so keeping them would make peak RSS follow
/// the host's speed.
LoopStats closed_loop(LiveDaemon& daemon, const RequestStream& stream, double seconds,
                      bool keep_latencies, HostSpeed* speed = nullptr);

/// A workload's serving: the request stream (benchmark input, built once)
/// and the program side, a populated ServeCore with a live daemon on it.
struct ServeSession {
  /// Draws the stream for `groups` groups and writes the model files under
  /// the `name` prefix; the daemon listens on `name`.sock.
  ServeSession(const ServeInputs& inputs, std::uint64_t seed, std::size_t groups,
               const std::string& name);

  /// The program's serving set-up: stops the current daemon, starts acclaimd
  /// on a fresh, empty ServeCore, and publishes every model file through
  /// the daemon's `publish` request, as `acclaim query --op publish` does.
  /// Returns the seconds it took.
  double start(const ServeInputs& inputs);

  RequestStream stream;
  std::string socket_path;
  std::unique_ptr<acclaim::serve::ServeCore> core;
  std::unique_ptr<LiveDaemon> daemon;
};

/// Serves the session closed loop for `seconds` (none when 0), then checks
/// the first pass and every distinct scenario against direct
/// CollectiveModel::select. With tracing it also reports the serving
/// metrics: the loop's throughput and exact latency percentiles, and the
/// per-layer replay. Returns the loop's statistics.
LoopStats run_serving(Report& report, ServeSession& session, const ServeInputs& inputs,
                      const Options& opts, double seconds, HostSpeed* speed = nullptr);

}  // namespace perfbench
