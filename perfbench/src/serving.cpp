#include "serving.hpp"

#include <poll.h>
#include <sys/inotify.h>
#include <sys/socket.h>
#include <sys/un.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <cstring>
#include <map>

#include "serve/protocol.hpp"
#include "traces/traces.hpp"
#include "util/error.hpp"
#include "util/rng.hpp"

namespace perfbench {

using namespace acclaim;

namespace {

/// Decision-cache size of every served core: below the number of distinct
/// scenarios each stream asks, so the miss and eviction paths run.
constexpr std::size_t kCacheCapacity = 2048;
/// loadgen_serve's request shape: groups of 64 scenarios, every 8th group
/// sent as single queries and the others as one batch.
constexpr std::size_t kBatch = 64;
constexpr std::size_t kSingleGroupEvery = 8;

double micros_since(Clock::time_point t0) {
  return std::chrono::duration<double, std::micro>(Clock::now() - t0).count();
}

std::string publish_line(const ServedModel& m, const std::string& file,
                         const std::string& topology) {
  serve::Request req;
  req.op = serve::Op::Publish;
  req.path = file;
  req.nodes = m.nodes;
  req.ppn = m.ppn;
  req.topology = topology;
  return serve::request_to_json(req).dump();
}

std::string scenarios_line(serve::Op op, std::vector<bench::Scenario> queries,
                           const std::string& topology) {
  serve::Request req;
  req.op = op;
  req.queries = std::move(queries);
  req.topology = topology;
  return serve::request_to_json(req).dump();
}

bool reply_ok(const std::string& reply) { return reply.rfind("{\"ok\":true", 0) == 0; }

sockaddr_un socket_address(const std::string& path) {
  sockaddr_un addr{};
  addr.sun_family = AF_UNIX;
  require(path.size() < sizeof(addr.sun_path), "socket path too long");
  std::memcpy(addr.sun_path, path.c_str(), path.size() + 1);
  return addr;
}

/// One pass of the request stream, drawn from `seed`, shaped like
/// loadgen_serve's load: `groups` groups of 64 scenarios, half on the P2
/// grid and half with trace-drawn message sizes; every 8th group goes out
/// as 64 single `query` lines, the others as one 64-scenario `batch` line.
/// Each served model is re-published from its unchanged file once per pass,
/// the publishes evenly spaced, so every pass replaces each model's
/// snapshot (and invalidates its cached decisions) exactly once. Writes
/// each model's JSON file (`prefix` + index) and the direct answer to every
/// distinct scenario.
RequestStream make_stream(const ServeInputs& inputs, std::uint64_t seed, std::size_t groups,
                          const std::string& prefix) {
  require(!inputs.shapes.empty() && !inputs.models.empty() && groups > 0, "nothing to serve");
  RequestStream out;
  out.topology = inputs.topology;
  for (std::size_t i = 0; i < inputs.models.size(); ++i) {
    out.model_files.push_back(prefix + "model" + std::to_string(i) + ".json");
    inputs.models[i].model.to_json().dump_file(out.model_files.back(), 0);
  }

  util::Rng rng = util::Rng::stream(seed, 0x5E7EULL);
  std::vector<std::uint64_t> trace_msgs;
  for (const traces::AppTraceSpec& app : traces::llnl_like_apps()) {
    for (const traces::CollectiveCall& call : traces::generate_trace(app, 64, 512, rng)) {
      trace_msgs.push_back(call.msg_bytes);
    }
  }
  std::map<bench::Scenario, std::size_t> index;
  const auto draw = [&]() {
    const Shape& shape = inputs.shapes[rng.index(inputs.shapes.size())];
    const std::uint64_t msg = rng.chance(0.5)
                                  ? std::uint64_t{1} << rng.uniform_int(3, 20)
                                  : trace_msgs[rng.index(trace_msgs.size())];
    const bench::Scenario s{shape.collective, shape.nnodes, shape.ppn, msg};
    const auto [it, fresh] = index.emplace(s, out.distinct.size());
    if (fresh) {
      out.distinct.push_back(s);
      out.expected.push_back(inputs.models[shape.model].model.select(s));
    }
    return it->second;
  };

  const auto scenarios_request = [&](serve::Op op, std::size_t n) {
    RequestLine line;
    line.kind = op == serve::Op::Batch ? RequestLine::Kind::Batch : RequestLine::Kind::Query;
    std::vector<bench::Scenario> queries;
    for (std::size_t k = 0; k < n; ++k) {
      line.scenarios.push_back(draw());
      queries.push_back(out.distinct[line.scenarios.back()]);
    }
    line.text = scenarios_line(op, std::move(queries), inputs.topology);
    out.lines.push_back(std::move(line));
  };
  std::size_t published = 0;
  for (std::size_t g = 0; g < groups; ++g) {
    if (g % kSingleGroupEvery == 0) {
      for (std::size_t k = 0; k < kBatch; ++k) {
        scenarios_request(serve::Op::Query, 1);
      }
    } else {
      scenarios_request(serve::Op::Batch, kBatch);
    }
    // Model m is re-published after group ceil((m + 1) * groups / models) - 1.
    for (; published < inputs.models.size() &&
           (published + 1) * groups <= (g + 1) * inputs.models.size();
         ++published) {
      RequestLine line;
      line.kind = RequestLine::Kind::Publish;
      line.text = publish_line(inputs.models[published], out.model_files[published],
                               inputs.topology);
      out.lines.push_back(std::move(line));
    }
  }
  return out;
}

/// A ServeCore holding the inputs' models, for the per-layer replays.
std::unique_ptr<serve::ServeCore> populated_core(const ServeInputs& inputs) {
  serve::ServeConfig cfg;
  cfg.cache_capacity = kCacheCapacity;
  auto core = std::make_unique<serve::ServeCore>(cfg);
  for (const ServedModel& m : inputs.models) {
    core->publish(m.key, m.model);
  }
  return core;
}

}  // namespace

LiveDaemon::LiveDaemon(serve::ServeCore& core, std::string socket_path)
    : daemon_(core), path_(std::move(socket_path)) {
  const sockaddr_un addr = socket_address(path_);
  // The daemon's bind() creates the socket file: watch its directory so the
  // wait below wakes on that event instead of polling.
  const std::size_t slash = path_.rfind('/');
  const std::string dir = slash == std::string::npos ? "." : path_.substr(0, slash + 1);
  watch_fd_ = ::inotify_init1(IN_NONBLOCK | IN_CLOEXEC);
  if (watch_fd_ < 0 || ::inotify_add_watch(watch_fd_, dir.c_str(), IN_CREATE) < 0) {
    const int err = errno;
    ::close(watch_fd_);
    throw IoError(std::string("cannot watch for acclaimd's socket: ") + std::strerror(err));
  }
  thread_ = std::thread([this] {
    try {
      daemon_.serve_unix_socket(path_);
    } catch (const std::exception& e) {
      error_ = e.what();
    }
    exited_ = true;
  });
  while (true) {
    fd_ = ::socket(AF_UNIX, SOCK_STREAM, 0);
    if (fd_ >= 0 &&
        ::connect(fd_, reinterpret_cast<const sockaddr*>(&addr), sizeof(addr)) == 0) {
      return;
    }
    const int err = errno;
    if (fd_ >= 0) {
      ::close(fd_);
      fd_ = -1;
    }
    if (exited_) {
      thread_.join();
      ::close(watch_fd_);
      throw IoError("acclaimd did not come up on " + path_ + ": " + error_);
    }
    if (err == ECONNREFUSED) {
      // The file exists but listen() has not run yet: microseconds away.
      std::this_thread::yield();
      continue;
    }
    // No socket file yet: sleep until a file is created in the directory.
    // The timeout only bounds how late a failed daemon start is noticed.
    pollfd pfd{watch_fd_, POLLIN, 0};
    if (::poll(&pfd, 1, 100) > 0) {
      char events[4096];
      while (::read(watch_fd_, events, sizeof(events)) > 0) {
      }
    }
  }
}

LiveDaemon::~LiveDaemon() {
  try {
    request("{\"op\":\"shutdown\"}");
  } catch (const std::exception&) {
    // The connection broke; the daemon waits in accept() for a new one.
    try {
      serve::unix_socket_request(path_, "{\"op\":\"shutdown\"}");
    } catch (const std::exception&) {
      // Already gone; join() below returns at once.
    }
  }
  ::close(fd_);
  thread_.join();
  ::close(watch_fd_);
}

std::string LiveDaemon::request(const std::string& line) {
  const std::string out = line + "\n";
  std::size_t off = 0;
  while (off < out.size()) {
    const ssize_t n = ::send(fd_, out.data() + off, out.size() - off, MSG_NOSIGNAL);
    if (n < 0) {
      throw IoError(std::string("send to acclaimd failed: ") + std::strerror(errno));
    }
    off += static_cast<std::size_t>(n);
  }
  std::size_t nl;
  while ((nl = buffer_.find('\n')) == std::string::npos) {
    char chunk[65536];
    const ssize_t n = ::recv(fd_, chunk, sizeof(chunk), 0);
    if (n <= 0) {
      throw IoError("acclaimd closed the connection");
    }
    buffer_.append(chunk, static_cast<std::size_t>(n));
  }
  std::string reply = buffer_.substr(0, nl);
  buffer_.erase(0, nl + 1);
  return reply;
}

LoopStats closed_loop(LiveDaemon& daemon, const RequestStream& stream, double seconds,
                      bool keep_latencies, HostSpeed* speed) {
  // On one CPU a round trip is two context switches and no cross-CPU
  // wake-up, so thread placement cannot change the figures.
  CpuRotation cpu(&daemon.thread());
  LoopStats out;
  const auto start = Clock::now();
  for (std::size_t pass = 0; pass == 0 || seconds_since(start) < seconds; ++pass) {
    cpu.pin(pass);
    if (speed != nullptr) {
      speed->sample(1);
    }
    const auto pass_start = Clock::now();
    for (const RequestLine& line : stream.lines) {
      const auto t0 = Clock::now();
      std::string reply = daemon.request(line.text);
      const double us = micros_since(t0);
      if (keep_latencies) {
        switch (line.kind) {
          case RequestLine::Kind::Query: out.query_us.push_back(us); break;
          case RequestLine::Kind::Batch: out.batch_us.push_back(us); break;
          case RequestLine::Kind::Publish: out.publish_ms.push_back(us * 1e-3); break;
        }
      }
      out.scenarios += line.scenarios.size();
      if (!reply_ok(reply)) {
        out.not_ok += std::max<std::size_t>(line.scenarios.size(), 1);
      }
      if (pass == 0) {
        out.first_pass.push_back(std::move(reply));
      }
    }
    out.pass_s.push_back(seconds_since(pass_start));
  }
  out.elapsed_s = seconds_since(start);
  return out;
}

namespace {

std::uint64_t verify_answers(LiveDaemon& daemon, const RequestStream& stream,
                             const LoopStats& loop, bool corrupt, Report& report) {
  // Replies to check against the direct answers: the loop's first pass,
  // then every distinct scenario once more through the batch path.
  struct Asked {
    std::string reply;
    std::vector<std::size_t> scenarios;
    bool single = false;
    bool counted = false;  ///< a failed reply the loop already counted
  };
  std::vector<Asked> asked;
  for (std::size_t i = 0; i < loop.first_pass.size(); ++i) {
    const RequestLine& line = stream.lines[i];
    if (line.kind != RequestLine::Kind::Publish) {
      asked.push_back({loop.first_pass[i], line.scenarios, line.kind == RequestLine::Kind::Query,
                       true});
    }
  }
  for (std::size_t lo = 0; lo < stream.distinct.size(); lo += kBatch) {
    Asked a;
    std::vector<bench::Scenario> queries;
    for (std::size_t k = lo; k < std::min(stream.distinct.size(), lo + kBatch); ++k) {
      a.scenarios.push_back(k);
      queries.push_back(stream.distinct[k]);
    }
    a.reply = daemon.request(scenarios_line(serve::Op::Batch, queries, stream.topology));
    asked.push_back(std::move(a));
  }
  if (corrupt && reply_ok(asked.back().reply)) {
    util::Json doc = util::Json::parse(asked.back().reply);
    doc["results"].as_array().front()["algorithm"] = "corrupted-answer";
    asked.back().reply = doc.dump();
  }

  std::uint64_t wrong = 0;
  std::uint64_t not_ok = 0;
  for (const Asked& a : asked) {
    if (!reply_ok(a.reply)) {
      not_ok += a.counted ? 0 : a.scenarios.size();
      continue;
    }
    const util::Json doc = util::Json::parse(a.reply);
    for (std::size_t k = 0; k < a.scenarios.size(); ++k) {
      const util::Json& decision = a.single ? doc : doc.at("results").as_array().at(k);
      const std::size_t s = a.scenarios[k];
      const char* want = coll::algorithm_info(stream.expected[s]).name;
      wrong += decision.at("algorithm").as_string() != want;
    }
  }
  report.check(loop.not_ok + not_ok == 0,
               "acclaimd answered a valid request with \"ok\":false (" +
                   std::to_string(loop.not_ok + not_ok) + " operations)");
  report.check(wrong == 0, "acclaimd answers differ from CollectiveModel::select (" +
                               std::to_string(wrong) + " answers)");
  return wrong + not_ok;
}

/// The closed loop's client-side figures: throughput and exact latency
/// percentiles over every raw sample.
void report_loop(Report& report, const LoopStats& loop) {
  report.metric("serve_qps", static_cast<double>(loop.scenarios) / loop.elapsed_s, "1/s");
  report.percentile_metric("serve_query_p50_us", percentile(loop.query_us, 50),
                           loop.query_us.size());
  report.percentile_metric("serve_query_p99_us", percentile(loop.query_us, 99),
                           loop.query_us.size());
  report.percentile_metric("serve_batch_p50_us", percentile(loop.batch_us, 50),
                           loop.batch_us.size());
  report.percentile_metric("serve_batch_p99_us", percentile(loop.batch_us, 99),
                           loop.batch_us.size());
  report.metric("serve_publish_ms", median(loop.publish_ms), "ms");
}

/// The same stream through Daemon::handle_line, parse_request, ServeCore
/// and CollectiveModel on identically populated instances. `socket_query_us`
/// is the median socket round trip of a query line.
void report_layers(Report& report, const ServeInputs& inputs, const RequestStream& stream,
                   double socket_query_us) {
  // Daemon::handle_line and parse_request on an identically populated core.
  std::unique_ptr<serve::ServeCore> core = populated_core(inputs);
  serve::Daemon replay(*core);
  std::map<RequestLine::Kind, std::vector<double>> handle_us;
  double parse_us = 0.0;
  for (int pass = 0; pass < 2; ++pass) {
    for (const RequestLine& line : stream.lines) {
      auto t0 = Clock::now();
      replay.handle_line(line.text);
      handle_us[line.kind].push_back(micros_since(t0));
      t0 = Clock::now();
      serve::parse_request(line.text);
      parse_us += micros_since(t0);
    }
  }
  const serve::DecisionCache::Stats cache = core->cache_stats();

  // ServeCore::select and CollectiveModel::select on the query lines.
  std::unique_ptr<serve::ServeCore> select_core = populated_core(inputs);
  std::vector<double> serve_select_us;
  std::vector<double> model_select_us;
  for (const RequestLine& line : stream.lines) {
    if (line.kind != RequestLine::Kind::Query) {
      continue;
    }
    const bench::Scenario& s = stream.distinct[line.scenarios.front()];
    auto t0 = Clock::now();
    select_core->select(s, inputs.topology);
    serve_select_us.push_back(micros_since(t0));
    const auto snap = select_core->store().resolve({s.collective, s.nranks(), inputs.topology});
    t0 = Clock::now();
    snap->model.select(s);
    model_select_us.push_back(micros_since(t0));
  }

  // The publish path: model load from JSON and the store swap.
  std::vector<double> from_json_ms;
  std::vector<double> publish_us;
  serve::ModelStore store;
  for (std::size_t i = 0; i < std::max<std::size_t>(8, stream.model_files.size()); ++i) {
    const std::size_t m = i % stream.model_files.size();
    auto t0 = Clock::now();
    core::CollectiveModel model =
        core::CollectiveModel::from_json(util::Json::parse_file(stream.model_files[m]));
    from_json_ms.push_back(micros_since(t0) * 1e-3);
    t0 = Clock::now();
    store.publish(inputs.models[m].key, std::move(model));
    publish_us.push_back(micros_since(t0));
  }

  const double handle_query = median(handle_us[RequestLine::Kind::Query]);
  report.metric("serve.transport_us", socket_query_us - handle_query, "us");
  report.metric("daemon.handle_line_query_us", handle_query, "us");
  report.metric("daemon.handle_line_batch_us", median(handle_us[RequestLine::Kind::Batch]), "us");
  report.metric("daemon.handle_line_publish_us", median(handle_us[RequestLine::Kind::Publish]),
                "us");
  report.metric("protocol.parse_us", parse_us / static_cast<double>(2 * stream.lines.size()),
                "us");
  report.metric("serve.select_us", median(serve_select_us), "us");
  report.metric("model.select_us", median(model_select_us), "us");
  report.metric("cache.hit_ratio",
                static_cast<double>(cache.hits) / static_cast<double>(cache.hits + cache.misses),
                "ratio");
  report.metric("cache.evictions", static_cast<double>(cache.evictions), "count");
  report.metric("model.from_json_ms", median(from_json_ms), "ms");
  report.metric("store.publish_us", median(publish_us), "us");
  report.metric("store.size", static_cast<double>(core->store().size()), "count");
  report.note("serve.distinct_scenarios", static_cast<double>(stream.distinct.size()), "count");
}

}  // namespace

ServeInputs served_at_wildcard(const core::PipelineResult& result, int max_nodes,
                               int max_ppn) {
  ServeInputs inputs;
  for (std::size_t i = 0; i < result.trained.size(); ++i) {
    const coll::Collective c = result.training[i].collective;
    inputs.models.push_back({serve::ModelKey{c, 0, "default"}, 0, 0, result.trained[i].model});
    for (int n = 2; n <= max_nodes; n *= 2) {
      for (int p = 1; p <= max_ppn; p *= 2) {
        inputs.shapes.push_back({c, n, p, i});
      }
    }
  }
  return inputs;
}

ServeSession::ServeSession(const ServeInputs& inputs, std::uint64_t seed, std::size_t groups,
                           const std::string& name)
    : stream(make_stream(inputs, seed, groups, name + ".")), socket_path(name + ".sock") {}

double ServeSession::start(const ServeInputs& inputs) {
  daemon.reset();
  core.reset();
  const auto t0 = Clock::now();
  serve::ServeConfig cfg;
  cfg.cache_capacity = kCacheCapacity;
  core = std::make_unique<serve::ServeCore>(cfg);
  daemon = std::make_unique<LiveDaemon>(*core, socket_path);
  for (std::size_t i = 0; i < inputs.models.size(); ++i) {
    const std::string reply =
        daemon->request(publish_line(inputs.models[i], stream.model_files[i], inputs.topology));
    require(reply_ok(reply), "acclaimd refused to publish " + stream.model_files[i] + ": " + reply);
  }
  return seconds_since(t0);
}

LoopStats run_serving(Report& report, ServeSession& session, const ServeInputs& inputs,
                      const Options& opts, double seconds, HostSpeed* speed) {
  LoopStats loop;
  if (seconds > 0.0) {
    loop = closed_loop(*session.daemon, session.stream, seconds, opts.trace, speed);
  }
  if (opts.trace) {
    report_loop(report, loop);
    report_layers(report, inputs, session.stream, median(loop.query_us));
  }
  const std::uint64_t failed =
      verify_answers(*session.daemon, session.stream, loop, opts.corrupt == "answer", report);
  report.attempt(loop.scenarios + session.stream.distinct.size(), loop.not_ok + failed);
  return loop;
}

}  // namespace perfbench
