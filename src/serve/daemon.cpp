#include "serve/daemon.hpp"

#include <sys/socket.h>
#include <sys/stat.h>
#include <sys/un.h>
#include <unistd.h>

#include <cerrno>
#include <cstring>
#include <istream>
#include <ostream>
#include <string>

#include "serve/protocol.hpp"
#include "telemetry/metrics.hpp"
#include "util/error.hpp"
#include "util/json.hpp"
#include "util/log.hpp"

namespace acclaim::serve {

namespace {

util::Json decision_fields(const Decision& d) {
  util::Json fields = util::Json::object();
  fields["algorithm"] = coll::algorithm_info(d.algorithm).name;
  fields["cached"] = d.cache_hit;
  fields["version"] = d.version;
  return fields;
}

/// The one response an overflowed connection or stream gets before it is
/// closed.
std::string oversized_line_response() {
  return error_response("request line exceeds " + std::to_string(kMaxLineBytes) +
                        " bytes; closing the connection");
}

}  // namespace

std::string Daemon::handle_line(const std::string& line) {
  static telemetry::Counter& requests = telemetry::metrics().counter("serve.requests");
  static telemetry::Counter& parse_errors = telemetry::metrics().counter("serve.parse_errors");
  requests.add();
  try {
    const Request req = parse_request(line);
    switch (req.op) {
      case Op::Ping:
        return ok_response("ping", util::Json::object());
      case Op::Shutdown: {
        shutdown_ = true;
        return ok_response("shutdown", util::Json::object());
      }
      case Op::Stats: {
        const DecisionCache::Stats st = core_.cache_stats();
        util::Json fields = util::Json::object();
        fields["models"] = core_.store().size();
        fields["cache_hits"] = st.hits;
        fields["cache_misses"] = st.misses;
        fields["cache_evictions"] = st.evictions;
        fields["cache_entries"] = st.entries;
        fields["cache_capacity"] = st.capacity;
        telemetry::publish_thread_pool_metrics();
        fields["metrics"] = telemetry::metrics().to_json();
        return ok_response("stats", std::move(fields));
      }
      case Op::Query: {
        const Decision d = core_.select(req.queries.front(), req.topology);
        return ok_response("query", decision_fields(d));
      }
      case Op::Batch: {
        const std::vector<Decision> ds = core_.select_batch(req.queries, req.topology);
        util::Json results = util::Json::array();
        for (const Decision& d : ds) {
          results.push_back(decision_fields(d));
        }
        util::Json fields = util::Json::object();
        fields["results"] = std::move(results);
        return ok_response("batch", std::move(fields));
      }
      case Op::Publish: {
        const core::CollectiveModel model =
            core::CollectiveModel::from_json(util::Json::parse_file(req.path));
        const ModelKey key{model.collective(), checked_comm_size(req.nodes, req.ppn),
                           req.topology};
        const std::uint64_t version = core_.publish(key, model);
        util::Json fields = util::Json::object();
        fields["key"] = key.to_string();
        fields["version"] = version;
        return ok_response("publish", std::move(fields));
      }
    }
    return error_response("unhandled op");
  } catch (const Error& e) {
    parse_errors.add();
    return error_response(e.what());
  } catch (const std::exception& e) {
    parse_errors.add();
    return error_response(std::string("internal error: ") + e.what());
  }
}

std::uint64_t Daemon::serve_stream(std::istream& in, std::ostream& out) {
  std::uint64_t handled = 0;
  LineFramer framer;
  std::string line;
  std::streambuf* const src = in.rdbuf();
  char chunk[4096];
  bool eof = false;
  while (!shutdown_ && !eof) {
    // Read up to and including the next newline, never past it: an
    // interactive client gets each response before it sends the next line.
    std::size_t n = 0;
    while (n < sizeof(chunk)) {
      const int c = src->sbumpc();
      if (c == std::char_traits<char>::eof()) {
        // EOF ends a final unterminated line, as std::getline would.
        chunk[n++] = '\n';
        eof = true;
        break;
      }
      chunk[n++] = static_cast<char>(c);
      if (c == '\n') {
        break;
      }
    }
    framer.append(chunk, n);
    while (!shutdown_ && framer.next(line)) {
      if (line.empty()) {
        continue;
      }
      out << handle_line(line) << "\n" << std::flush;
      ++handled;
    }
    if (framer.overflowed()) {
      out << oversized_line_response() << "\n" << std::flush;
      break;
    }
  }
  return handled;
}

namespace {

/// RAII fd so early returns / exceptions cannot leak sockets.
class Fd {
 public:
  explicit Fd(int fd) : fd_(fd) {}
  ~Fd() {
    if (fd_ >= 0) {
      ::close(fd_);
    }
  }
  Fd(const Fd&) = delete;
  Fd& operator=(const Fd&) = delete;
  int get() const noexcept { return fd_; }

 private:
  int fd_;
};

sockaddr_un socket_address(const std::string& path) {
  sockaddr_un addr{};
  addr.sun_family = AF_UNIX;
  require(path.size() < sizeof(addr.sun_path),
          "unix socket path too long (limit is ~107 chars)");
  std::memcpy(addr.sun_path, path.c_str(), path.size() + 1);
  return addr;
}

/// Clears the way for bind() at `path`. A missing file is fine; a socket
/// file that nothing accepts on (a dead daemon's leftover) is unlinked.
/// Anything else is an error rather than collateral damage: a regular file
/// there is almost certainly a typo'd path, and a socket a peer accepts on
/// is a live daemon.
void claim_socket_path(const std::string& path, const sockaddr_un& addr) {
  struct stat st{};
  if (::lstat(path.c_str(), &st) != 0) {
    if (errno == ENOENT) {
      return;
    }
    throw IoError("cannot stat socket path " + path + ": " + std::strerror(errno));
  }
  if (!S_ISSOCK(st.st_mode)) {
    throw IoError("refusing to replace " + path + ": exists and is not a socket");
  }
  Fd probe(::socket(AF_UNIX, SOCK_STREAM, 0));
  if (probe.get() >= 0 &&
      ::connect(probe.get(), reinterpret_cast<const sockaddr*>(&addr), sizeof(addr)) == 0) {
    throw IoError("another daemon is already listening on " + path);
  }
  ::unlink(path.c_str());
}

/// Sends all of `data` (blocking), retrying interrupted sends. Throws
/// IoError when the peer is gone.
void send_all(int fd, const std::string& data) {
  std::size_t off = 0;
  while (off < data.size()) {
    const ssize_t n = ::send(fd, data.data() + off, data.size() - off, MSG_NOSIGNAL);
    if (n < 0) {
      if (errno == EINTR) {
        continue;
      }
      throw IoError(std::string("socket send failed: ") + std::strerror(errno));
    }
    off += static_cast<std::size_t>(n);
  }
}

}  // namespace

std::uint64_t Daemon::serve_unix_socket(const std::string& path) {
  Fd listener(::socket(AF_UNIX, SOCK_STREAM, 0));
  if (listener.get() < 0) {
    throw IoError(std::string("cannot create unix socket: ") + std::strerror(errno));
  }
  const sockaddr_un addr = socket_address(path);
  claim_socket_path(path, addr);
  if (::bind(listener.get(), reinterpret_cast<const sockaddr*>(&addr), sizeof(addr)) != 0) {
    throw IoError("cannot bind unix socket " + path + ": " + std::strerror(errno));
  }
  // The file mode is the trust boundary: only the owner may connect. Peers
  // are refused until listen(), so no connect slips in before the chmod.
  if (::chmod(path.c_str(), 0600) != 0) {
    const int err = errno;
    ::unlink(path.c_str());
    throw IoError("cannot restrict unix socket " + path + ": " + std::strerror(err));
  }
  if (::listen(listener.get(), 16) != 0) {
    throw IoError("cannot listen on unix socket " + path + ": " + std::strerror(errno));
  }
  AC_LOG_INFO() << "acclaimd listening on " << path;

  std::uint64_t handled = 0;
  while (!shutdown_) {
    Fd conn(::accept(listener.get(), nullptr, nullptr));
    if (conn.get() < 0) {
      if (errno == EINTR) {
        continue;
      }
      ::unlink(path.c_str());
      throw IoError(std::string("accept failed: ") + std::strerror(errno));
    }
    // Serve this connection until the peer closes (or shutdown). Lines may
    // arrive split across reads; the framer buffers until '\n', and an
    // oversized line ends the connection after one error response. A reply
    // the peer is no longer there to take ends this connection only.
    LineFramer framer;
    std::string line;
    char chunk[4096];
    try {
      while (!shutdown_) {
        const ssize_t n = ::recv(conn.get(), chunk, sizeof(chunk), 0);
        if (n < 0 && errno == EINTR) {
          continue;
        }
        if (n <= 0) {
          break;
        }
        framer.append(chunk, static_cast<std::size_t>(n));
        while (framer.next(line)) {
          if (line.empty()) {
            continue;
          }
          send_all(conn.get(), handle_line(line) + "\n");
          ++handled;
        }
        if (framer.overflowed()) {
          send_all(conn.get(), oversized_line_response() + "\n");
          break;
        }
      }
    } catch (const IoError& e) {
      AC_LOG_WARN() << "acclaimd: client left before reading its replies: " << e.what();
    }
  }
  ::unlink(path.c_str());
  return handled;
}

std::string unix_socket_request(const std::string& path, const std::string& line) {
  Fd fd(::socket(AF_UNIX, SOCK_STREAM, 0));
  if (fd.get() < 0) {
    throw IoError(std::string("cannot create unix socket: ") + std::strerror(errno));
  }
  const sockaddr_un addr = socket_address(path);
  if (::connect(fd.get(), reinterpret_cast<const sockaddr*>(&addr), sizeof(addr)) != 0) {
    throw IoError("cannot connect to " + path + ": " + std::strerror(errno));
  }
  send_all(fd.get(), line + "\n");
  std::string response;
  char chunk[4096];
  while (response.find('\n') == std::string::npos) {
    const ssize_t n = ::recv(fd.get(), chunk, sizeof(chunk), 0);
    if (n <= 0) {
      throw IoError("daemon closed the connection before responding");
    }
    response.append(chunk, static_cast<std::size_t>(n));
  }
  return response.substr(0, response.find('\n'));
}

}  // namespace acclaim::serve
