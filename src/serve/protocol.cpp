#include "serve/protocol.hpp"

#include <cmath>

#include "util/error.hpp"

namespace acclaim::serve {

namespace {

/// Integer field with range validation; `lo`/`hi` inclusive.
std::int64_t int_field(const util::Json& obj, const std::string& key, std::int64_t lo,
                       std::int64_t hi) {
  require(obj.contains(key), ("request is missing '" + key + "'").c_str());
  const util::Json& v = obj.at(key);
  require(v.is_number(), ("request field '" + key + "' must be a number").c_str());
  // Range-check in the double domain before casting: converting a double
  // outside int64's range (e.g. 1e300, or NaN) to int64 is itself UB, so the
  // cast may only happen once the value is known to fit. lo/hi used here are
  // small ints or powers of two, hence exact as doubles.
  const double d = v.as_number();
  if (!(d >= static_cast<double>(lo) && d <= static_cast<double>(hi)) || d != std::trunc(d)) {
    throw InvalidArgument("request field '" + key + "' out of range [" + std::to_string(lo) +
                          ", " + std::to_string(hi) + "]: " + v.dump());
  }
  const auto n = static_cast<std::int64_t>(d);
  if (n < lo || n > hi) {
    throw InvalidArgument("request field '" + key + "' out of range [" + std::to_string(lo) +
                          ", " + std::to_string(hi) + "]: " + v.dump());
  }
  return n;
}

bench::Scenario scenario_from(const util::Json& obj) {
  bench::Scenario s;
  require(obj.contains("collective"), "query is missing 'collective'");
  require(obj.at("collective").is_string(), "query field 'collective' must be a string");
  s.collective = coll::parse_collective(obj.at("collective").as_string());
  s.nnodes = static_cast<int>(int_field(obj, "nodes", 1, kMaxNodes));
  s.ppn = static_cast<int>(int_field(obj, "ppn", 1, kMaxPpn));
  checked_comm_size(s.nnodes, s.ppn);  // joint cap: nranks() must stay int-safe
  // msg is bytes; ~2^62 caps it far below uint64 wrap while allowing any
  // plausible message size.
  s.msg_bytes = static_cast<std::uint64_t>(
      int_field(obj, "msg", 1, std::int64_t{1} << 62));
  return s;
}

std::string topology_from(const util::Json& obj) {
  if (!obj.contains("topology")) {
    return "default";
  }
  require(obj.at("topology").is_string(), "request field 'topology' must be a string");
  const std::string& t = obj.at("topology").as_string();
  require(!t.empty() && t.size() <= 256, "request field 'topology' must be 1..256 chars");
  return t;
}

}  // namespace

void LineFramer::append(const char* data, std::size_t n) {
  if (start_ > 0) {
    buffer_.erase(0, start_);
    scanned_ -= start_;
    start_ = 0;
  }
  buffer_.append(data, n);
}

bool LineFramer::next(std::string& line) {
  if (overflowed_) {
    return false;
  }
  const std::size_t nl = buffer_.find('\n', scanned_);
  if (nl == std::string::npos) {
    scanned_ = buffer_.size();
    overflowed_ = scanned_ - start_ > kMaxLineBytes;
    return false;
  }
  if (nl - start_ > kMaxLineBytes) {
    overflowed_ = true;
    return false;
  }
  line.assign(buffer_, start_, nl - start_);
  start_ = nl + 1;
  scanned_ = start_;
  return true;
}

int checked_comm_size(std::int64_t nodes, std::int64_t ppn) {
  // Both operands are bounded well below 2^32 everywhere this is called, so
  // the 64-bit product itself cannot wrap; only the int-range check remains.
  const std::int64_t ranks = nodes * ppn;
  if (nodes < 0 || ppn < 0 || ranks > kMaxRanks) {
    throw InvalidArgument("nodes x ppn = " + std::to_string(nodes) + " x " +
                          std::to_string(ppn) + " exceeds the rank cap " +
                          std::to_string(kMaxRanks));
  }
  return static_cast<int>(ranks);
}

const char* op_name(Op op) {
  switch (op) {
    case Op::Ping: return "ping";
    case Op::Query: return "query";
    case Op::Batch: return "batch";
    case Op::Publish: return "publish";
    case Op::Stats: return "stats";
    case Op::Shutdown: return "shutdown";
  }
  return "?";
}

Request parse_request(const std::string& line) {
  const util::Json doc = util::Json::parse(line);
  require(doc.is_object(), "request must be a JSON object");
  require(doc.contains("op"), "request is missing 'op'");
  require(doc.at("op").is_string(), "request field 'op' must be a string");
  const std::string& op = doc.at("op").as_string();

  Request req;
  if (op == "ping") {
    req.op = Op::Ping;
  } else if (op == "stats") {
    req.op = Op::Stats;
  } else if (op == "shutdown") {
    req.op = Op::Shutdown;
  } else if (op == "query") {
    req.op = Op::Query;
    req.queries.push_back(scenario_from(doc));
    req.topology = topology_from(doc);
  } else if (op == "batch") {
    req.op = Op::Batch;
    require(doc.contains("queries"), "batch request is missing 'queries'");
    require(doc.at("queries").is_array(), "batch field 'queries' must be an array");
    const util::JsonArray& arr = doc.at("queries").as_array();
    require(!arr.empty(), "batch field 'queries' must not be empty");
    require(arr.size() <= kMaxBatch, "batch field 'queries' exceeds the batch cap");
    req.queries.reserve(arr.size());
    for (const util::Json& q : arr) {
      require(q.is_object(), "batch queries must be JSON objects");
      req.queries.push_back(scenario_from(q));
    }
    req.topology = topology_from(doc);
  } else if (op == "publish") {
    req.op = Op::Publish;
    require(doc.contains("path"), "publish request is missing 'path'");
    require(doc.at("path").is_string(), "publish field 'path' must be a string");
    req.path = doc.at("path").as_string();
    require(!req.path.empty(), "publish field 'path' must not be empty");
    // nodes/ppn come as a pair or not at all: one without the other would
    // silently make comm_size 0 and register the model under the wildcard
    // scale instead of the intended one.
    require(doc.contains("nodes") == doc.contains("ppn"),
            "publish requires 'nodes' and 'ppn' together (or neither, for the wildcard scale)");
    if (doc.contains("nodes")) {
      req.nodes = static_cast<int>(int_field(doc, "nodes", 1, kMaxNodes));
      req.ppn = static_cast<int>(int_field(doc, "ppn", 1, kMaxPpn));
      checked_comm_size(req.nodes, req.ppn);
    }
    req.topology = topology_from(doc);
  } else {
    throw InvalidArgument("unknown op '" + op + "'");
  }
  return req;
}

util::Json request_to_json(const Request& req) {
  util::Json doc = util::Json::object();
  doc["op"] = op_name(req.op);
  if (req.op == Op::Query) {
    const bench::Scenario& s = req.queries.front();
    doc["collective"] = coll::collective_name(s.collective);
    doc["nodes"] = s.nnodes;
    doc["ppn"] = s.ppn;
    doc["msg"] = s.msg_bytes;
    doc["topology"] = req.topology;
  } else if (req.op == Op::Batch) {
    util::Json arr = util::Json::array();
    for (const bench::Scenario& s : req.queries) {
      util::Json q = util::Json::object();
      q["collective"] = coll::collective_name(s.collective);
      q["nodes"] = s.nnodes;
      q["ppn"] = s.ppn;
      q["msg"] = s.msg_bytes;
      arr.push_back(std::move(q));
    }
    doc["queries"] = std::move(arr);
    doc["topology"] = req.topology;
  } else if (req.op == Op::Publish) {
    doc["path"] = req.path;
    if (req.nodes > 0) {
      doc["nodes"] = req.nodes;
    }
    if (req.ppn > 0) {
      doc["ppn"] = req.ppn;
    }
    doc["topology"] = req.topology;
  }
  return doc;
}

std::string error_response(const std::string& msg) {
  util::Json doc = util::Json::object();
  doc["ok"] = false;
  doc["error"] = msg;
  return doc.dump();
}

std::string ok_response(const std::string& op, util::Json fields) {
  util::Json doc = util::Json::object();
  doc["ok"] = true;
  doc["op"] = op;
  for (auto& [key, value] : fields.as_object()) {
    doc[key] = value;
  }
  return doc.dump();
}

}  // namespace acclaim::serve
