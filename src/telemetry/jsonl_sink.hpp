// The one record sink behind the Tracer and the decision AuditLog.
//
// Recording is off by default — a single relaxed atomic load gates every
// emission site — and can be turned on two ways, independently:
//  * enable_ring(n): keep the last n records in memory;
//  * open_stream(path): append every record as one compact JSON object per
//    line (JSON-lines), truncating `path` first.
// The owner stamps each record under the sink's lock (the Tracer with its
// wall-clock offset, the AuditLog with its sequence number), so stamps and
// line order always agree. read_jsonl_file is the matching line reader.
#pragma once

#include <algorithm>
#include <atomic>
#include <cstdint>
#include <fstream>
#include <functional>
#include <mutex>
#include <string>
#include <utility>
#include <vector>

#include "util/error.hpp"
#include "util/json.hpp"

namespace acclaim::telemetry {

/// Ring + JSON-lines destination for `Record`s (any type with a
/// `util::Json to_json() const`).
template <class Record>
class JsonlSink {
 public:
  /// True when at least one destination (ring or stream) is active.
  /// Emission sites must check this before building a record so the
  /// disabled path stays a single relaxed load.
  bool enabled() const noexcept { return enabled_.load(std::memory_order_relaxed); }

  /// Keeps the most recent `capacity` records in memory, discarding any
  /// earlier ring contents. Throws InvalidArgument on a zero capacity.
  void enable_ring(std::size_t capacity = 1 << 16) {
    require(capacity >= 1, std::string(what_) + " ring capacity must be >= 1");
    std::lock_guard lock(mu_);
    ring_on_ = true;
    capacity_ = capacity;
    ring_.clear();
    ring_.reserve(std::min<std::size_t>(capacity, 4096));
    next_ = 0;
    dropped_ = 0;
    enabled_.store(true, std::memory_order_relaxed);
  }

  /// Streams every subsequent record as one JSON line; truncates `path`.
  /// Throws IoError if the file cannot be opened.
  void open_stream(const std::string& path) {
    std::lock_guard lock(mu_);
    stream_.close();
    stream_.clear();
    stream_.open(path, std::ios::out | std::ios::trunc);
    if (!stream_) {
      throw IoError(std::string("cannot open ") + what_ + " '" + path + "' for writing");
    }
    enabled_.store(true, std::memory_order_relaxed);
  }

  /// Flushes and closes the stream (ring recording, if on, continues).
  void close_stream() {
    std::lock_guard lock(mu_);
    stream_.close();
    enabled_.store(ring_on_, std::memory_order_relaxed);
  }

  /// Stops recording entirely, discards the ring, and resets the recorded
  /// count (so two identically-seeded runs stamp identical sequences).
  void disable() {
    std::lock_guard lock(mu_);
    enabled_.store(false, std::memory_order_relaxed);
    ring_on_ = false;
    ring_.clear();
    next_ = 0;
    dropped_ = 0;
    recorded_ = 0;
    stream_.close();
  }

  /// Ring contents, oldest first. Empty when the ring is off.
  std::vector<Record> ring_snapshot() const {
    std::lock_guard lock(mu_);
    std::vector<Record> out;
    out.reserve(ring_.size());
    // Oldest first: once the ring has wrapped, next_ is the oldest slot.
    for (std::size_t i = 0; i < ring_.size(); ++i) {
      out.push_back(ring_[(next_ + i) % ring_.size()]);
    }
    return out;
  }

  /// Records evicted from the ring since enable_ring (0 when none dropped —
  /// reports use this to flag truncated trajectories).
  std::uint64_t ring_dropped() const {
    std::lock_guard lock(mu_);
    return dropped_;
  }

  /// Records delivered since construction / the last disable().
  std::uint64_t recorded() const {
    std::lock_guard lock(mu_);
    return recorded_;
  }

 protected:
  /// `what` names the sink in error messages ("trace stream", "audit log").
  explicit JsonlSink(const char* what) : what_(what) {}

  /// Delivers `rec` to the active destinations. `stamp(rec, n)` runs under
  /// the lock first, with n the number of records delivered before this
  /// one. A no-op while no destination is active.
  template <class Stamp>
  void deliver(Record rec, Stamp&& stamp) {
    if (!enabled()) {
      return;
    }
    std::lock_guard lock(mu_);
    if (!ring_on_ && !stream_.is_open()) {
      return;  // raced with disable()/close_stream()
    }
    stamp(rec, recorded_);
    ++recorded_;
    if (stream_.is_open()) {
      stream_ << rec.to_json().dump() << '\n';
    }
    if (ring_on_) {
      if (ring_.size() < capacity_) {
        ring_.push_back(std::move(rec));
      } else {
        ring_[next_] = std::move(rec);
        next_ = (next_ + 1) % capacity_;
        ++dropped_;
      }
    }
  }

 private:
  const char* what_;
  mutable std::mutex mu_;
  std::atomic<bool> enabled_{false};
  bool ring_on_ = false;
  std::size_t capacity_ = 0;
  std::vector<Record> ring_;  ///< circular once full
  std::size_t next_ = 0;      ///< ring write position
  std::uint64_t dropped_ = 0;
  std::uint64_t recorded_ = 0;
  std::ofstream stream_;
};

/// Reads a JSON-lines file written by a JsonlSink: calls `on_line` with
/// each non-blank line's document, in file order. Throws IoError when the
/// file cannot be opened, and ParseError "path:line: ..." when a line is
/// malformed or `on_line` rejects it.
void read_jsonl_file(const std::string& path, const char* what,
                     const std::function<void(const util::Json&)>& on_line);

}  // namespace acclaim::telemetry
