#include "core/env.hpp"

#include <algorithm>
#include <set>

#include "telemetry/metrics.hpp"
#include "telemetry/profiler.hpp"
#include "telemetry/trace.hpp"
#include "util/error.hpp"

namespace acclaim::core {

namespace {

/// Shared benchmark accounting for every environment implementation: the
/// `benchmark_runs` counter / cost gauge the CLI exports and the per-run
/// trace event the report builder folds into its totals. `slot` >= 0 marks
/// a batched run and becomes the trace viewer's lane id; `wall_ms` >= 0
/// attaches the item's host execution time (span duration in the
/// chrome://tracing export).
void note_benchmark(const char* source, const bench::BenchmarkPoint& point,
                    const bench::Measurement& m, int slot = -1, double wall_ms = -1.0) {
  static telemetry::Counter& runs = telemetry::metrics().counter("benchmark_runs");
  static telemetry::Gauge& cost = telemetry::metrics().gauge("benchmark_sim_cost_s");
  runs.add();
  cost.add(m.collect_cost_s);
  if (telemetry::tracer().enabled()) {
    telemetry::TraceEvent ev;
    ev.kind = telemetry::EventKind::BenchmarkRun;
    ev.label = coll::collective_name(point.scenario.collective);
    ev.fields["source"] = source;
    ev.fields["nnodes"] = point.scenario.nnodes;
    ev.fields["ppn"] = point.scenario.ppn;
    ev.fields["msg_bytes"] = point.scenario.msg_bytes;
    ev.fields["mean_us"] = m.mean_us;
    ev.fields["cost_s"] = m.collect_cost_s;
    if (slot >= 0) {
      ev.fields["slot"] = slot;
    }
    if (wall_ms >= 0.0) {
      ev.fields["wall_ms"] = wall_ms;
    }
    telemetry::tracer().record(std::move(ev));
  }
}

}  // namespace

std::vector<bench::Measurement> TuningEnvironment::measure_scheduled(
    const std::vector<ScheduledBenchmark>& batch) {
  std::vector<bench::Measurement> out;
  out.reserve(batch.size());
  for (const ScheduledBenchmark& item : batch) {
    out.push_back(measure(item.point));
  }
  return out;
}

std::vector<bench::Measurement> TuningEnvironment::measure_scheduled(
    const std::vector<ScheduledBenchmark>& batch, const std::vector<double>& /*predicted*/) {
  return measure_scheduled(batch);
}

namespace {

/// Random non-P2 value near the anchor drawn from an explicit pool.
std::optional<std::uint64_t> pick_nonp2_from(const std::vector<std::uint64_t>& sorted_msgs,
                                             std::uint64_t p2_anchor, util::Rng& rng) {
  // Same closest-P2 window as bench::random_nonp2_near.
  const std::uint64_t lo = p2_anchor * 3 / 4;
  const std::uint64_t hi = p2_anchor * 3 / 2;
  std::vector<std::uint64_t> pool;
  for (std::uint64_t m : sorted_msgs) {
    if (m > lo && m < hi && m != p2_anchor) {
      pool.push_back(m);
    }
  }
  if (pool.empty()) {
    return std::nullopt;
  }
  return pool[rng.index(pool.size())];
}

/// Extra concurrent flows each co-running benchmark injects into a rack
/// uplink / global pair it shares with another (only schedules that break
/// the disjointness rules, e.g. the naive ablation scheduler, see any).
constexpr int kInterferenceFlows = 6;

}  // namespace

DatasetEnvironment::DatasetEnvironment(const bench::Dataset& dataset) : dataset_(dataset) {
  for (coll::Collective c : coll::all_collectives()) {
    msgs_[static_cast<int>(c)] = dataset.message_sizes(c);
  }
}

bench::Measurement DatasetEnvironment::measure(const bench::BenchmarkPoint& point) {
  const bench::Measurement& m = dataset_.at(point);  // throws if absent
  charge_s(m.collect_cost_s);
  note_benchmark("dataset", point, m);
  return m;
}

std::optional<std::uint64_t> DatasetEnvironment::nonp2_msg_near(std::uint64_t p2_anchor,
                                                                util::Rng& rng) {
  // Use the union over collectives: message axes are shared in our datasets.
  std::set<std::uint64_t> all;
  for (const auto& [c, msgs] : msgs_) {
    all.insert(msgs.begin(), msgs.end());
  }
  const std::vector<std::uint64_t> sorted(all.begin(), all.end());
  return pick_nonp2_from(sorted, p2_anchor, rng);
}

LiveEnvironment::LiveEnvironment(const simnet::Topology& topo, const simnet::Allocation& alloc,
                                 std::uint64_t job_seed)
    : topo_(topo),
      alloc_(alloc),
      net_(topo, job_seed),
      mb_(net_),
      noise_seed_(job_seed ^ 0xa5a5a5a5deadbeefULL) {}

bench::Measurement LiveEnvironment::measure(const bench::BenchmarkPoint& point) {
  const telemetry::Span span("simnet.microbench");
  util::Rng point_rng = util::Rng::stream(noise_seed_, measure_seq_++);
  const bench::Measurement m = mb_.run(point, alloc_, point_rng);
  charge_s(m.collect_cost_s);
  note_benchmark("live", point, m);
  return m;
}

std::vector<bench::Measurement> LiveEnvironment::measure_scheduled(
    const std::vector<ScheduledBenchmark>& batch) {
  return measure_scheduled(batch, {});
}

std::vector<bench::Measurement> LiveEnvironment::measure_scheduled(
    const std::vector<ScheduledBenchmark>& batch, const std::vector<double>& predicted) {
  require(!batch.empty(), "measure_scheduled requires a non-empty batch");
  require(predicted.empty() || predicted.size() == batch.size(),
          "predicted solo costs must be empty or parallel to the batch");

  // Which racks / pairs each co-running benchmark occupies, plus the
  // interference flows concurrent benchmarks inject into every rack / pair
  // they share with it. A disjoint schedule (the §IV-D greedy guarantees
  // rack disjointness) sees none of this.
  std::vector<simnet::RegionFootprint> feet(batch.size());
  for (std::size_t i = 0; i < batch.size(); ++i) {
    const auto& item = batch[i];
    require(item.first_node >= 0 &&
                item.first_node + item.point.scenario.nnodes <= alloc_.num_nodes(),
            "scheduled benchmark exceeds the job allocation");
    feet[i] = alloc_.footprint(topo_, item.first_node, item.point.scenario.nnodes);
  }
  std::vector<minimpi::FlowMap> rack_flows(batch.size());
  std::vector<minimpi::FlowMap> pair_flows(batch.size());
  for (std::size_t i = 0; i < batch.size(); ++i) {
    for (std::size_t j = 0; j < batch.size(); ++j) {
      if (j == i) {
        continue;
      }
      for (int r : feet[j].racks) {
        if (feet[i].racks.count(r)) {
          rack_flows[i][r] += kInterferenceFlows;
        }
      }
      for (int p : feet[j].pairs) {
        if (feet[i].pairs.count(p)) {
          pair_flows[i][p] += kInterferenceFlows;
        }
      }
    }
  }

  // Noise streams are assigned in batch order before the loop: measurement i
  // always consumes stream measure_seq_+i, so the measured values depend only
  // on the seed and the batch, never on how the items are run.
  std::vector<util::Rng> rngs;
  rngs.reserve(batch.size());
  for (std::size_t i = 0; i < batch.size(); ++i) {
    rngs.push_back(util::Rng::stream(noise_seed_, measure_seq_++));
  }

  // Run the batch's simulated microbenchmarks on their disjoint allocation
  // slices. The items run *simulated*-concurrently (the clock is charged the
  // makespan below); on the host they run one after another, because farming
  // them out to the thread pool measured no faster (fig13, 0.9x at 1-4
  // threads).
  static telemetry::Histogram& wall =
      telemetry::metrics().histogram("simnet.batch_wall_ms", {1.0 / 16, 16});
  std::vector<bench::Measurement> out(batch.size());
  std::vector<double> item_wall_ms(batch.size(), 0.0);
  {
    const telemetry::Span batch_span("env.measure_scheduled", wall, telemetry::Unit::ms);
    for (std::size_t i = 0; i < batch.size(); ++i) {
      const telemetry::Span item_span("simnet.microbench");
      // An interference-free item whose placement the scheduler already priced
      // reuses that schedule time (run_with_load with empty flow maps computes
      // exactly predicted_solo_us, so the measurements are bitwise-identical);
      // rebuilding the schedule would double the batched path's host cost. A
      // non-positive prediction means "no usable hint" — either the caller
      // invalidated the slot after mutating the point (non-P2 substitution) or
      // a degenerate placement priced to zero — and takes the rebuild path.
      if (!predicted.empty() && predicted[i] > 0.0 && rack_flows[i].empty() &&
          pair_flows[i].empty()) {
        out[i] = mb_.run_priced(batch[i].point, predicted[i], rngs[i]);
      } else {
        const simnet::Allocation sub =
            alloc_.slice(batch[i].first_node, batch[i].point.scenario.nnodes);
        out[i] = mb_.run_with_load(batch[i].point, sub, rack_flows[i], pair_flows[i], rngs[i]);
      }
      item_wall_ms[i] = item_span.elapsed_ms();
    }
  }

  // Serial fold in slot order: clock accounting, telemetry, trace events.
  double makespan_s = 0.0;
  for (std::size_t i = 0; i < batch.size(); ++i) {
    makespan_s = std::max(makespan_s, out[i].collect_cost_s);
    note_benchmark("live-parallel", batch[i].point, out[i], static_cast<int>(i),
                   item_wall_ms[i]);
  }
  charge_s(makespan_s);

  static telemetry::Counter& batches = telemetry::metrics().counter("simnet.parallel_batches");
  static telemetry::Counter& items = telemetry::metrics().counter("simnet.batch_items");
  batches.add();
  items.add(static_cast<std::uint64_t>(batch.size()));
  return out;
}

double LiveEnvironment::predicted_solo_us(const ScheduledBenchmark& item) const {
  require(item.first_node >= 0 &&
              item.first_node + item.point.scenario.nnodes <= alloc_.num_nodes(),
          "scheduled benchmark exceeds the job allocation");
  const simnet::Allocation sub = alloc_.slice(item.first_node, item.point.scenario.nnodes);
  return mb_.schedule_time_us(item.point, sub);
}

SoloCostFn LiveEnvironment::solo_cost_oracle() const {
  return [this](const ScheduledBenchmark& item) { return predicted_solo_us(item); };
}

std::optional<std::uint64_t> LiveEnvironment::nonp2_msg_near(std::uint64_t p2_anchor,
                                                             util::Rng& rng) {
  if (p2_anchor < 4) {
    return std::nullopt;
  }
  return bench::random_nonp2_near(p2_anchor, rng);
}

}  // namespace acclaim::core
