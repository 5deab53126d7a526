#include "serve/serve_core.hpp"

#include "telemetry/metrics.hpp"
#include "telemetry/profiler.hpp"
#include "util/error.hpp"

namespace acclaim::serve {

namespace {

/// Store shard count. Shards only spread lock traffic; answers never
/// depend on it.
constexpr int kShards = 8;

}  // namespace

ServeCore::ServeCore(ServeConfig cfg) : store_(kShards), cache_(cfg.cache_capacity) {}

std::uint64_t ServeCore::publish(const ModelKey& key, core::CollectiveModel model) {
  static telemetry::Counter& published = telemetry::metrics().counter("serve.models_published");
  const std::uint64_t version = store_.publish(key, std::move(model));
  published.add();
  return version;
}

Decision ServeCore::decide(const bench::Scenario& s, const std::string& topology) {
  const ModelKey model_key{s.collective, s.nranks(), topology};
  const auto snap = store_.resolve(model_key);
  if (!snap) {
    throw NotFoundError("no model published for " + model_key.to_string());
  }
  Decision d;
  d.version = snap->version;
  const DecisionKey key = quantize(snap->version, s);
  if (const auto cached = cache_.get(key)) {
    d.algorithm = *cached;
    d.cache_hit = true;
  } else {
    d.algorithm = snap->model.select(s);
    cache_.put(key, d.algorithm);
  }
  return d;
}

Decision ServeCore::select(const bench::Scenario& s, const std::string& topology) {
  static telemetry::Histogram& query_us =
      telemetry::metrics().histogram("serve.query_us", {1e-3, 48});
  static telemetry::Counter& queries = telemetry::metrics().counter("serve.queries");
  const telemetry::Span span(query_us, telemetry::Unit::us);
  const Decision d = decide(s, topology);
  queries.add();
  return d;
}

std::vector<Decision> ServeCore::select_batch(const std::vector<bench::Scenario>& scenarios,
                                              const std::string& topology) {
  static telemetry::Histogram& batch_size =
      telemetry::metrics().histogram("serve.batch_size", {1.0, 24});
  static telemetry::Histogram& batch_us =
      telemetry::metrics().histogram("serve.batch_us", {1e-2, 48});
  static telemetry::Counter& queries = telemetry::metrics().counter("serve.queries");
  if (scenarios.empty()) {
    return {};
  }
  const telemetry::Span span(batch_us, telemetry::Unit::us);
  std::vector<Decision> out;
  out.reserve(scenarios.size());
  for (const bench::Scenario& s : scenarios) {
    out.push_back(decide(s, topology));
  }
  queries.add(scenarios.size());
  batch_size.observe(static_cast<double>(scenarios.size()));
  return out;
}

}  // namespace acclaim::serve
