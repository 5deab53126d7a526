// acclaimd serving core: model store + decision cache.
//
// This is the library behind `acclaim serve` (the NDJSON daemon) and the
// loadgen bench: a long-lived object that answers algorithm-selection
// queries for many concurrent jobs. Every query, alone or inside a batch,
// takes the same path:
//
//   query --> resolve ModelSnapshot (atomic load, never locks out publishers)
//                 v
//          quantize(snapshot version, features) --> DecisionCache probe
//                 |                                      |
//               (miss)                                 (hit) --> answer
//                 v
//          CollectiveModel::select --> DecisionCache::put --> answer
//
// Both outcomes return the same bits as calling CollectiveModel::select
// directly on the published model: the cache key is a lossless quantization
// (see decision_cache.hpp) that includes the snapshot version. A batch is a
// loop over single queries, so it adds no second selection path. The
// loadgen bench and tests/test_serve.cpp enforce this differentially.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "serve/decision_cache.hpp"
#include "serve/model_store.hpp"

namespace acclaim::serve {

struct ServeConfig {
  std::size_t cache_capacity = 1 << 16;
};

/// One answered query.
struct Decision {
  coll::Algorithm algorithm = coll::Algorithm::BcastBinomial;
  std::uint64_t version = 0;  ///< snapshot that decided
  bool cache_hit = false;
};

class ServeCore {
 public:
  explicit ServeCore(ServeConfig cfg = {});

  /// Publishes a trained model; see ModelStore::publish.
  std::uint64_t publish(const ModelKey& key, core::CollectiveModel model);

  /// Answers one query. The model key is derived from the scenario
  /// (collective, nnodes x ppn) and `topology`, with the wildcard-scale
  /// fallback of ModelStore::resolve. Throws NotFoundError when no model
  /// covers the query.
  Decision select(const bench::Scenario& s, const std::string& topology = "default");

  /// Answers a batch of queries against one topology, in order, each
  /// through the same step as select(): element i is exactly what
  /// select(scenarios[i], topology) would return at that point. Only the
  /// telemetry differs (serve.batch_us / serve.batch_size per batch).
  std::vector<Decision> select_batch(const std::vector<bench::Scenario>& scenarios,
                                     const std::string& topology = "default");

  const ModelStore& store() const noexcept { return store_; }
  DecisionCache::Stats cache_stats() const { return cache_.stats(); }
  std::size_t cache_capacity() const noexcept { return cache_.capacity(); }

 private:
  /// Resolve the snapshot, probe the cache, select on a miss and store the
  /// answer: the one step both public entry points take.
  Decision decide(const bench::Scenario& s, const std::string& topology);

  ModelStore store_;
  DecisionCache cache_;
};

}  // namespace acclaim::serve
