// Tests for the acclaimd serving core: snapshot publication (copy-on-write,
// concurrent readers), the sharded LRU decision cache, the NDJSON protocol's
// untrusted-input handling, and the serving-vs-direct differential guarantee.
#include <gtest/gtest.h>

#include <sys/socket.h>
#include <sys/stat.h>
#include <sys/time.h>
#include <sys/un.h>
#include <unistd.h>

#include <atomic>
#include <cerrno>
#include <chrono>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <set>
#include <sstream>
#include <thread>
#include <vector>

#include "collectives/types.hpp"
#include "core/model.hpp"
#include "serve/daemon.hpp"
#include "serve/decision_cache.hpp"
#include "serve/model_store.hpp"
#include "serve/protocol.hpp"
#include "serve/serve_core.hpp"
#include "util/error.hpp"
#include "util/json.hpp"

namespace {

using namespace acclaim;

/// A small trained model whose labels depend on `bias` so two fits of the
/// same collective can be told apart by their selections.
core::CollectiveModel trained_model(coll::Collective c, double bias = 2.0) {
  std::vector<core::LabeledPoint> data;
  double t = 10.0;
  int alg_index = 0;
  for (coll::Algorithm a : coll::algorithms_for(c)) {
    ++alg_index;
    for (int n : {2, 4, 8}) {
      for (std::uint64_t msg : {64ull, 1024ull, 65536ull}) {
        // With bias > 1 later algorithms get slower, with bias < 1 faster,
        // flipping which algorithm wins.
        const double cost = t * (bias > 1.0 ? alg_index * bias : 1.0 / (alg_index * -bias));
        data.push_back({bench::BenchmarkPoint{bench::Scenario{c, n, 4, msg}, a}, cost});
        t *= 1.13;
      }
    }
  }
  ml::ForestParams params = core::default_forest_params();
  params.n_trees = 10;
  core::CollectiveModel model(c, params);
  model.fit(data, 17);
  return model;
}

// ---------------------------------------------------------------------------
// Copy-on-write model contract

TEST(ModelCow, CopyKeepsAnsweringFromTheForestItWasCopiedWith) {
  core::CollectiveModel original = trained_model(coll::Collective::Bcast, 2.0);
  const core::CollectiveModel copy = original;  // shares the immutable forest

  const bench::Scenario s{coll::Collective::Bcast, 4, 4, 1024};
  const coll::Algorithm before = copy.select(s);
  EXPECT_EQ(original.select(s), before);

  // Refit the original with inverted labels; the copy must not move.
  core::CollectiveModel refit = trained_model(coll::Collective::Bcast, -2.0);
  std::vector<core::LabeledPoint> data;
  int alg_index = 0;
  for (coll::Algorithm a : coll::algorithms_for(coll::Collective::Bcast)) {
    ++alg_index;
    for (int n : {2, 4, 8}) {
      data.push_back({bench::BenchmarkPoint{bench::Scenario{coll::Collective::Bcast, n, 4, 512}, a},
                      1000.0 / alg_index});
    }
  }
  original.fit(data, 23);
  EXPECT_EQ(copy.select(s), before);
  // And the copy still reports its own training size.
  EXPECT_TRUE(copy.trained());
}

// ---------------------------------------------------------------------------
// Model store

TEST(ModelStore, PublishLookupAndWildcardResolve) {
  serve::ModelStore store(4);
  EXPECT_EQ(store.size(), 0u);
  const serve::ModelKey exact{coll::Collective::Bcast, 32, "default"};
  const serve::ModelKey wildcard{coll::Collective::Bcast, 0, "default"};

  const std::uint64_t v1 = store.publish(wildcard, trained_model(coll::Collective::Bcast));
  EXPECT_GE(v1, 1u);
  EXPECT_EQ(store.size(), 1u);

  // Exact key misses, wildcard fallback answers.
  EXPECT_EQ(store.lookup(exact), nullptr);
  const auto snap = store.resolve(exact);
  ASSERT_NE(snap, nullptr);
  EXPECT_EQ(snap->version, v1);
  EXPECT_EQ(snap->key.comm_size, 0);

  // Publishing the exact key shadows the wildcard for that scale.
  const std::uint64_t v2 = store.publish(exact, trained_model(coll::Collective::Bcast));
  EXPECT_GT(v2, v1);
  const auto snap2 = store.resolve(exact);
  ASSERT_NE(snap2, nullptr);
  EXPECT_EQ(snap2->version, v2);
  // Other scales still fall back to the wildcard.
  EXPECT_EQ(store.resolve({coll::Collective::Bcast, 64, "default"})->version, v1);
  // Unknown topology resolves nothing.
  EXPECT_EQ(store.resolve({coll::Collective::Bcast, 32, "torus"}), nullptr);
}

TEST(ModelStore, RejectsUntrainedAndMismatchedModels) {
  serve::ModelStore store(1);
  EXPECT_THROW(store.publish({coll::Collective::Bcast, 0, "default"}, core::CollectiveModel{}),
               InvalidArgument);
  EXPECT_THROW(store.publish({coll::Collective::Allreduce, 0, "default"},
                             trained_model(coll::Collective::Bcast)),
               InvalidArgument);
}

TEST(ModelStore, RepublishKeepsOldSnapshotAliveForHolders) {
  serve::ModelStore store(2);
  const serve::ModelKey key{coll::Collective::Bcast, 0, "default"};
  store.publish(key, trained_model(coll::Collective::Bcast, 2.0));
  const auto old_snap = store.lookup(key);
  ASSERT_NE(old_snap, nullptr);
  const bench::Scenario s{coll::Collective::Bcast, 4, 4, 1024};
  const coll::Algorithm old_answer = old_snap->model.select(s);

  store.publish(key, trained_model(coll::Collective::Bcast, -2.0));
  const auto new_snap = store.lookup(key);
  ASSERT_NE(new_snap, nullptr);
  EXPECT_GT(new_snap->version, old_snap->version);
  // The held snapshot still answers from the forest it was published with.
  EXPECT_EQ(old_snap->model.select(s), old_answer);
}

TEST(ModelStore, ConcurrentReadersNeverSeeATornSnapshot) {
  serve::ModelStore store(2);
  const serve::ModelKey key{coll::Collective::Bcast, 0, "default"};
  const core::CollectiveModel a = trained_model(coll::Collective::Bcast, 2.0);
  const core::CollectiveModel b = trained_model(coll::Collective::Bcast, -2.0);
  store.publish(key, a);

  const bench::Scenario s{coll::Collective::Bcast, 8, 4, 4096};
  const coll::Algorithm answer_a = a.select(s);
  const coll::Algorithm answer_b = b.select(s);

  std::atomic<bool> stop{false};
  std::atomic<int> bad{0};
  std::vector<std::thread> readers;
  for (int t = 0; t < 3; ++t) {
    readers.emplace_back([&] {
      while (!stop.load(std::memory_order_relaxed)) {
        const auto snap = store.resolve(key);
        if (!snap) {
          bad.fetch_add(1);
          continue;
        }
        // Whatever version we got, its selection must be one of the two
        // published models' answers, and the snapshot must be internally
        // consistent (version matches the model's bits).
        const coll::Algorithm got = snap->model.select(s);
        if (got != answer_a && got != answer_b) {
          bad.fetch_add(1);
        }
      }
    });
  }
  for (int i = 0; i < 25; ++i) {
    store.publish(key, i % 2 == 0 ? b : a);
  }
  stop.store(true);
  for (auto& r : readers) {
    r.join();
  }
  EXPECT_EQ(bad.load(), 0);
}

TEST(ModelStore, ConcurrentPublishersNeverLeaveAnOlderVersionVisible) {
  // Racing publishers can fetch versions in one order and store in another;
  // the store must keep the highest version visible regardless.
  serve::ModelStore store(2);
  const serve::ModelKey key{coll::Collective::Bcast, 0, "default"};
  const core::CollectiveModel model = trained_model(coll::Collective::Bcast);
  std::atomic<std::uint64_t> max_version{0};
  std::vector<std::thread> publishers;
  for (int t = 0; t < 4; ++t) {
    publishers.emplace_back([&] {
      for (int i = 0; i < 25; ++i) {
        const std::uint64_t v = store.publish(key, model);
        std::uint64_t seen = max_version.load();
        while (seen < v && !max_version.compare_exchange_weak(seen, v)) {
        }
      }
    });
  }
  for (auto& p : publishers) {
    p.join();
  }
  const auto snap = store.lookup(key);
  ASSERT_NE(snap, nullptr);
  EXPECT_EQ(snap->version, max_version.load());
}

TEST(ModelStore, KeyDistanceMetric) {
  using coll::Collective;
  const serve::ModelKey want{Collective::Bcast, 32, "bebop"};
  EXPECT_DOUBLE_EQ(serve::model_key_distance(want, want), 0.0);
  // |log2 comm_size| delta between concrete scales.
  EXPECT_DOUBLE_EQ(serve::model_key_distance(want, {Collective::Bcast, 64, "bebop"}), 1.0);
  EXPECT_DOUBLE_EQ(serve::model_key_distance(want, {Collective::Bcast, 8, "bebop"}), 2.0);
  // Wildcard scale transfers, but less sharply than an exact match.
  EXPECT_DOUBLE_EQ(serve::model_key_distance(want, {Collective::Bcast, 0, "bebop"}), 0.5);
  // Cross-topology transfer is a last resort.
  EXPECT_DOUBLE_EQ(serve::model_key_distance(want, {Collective::Bcast, 32, "theta"}), 16.0);
  EXPECT_DOUBLE_EQ(serve::model_key_distance(want, {Collective::Bcast, 64, "theta"}), 17.0);
}

TEST(ModelStore, NearestPicksClosestScaleWithDeterministicTies) {
  serve::ModelStore store;
  const core::CollectiveModel bcast = trained_model(coll::Collective::Bcast);
  store.publish({coll::Collective::Bcast, 8, "bebop"}, bcast);
  store.publish({coll::Collective::Bcast, 32, "bebop"}, bcast);
  store.publish({coll::Collective::Allgather, 16, "bebop"},
                trained_model(coll::Collective::Allgather));

  // Only same-collective snapshots are candidates: the exact-scale allgather
  // model must not shadow the bcast ones.
  const auto near = store.nearest({coll::Collective::Bcast, 16, "bebop"}, 8.0);
  ASSERT_NE(near.snapshot, nullptr);
  EXPECT_EQ(near.snapshot->key.collective, coll::Collective::Bcast);
  EXPECT_DOUBLE_EQ(near.distance, 1.0);
  // Both bcast keys are at distance 1; the tie breaks to the smaller key.
  EXPECT_EQ(near.snapshot->key.comm_size, 8);

  // The cutoff is inclusive and an out-of-range query comes back empty.
  EXPECT_NE(store.nearest({coll::Collective::Bcast, 16, "bebop"}, 1.0).snapshot, nullptr);
  EXPECT_EQ(store.nearest({coll::Collective::Bcast, 16, "bebop"}, 0.5).snapshot, nullptr);
  EXPECT_EQ(store.nearest({coll::Collective::Reduce, 16, "bebop"}, 8.0).snapshot, nullptr);
}

TEST(ModelStore, PublishWithSupportRoundTripsAndRepublishCanDropIt) {
  serve::ModelStore store;
  const serve::ModelKey key{coll::Collective::Bcast, 16, "bebop"};
  const core::CollectiveModel model = trained_model(coll::Collective::Bcast);

  auto support = std::make_shared<std::vector<core::LabeledPoint>>();
  support->push_back({bench::BenchmarkPoint{bench::Scenario{coll::Collective::Bcast, 4, 4, 64},
                                            coll::Algorithm::BcastBinomial},
                      12.5});
  const std::uint64_t v1 = store.publish(key, model, support);
  const auto snap = store.lookup(key);
  ASSERT_NE(snap, nullptr);
  ASSERT_NE(snap->support, nullptr);
  ASSERT_EQ(snap->support->size(), 1u);
  EXPECT_DOUBLE_EQ((*snap->support)[0].time_us, 12.5);

  // A republish without support replaces the payload along with the model.
  const std::uint64_t v2 = store.publish(key, model);
  EXPECT_GT(v2, v1);
  const auto fresh = store.lookup(key);
  ASSERT_NE(fresh, nullptr);
  EXPECT_EQ(fresh->support, nullptr);
  // The old snapshot held by a reader keeps its payload.
  EXPECT_NE(snap->support, nullptr);
}

// ---------------------------------------------------------------------------
// Decision cache

TEST(DecisionCache, QuantizationIsLossless) {
  // Distinct integer scenarios must produce distinct keys — this is what
  // makes cached answers bitwise-identical to direct selection.
  std::set<serve::DecisionKey> keys;
  std::size_t scenarios = 0;
  for (int n : {2, 3, 4, 63, 64}) {
    for (int ppn : {1, 2, 16, 17}) {
      for (std::uint64_t msg : {8ull, 9ull, 1024ull, 123457ull, 1048576ull}) {
        for (coll::Collective c : {coll::Collective::Bcast, coll::Collective::Allreduce}) {
          keys.insert(serve::quantize(1, bench::Scenario{c, n, ppn, msg}));
          ++scenarios;
        }
      }
    }
  }
  EXPECT_EQ(keys.size(), scenarios);
  // A republished snapshot changes the key, invalidating stale decisions.
  const bench::Scenario s{coll::Collective::Bcast, 4, 4, 1024};
  EXPECT_NE(serve::quantize(1, s), serve::quantize(2, s));
}

TEST(DecisionCache, HitMissAndEvictionCounters) {
  serve::DecisionCache cache(4);
  const auto key = [](std::uint64_t msg) {
    return serve::quantize(1, bench::Scenario{coll::Collective::Bcast, 2, 2, msg});
  };
  EXPECT_FALSE(cache.get(key(1)).has_value());
  for (std::uint64_t m = 1; m <= 4; ++m) {
    cache.put(key(m), coll::Algorithm::BcastBinomial);
  }
  EXPECT_TRUE(cache.get(key(1)).has_value());  // refreshes 1 to MRU
  cache.put(key(5), coll::Algorithm::BcastBinomial);  // evicts 2 (LRU), not 1
  EXPECT_TRUE(cache.get(key(1)).has_value());
  EXPECT_FALSE(cache.get(key(2)).has_value());
  EXPECT_TRUE(cache.get(key(5)).has_value());

  const auto st = cache.stats();
  EXPECT_EQ(st.capacity, 4u);
  EXPECT_EQ(st.entries, 4u);
  EXPECT_EQ(st.evictions, 1u);
  EXPECT_EQ(st.hits, 3u);
  EXPECT_EQ(st.misses, 2u);
}

// Regression: the cache split its capacity over 8 shards with a floor of one
// entry per shard, so 12 enforced and reported 8, and 1 reported 8.
TEST(DecisionCache, CapacityIsExact) {
  serve::ServeConfig cfg;
  cfg.cache_capacity = 12;
  serve::ServeCore core(cfg);
  EXPECT_EQ(core.cache_capacity(), 12u);
  core.publish({coll::Collective::Bcast, 0, "default"}, trained_model(coll::Collective::Bcast));
  const auto scenario = [](std::uint64_t msg) {
    return bench::Scenario{coll::Collective::Bcast, 4, 4, msg};
  };
  for (std::uint64_t m = 1; m <= 12; ++m) {
    core.select(scenario(m));
  }
  serve::DecisionCache::Stats st = core.cache_stats();
  EXPECT_EQ(st.capacity, 12u);
  EXPECT_EQ(st.entries, 12u);
  EXPECT_EQ(st.evictions, 0u);
  for (std::uint64_t m = 1; m <= 12; ++m) {
    EXPECT_TRUE(core.select(scenario(m)).cache_hit) << "msg " << m;
  }
  core.select(scenario(13));
  st = core.cache_stats();
  EXPECT_EQ(st.entries, 12u);
  EXPECT_EQ(st.evictions, 1u);

  EXPECT_EQ(serve::DecisionCache(1).capacity(), 1u);
  EXPECT_EQ(serve::DecisionCache(0).capacity(), 1u);
}

// ---------------------------------------------------------------------------
// Serving core: differential guarantee

TEST(ServeCore, ServingMatchesDirectSelectionOnHitAndMissPaths) {
  serve::ServeConfig cfg;
  cfg.cache_capacity = 32;  // small enough to force evictions mid-test
  serve::ServeCore core(cfg);
  const core::CollectiveModel model = trained_model(coll::Collective::Bcast);
  core.publish({coll::Collective::Bcast, 0, "default"}, model);

  std::vector<bench::Scenario> scenarios;
  for (int n : {2, 3, 4, 8, 16, 33}) {
    for (int ppn : {1, 4, 16}) {
      for (std::uint64_t msg : {8ull, 100ull, 1024ull, 9999ull, 1048576ull}) {
        scenarios.push_back({coll::Collective::Bcast, n, ppn, msg});
      }
    }
  }
  // Each scenario is asked twice in a row: the miss path, then the hit
  // path, both matching direct selection bit for bit. The 32-entry cache
  // evicts along the way.
  for (const bench::Scenario& s : scenarios) {
    const serve::Decision miss = core.select(s);
    const serve::Decision hit = core.select(s);
    EXPECT_FALSE(miss.cache_hit) << s.to_string();
    EXPECT_TRUE(hit.cache_hit) << s.to_string();
    EXPECT_EQ(miss.algorithm, model.select(s)) << s.to_string();
    EXPECT_EQ(hit.algorithm, model.select(s)) << s.to_string();
  }
  EXPECT_GT(core.cache_stats().evictions, 0u);

  // Batched path on a fresh core, with two collectives interleaved in one
  // batch. The first batch runs on misses only; the second repeats every
  // query back to back, so misses (evicted entries) and hits alternate.
  serve::ServeCore batch_core(cfg);
  const core::CollectiveModel allreduce = trained_model(coll::Collective::Allreduce);
  batch_core.publish({coll::Collective::Bcast, 0, "default"}, model);
  batch_core.publish({coll::Collective::Allreduce, 0, "default"}, allreduce);
  std::vector<bench::Scenario> mixed;
  std::vector<bench::Scenario> doubled;
  for (const bench::Scenario& s : scenarios) {
    const bench::Scenario a{coll::Collective::Allreduce, s.nnodes, s.ppn, s.msg_bytes};
    mixed.insert(mixed.end(), {s, a});
    doubled.insert(doubled.end(), {s, s, a, a});
  }
  auto direct = [&](const bench::Scenario& s) {
    return (s.collective == coll::Collective::Bcast ? model : allreduce).select(s);
  };
  const std::vector<serve::Decision> cold = batch_core.select_batch(mixed);
  ASSERT_EQ(cold.size(), mixed.size());
  for (std::size_t i = 0; i < mixed.size(); ++i) {
    EXPECT_FALSE(cold[i].cache_hit) << mixed[i].to_string();
    EXPECT_EQ(cold[i].algorithm, direct(mixed[i])) << mixed[i].to_string();
  }
  const std::vector<serve::Decision> warm = batch_core.select_batch(doubled);
  ASSERT_EQ(warm.size(), doubled.size());
  for (std::size_t i = 0; i < doubled.size(); ++i) {
    if (i % 2 == 1) {
      EXPECT_TRUE(warm[i].cache_hit) << doubled[i].to_string();
    }
    EXPECT_EQ(warm[i].algorithm, direct(doubled[i])) << doubled[i].to_string();
  }
}

TEST(ServeCore, SecondIdenticalQueryIsACacheHit) {
  serve::ServeCore core;
  core.publish({coll::Collective::Allreduce, 0, "default"},
               trained_model(coll::Collective::Allreduce));
  const bench::Scenario s{coll::Collective::Allreduce, 4, 4, 2048};
  const serve::Decision first = core.select(s);
  EXPECT_FALSE(first.cache_hit);
  const serve::Decision second = core.select(s);
  EXPECT_TRUE(second.cache_hit);
  EXPECT_EQ(first.algorithm, second.algorithm);
  EXPECT_EQ(first.version, second.version);
}

TEST(ServeCore, UnservedScenarioThrowsNotFound) {
  serve::ServeCore core;
  EXPECT_THROW(core.select({coll::Collective::Bcast, 4, 4, 1024}), NotFoundError);
}

// ---------------------------------------------------------------------------
// Protocol: untrusted input never crashes

TEST(Protocol, MalformedRequestsThrowTypedErrors) {
  EXPECT_THROW(serve::parse_request("{bad json"), ParseError);
  EXPECT_THROW(serve::parse_request("[1,2]"), InvalidArgument);
  EXPECT_THROW(serve::parse_request("{}"), InvalidArgument);
  EXPECT_THROW(serve::parse_request(R"({"op":"warp"})"), InvalidArgument);
  EXPECT_THROW(serve::parse_request(R"({"op":"query"})"), InvalidArgument);
  EXPECT_THROW(
      serve::parse_request(R"({"op":"query","collective":"bcast","nodes":0,"ppn":1,"msg":8})"),
      InvalidArgument);
  EXPECT_THROW(
      serve::parse_request(
          R"({"op":"query","collective":"bcast","nodes":4.5,"ppn":1,"msg":8})"),
      InvalidArgument);
  EXPECT_THROW(
      serve::parse_request(
          R"({"op":"query","collective":"bcast","nodes":99999999,"ppn":1,"msg":8})"),
      InvalidArgument);
  EXPECT_THROW(
      serve::parse_request(R"({"op":"query","collective":"nope","nodes":4,"ppn":1,"msg":8})"),
      InvalidArgument);
  EXPECT_THROW(serve::parse_request(R"({"op":"batch","queries":[]})"), InvalidArgument);
  EXPECT_THROW(serve::parse_request(R"({"op":"publish","path":""})"), InvalidArgument);
}

TEST(Protocol, HugeDoublesAreRejectedNotCastToInt) {
  // 1e300 is finite but unrepresentable in int64: the parser must range-check
  // in the double domain, never cast first.
  for (const char* v : {"1e300", "-1e300", "9.3e18", "1e18.5"}) {
    EXPECT_THROW(serve::parse_request(std::string(R"({"op":"query","collective":"bcast",)") +
                                      R"("nodes":)" + v + R"(,"ppn":1,"msg":8})"),
                 acclaim::Error)
        << v;
  }
}

TEST(Protocol, RankProductBeyondCapIsRejected) {
  // nodes and ppn each sit at their individual caps, so only the joint
  // kMaxRanks check keeps Scenario::nranks() (int) from overflowing.
  EXPECT_THROW(serve::parse_request(
                   R"({"op":"query","collective":"bcast","nodes":4194304,"ppn":65536,"msg":8})"),
               InvalidArgument);
  EXPECT_THROW(serve::parse_request(
                   R"({"op":"publish","path":"m.json","nodes":4194304,"ppn":65536})"),
               InvalidArgument);
  // At the cap exactly (2^12 x 2^16 = 2^28 = kMaxRanks) parses fine.
  const serve::Request req = serve::parse_request(
      R"({"op":"query","collective":"bcast","nodes":4096,"ppn":65536,"msg":8})");
  EXPECT_EQ(std::int64_t{req.queries[0].nnodes} * req.queries[0].ppn, serve::kMaxRanks);
}

TEST(Protocol, PublishRequiresNodesAndPpnTogether) {
  // One without the other would silently publish under the wildcard scale.
  EXPECT_THROW(serve::parse_request(R"({"op":"publish","path":"m.json","nodes":4})"),
               InvalidArgument);
  EXPECT_THROW(serve::parse_request(R"({"op":"publish","path":"m.json","ppn":8})"),
               InvalidArgument);
  const serve::Request both =
      serve::parse_request(R"({"op":"publish","path":"m.json","nodes":4,"ppn":8})");
  EXPECT_EQ(both.nodes, 4);
  EXPECT_EQ(both.ppn, 8);
  const serve::Request neither = serve::parse_request(R"({"op":"publish","path":"m.json"})");
  EXPECT_EQ(neither.nodes, 0);
  EXPECT_EQ(neither.ppn, 0);
}

TEST(Protocol, RoundTripsWellFormedRequests) {
  const serve::Request req = serve::parse_request(
      R"({"op":"query","collective":"allreduce","nodes":16,"ppn":32,"msg":65536})");
  EXPECT_EQ(req.op, serve::Op::Query);
  ASSERT_EQ(req.queries.size(), 1u);
  EXPECT_EQ(req.queries[0].collective, coll::Collective::Allreduce);
  EXPECT_EQ(req.queries[0].nnodes, 16);
  EXPECT_EQ(req.queries[0].ppn, 32);
  EXPECT_EQ(req.queries[0].msg_bytes, 65536u);
  // Serialize and reparse.
  const serve::Request again = serve::parse_request(serve::request_to_json(req).dump());
  EXPECT_EQ(again.queries[0].msg_bytes, req.queries[0].msg_bytes);
}

TEST(LineFramer, ReassemblesLinesSplitAcrossAppends) {
  serve::LineFramer framer;
  const auto feed = [&](const std::string& bytes) { framer.append(bytes.data(), bytes.size()); };
  std::string line;
  feed(R"({"op":)");
  EXPECT_FALSE(framer.next(line));
  feed("\"ping\"}\n\n{\"op\":\"stats\"}\n{\"o");
  ASSERT_TRUE(framer.next(line));
  EXPECT_EQ(line, R"({"op":"ping"})");
  ASSERT_TRUE(framer.next(line));
  EXPECT_EQ(line, "");
  ASSERT_TRUE(framer.next(line));
  EXPECT_EQ(line, R"({"op":"stats"})");
  EXPECT_FALSE(framer.next(line));
  feed("p\":\"shutdown\"}\n");
  ASSERT_TRUE(framer.next(line));
  EXPECT_EQ(line, R"({"op":"shutdown"})");
  EXPECT_FALSE(framer.overflowed());
}

TEST(LineFramer, OverflowsPastTheLineCapWithOrWithoutANewline) {
  const std::string at_cap(serve::kMaxLineBytes, 'x');
  std::string line;
  {
    serve::LineFramer framer;  // a line of exactly the cap is accepted
    framer.append(at_cap.data(), at_cap.size());
    framer.append("\n", 1);
    ASSERT_TRUE(framer.next(line));
    EXPECT_EQ(line.size(), serve::kMaxLineBytes);
  }
  {
    serve::LineFramer framer;  // one byte more, still waiting for '\n'
    framer.append(at_cap.data(), at_cap.size());
    EXPECT_FALSE(framer.next(line));
    EXPECT_FALSE(framer.overflowed());
    framer.append("x", 1);
    EXPECT_FALSE(framer.next(line));
    EXPECT_TRUE(framer.overflowed());
  }
  {
    serve::LineFramer framer;  // a complete line over the cap
    framer.append(at_cap.data(), at_cap.size());
    framer.append("x\n{}\n", 5);
    EXPECT_FALSE(framer.next(line));
    EXPECT_TRUE(framer.overflowed());
    EXPECT_FALSE(framer.next(line)) << "nothing is served after an overflow";
  }
}

TEST(LineFramer, LargestBatchFitsUnderTheLineCap) {
  // kMaxBatch queries with the longest collective name and every numeric
  // field at its cap must frame as one line.
  coll::Collective longest = coll::all_collectives().front();
  for (coll::Collective c : coll::all_collectives()) {
    if (std::strlen(coll::collective_name(c)) > std::strlen(coll::collective_name(longest))) {
      longest = c;
    }
  }
  serve::Request req;
  req.op = serve::Op::Batch;
  req.topology = std::string(256, 't');
  req.queries.assign(serve::kMaxBatch,
                     bench::Scenario{longest, static_cast<int>(serve::kMaxNodes),
                                     static_cast<int>(serve::kMaxPpn),
                                     std::uint64_t{1} << 62});
  const std::string batch = serve::request_to_json(req).dump() + "\n";
  EXPECT_LT(batch.size(), serve::kMaxLineBytes);
  serve::LineFramer framer;
  std::string line;
  for (std::size_t off = 0; off < batch.size(); off += 4096) {
    framer.append(batch.data() + off, std::min<std::size_t>(4096, batch.size() - off));
  }
  ASSERT_TRUE(framer.next(line));
  EXPECT_EQ(line.size() + 1, batch.size());
}

// ---------------------------------------------------------------------------
// Daemon

class DaemonTest : public ::testing::Test {
 protected:
  DaemonTest() : core_(), daemon_(core_) {
    core_.publish({coll::Collective::Bcast, 0, "default"},
                  trained_model(coll::Collective::Bcast));
  }

  util::Json respond(const std::string& line) {
    return util::Json::parse(daemon_.handle_line(line));
  }

  serve::ServeCore core_;
  serve::Daemon daemon_;
};

TEST_F(DaemonTest, AnswersQueriesWithTheModelsAnswer) {
  const util::Json r =
      respond(R"({"op":"query","collective":"bcast","nodes":4,"ppn":8,"msg":4096})");
  ASSERT_TRUE(r.at("ok").as_bool());
  const bench::Scenario s{coll::Collective::Bcast, 4, 8, 4096};
  const auto snap = core_.store().resolve({coll::Collective::Bcast, 32, "default"});
  ASSERT_NE(snap, nullptr);
  EXPECT_EQ(r.at("algorithm").as_string(), coll::algorithm_info(snap->model.select(s)).name);
}

TEST_F(DaemonTest, MalformedLinesBecomeErrorResponsesNotCrashes) {
  for (const char* line :
       {"nonsense", "{", R"({"op":"query"})", R"({"op":"query","collective":"bcast",
        "nodes":-1,"ppn":8,"msg":4096})",
        R"({"op":"publish","path":"/nonexistent/model.json"})"}) {
    const util::Json r = respond(line);
    EXPECT_FALSE(r.at("ok").as_bool()) << line;
    EXPECT_FALSE(r.at("error").as_string().empty()) << line;
  }
  EXPECT_FALSE(daemon_.shutdown_requested());
}

TEST_F(DaemonTest, QueryForUnservedCollectiveIsAnErrorResponse) {
  const util::Json r =
      respond(R"({"op":"query","collective":"reduce","nodes":4,"ppn":8,"msg":4096})");
  EXPECT_FALSE(r.at("ok").as_bool());
}

TEST_F(DaemonTest, BatchReturnsOneResultPerQueryInOrder) {
  const util::Json r = respond(
      R"({"op":"batch","queries":[)"
      R"({"collective":"bcast","nodes":2,"ppn":4,"msg":64},)"
      R"({"collective":"bcast","nodes":8,"ppn":4,"msg":65536}]})");
  ASSERT_TRUE(r.at("ok").as_bool());
  const util::JsonArray& results = r.at("results").as_array();
  ASSERT_EQ(results.size(), 2u);
  const auto snap = core_.store().resolve({coll::Collective::Bcast, 8, "default"});
  EXPECT_EQ(results[0].at("algorithm").as_string(),
            coll::algorithm_info(snap->model.select({coll::Collective::Bcast, 2, 4, 64})).name);
  EXPECT_EQ(
      results[1].at("algorithm").as_string(),
      coll::algorithm_info(snap->model.select({coll::Collective::Bcast, 8, 4, 65536})).name);
}

TEST_F(DaemonTest, StatsReportsCacheCounters) {
  respond(R"({"op":"query","collective":"bcast","nodes":4,"ppn":8,"msg":4096})");
  respond(R"({"op":"query","collective":"bcast","nodes":4,"ppn":8,"msg":4096})");
  const util::Json r = respond(R"({"op":"stats"})");
  ASSERT_TRUE(r.at("ok").as_bool());
  EXPECT_EQ(r.at("models").as_number(), 1.0);
  EXPECT_GE(r.at("cache_hits").as_number(), 1.0);
  EXPECT_GE(r.at("cache_misses").as_number(), 1.0);
}

TEST_F(DaemonTest, StatsExposesTheMetricsRegistry) {
  respond(R"({"op":"query","collective":"bcast","nodes":4,"ppn":8,"msg":4096})");
  const util::Json r = respond(R"({"op":"stats"})");
  ASSERT_TRUE(r.at("ok").as_bool());
  const util::Json& metrics = r.at("metrics");
  EXPECT_GE(metrics.at("histograms").at("serve.query_us").at("count").as_number(), 1.0);
  EXPECT_TRUE(metrics.at("gauges").contains("threadpool.threads"));
  EXPECT_TRUE(r.contains("cache_capacity"));
}

TEST(Daemon, StatsReportsTheExactCacheCapacity) {
  serve::ServeConfig cfg;
  cfg.cache_capacity = 1;  // what `acclaim serve --cache-capacity 1` sets
  serve::ServeCore core(cfg);
  serve::Daemon daemon(core);
  const util::Json r = util::Json::parse(daemon.handle_line(R"({"op":"stats"})"));
  ASSERT_TRUE(r.at("ok").as_bool());
  EXPECT_EQ(r.at("cache_capacity").as_number(), 1.0);
}

TEST_F(DaemonTest, UnixSocketRefusesToClobberARegularFile) {
  const std::string path = ::testing::TempDir() + "acclaimd_not_a_socket";
  {
    std::ofstream f(path);
    f << "precious data\n";
  }
  EXPECT_THROW(daemon_.serve_unix_socket(path), IoError);
  // The file survives the refused bind.
  std::ifstream back(path);
  std::string word;
  back >> word;
  EXPECT_EQ(word, "precious");
  std::remove(path.c_str());
}

TEST_F(DaemonTest, ServeStreamHandlesLinesUntilShutdown) {
  std::istringstream in(
      "{\"op\":\"ping\"}\n"
      "not json at all\n"
      "{\"op\":\"shutdown\"}\n"
      "{\"op\":\"ping\"}\n");  // never reached: shutdown stops the loop
  std::ostringstream out;
  const std::uint64_t handled = daemon_.serve_stream(in, out);
  EXPECT_EQ(handled, 3u);
  EXPECT_TRUE(daemon_.shutdown_requested());
  std::istringstream lines(out.str());
  std::string line;
  ASSERT_TRUE(std::getline(lines, line));
  EXPECT_TRUE(util::Json::parse(line).at("ok").as_bool());
  ASSERT_TRUE(std::getline(lines, line));
  EXPECT_FALSE(util::Json::parse(line).at("ok").as_bool());
  ASSERT_TRUE(std::getline(lines, line));
  EXPECT_TRUE(util::Json::parse(line).at("ok").as_bool());
  EXPECT_FALSE(std::getline(lines, line));
}

TEST_F(DaemonTest, ServeStreamAnswersAnOversizedLineOnceAndStops) {
  std::istringstream in(std::string(serve::kMaxLineBytes + 1, 'x') + "\n{\"op\":\"ping\"}\n");
  std::ostringstream out;
  EXPECT_EQ(daemon_.serve_stream(in, out), 0u);
  std::istringstream lines(out.str());
  std::string line;
  ASSERT_TRUE(std::getline(lines, line));
  const util::Json r = util::Json::parse(line);
  EXPECT_FALSE(r.at("ok").as_bool());
  EXPECT_NE(r.at("error").as_string().find("exceeds"), std::string::npos);
  EXPECT_FALSE(std::getline(lines, line)) << "the stream must close after the oversized line";
}

TEST_F(DaemonTest, ServeStreamHandlesAFinalUnterminatedLine) {
  std::istringstream in("{\"op\":\"ping\"}\n{\"op\":\"stats\"}");
  std::ostringstream out;
  EXPECT_EQ(daemon_.serve_stream(in, out), 2u);
}

/// A raw client connection whose sends and receives give up after 5 s, so
/// a daemon that never answers fails the test instead of hanging it.
/// Returns -1 when the connection is refused.
int connect_with_timeouts(const std::string& path) {
  const int fd = ::socket(AF_UNIX, SOCK_STREAM, 0);
  if (fd < 0) {
    return -1;
  }
  timeval timeout{};
  timeout.tv_sec = 5;
  ::setsockopt(fd, SOL_SOCKET, SO_RCVTIMEO, &timeout, sizeof(timeout));
  ::setsockopt(fd, SOL_SOCKET, SO_SNDTIMEO, &timeout, sizeof(timeout));
  sockaddr_un addr{};
  addr.sun_family = AF_UNIX;
  std::strncpy(addr.sun_path, path.c_str(), sizeof(addr.sun_path) - 1);
  if (::connect(fd, reinterpret_cast<const sockaddr*>(&addr), sizeof(addr)) != 0) {
    ::close(fd);
    return -1;
  }
  return fd;
}

/// Serves a daemon on a unix socket from a background thread for one
/// test, and shuts it down through a fresh connection when the scope ends.
class SocketDaemon {
 public:
  SocketDaemon(serve::Daemon& daemon, std::string path) : path_(std::move(path)) {
    thread_ = std::thread([&daemon, this] {
      try {
        daemon.serve_unix_socket(path_);
      } catch (const std::exception& e) {
        ADD_FAILURE() << "acclaimd exited: " << e.what();
      }
    });
    for (int attempt = 0; attempt < 500; ++attempt) {
      const int fd = connect_with_timeouts(path_);
      if (fd >= 0) {
        ::close(fd);
        return;
      }
      std::this_thread::sleep_for(std::chrono::milliseconds(10));
    }
  }
  ~SocketDaemon() {
    try {
      serve::unix_socket_request(path_, R"({"op":"shutdown"})");
      // Already exited; join() returns at once. acclaim-lint: allow(hyg-catch-log)
    } catch (const IoError&) {
    }
    thread_.join();
  }
  SocketDaemon(const SocketDaemon&) = delete;
  SocketDaemon& operator=(const SocketDaemon&) = delete;

 private:
  std::string path_;
  std::thread thread_;
};

TEST_F(DaemonTest, UnixSocketIsOwnerOnly) {
  const std::string path =
      ::testing::TempDir() + "acclaimd_mode_" + std::to_string(::getpid()) + ".sock";
  SocketDaemon running(daemon_, path);
  struct stat st{};
  ASSERT_EQ(::stat(path.c_str(), &st), 0) << std::strerror(errno);
  EXPECT_TRUE(S_ISSOCK(st.st_mode));
  EXPECT_EQ(st.st_mode & 0777, 0600u);
}

TEST_F(DaemonTest, UnixSocketSurvivesAClientThatHangsUpWithoutReading) {
  const std::string path =
      ::testing::TempDir() + "acclaimd_hangup_" + std::to_string(::getpid()) + ".sock";
  SocketDaemon running(daemon_, path);
  const int fd = connect_with_timeouts(path);
  ASSERT_GE(fd, 0) << std::strerror(errno);
  // Many requests in one send, then close with every reply unread: the
  // daemon's later replies hit a closed peer.
  std::string pings;
  for (int i = 0; i < 2000; ++i) {
    pings += "{\"op\":\"ping\"}\n";
  }
  for (std::size_t off = 0; off < pings.size();) {
    const ssize_t n = ::send(fd, pings.data() + off, pings.size() - off, MSG_NOSIGNAL);
    ASSERT_GT(n, 0) << std::strerror(errno);
    off += static_cast<std::size_t>(n);
  }
  ::close(fd);
  // A second connection is still answered.
  EXPECT_TRUE(
      util::Json::parse(serve::unix_socket_request(path, R"({"op":"ping"})")).at("ok").as_bool());
}

TEST_F(DaemonTest, UnixSocketAnswersAnOversizedLineOnceAndCloses) {
  const std::string path =
      ::testing::TempDir() + "acclaimd_framing_" + std::to_string(::getpid()) + ".sock";
  SocketDaemon running(daemon_, path);
  const int fd = connect_with_timeouts(path);
  ASSERT_GE(fd, 0) << std::strerror(errno);

  // A newline-free flood past the cap. The daemon stops reading at the cap
  // and closes, so the tail of this send may fail; only the reply matters.
  const std::string flood(serve::kMaxLineBytes + 64 * 1024, 'x');
  for (std::size_t off = 0; off < flood.size();) {
    const ssize_t n = ::send(fd, flood.data() + off, flood.size() - off, MSG_NOSIGNAL);
    if (n <= 0) {
      break;
    }
    off += static_cast<std::size_t>(n);
  }
  std::string reply;
  char chunk[4096];
  ssize_t n = 0;
  while ((n = ::recv(fd, chunk, sizeof(chunk), 0)) > 0) {
    reply.append(chunk, static_cast<std::size_t>(n));
  }
  // End of stream, or a reset because the daemon closed with the flood
  // unread; a receive timeout means the daemon never hung up.
  const bool closed = n == 0 || (errno != EAGAIN && errno != EWOULDBLOCK);
  ::close(fd);

  ASSERT_FALSE(reply.empty()) << "no reply within the receive timeout";
  ASSERT_EQ(reply.find('\n'), reply.size() - 1) << "expected exactly one response line";
  const util::Json r = util::Json::parse(reply.substr(0, reply.size() - 1));
  EXPECT_FALSE(r.at("ok").as_bool());
  EXPECT_NE(r.at("error").as_string().find("exceeds"), std::string::npos);
  EXPECT_TRUE(closed) << "the daemon must close the connection after the error";
  // The daemon itself keeps serving new connections.
  EXPECT_TRUE(
      util::Json::parse(serve::unix_socket_request(path, R"({"op":"ping"})")).at("ok").as_bool());
}

}  // namespace
