// Copyright 2026 The PLDP Authors.
//
// Tests for the sharded parallel streaming runtime.
//
// The central property: for keyed synthetic streams — streams in which
// every pattern match is subject-local, the paper's setting — a
// ParallelStreamingEngine with N shards produces exactly the same
// per-query detection multiset as one sequential StreamingCepEngine,
// for every N. The test builds such streams by giving each subject a
// private event-type alphabet, so no match can span subjects.

#include "runtime/parallel_engine.h"

#include <gtest/gtest.h>

#include <atomic>
#include <cstdint>
#include <memory>
#include <thread>
#include <vector>

#include "cep/streaming_engine.h"
#include "common/random.h"
#include "runtime/router.h"
#include "stream/event_stream.h"
#include "stream/replay.h"

namespace pldp {
namespace {

constexpr size_t kTypesPerSubject = 3;

Pattern MakePattern(const char* name, std::vector<EventTypeId> elems,
                    DetectionMode mode) {
  return Pattern::Create(name, std::move(elems), mode).value();
}

/// A keyed synthetic stream: `subjects` data subjects interleaved on a
/// global clock; subject k only ever emits types
/// {k*kTypesPerSubject .. k*kTypesPerSubject + kTypesPerSubject - 1}, so
/// pattern matches over those alphabets are subject-local by construction.
EventStream KeyedStream(size_t subjects, size_t num_events, uint64_t seed) {
  Rng rng(seed);
  EventStream stream;
  stream.Reserve(num_events);
  for (size_t i = 0; i < num_events; ++i) {
    const auto subject = static_cast<StreamId>(rng.UniformUint64(subjects));
    const auto type = static_cast<EventTypeId>(
        subject * kTypesPerSubject + rng.UniformUint64(kTypesPerSubject));
    // Global clock advances every few events; subjects interleave within
    // and across ticks.
    stream.AppendUnchecked(
        Event(type, static_cast<Timestamp>(i / 4), subject));
  }
  return stream;
}

/// Registers, per subject, one sequence and one conjunction query over the
/// subject's alphabet on `engine` (works for both engine types).
template <typename EngineT>
void RegisterKeyedQueries(EngineT& engine, size_t subjects,
                          Timestamp window) {
  for (size_t k = 0; k < subjects; ++k) {
    const auto base = static_cast<EventTypeId>(k * kTypesPerSubject);
    ASSERT_TRUE(engine
                    .AddQuery(MakePattern("seq", {base, base + 1, base + 2},
                                          DetectionMode::kSequence),
                              window)
                    .ok());
    ASSERT_TRUE(engine
                    .AddQuery(MakePattern("conj", {base + 2, base},
                                          DetectionMode::kConjunction),
                              window)
                    .ok());
  }
}

TEST(EventRouterTest, DeterministicAndInRange) {
  EventRouter router(4);
  for (uint64_t key = 0; key < 1000; ++key) {
    const size_t shard = router.ShardOfKey(key);
    EXPECT_LT(shard, 4u);
    EXPECT_EQ(shard, router.ShardOfKey(key));  // stable
  }
  // All events of one subject route to one shard.
  Event a(0, 10, 7);
  Event b(5, 99, 7);
  EXPECT_EQ(router.ShardOf(a), router.ShardOf(b));
}

TEST(EventRouterTest, SpreadsDenseKeys) {
  EventRouter router(8);
  std::vector<size_t> hits(8, 0);
  for (uint64_t key = 0; key < 8000; ++key) ++hits[router.ShardOfKey(key)];
  for (size_t shard = 0; shard < 8; ++shard) {
    // Perfectly uniform would be 1000 per shard; accept a generous band.
    EXPECT_GT(hits[shard], 700u) << "shard " << shard;
    EXPECT_LT(hits[shard], 1300u) << "shard " << shard;
  }
}

TEST(EventRouterTest, CustomKeyFunction) {
  EventRouter router(4, [](const Event& e) {
    return static_cast<uint64_t>(e.type());  // partition by type instead
  });
  Event a(3, 0, 1);
  Event b(3, 50, 2);  // different subject, same type
  EXPECT_EQ(router.ShardOf(a), router.ShardOf(b));
}

TEST(ParallelEngineTest, LifecycleErrors) {
  ParallelEngineOptions options;
  options.shard_count = 2;
  ParallelStreamingEngine engine(options);
  // OnEvent before Start is refused.
  EXPECT_FALSE(engine.OnEvent(Event(0, 0)).ok());
  ASSERT_TRUE(engine
                  .AddQuery(MakePattern("p", {0, 1}, DetectionMode::kSequence),
                            10)
                  .ok());
  ASSERT_TRUE(engine.Start().ok());
  // AddQuery after Start is refused.
  EXPECT_FALSE(engine
                   .AddQuery(MakePattern("q", {2}, DetectionMode::kSequence),
                             10)
                   .ok());
  EXPECT_TRUE(engine.Stop().ok());
  EXPECT_TRUE(engine.Stop().ok());  // idempotent
}

TEST(ParallelEngineTest, EquivalentToSequentialEngineOnKeyedStreams) {
  constexpr size_t kSubjects = 16;
  constexpr Timestamp kWindow = 6;
  const EventStream stream = KeyedStream(kSubjects, 20000, /*seed=*/7);

  // Sequential reference.
  StreamingCepEngine reference;
  RegisterKeyedQueries(reference, kSubjects, kWindow);
  StreamReplayer replayer;
  replayer.Subscribe(&reference);
  ASSERT_TRUE(replayer.Run(stream).ok());
  ASSERT_GT(reference.total_detections(), 0u)
      << "degenerate test: the reference detected nothing";

  for (size_t shards : {1u, 2u, 3u, 4u, 8u}) {
    ParallelEngineOptions options;
    options.shard_count = shards;
    options.queue_capacity = 64;  // small: exercise backpressure
    ParallelStreamingEngine parallel(options);
    RegisterKeyedQueries(parallel, kSubjects, kWindow);
    ASSERT_TRUE(parallel.Start().ok());

    StreamReplayer parallel_replayer;
    parallel_replayer.Subscribe(&parallel);
    // Run ends with OnEnd → Drain, so results are consistent here.
    ASSERT_TRUE(parallel_replayer.Run(stream).ok());

    EXPECT_EQ(parallel.events_processed(), stream.size());
    EXPECT_EQ(parallel.total_detections(), reference.total_detections())
        << "shards=" << shards;
    for (size_t q = 0; q < parallel.query_count(); ++q) {
      EXPECT_EQ(parallel.DetectionsOf(q).value(),
                reference.DetectionsOf(q).value())
          << "shards=" << shards << " query=" << q;
    }
    ASSERT_TRUE(parallel.Stop().ok());
  }
}

// Regression (ISSUE 2): StreamReplayer::Run ends with OnEnd, which must
// drain the shard queues — otherwise results read right after Run() can
// silently miss events still in flight. With the OnEnd → Drain override
// removed, the worker lags the router and the processed-count check below
// fails with overwhelming probability.
TEST(ParallelEngineTest, OnEndDrainsBeforeResultsAreRead) {
  constexpr size_t kSubjects = 4;
  const EventStream stream = KeyedStream(kSubjects, 50000, /*seed=*/11);

  ParallelEngineOptions options;
  options.shard_count = 2;
  options.queue_capacity = 65536;  // roomy: the router never has to wait
  ParallelStreamingEngine engine(options);
  RegisterKeyedQueries(engine, kSubjects, /*window=*/6);
  ASSERT_TRUE(engine.Start().ok());

  StreamReplayer replayer;
  replayer.Subscribe(&engine);
  ASSERT_TRUE(replayer.Run(stream).ok());

  // No explicit Drain(): Run's OnEnd must have done it.
  size_t processed = 0;
  for (const ShardStats& s : engine.ShardStatsSnapshot()) {
    processed += s.events_processed;
  }
  EXPECT_EQ(processed, stream.size());
  ASSERT_TRUE(engine.Stop().ok());
}

// Regression (ISSUE 2): Drain()/stats() from a thread other than the pusher
// raced on the non-atomic pushed_/backpressure_waits_ counters. They are
// atomics now; this test runs a dedicated producer thread while the main
// thread drains and snapshots stats concurrently, so the TSan CI job pins
// the fix.
TEST(ParallelEngineTest, DrainAndStatsFromSecondThread) {
  constexpr size_t kSubjects = 8;
  const EventStream stream = KeyedStream(kSubjects, 20000, /*seed=*/5);

  ParallelEngineOptions options;
  options.shard_count = 2;
  options.queue_capacity = 64;  // small: force backpressure waits
  ParallelStreamingEngine engine(options);
  RegisterKeyedQueries(engine, kSubjects, /*window=*/6);
  ASSERT_TRUE(engine.Start().ok());

  std::atomic<bool> done{false};
  std::atomic<bool> push_failed{false};
  std::thread producer([&] {
    // Always set `done` on exit, even on a push error — otherwise the main
    // thread's poll loop below would hang instead of failing the test.
    for (const Event& e : stream) {
      if (!engine.OnEvent(e).ok()) {
        push_failed.store(true, std::memory_order_relaxed);
        break;
      }
    }
    done.store(true, std::memory_order_release);
  });

  // Concurrent drains and stat snapshots from this (non-pusher) thread.
  while (!done.load(std::memory_order_acquire)) {
    ASSERT_TRUE(engine.Drain().ok());
    size_t seen = 0;
    for (const ShardStats& s : engine.ShardStatsSnapshot()) {
      seen += s.events_processed + s.backpressure_waits;
    }
    EXPECT_LE(seen, stream.size() * 2);  // monotone, never garbage
  }
  producer.join();
  ASSERT_FALSE(push_failed.load(std::memory_order_relaxed));

  ASSERT_TRUE(engine.Drain().ok());
  size_t processed = 0;
  for (const ShardStats& s : engine.ShardStatsSnapshot()) {
    processed += s.events_processed;
  }
  EXPECT_EQ(processed, stream.size());
  ASSERT_TRUE(engine.Stop().ok());
}

TEST(ParallelEngineTest, ShardStatsAccountForEveryEvent) {
  constexpr size_t kSubjects = 8;
  const EventStream stream = KeyedStream(kSubjects, 5000, /*seed=*/21);

  ParallelEngineOptions options;
  options.shard_count = 4;
  options.queue_capacity = 32;
  ParallelStreamingEngine engine(options);
  RegisterKeyedQueries(engine, kSubjects, /*window=*/6);
  ASSERT_TRUE(engine.Start().ok());
  for (const Event& e : stream) ASSERT_TRUE(engine.OnEvent(e).ok());
  ASSERT_TRUE(engine.Drain().ok());

  size_t total_events = 0;
  size_t total_detections = 0;
  const std::vector<ShardStats> stats = engine.ShardStatsSnapshot();
  ASSERT_EQ(stats.size(), 4u);
  for (const ShardStats& s : stats) {
    total_events += s.events_processed;
    total_detections += s.detections;
  }
  EXPECT_EQ(total_events, stream.size());
  EXPECT_EQ(total_detections, engine.total_detections());
  ASSERT_TRUE(engine.Stop().ok());
}

TEST(ShardTest, PushAfterStopFailsFastInsteadOfSpinning) {
  Shard shard(/*index=*/0, /*queue_capacity=*/16);
  ASSERT_TRUE(shard.AddQuery(MakePattern("p", {0, 1},
                                         DetectionMode::kSequence),
                             /*window=*/10)
                  .ok());
  ASSERT_TRUE(shard.Start().ok());
  StampedEvent first{0, Event(0, 1)};
  ASSERT_TRUE(shard.PushStampedN(&first, 1).ok());
  ASSERT_TRUE(shard.Stop().ok());
  // If this spun on the dead worker's full queue the test would time out;
  // the contract is an immediate FailedPrecondition.
  StampedEvent late{1, Event(1, 2)};
  EXPECT_FALSE(shard.PushStampedN(&late, 1).ok());
  StampedEvent batch[2] = {{2, Event(0, 3)}, {3, Event(1, 4)}};
  EXPECT_FALSE(shard.PushStampedN(batch, 2).ok());
  EXPECT_EQ(shard.stats().events_processed, 1u);
}

TEST(ShardTest, BulkPushDeliversEverythingInOrder) {
  Shard shard(/*index=*/0, /*queue_capacity=*/8);
  ASSERT_TRUE(shard.AddQuery(MakePattern("p", {0, 1},
                                         DetectionMode::kSequence),
                             /*window=*/10)
                  .ok());
  ASSERT_TRUE(shard.Start().ok());
  // Larger than the queue: PushStampedN must chunk through backpressure.
  std::vector<StampedEvent> events;
  for (int i = 0; i < 1000; ++i) {
    events.push_back({static_cast<uint64_t>(i),
                      Event(static_cast<EventTypeId>(i % 2),
                            static_cast<Timestamp>(i))});
  }
  ASSERT_TRUE(shard.PushStampedN(events.data(), events.size()).ok());
  ASSERT_TRUE(shard.Drain().ok());
  EXPECT_EQ(shard.stats().events_processed, 1000u);
  // Alternating 0,1 within window 10 → the sequence completes repeatedly;
  // exact multiplicity is the matcher's business, but it must detect.
  EXPECT_GT(shard.stats().detections, 0u);
  EXPECT_EQ(shard.stats().detections, shard.engine().total_detections());
  ASSERT_TRUE(shard.Stop().ok());
}

/// Swallows every event: a stand-in for the private lane's publisher sink
/// that never emits anything itself.
class NoopSink : public ShardEventSink {
 public:
  void OnShardEvent(const Event& /*event*/) override {}
};

/// Runs `n` events through a shard wired to one exchange lane, with or
/// without a sink, and returns how many raw events reached the lane (every
/// lane item is an event). `stats` receives the shard's counters.
size_t RawEventsOnLane(bool with_sink, size_t n, ShardStats* stats) {
  ExchangeFabric fabric(1, 1, /*lane_capacity=*/1024);
  Shard shard(/*index=*/0, /*queue_capacity=*/64);
  if (with_sink) {
    EXPECT_TRUE(shard.SetEventSink(std::make_unique<NoopSink>()).ok());
  }
  EXPECT_TRUE(shard
                  .AddExchange(std::make_unique<ExchangeEmitter>(
                      fabric.Row(0), nullptr, &fabric))
                  .ok());
  EXPECT_TRUE(shard.Start().ok());
  for (uint64_t i = 0; i < n; ++i) {
    StampedEvent stamped{i, Event(static_cast<EventTypeId>(i % 2),
                                  static_cast<Timestamp>(i), /*stream=*/1)};
    EXPECT_TRUE(shard.PushStampedN(&stamped, 1).ok());
  }
  EXPECT_TRUE(shard.Drain().ok());
  *stats = shard.stats();
  EXPECT_TRUE(shard.Stop().ok());
  // The worker is joined: this thread is now the lane's only consumer.
  size_t raw = 0;
  ExchangeItem item;
  while (fabric.lane(0, 0).queue.TryPop(item)) ++raw;
  return raw;
}

// The private lane's privacy rule holds by construction: a shard with a
// sink never forwards a raw event into its exchange, while a shard without
// one forwards every event it processes.
TEST(ShardTest, ShardWithSinkForwardsNoRawEvents) {
  ShardStats stats;
  EXPECT_EQ(RawEventsOnLane(/*with_sink=*/true, 100, &stats), 0u);
  EXPECT_EQ(stats.events_processed, 100u);
  EXPECT_EQ(stats.forwarded, 0u);

  EXPECT_EQ(RawEventsOnLane(/*with_sink=*/false, 100, &stats), 100u);
  EXPECT_EQ(stats.events_processed, 100u);
  EXPECT_EQ(stats.forwarded, 100u);
}

TEST(ParallelEngineTest, IngestionMayContinueAfterDrain) {
  ParallelEngineOptions options;
  options.shard_count = 2;
  ParallelStreamingEngine engine(options);
  ASSERT_TRUE(engine
                  .AddQuery(MakePattern("p", {0, 1}, DetectionMode::kSequence),
                            /*window=*/10)
                  .ok());
  ASSERT_TRUE(engine.Start().ok());

  ASSERT_TRUE(engine.OnEvent(Event(0, 1, /*stream=*/3)).ok());
  ASSERT_TRUE(engine.Drain().ok());
  EXPECT_EQ(engine.total_detections(), 0u);

  ASSERT_TRUE(engine.OnEvent(Event(1, 2, /*stream=*/3)).ok());
  ASSERT_TRUE(engine.Drain().ok());
  EXPECT_EQ(engine.total_detections(), 1u);
  ASSERT_TRUE(engine.Stop().ok());
}

TEST(ParallelEngineTest, UnknownQueryLookupsAreHardErrors) {
  ParallelEngineOptions options;
  options.shard_count = 2;
  options.exchange.shard_count = 1;
  ParallelStreamingEngine engine(options);
  ASSERT_TRUE(engine
                  .AddQuery(Pattern::Create("q", {0, 1},
                                            DetectionMode::kSequence)
                                .value(),
                            /*window=*/4)
                  .ok());
  ASSERT_TRUE(engine
                  .AddCrossQuery(Pattern::Create("c", {0, 1},
                                                 DetectionMode::kConjunction)
                                     .value(),
                                 /*window=*/4, "global",
                                 [](const Event&) { return uint64_t{0}; })
                  .ok());
  ASSERT_TRUE(engine.Start().ok());
  ASSERT_TRUE(engine.Drain().ok());
  // A stage-1 index past the registered count errors instead of returning
  // an empty (or, worse, another query's) result — and the message points
  // at the separate cross index space.
  EXPECT_TRUE(engine.DetectionsOf(1).status().IsOutOfRange());
  EXPECT_TRUE(engine.CrossDetectionsOf(1).status().IsOutOfRange());
  EXPECT_TRUE(engine.DetectionsOf(0).ok());
  EXPECT_TRUE(engine.CrossDetectionsOf(0).ok());
  ASSERT_TRUE(engine.Stop().ok());
}

TEST(ParallelEngineTest, DeterministicAcrossRuns) {
  constexpr size_t kSubjects = 8;
  const EventStream stream = KeyedStream(kSubjects, 8000, /*seed=*/3);

  std::vector<std::vector<Timestamp>> first;
  for (int run = 0; run < 2; ++run) {
    ParallelEngineOptions options;
    options.shard_count = 4;
    ParallelStreamingEngine engine(options);
    RegisterKeyedQueries(engine, kSubjects, /*window=*/6);
    ASSERT_TRUE(engine.Start().ok());
    for (const Event& e : stream) ASSERT_TRUE(engine.OnEvent(e).ok());
    ASSERT_TRUE(engine.Stop().ok());

    std::vector<std::vector<Timestamp>> detections;
    for (size_t q = 0; q < engine.query_count(); ++q) {
      detections.push_back(engine.DetectionsOf(q).value());
    }
    if (run == 0) {
      first = std::move(detections);
    } else {
      EXPECT_EQ(detections, first);
    }
  }
}

}  // namespace
}  // namespace pldp
