// Copyright 2026 The PLDP Authors.
//
// Fixed-seed equivalence of the private cross-subject path: cross-subject
// target queries registered on ParallelPrivateEngine are matched over the
// exchanged *protected-view* stream (presence events derived from each
// published view), and must produce — at every shard count — exactly the
// detections of a sequential reference: one SubjectViewPublisher over the
// whole stream (same seed, same per-subject mechanisms), its published
// views flattened in publication order and fed to a sequential
// StreamingCepEngine (compared as canonical sorted multisets, since view
// timestamps interleave across subjects). This pins the exchange merge
// keys end to end: normal publications ride their trigger's ingest
// sequence number, finalize-time publications ride (finish bound,
// subject) — so the merged processing order equals the sequential
// publication order, and the per-seed detection sets match exactly.

#include "core/parallel_private_engine.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <vector>

#include "core/private_engine.h"
#include "ppm/factory.h"
#include "stream/replay.h"

namespace pldp {
namespace {

constexpr Timestamp kWindowSize = 5;
constexpr Timestamp kCrossWindow = 2 * kWindowSize;
constexpr double kEpsilon = 1.0;
constexpr uint64_t kSeed = 0xfeedULL;

Pattern MakePattern(const char* name, std::vector<EventTypeId> elems,
                    DetectionMode mode) {
  return Pattern::Create(name, std::move(elems), mode).value();
}

/// Same setup phase as the per-subject equivalence test: 3 types, one
/// private pattern, two per-subject target queries.
template <typename EngineT>
void RegisterSetup(EngineT& engine) {
  const EventTypeId a = engine.InternEventType("door");
  const EventTypeId b = engine.InternEventType("motion");
  const EventTypeId c = engine.InternEventType("kettle");
  ASSERT_TRUE(engine
                  .RegisterPrivatePattern(MakePattern(
                      "private", {a, b}, DetectionMode::kConjunction))
                  .ok());
  ASSERT_TRUE(
      engine
          .RegisterTargetQuery(
              "q0", MakePattern("t0", {a, b}, DetectionMode::kConjunction))
          .ok());
  ASSERT_TRUE(
      engine
          .RegisterTargetQuery(
              "q1", MakePattern("t1", {b, c}, DetectionMode::kSequence))
          .ok());
}

/// Cross-subject queries over the protected-view stream (presence events).
std::vector<std::pair<Pattern, Timestamp>> CrossQueries() {
  return {
      {MakePattern("x_conj", {0, 2}, DetectionMode::kConjunction),
       kCrossWindow},
      {MakePattern("x_seq", {0, 1}, DetectionMode::kSequence), kCrossWindow},
      {MakePattern("x_any", {2}, DetectionMode::kDisjunction), kCrossWindow},
  };
}

/// A multi-subject stream with window-skipping timestamp jumps (mirrors
/// the per-subject equivalence test's generator).
EventStream InterleavedStream(size_t subjects, size_t num_events,
                              uint64_t seed) {
  Rng rng(seed);
  EventStream stream;
  Timestamp ts = 0;
  for (size_t i = 0; i < num_events; ++i) {
    if (rng.UniformUint64(8) == 0) {
      ts += static_cast<Timestamp>(rng.UniformUint64(3 * kWindowSize));
    } else if (rng.UniformUint64(2) == 0) {
      ++ts;
    }
    const auto subject = static_cast<StreamId>(rng.UniformUint64(subjects));
    const auto type = static_cast<EventTypeId>(rng.UniformUint64(3));
    stream.AppendUnchecked(Event(type, ts, subject));
  }
  return stream;
}

/// Sequential reference: one publisher over the whole stream, views
/// flattened to presence events in publication order, matched sequentially.
std::vector<std::vector<Timestamp>> SequentialCrossReference(
    const EventStream& stream, const std::string& mechanism) {
  PrivateCepEngine setup;
  RegisterSetup(setup);

  SubjectPublisherOptions opts;
  opts.context = setup.BuildContext(kEpsilon);
  opts.factory = NamedMechanismFactory(mechanism);
  opts.queries = setup.queries();
  opts.window_size = kWindowSize;
  opts.seed = kSeed;
  SubjectViewPublisher publisher(opts);

  std::vector<Event> protected_events;
  publisher.SetViewCallback(
      [&protected_events](StreamId subject, const Window& window,
                          const PublishedView& view) {
        for (size_t t = 0; t < view.presence.size(); ++t) {
          if (view.presence[t]) {
            protected_events.push_back(Event(static_cast<EventTypeId>(t),
                                             window.start, subject));
          }
        }
      });
  for (const Event& e : stream) publisher.Absorb(e);
  EXPECT_TRUE(publisher.Finalize().ok());

  StreamingCepEngine engine;
  for (auto& [pattern, window] : CrossQueries()) {
    EXPECT_TRUE(engine.AddQuery(pattern, window).ok());
  }
  for (const Event& e : protected_events) {
    EXPECT_TRUE(engine.OnEvent(e).ok());
  }
  std::vector<std::vector<Timestamp>> detections;
  for (size_t q = 0; q < engine.query_count(); ++q) {
    detections.push_back(engine.DetectionsOf(q).value());
    // The view stream is only per-subject ordered (windows close on
    // subject-local triggers), so detection timestamps interleave; compare
    // in the canonical sorted-multiset form CrossDetectionsOf returns.
    std::sort(detections.back().begin(), detections.back().end());
  }
  return detections;
}

TEST(ParallelPrivateCrossTest, FixedSeedEquivalenceAtEveryShardCount) {
  constexpr size_t kSubjects = 9;
  const EventStream stream = InterleavedStream(kSubjects, 6000, /*seed=*/31);
  const auto reference = SequentialCrossReference(stream, "uniform");
  size_t reference_total = 0;
  for (const auto& d : reference) reference_total += d.size();
  ASSERT_GT(reference_total, 0u)
      << "degenerate test: the reference detected nothing";

  // Reorder capacity 0 is the default budget; 1 starves every lane of
  // credits, so finalize-time views (primary finish_seq + subject) cross
  // the exchange one at a time on the credit slow path.
  for (size_t reorder_capacity : {0u, 1u}) {
    for (size_t shards : {1u, 2u, 4u}) {
      ParallelPrivateOptions options;
      options.shard_count = shards;
      options.window_size = kWindowSize;
      options.seed = kSeed;
      // Global correlation key: all protected views meet on one merge
      // shard, the always-sound default for multi-type cross patterns.
      options.exchange.shard_count = shards;
      options.exchange.reorder_capacity = reorder_capacity;
      ParallelPrivateEngine parallel(options);
      RegisterSetup(parallel);
      for (auto& [pattern, window] : CrossQueries()) {
        ASSERT_TRUE(parallel
                        .RegisterCrossTargetQuery(pattern.name(), pattern,
                                                  window)
                        .ok());
      }
      ASSERT_TRUE(
          parallel.Activate(NamedMechanismFactory("uniform"), kEpsilon).ok());

      StreamReplayer replayer;
      replayer.Subscribe(&parallel);
      // Run's OnEnd finishes the service phase: worker-side Finalize
      // forwards the last views through the exchange before the terminal
      // frontier.
      ASSERT_TRUE(replayer.Run(stream, ReplayMode::kBatchPerTick).ok());

      ASSERT_EQ(parallel.cross_query_count(), reference.size());
      for (size_t q = 0; q < reference.size(); ++q) {
        EXPECT_EQ(parallel.CrossDetectionsOf(q).value(), reference[q])
            << "shards=" << shards << " reorder_capacity=" << reorder_capacity
            << " cross query=" << q;
      }
      EXPECT_EQ(parallel.total_cross_detections(), reference_total)
          << "shards=" << shards << " reorder_capacity=" << reorder_capacity;
      ASSERT_TRUE(parallel.Stop().ok());
    }
  }
}

TEST(ParallelPrivateCrossTest, PerSubjectAnswersUnaffectedByExchange) {
  constexpr size_t kSubjects = 6;
  const EventStream stream = InterleavedStream(kSubjects, 3000, /*seed=*/53);

  // One engine with the exchange, one without; the per-subject protected
  // answers must be identical (the exchange only observes, never perturbs).
  std::vector<std::vector<std::vector<bool>>> answers(2);
  for (int with_cross = 0; with_cross < 2; ++with_cross) {
    ParallelPrivateOptions options;
    options.shard_count = 2;
    options.window_size = kWindowSize;
    options.seed = kSeed;
    ParallelPrivateEngine engine(options);
    RegisterSetup(engine);
    if (with_cross == 1) {
      for (auto& [pattern, window] : CrossQueries()) {
        ASSERT_TRUE(
            engine.RegisterCrossTargetQuery(pattern.name(), pattern, window)
                .ok());
      }
    }
    ASSERT_TRUE(
        engine.Activate(NamedMechanismFactory("uniform"), kEpsilon).ok());
    StreamReplayer replayer;
    replayer.Subscribe(&engine);
    ASSERT_TRUE(replayer.Run(stream, ReplayMode::kBatchPerTick).ok());

    for (StreamId subject : engine.SubjectIds()) {
      StatusOr<SubjectResults> results = engine.ResultsFor(subject);
      ASSERT_TRUE(results.ok());
      for (const AnswerSeries& series : results.value().answers) {
        answers[with_cross].push_back(series.answers());
      }
    }
    ASSERT_TRUE(engine.Stop().ok());
  }
  EXPECT_EQ(answers[0], answers[1]);
}

TEST(ParallelPrivateCrossTest, EmptyStreamAndLifecycle) {
  ParallelPrivateOptions options;
  options.shard_count = 2;
  options.window_size = kWindowSize;
  options.seed = kSeed;
  ParallelPrivateEngine engine(options);
  RegisterSetup(engine);
  for (auto& [pattern, window] : CrossQueries()) {
    ASSERT_TRUE(
        engine.RegisterCrossTargetQuery(pattern.name(), pattern, window)
            .ok());
  }
  // Cross registration after Activate is refused.
  ASSERT_TRUE(
      engine.Activate(NamedMechanismFactory("uniform"), kEpsilon).ok());
  EXPECT_FALSE(engine
                   .RegisterCrossTargetQuery(
                       "late", MakePattern("late", {0},
                                           DetectionMode::kDisjunction),
                       kCrossWindow)
                   .ok());
  // Cross results are gated on Finish.
  EXPECT_FALSE(engine.CrossDetectionsOf(0).ok());
  ASSERT_TRUE(engine.Finish().ok());
  ASSERT_TRUE(engine.Finish().ok());  // idempotent
  for (size_t q = 0; q < engine.cross_query_count(); ++q) {
    EXPECT_TRUE(engine.CrossDetectionsOf(q).value().empty());
  }
  EXPECT_EQ(engine.total_cross_detections(), 0u);
  EXPECT_EQ(engine.CrossShardStatsSnapshot().size(), 2u);
  ASSERT_TRUE(engine.Stop().ok());
}

}  // namespace
}  // namespace pldp
