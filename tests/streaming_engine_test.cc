// Copyright 2026 The PLDP Authors.
//
// Tests for the online CEP engine, including the equivalence property
// against the window-batch path on tumbling windows and the event-type
// index against a brute-force loop over every matcher.

#include "cep/streaming_engine.h"

#include <gtest/gtest.h>

#include <memory>
#include <set>
#include <utility>
#include <vector>

#include "cep/engine.h"
#include "cep/matcher.h"
#include "common/random.h"
#include "stream/window.h"

namespace pldp {
namespace {

Pattern Seq(std::vector<EventTypeId> elems) {
  return Pattern::Create("seq", std::move(elems), DetectionMode::kSequence)
      .value();
}

TEST(StreamingEngineTest, AddQueryValidates) {
  StreamingCepEngine engine;
  EXPECT_EQ(engine.AddQuery(Seq({0, 1}), 10).value(), 0u);
  EXPECT_EQ(engine.AddQuery(Seq({2}), 10).value(), 1u);
  EXPECT_EQ(engine.query_count(), 2u);
}

TEST(StreamingEngineTest, DetectsAndCounts) {
  StreamingCepEngine engine;
  size_t q = engine.AddQuery(Seq({0, 1}), 10).value();
  ASSERT_TRUE(engine.OnEvent(Event(0, 1)).ok());
  ASSERT_TRUE(engine.OnEvent(Event(1, 3)).ok());
  ASSERT_TRUE(engine.OnEvent(Event(2, 4)).ok());
  EXPECT_EQ(engine.events_processed(), 3u);
  EXPECT_EQ(engine.total_detections(), 1u);
  auto det = engine.DetectionsOf(q).value();
  ASSERT_EQ(det.size(), 1u);
  EXPECT_EQ(det[0], 3);
}

TEST(StreamingEngineTest, DetectionsOfValidatesIndex) {
  StreamingCepEngine engine;
  EXPECT_TRUE(engine.DetectionsOf(0).status().IsOutOfRange());
}

TEST(StreamingEngineTest, CallbackFiresPerDetection) {
  StreamingCepEngine engine;
  engine.AddQuery(Seq({0}), 0).value();
  engine.AddQuery(Seq({0, 0}), 0).value();
  std::vector<StreamingDetection> seen;
  engine.SetCallback(
      [&seen](const StreamingDetection& d) { seen.push_back(d); });
  engine.OnEvent(Event(0, 1)).ok();  // query 0 fires
  engine.OnEvent(Event(0, 2)).ok();  // both fire
  ASSERT_EQ(seen.size(), 3u);
  EXPECT_EQ(seen[0].query_index, 0u);
  EXPECT_EQ(seen[1].query_index, 0u);
  EXPECT_EQ(seen[2].query_index, 1u);
  EXPECT_EQ(seen[2].at, 2);
}

TEST(StreamingEngineTest, ResetStateKeepsQueries) {
  StreamingCepEngine engine;
  size_t q = engine.AddQuery(Seq({0}), 0).value();
  engine.OnEvent(Event(0, 1)).ok();
  EXPECT_EQ(engine.total_detections(), 1u);
  engine.ResetState();
  EXPECT_EQ(engine.total_detections(), 0u);
  EXPECT_EQ(engine.events_processed(), 0u);
  EXPECT_EQ(engine.query_count(), 1u);
  EXPECT_TRUE(engine.DetectionsOf(q).value().empty());
}

TEST(StreamingEngineTest, WorksAsReplaySubscriber) {
  StreamingCepEngine engine;
  size_t q = engine.AddQuery(Seq({0, 1}), 100).value();
  EventStream s;
  s.AppendUnchecked(Event(0, 1));
  s.AppendUnchecked(Event(1, 5));
  s.AppendUnchecked(Event(0, 9));
  s.AppendUnchecked(Event(1, 12));
  StreamReplayer replayer;
  replayer.Subscribe(&engine);
  ASSERT_TRUE(replayer.Run(s).ok());
  EXPECT_EQ(engine.events_processed(), 4u);
  EXPECT_EQ(engine.DetectionsOf(q).value().size(), 2u);
}

/// Equivalence property: on streams whose events fall in disjoint tumbling
/// windows, the streaming engine with a window constraint equal to the
/// tumbling size detects a pattern iff some batch window contains it —
/// provided matches cannot straddle window boundaries. We enforce that by
/// giving each window its own disjoint timestamp range and a constraint
/// strictly smaller than the gap between windows.
class StreamVsBatchSweep : public ::testing::TestWithParam<uint64_t> {};

TEST_P(StreamVsBatchSweep, TumblingWindowDetectionAgrees) {
  Rng rng(GetParam());
  const size_t kTypes = 3;
  Pattern p = Seq({0, 1});

  // Build windows of 5 events at timestamps [100k, 100k+5).
  std::vector<Window> windows;
  EventStream stream;
  const size_t num_windows = 10;
  for (size_t wi = 0; wi < num_windows; ++wi) {
    Window w;
    w.start = static_cast<Timestamp>(wi * 100);
    w.end = w.start + 100;
    for (size_t j = 0; j < 5; ++j) {
      Event e(static_cast<EventTypeId>(rng.UniformUint64(kTypes)),
              w.start + static_cast<Timestamp>(j));
      w.events.push_back(e);
      stream.AppendUnchecked(e);
    }
    windows.push_back(std::move(w));
  }

  size_t batch_hits = 0;
  for (const Window& w : windows) {
    if (PatternOccursInWindow(w, p).value()) ++batch_hits;
  }

  StreamingCepEngine engine;
  size_t q = engine.AddQuery(p, /*window=*/10).value();
  for (const Event& e : stream) ASSERT_TRUE(engine.OnEvent(e).ok());

  // The streaming matcher reports every completion; count distinct batch
  // windows with at least one detection.
  auto detections = engine.DetectionsOf(q).value();
  std::set<Timestamp> hit_windows;
  for (Timestamp t : detections) hit_windows.insert(t / 100);
  EXPECT_EQ(hit_windows.size(), batch_hits) << "seed=" << GetParam();
}

INSTANTIATE_TEST_SUITE_P(RandomStreams, StreamVsBatchSweep,
                         ::testing::Range<uint64_t>(0, 30));

TEST(StreamingEngineTest, RefusesTypeIdBeyondTheIndex) {
  StreamingCepEngine engine;
  EXPECT_TRUE(engine.AddQuery(Seq({0, kInvalidEventType}), 10)
                  .status()
                  .IsInvalidArgument());
  EXPECT_EQ(engine.query_count(), 0u);
}

/// Index equivalence: the type-indexed engine must emit exactly the
/// (query_index, at) sequence of the brute-force loop that offers every
/// event to every matcher in query order. The query set overlaps on
/// purpose: type 0 is in most queries, elements repeat (SEQ(a,a,b),
/// AND(a,a)), all three modes mix, and the stream carries types no query
/// references, including one past the end of the index table.
class IndexVsBruteForceSweep : public ::testing::TestWithParam<uint64_t> {};

TEST_P(IndexVsBruteForceSweep, IdenticalDetectionSequence) {
  Rng rng(GetParam());
  constexpr EventTypeId kQueryTypes = 5;  // queries use 0..4 only
  const DetectionMode kModes[] = {DetectionMode::kSequence,
                                  DetectionMode::kConjunction,
                                  DetectionMode::kDisjunction};
  std::vector<std::pair<Pattern, Timestamp>> queries = {
      {Seq({0, 0, 1}), 8},
      {Pattern::Create("and", {0, 0}, DetectionMode::kConjunction).value(),
       4},
      {Pattern::Create("or", {2, 0}, DetectionMode::kDisjunction).value(),
       0},
      {Seq({0}), 0},
  };
  for (int i = 0; i < 12; ++i) {
    std::vector<EventTypeId> elems;
    const size_t len = 1 + rng.UniformUint64(4);
    for (size_t j = 0; j < len; ++j) {
      elems.push_back(static_cast<EventTypeId>(rng.UniformUint64(kQueryTypes)));
    }
    const DetectionMode mode = kModes[rng.UniformUint64(3)];
    const auto window = static_cast<Timestamp>(rng.UniformUint64(12));
    queries.emplace_back(Pattern::Create("q", elems, mode).value(), window);
  }

  StreamingCepEngine engine;
  std::vector<std::unique_ptr<IncrementalMatcher>> brute;
  for (const auto& [pattern, window] : queries) {
    ASSERT_TRUE(engine.AddQuery(pattern, window).ok());
    brute.push_back(MakeIncrementalMatcher(pattern, window));
  }
  std::vector<std::pair<size_t, Timestamp>> indexed;
  engine.SetCallback([&indexed](const StreamingDetection& d) {
    indexed.emplace_back(d.query_index, d.at);
  });

  std::vector<std::pair<size_t, Timestamp>> expected;
  Timestamp ts = 0;
  for (int i = 0; i < 2000; ++i) {
    ts += static_cast<Timestamp>(rng.UniformUint64(3));  // ties included
    // Types 5..7 and 1000 are referenced by no query.
    EventTypeId type = static_cast<EventTypeId>(rng.UniformUint64(8));
    if (rng.UniformUint64(50) == 0) type = 1000;
    const Event e(type, ts);
    ASSERT_TRUE(engine.OnEvent(e).ok());
    for (size_t q = 0; q < brute.size(); ++q) {
      if (brute[q]->OnEvent(e)) expected.emplace_back(q, ts);
    }
  }
  ASSERT_FALSE(expected.empty());
  EXPECT_EQ(indexed, expected) << "seed=" << GetParam();
  EXPECT_EQ(engine.total_detections(), expected.size());
  EXPECT_EQ(engine.events_processed(), 2000u);
}

INSTANTIATE_TEST_SUITE_P(RandomQuerySets, IndexVsBruteForceSweep,
                         ::testing::Range<uint64_t>(0, 20));

}  // namespace
}  // namespace pldp
