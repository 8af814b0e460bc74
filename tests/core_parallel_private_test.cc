// Copyright 2026 The PLDP Authors.
//
// Fixed-seed equivalence of the sharded service phase: ParallelPrivateEngine
// must produce, for every data subject and every shard count, exactly the
// protected answers a sequential PrivateCepEngine produces on that
// subject's substream with the same per-subject seed (SubjectSeed) and the
// same mechanism configuration. Perturbation happens shard-locally, so this
// pins both the per-subject windowing state machine and the deterministic
// per-subject Rng derivation.

#include "core/parallel_private_engine.h"

#include <gtest/gtest.h>

#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "core/private_engine.h"
#include "datasets/taxi.h"
#include "ppm/factory.h"
#include "stream/replay.h"
#include "stream/window.h"

namespace pldp {
namespace {

constexpr Timestamp kWindowSize = 5;
constexpr double kEpsilon = 1.0;
constexpr uint64_t kSeed = 0xfeedULL;

Pattern MakePattern(const char* name, std::vector<EventTypeId> elems,
                    DetectionMode mode) {
  return Pattern::Create(name, std::move(elems), mode).value();
}

/// Registers the same setup phase on any engine with the PrivateCepEngine
/// registration surface: 3 types, one private pattern, two target queries.
template <typename EngineT>
void RegisterSetup(EngineT& engine) {
  const EventTypeId a = engine.InternEventType("door");
  const EventTypeId b = engine.InternEventType("motion");
  const EventTypeId c = engine.InternEventType("kettle");
  ASSERT_TRUE(engine
                  .RegisterPrivatePattern(MakePattern(
                      "private", {a, b}, DetectionMode::kConjunction))
                  .ok());
  ASSERT_TRUE(engine
                  .RegisterTargetQuery("q0", MakePattern("t0", {a, b},
                                                         DetectionMode::kConjunction))
                  .ok());
  ASSERT_TRUE(engine
                  .RegisterTargetQuery("q1", MakePattern("t1", {b, c},
                                                         DetectionMode::kSequence))
                  .ok());
}

/// A multi-subject stream over a shared 3-type alphabet, with timestamp
/// jumps so subjects skip whole windows (empty windows must be published).
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

/// The subject's substream, in order.
EventStream SubstreamOf(const EventStream& stream, StreamId subject) {
  EventStream sub;
  for (const Event& e : stream) {
    if (e.stream() == subject) sub.AppendUnchecked(e);
  }
  return sub;
}

/// Sequential reference: per-subject PrivateCepEngine runs with the
/// per-subject seed the sharded engine derives internally.
std::map<StreamId, PrivateQueryResults> SequentialReference(
    const EventStream& stream, size_t subjects, const std::string& mechanism) {
  std::map<StreamId, PrivateQueryResults> reference;
  for (StreamId subject = 0; subject < subjects; ++subject) {
    const EventStream sub = SubstreamOf(stream, subject);
    if (sub.empty()) continue;
    PrivateCepEngine seq;
    RegisterSetup(seq);
    EXPECT_TRUE(
        seq.Activate(MakeMechanism(mechanism).value(), kEpsilon).ok());
    Rng rng(SubjectSeed(kSeed, subject));
    auto results =
        seq.ProcessStream(sub, TumblingWindower(kWindowSize), &rng);
    EXPECT_TRUE(results.ok());
    reference.emplace(subject, std::move(results).value());
  }
  return reference;
}

void ExpectMatchesReference(
    const ParallelPrivateEngine& parallel,
    const std::map<StreamId, PrivateQueryResults>& reference,
    const char* label) {
  std::vector<StreamId> expected_ids;
  for (const auto& entry : reference) expected_ids.push_back(entry.first);
  EXPECT_EQ(parallel.SubjectIds(), expected_ids) << label;
  for (const auto& entry : reference) {
    StatusOr<SubjectResults> got_or = parallel.ResultsFor(entry.first);
    ASSERT_TRUE(got_or.ok()) << label << " subject=" << entry.first;
    const SubjectResults& got = got_or.value();
    EXPECT_EQ(got.window_count, entry.second.window_count)
        << label << " subject=" << entry.first;
    ASSERT_EQ(got.answers.size(), entry.second.answers.size());
    for (size_t q = 0; q < got.answers.size(); ++q) {
      EXPECT_EQ(got.answers[q].answers(), entry.second.answers[q].answers())
          << label << " subject=" << entry.first << " query=" << q;
    }
  }
}

TEST(ParallelPrivateEngineTest, FixedSeedEquivalenceWithSequentialEngine) {
  constexpr size_t kSubjects = 10;
  const EventStream stream = InterleavedStream(kSubjects, 6000, /*seed=*/17);
  const auto reference = SequentialReference(stream, kSubjects, "uniform");
  ASSERT_FALSE(reference.empty());

  for (size_t shards : {1u, 2u, 4u}) {
    ParallelPrivateOptions options;
    options.shard_count = shards;
    options.window_size = kWindowSize;
    options.seed = kSeed;
    ParallelPrivateEngine parallel(options);
    RegisterSetup(parallel);
    ASSERT_TRUE(
        parallel.Activate(NamedMechanismFactory("uniform"), kEpsilon).ok());

    StreamReplayer replayer;
    replayer.Subscribe(&parallel);
    // Batched per-tick ingestion; Run's OnEnd finishes the service phase.
    ASSERT_TRUE(replayer.Run(stream, ReplayMode::kBatchPerTick).ok());

    EXPECT_EQ(parallel.events_processed(), stream.size());
    ExpectMatchesReference(parallel, reference,
                           shards == 1   ? "shards=1"
                           : shards == 2 ? "shards=2"
                                         : "shards=4");
    ASSERT_TRUE(parallel.Stop().ok());
  }
}

TEST(ParallelPrivateEngineTest, PassthroughEqualsGroundTruthPerSubject) {
  constexpr size_t kSubjects = 6;
  const EventStream stream = InterleavedStream(kSubjects, 3000, /*seed=*/23);

  ParallelPrivateOptions options;
  options.shard_count = 3;
  options.window_size = kWindowSize;
  options.seed = kSeed;
  ParallelPrivateEngine parallel(options);
  RegisterSetup(parallel);
  ASSERT_TRUE(
      parallel.Activate(NamedMechanismFactory("passthrough"), kEpsilon).ok());

  // Per-event ingestion this time (both ingest paths must agree).
  for (const Event& e : stream) ASSERT_TRUE(parallel.OnEvent(e).ok());
  ASSERT_TRUE(parallel.Finish().ok());

  for (StreamId subject = 0; subject < kSubjects; ++subject) {
    const EventStream sub = SubstreamOf(stream, subject);
    if (sub.empty()) continue;
    PrivateCepEngine seq;
    RegisterSetup(seq);
    auto windows = TumblingWindower(kWindowSize).Apply(sub);
    ASSERT_TRUE(windows.ok());
    auto truth = seq.GroundTruth(windows.value());
    ASSERT_TRUE(truth.ok());

    StatusOr<SubjectResults> got_or = parallel.ResultsFor(subject);
    ASSERT_TRUE(got_or.ok());
    const SubjectResults& got = got_or.value();
    ASSERT_EQ(got.answers.size(), truth.value().answers.size());
    for (size_t q = 0; q < got.answers.size(); ++q) {
      EXPECT_EQ(got.answers[q].answers(), truth.value().answers[q].answers())
          << "subject=" << subject << " query=" << q;
    }
  }
  ASSERT_TRUE(parallel.Stop().ok());
}

TEST(ParallelPrivateEngineTest, ResultsIdenticalAcrossShardCounts) {
  constexpr size_t kSubjects = 7;
  const EventStream stream = InterleavedStream(kSubjects, 4000, /*seed=*/41);

  std::map<StreamId, std::vector<std::vector<bool>>> first;
  for (size_t shards : {1u, 3u}) {
    ParallelPrivateOptions options;
    options.shard_count = shards;
    options.window_size = kWindowSize;
    options.seed = kSeed;
    ParallelPrivateEngine engine(options);
    RegisterSetup(engine);
    ASSERT_TRUE(
        engine.Activate(NamedMechanismFactory("uniform"), kEpsilon).ok());
    StreamReplayer replayer;
    replayer.Subscribe(&engine);
    ASSERT_TRUE(replayer.Run(stream, ReplayMode::kBatchPerTick).ok());

    for (StreamId subject : engine.SubjectIds()) {
      StatusOr<SubjectResults> results = engine.ResultsFor(subject);
      ASSERT_TRUE(results.ok());
      std::vector<std::vector<bool>> answers;
      for (const AnswerSeries& series : results.value().answers) {
        answers.push_back(series.answers());
      }
      if (shards == 1) {
        first.emplace(subject, std::move(answers));
      } else {
        ASSERT_EQ(first.count(subject), 1u);
        EXPECT_EQ(answers, first[subject]) << "subject=" << subject;
      }
    }
    ASSERT_TRUE(engine.Stop().ok());
  }
}

TEST(ParallelPrivateEngineTest, LifecycleErrors) {
  {
    // Activate without registrations is refused.
    ParallelPrivateOptions options;
    options.window_size = kWindowSize;
    ParallelPrivateEngine engine(options);
    EXPECT_FALSE(
        engine.Activate(NamedMechanismFactory("uniform"), kEpsilon).ok());
  }
  {
    // window_size is mandatory.
    ParallelPrivateOptions options;
    ParallelPrivateEngine engine(options);
    RegisterSetup(engine);
    EXPECT_FALSE(
        engine.Activate(NamedMechanismFactory("uniform"), kEpsilon).ok());
  }
  {
    ParallelPrivateOptions options;
    options.shard_count = 2;
    options.window_size = kWindowSize;
    ParallelPrivateEngine engine(options);
    // Ingest before Activate is refused.
    EXPECT_FALSE(engine.OnEvent(Event(0, 0)).ok());
    RegisterSetup(engine);
    ASSERT_TRUE(
        engine.Activate(NamedMechanismFactory("uniform"), kEpsilon).ok());
    // Second Activate and post-Activate registration are refused.
    EXPECT_FALSE(
        engine.Activate(NamedMechanismFactory("uniform"), kEpsilon).ok());
    EXPECT_FALSE(engine
                     .RegisterTargetQuery(
                         "late", MakePattern("late", {0},
                                             DetectionMode::kConjunction))
                     .ok());
    ASSERT_TRUE(engine.OnEvent(Event(0, 0, /*stream=*/1)).ok());
    ASSERT_TRUE(engine.Finish().ok());
    ASSERT_TRUE(engine.Finish().ok());  // idempotent
    // Ingest after Finish is refused; results for unseen subjects NotFound.
    EXPECT_FALSE(engine.OnEvent(Event(0, 1)).ok());
    EXPECT_FALSE(engine.ResultsFor(/*subject=*/999).ok());
    EXPECT_TRUE(engine.ResultsFor(/*subject=*/1).ok());
    ASSERT_TRUE(engine.Stop().ok());
  }
}

TEST(ParallelPrivateEngineTest, UnknownQueryNameLookupsAreHardErrors) {
  ParallelPrivateOptions options;
  options.shard_count = 2;
  options.window_size = kWindowSize;
  ParallelPrivateEngine engine(options);
  RegisterSetup(engine);
  // Known names resolve; unknown names are NotFound, never a silent
  // default id or empty result.
  EXPECT_EQ(engine.TargetQueryIdOf("q0").value(), 0u);
  EXPECT_EQ(engine.TargetQueryIdOf("q1").value(), 1u);
  EXPECT_TRUE(engine.TargetQueryIdOf("no-such-query").status().IsNotFound());
  EXPECT_TRUE(engine.CrossQueryIndexOf("no-such-cross").status().IsNotFound());
}

TEST(ParallelPrivateEngineTest, EmptyStreamHasNoSubjects) {
  ParallelPrivateOptions options;
  options.shard_count = 2;
  options.window_size = kWindowSize;
  ParallelPrivateEngine engine(options);
  RegisterSetup(engine);
  ASSERT_TRUE(
      engine.Activate(NamedMechanismFactory("uniform"), kEpsilon).ok());
  ASSERT_TRUE(engine.Finish().ok());
  EXPECT_TRUE(engine.SubjectIds().empty());
  EXPECT_EQ(engine.total_windows(), 0u);
  ASSERT_TRUE(engine.Stop().ok());
}

/// A small taxi city (paper Experiment 1 shape) for the answer digests:
/// one single-cell private pattern per private cell plus two multi-element
/// ones — SEQ(p0, p1, p0) repeats a type and AND(p1, p2) overlaps it — so
/// the in-place perturbation's repeated-type and overlap cases, and a real
/// Algorithm 1 search, all feed the digest.
struct TaxiCity {
  EventStream service;
  std::vector<Window> history;
  std::vector<int64_t> private_cells;
  std::vector<int64_t> target_cells;
  size_t cells = 0;
  Timestamp window = 0;
};

TaxiCity MakeTaxiCity() {
  TaxiOptions opt;
  opt.grid_width = 8;
  opt.grid_height = 8;
  opt.num_taxis = 40;
  opt.num_ticks = 90;
  opt.window_ticks = 3;
  TaxiDataset city = GenerateTaxi(opt, /*seed=*/7).value();
  auto split = city.dataset.SplitHistory(0.3).value();
  TaxiCity out;
  out.history = std::move(split.first);
  out.private_cells = city.private_cells;
  out.target_cells = city.target_cells;
  out.cells = opt.grid_width * opt.grid_height;
  out.window = static_cast<Timestamp>(opt.window_ticks) *
               opt.sampling_interval_s;
  const Timestamp service_start = out.history.back().end;
  for (const Event& e : city.merged_stream) {
    if (e.timestamp() >= service_start) out.service.AppendUnchecked(e);
  }
  return out;
}

/// FNV-1a over every subject's protected answers, ascending by subject.
uint64_t AnswerDigest(const ParallelPrivateEngine& engine) {
  uint64_t h = 0xcbf29ce484222325ULL;
  auto mix = [&h](uint64_t v) {
    for (int i = 0; i < 8; ++i) {
      h ^= (v >> (8 * i)) & 0xff;
      h *= 0x100000001b3ULL;
    }
  };
  for (StreamId subject : engine.SubjectIds()) {
    const SubjectResults results = engine.ResultsFor(subject).value();
    mix(subject);
    mix(results.window_count);
    for (const AnswerSeries& series : results.answers) {
      mix(series.size());
      for (bool bit : series.answers()) mix(bit ? 1 : 0);
    }
  }
  return h;
}

uint64_t TaxiAnswerDigest(const TaxiCity& city, const std::string& mechanism) {
  ParallelPrivateOptions options;
  options.shard_count = 3;
  options.window_size = city.window;
  options.seed = kSeed;
  ParallelPrivateEngine engine(options);
  for (size_t c = 0; c < city.cells; ++c) {
    engine.InternEventType("cell_" + std::to_string(c));
  }
  auto cell = [](int64_t c) { return static_cast<EventTypeId>(c); };
  for (int64_t c : city.private_cells) {
    EXPECT_TRUE(engine
                    .RegisterPrivatePattern(MakePattern(
                        ("priv_" + std::to_string(c)).c_str(), {cell(c)},
                        DetectionMode::kConjunction))
                    .ok());
  }
  const EventTypeId p0 = cell(city.private_cells[0]);
  const EventTypeId p1 = cell(city.private_cells[1]);
  const EventTypeId p2 = cell(city.private_cells[2]);
  EXPECT_TRUE(engine
                  .RegisterPrivatePattern(MakePattern(
                      "priv_seq", {p0, p1, p0}, DetectionMode::kSequence))
                  .ok());
  EXPECT_TRUE(engine
                  .RegisterPrivatePattern(MakePattern(
                      "priv_and", {p1, p2}, DetectionMode::kConjunction))
                  .ok());
  for (int64_t c : city.target_cells) {
    EXPECT_TRUE(engine
                    .RegisterTargetQuery(
                        "tgt_" + std::to_string(c),
                        MakePattern(("tgt_" + std::to_string(c)).c_str(),
                                    {cell(c)},
                                    DetectionMode::kConjunction))
                    .ok());
  }
  EXPECT_TRUE(engine
                  .RegisterTargetQuery(
                      "tgt_pair", MakePattern("tgt_pair", {p0, p1},
                                              DetectionMode::kConjunction))
                  .ok());
  engine.SetHistory(city.history);
  EXPECT_TRUE(
      engine.Activate(NamedMechanismFactory(mechanism), kEpsilon).ok());
  StreamReplayer replayer;
  replayer.Subscribe(&engine);
  EXPECT_TRUE(replayer.Run(city.service, ReplayMode::kBatchPerTick).ok());
  EXPECT_EQ(engine.SubjectIds().size(), 40u);
  const uint64_t digest = AnswerDigest(engine);
  EXPECT_TRUE(engine.Stop().ok());
  return digest;
}

// Pins every mechanism's published answers bit for bit: the digests were
// captured from the implementation that built a fresh, fully Initialized
// mechanism per subject and perturbed through temporary indicator
// vectors. Any change to the Rng draw sequence, the repeated-type
// write-back rule, or per-subject mechanism state shows up here.
TEST(ParallelPrivateEngineTest, TaxiAnswerDigestsArePinned) {
  const TaxiCity city = MakeTaxiCity();
  ASSERT_GE(city.private_cells.size(), 3u);
  const std::map<std::string, uint64_t> expected = {
      {"passthrough", 0x5bf1d19dcc8524e5ULL},
      {"uniform", 0x07121565d9408c44ULL},
      {"adaptive", 0x5e133bacbf411d65ULL},
      {"bd", 0x9a8b830dff4a9845ULL},
      {"ba", 0xd06e0e457a94af84ULL},
      // Equal to bd: at this small budget both baselines' first Laplace
      // release dwarfs the 0.5 threshold, so presence follows the sign of
      // the same first draw and the two answer series coincide.
      {"landmark", 0x9a8b830dff4a9845ULL},
  };
  for (const auto& [mechanism, digest] : expected) {
    EXPECT_EQ(TaxiAnswerDigest(city, mechanism), digest) << mechanism;
  }
}

}  // namespace
}  // namespace pldp
