// Copyright 2026 The PLDP Authors.
//
// Model-checks exchange flow control end to end through the REAL pipeline
// objects: ExchangeEmitter::Emit pushing into a lane (and blocking in its
// full-lane wait, which raises the row's frontier first), and MergeShard's
// worker loop reading each lane's head in place, gating on frontier
// bounds, releasing to the engine and only then freeing the slot
// (src/runtime/exchange.{h,cc}, merge_shard.{h,cc}). Watermarks are the
// producer rows' frontier words: the idle peer seals its lane with one
// frontier store. The worker runs on a model thread through the
// ModelRunWorker seam — Start()/Stop() would spawn a std::thread the
// cooperative scheduler cannot see.
//
// Two clean shapes: the full-lane cycle (the peer row sealed up front, a
// third emit waits for a slot) and the gated park (the peer row still
// open while the merge holds lane 0's items, sealed later by a frontier
// store the parked merge must wake on).
//
// Properties: a producer blocked on a full lane eventually unblocks once
// the merge releases, a merge gated by an open peer row wakes when the
// peer seals it (no deadlock/livelock in any explored schedule), no
// slot is reused while the merge still reads it (every in-place read is
// race-checked through RaceCellRead), every item is at or above its lane's
// applied frontier (the `lane.bound <= item.key` PLDP_PROTOCOL_ASSERT),
// and after the drain every event was merged and every slot is free.
//
// Two seeded-mutation twins (merge_shard.cc) must each be caught:
//   - PLDP_CHECK_NEGATIVE_POP_EARLY frees the slot before the engine reads
//     the event: the blocked producer's next push can then write the slot
//     under that read, and the checker must report the slot race;
//   - PLDP_CHECK_NEGATIVE_FRONTIER reads the frontier after the lane
//     instead of before: a store landing between the two applies a bound
//     above an item the read missed, and the checker must trip the
//     `lane.bound <= item.key` assert.

#include <cstdint>
#include <memory>
#include <string>

#include "check/model.h"
#include "event/event.h"
#include "gtest/gtest.h"
#include "runtime/exchange.h"
#include "runtime/merge_shard.h"

namespace pldp {
namespace {

using check::ModelConfig;
using check::ModelJoin;
using check::ModelResult;
using check::ModelSpawn;
using check::RunModel;

// 2 producers x 1 consumer, lanes of the smallest capacity (2). (The tiny
// shape keeps the DFS tractable: the schedule space grows exponentially in
// atomic ops per execution, which is also why the full-lane and gated
// shapes are two suites rather than one longer producer.)
struct Harness {
  Harness()
      : fabric(2, 1, /*lane_capacity=*/2),
        shard(0, fabric.Column(0)),
        emitter_a(fabric.Row(0), nullptr, &fabric),
        emitter_b(fabric.Row(1), nullptr, &fabric) {}
  ExchangeFabric fabric;
  MergeShard shard;
  ExchangeEmitter emitter_a;
  ExchangeEmitter emitter_b;
};

#ifndef PLDP_CHECK_NEGATIVE_FRONTIER

/// Emits three events into lane 0 (capacity 2): the third Emit finds the
/// lane full and waits until the merge has released the first event and
/// freed its slot.
void EmitPastAFullLane(Harness* h) {
  for (uint64_t seq = 1; seq <= 3; ++seq) {
    h->emitter_a.BeginTrigger(seq);
    PLDP_MODEL_ASSERT(h->emitter_a.Emit(Event(0, 0, 0)).ok());
  }
  h->shard.ModelRequestStop();
}

#endif  // !PLDP_CHECK_NEGATIVE_FRONTIER

#if !defined(PLDP_CHECK_NEGATIVE_POP_EARLY) && \
    !defined(PLDP_CHECK_NEGATIVE_FRONTIER)

// The full-lane shape: producer row 1 is sealed by one frontier store
// before the threads start, so lane 0 is read against a closed peer; the
// third Emit on row 0 genuinely needs a slot the merge frees by releasing
// an event — the full read/release/free cycle, including the full-lane
// wait's raise-frontier-then-spin path, whose frontier store races the
// merge's reads.
ModelResult RunFullLaneHarness(ModelConfig cfg) {
  return RunModel(cfg, [] {
    auto h = std::make_unique<Harness>();
    // The idle peer seals its lane with one frontier store.
    h->emitter_b.Broadcast(kExchangeSeqEnd);

    int worker = ModelSpawn("merge", [&] { h->shard.ModelRunWorker(); });
    int producer = ModelSpawn("producer", [&] { EmitPastAFullLane(h.get()); });

    ModelJoin(producer);
    ModelJoin(worker);
    h->shard.ModelFinalize();

    // Drained: all three events reached the engine and every slot is free.
    PLDP_MODEL_ASSERT(h->shard.stats().events_processed == 3);
    PLDP_MODEL_ASSERT(h->shard.reorder_buffered() == 0);
  });
}

// Bounded-DFS exploration of the full cycle. The harness is the largest
// model suite by schedule points (every queue index, frontier word,
// doorbell and stop flag access branches), so the preemption bound stays
// at 1 — every single-preemption schedule of the real pipeline code.
TEST(CreditsModel, FullLaneCycleClean) {
  ModelConfig cfg;
  cfg.name = "credits";
  cfg.preemption_bound = 1;
  cfg.max_steps_per_exec = 20000;
  ModelResult r = RunFullLaneHarness(cfg);
  EXPECT_FALSE(r.failed) << r.report;
  EXPECT_TRUE(r.exhausted) << "DFS did not exhaust; executions="
                           << r.executions;
}

// The gated shape: the peer row is still open when the merge first reads
// lane 0, so the merge must hold both events, park, and be woken by the
// peer's sealing frontier store. Producer: emit 1 and 2 into lane 0
// (capacity 2, so neither waits), then seal the peer row. Between the
// emits a parked merge is woken by the lane growing past the size it last
// read; after the seal, only the frontier rise can wake it — the producer
// waits for both releases before it requests stop, so a park predicate
// that missed the frontier would leave the merge parked for good, which
// the checker reports.
ModelResult RunGatedHarness(ModelConfig cfg) {
  return RunModel(cfg, [] {
    auto h = std::make_unique<Harness>();

    int worker = ModelSpawn("merge", [&] { h->shard.ModelRunWorker(); });
    int producer = ModelSpawn("producer", [&] {
      for (uint64_t seq = 1; seq <= 2; ++seq) {
        h->emitter_a.BeginTrigger(seq);
        PLDP_MODEL_ASSERT(h->emitter_a.Emit(Event(0, 0, 0)).ok());
      }
      h->emitter_b.Broadcast(kExchangeSeqEnd);
      while (h->shard.ModelMerged() < 2) check::ModelYieldSpin();
      h->shard.ModelRequestStop();
    });

    ModelJoin(producer);
    ModelJoin(worker);
    h->shard.ModelFinalize();

    PLDP_MODEL_ASSERT(h->shard.stats().events_processed == 2);
    PLDP_MODEL_ASSERT(h->shard.reorder_buffered() == 0);
  });
}

TEST(CreditsModel, GatedMergeParksUntilTheFrontierRises) {
  ModelConfig cfg;
  cfg.name = "credits-gated";
  cfg.preemption_bound = 1;
  cfg.max_steps_per_exec = 20000;
  ModelResult r = RunGatedHarness(cfg);
  EXPECT_FALSE(r.failed) << r.report;
  EXPECT_TRUE(r.exhausted) << "DFS did not exhaust; executions="
                           << r.executions;
}

// Random-walk soak with unbounded preemptions (CI deepens via
// PLDP_MODEL_RANDOM_ITERS).
TEST(CreditsModel, RandomWalkClean) {
  ModelConfig cfg;
  cfg.name = "credits-random";
  cfg.random = true;
  cfg.random_iterations = 100;
  cfg.seed = 23;
  ModelResult r = RunFullLaneHarness(cfg);
  EXPECT_FALSE(r.failed) << r.report;
}

#elif defined(PLDP_CHECK_NEGATIVE_POP_EARLY)

// With the slot freed before the engine reads the event, the producer
// blocked on the full lane can refill that very slot while the merge is
// still reading it — the checker must report the race on the slot.
TEST(CreditsModelNegative, CheckerCatchesSlotFreedBeforeRead) {
  ModelConfig cfg;
  cfg.name = "credits-pop-early";
  cfg.preemption_bound = 1;
  cfg.max_steps_per_exec = 20000;
  ModelResult r = RunModel(cfg, [] {
    auto h = std::make_unique<Harness>();
    // The idle peer seals its lane with one frontier store.
    h->emitter_b.Broadcast(kExchangeSeqEnd);

    int worker = ModelSpawn("merge", [&] { h->shard.ModelRunWorker(); });
    int producer = ModelSpawn("producer", [&] { EmitPastAFullLane(h.get()); });

    ModelJoin(producer);
    ModelJoin(worker);
    h->shard.ModelFinalize();
  });
  EXPECT_TRUE(r.failed)
      << "seeded slot free before read was NOT caught by the checker";
  EXPECT_NE(r.report.find("data race"), std::string::npos) << r.report;
  EXPECT_FALSE(r.replay.empty());
}

#else  // PLDP_CHECK_NEGATIVE_FRONTIER

// With the frontier read after the lane, the merge can read lane 0 while
// it is still empty, let the producer push (1, 0) and raise its frontier,
// and only then load the raised frontier: the lane's bound jumps past an
// item the read missed, and the next read of that item trips the order
// assert.
TEST(FrontierModelNegative, CheckerCatchesFrontierReadAfterDrain) {
  ModelConfig cfg;
  cfg.name = "frontier-read-after-drain";
  cfg.preemption_bound = 1;
  cfg.max_steps_per_exec = 20000;
  ModelResult r = RunModel(cfg, [] {
    auto h = std::make_unique<Harness>();

    int worker = ModelSpawn("merge", [&] { h->shard.ModelRunWorker(); });
    int producer = ModelSpawn("producer", [&] {
      h->emitter_a.BeginTrigger(1);
      PLDP_MODEL_ASSERT(h->emitter_a.Emit(Event(0, 0, 0)).ok());
      h->emitter_a.Broadcast(kExchangeSeqEnd);
      h->shard.ModelRequestStop();
    });

    ModelJoin(producer);
    ModelJoin(worker);
    h->shard.ModelFinalize();
  });
  EXPECT_TRUE(r.failed)
      << "seeded frontier read-after-lane was NOT caught by the checker";
  EXPECT_NE(r.report.find("lane.bound <= item.key"), std::string::npos)
      << r.report;
  EXPECT_FALSE(r.replay.empty());
}

#endif  // PLDP_CHECK_NEGATIVE_FRONTIER

}  // namespace
}  // namespace pldp
