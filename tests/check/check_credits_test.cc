// Copyright 2026 The PLDP Authors.
//
// Model-checks the exchange credit protocol end to end through the REAL
// pipeline objects: ExchangeEmitter::Emit consuming credits (and
// blocking via AcquireCreditSlow when the budget is gone), MergeShard's
// worker loop receiving, gating on watermark bounds, releasing to the
// engine, and returning credits (src/runtime/exchange.{h,cc},
// merge_shard.{h,cc}). Watermarks are the producer rows' frontier words:
// the idle peer seals its lane with one frontier store. The worker runs on
// a model thread through the
// ModelRunWorker seam — Start()/Stop() would spawn a std::thread the
// cooperative scheduler cannot see.
//
// Properties: a lane's in-flight events never exceed its credit budget
// (the reorder ring's PLDP_PROTOCOL_ASSERT capacity cap checks this at
// every push), a credit-blocked producer eventually unblocks once the
// merge releases (no deadlock/livelock in any explored schedule), every
// received item is at or above its lane's applied frontier (the
// `lane.bound <= item.key` PLDP_PROTOCOL_ASSERT), and after the drain all
// credits are back and every event was merged.
//
// Two seeded-mutation twins (merge_shard.cc) must each be caught:
//   - PLDP_CHECK_NEGATIVE_CREDITS returns the credit at receipt instead of
//     at release: the producer can then put a full budget back in flight
//     while the reorder buffer still holds the previous one, and the
//     checker must trip the capacity cap;
//   - PLDP_CHECK_NEGATIVE_FRONTIER reads the frontier after draining the
//     lane instead of before: a store landing between the drain and the
//     load applies a bound above an item still in the queue, and the
//     checker must trip the `lane.bound <= item.key` assert.

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

// 2 producers x 1 consumer, budget 1 per lane — the smallest shape that
// still covers every protocol transition. Producer row 1 stays idle (its
// emitter only raises its frontier) so the merge is genuinely gated on the
// frontier protocol, and the second Emit on row 0 genuinely needs the
// credit returned by a release — the full consume/return cycle,
// including AcquireCreditSlow's raise-frontier-and-wait path. (Budget 1 keeps
// the DFS tractable: the schedule space grows exponentially in atomic
// ops per execution.)
struct Harness {
  Harness()
      : fabric(2, 1, /*lane_capacity=*/4, /*reorder_capacity=*/1),
        shard(0, fabric.Column(0)),
        emitter_a(fabric.Row(0), nullptr, &fabric),
        emitter_b(fabric.Row(1), nullptr, &fabric) {}
  ExchangeFabric fabric;
  MergeShard shard;
  ExchangeEmitter emitter_a;
  ExchangeEmitter emitter_b;
};

#if !defined(PLDP_CHECK_NEGATIVE_CREDITS) && \
    !defined(PLDP_CHECK_NEGATIVE_FRONTIER)

ModelResult RunCreditCycleHarness(ModelConfig cfg) {
  return RunModel(cfg, [] {
    auto h = std::make_unique<Harness>();

    int worker = ModelSpawn("merge", [&] { h->shard.ModelRunWorker(); });
    int producer = ModelSpawn("producer", [&] {
      // The first event consumes lane 0's whole budget.
      h->emitter_a.BeginTrigger(1);
      PLDP_MODEL_ASSERT(h->emitter_a.Emit(Event(0, 0, 0)).ok());
      // The idle peer seals its lane with one frontier store, unblocking
      // the merge gate for everything on lane 0.
      h->emitter_b.Broadcast(kExchangeSeqEnd);
      // Second event: over budget until the merge releases the first and
      // returns its credit (AcquireCreditSlow's raise-frontier-and-wait
      // path).
      h->emitter_a.BeginTrigger(2);
      PLDP_MODEL_ASSERT(h->emitter_a.Emit(Event(0, 0, 0)).ok());
      h->emitter_a.Broadcast(kExchangeSeqEnd);
      h->shard.ModelRequestStop();
    });

    ModelJoin(producer);
    ModelJoin(worker);
    h->shard.ModelFinalize();

    // Drained: both events reached the engine and every credit came back
    // (consume-on-emit / return-on-release balanced out).
    PLDP_MODEL_ASSERT(h->shard.stats().events_processed == 2);
    // order: acquire pairs with the merge's release returns.
    PLDP_MODEL_ASSERT(
        h->fabric.lane(0, 0).credits.load(std::memory_order_acquire) == 1);
    PLDP_MODEL_ASSERT(
        h->fabric.lane(1, 0).credits.load(std::memory_order_acquire) == 1);
  });
}

// Bounded-DFS exploration of the full cycle. The harness is the largest
// model suite by schedule points (every queue index, credit counter,
// doorbell and stop flag access branches), so the preemption bound stays
// at 1 — every single-preemption schedule of the real pipeline code.
TEST(CreditsModel, ConsumeReturnCycleClean) {
  ModelConfig cfg;
  cfg.name = "credits";
  cfg.preemption_bound = 1;
  cfg.max_steps_per_exec = 20000;
  ModelResult r = RunCreditCycleHarness(cfg);
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
  ModelResult r = RunCreditCycleHarness(cfg);
  EXPECT_FALSE(r.failed) << r.report;
}

#elif defined(PLDP_CHECK_NEGATIVE_CREDITS)

// With credits returned at receipt, producer 0 can emit a second event
// while the reorder buffer still holds the first (the merge is gated on
// the silent peer lane) — the ring's capacity cap must trip under the
// checker.
TEST(CreditsModelNegative, CheckerCatchesEarlyCreditReturn) {
  ModelConfig cfg;
  cfg.name = "credits-early-return";
  cfg.preemption_bound = 1;
  cfg.max_steps_per_exec = 20000;
  ModelResult r = RunModel(cfg, [] {
    auto h = std::make_unique<Harness>();

    int worker = ModelSpawn("merge", [&] { h->shard.ModelRunWorker(); });
    int producer = ModelSpawn("producer", [&] {
      // The peer lane never watermarks, so nothing is ever released:
      // any credit the producer sees after the first emit is one the
      // mutation returned at receipt, and the second emit overfills the
      // reorder ring.
      for (uint64_t seq = 1; seq <= 2; ++seq) {
        h->emitter_a.BeginTrigger(seq);
        PLDP_MODEL_ASSERT(h->emitter_a.Emit(Event(0, 0, 0)).ok());
      }
      h->shard.ModelRequestStop();
    });

    ModelJoin(producer);
    ModelJoin(worker);
  });
  EXPECT_TRUE(r.failed)
      << "seeded early credit return was NOT caught by the checker";
  EXPECT_FALSE(r.replay.empty());
}

#else  // PLDP_CHECK_NEGATIVE_FRONTIER

// With the frontier read after the drain, the merge can drain lane 0 while
// it is still empty, let the producer push (1, 0) and raise its frontier,
// and only then load the raised frontier: the lane's bound jumps past an
// item still in the queue, and the next receive trips the order assert.
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
      << "seeded frontier read-after-drain was NOT caught by the checker";
  EXPECT_NE(r.report.find("lane.bound <= item.key"), std::string::npos)
      << r.report;
  EXPECT_FALSE(r.replay.empty());
}

#endif  // PLDP_CHECK_NEGATIVE_FRONTIER

}  // namespace
}  // namespace pldp
