// Copyright 2026 The PLDP Authors.
//
// Model-checks the SPSC ring (src/runtime/spsc_queue.h): one producer and
// one consumer racing push against pop through the real TryPush/TryPop /
// TryPushN/TryPopN code and the in-place Readable/Front/PopFront path,
// with the checker branching over every stale index read coherence
// allows. The properties: no data race on the payload slots (RaceCell
// vector-clock check, covering both the first-lap slot construction and
// later-lap assignment, and every in-place read), values arrive in order,
// and nothing is lost or duplicated.
//
// Compiled twice by CMake: the plain binary asserts the checker exhausts
// the schedule space with zero findings; the PLDP_CHECK_NEGATIVE_SPSC
// twin weakens the tail publication to relaxed (kTailPublishOrder in
// spsc_queue.h) and asserts the checker CATCHES the resulting payload
// race — the machine-checked version of the release/acquire pairing
// argument in the header's protocol comment.

#include <cstddef>
#include <cstdint>
#include <memory>

#include "check/model.h"
#include "gtest/gtest.h"
#include "runtime/spsc_queue.h"

namespace pldp {
namespace {

using check::ModelConfig;
using check::ModelJoin;
using check::ModelResult;
using check::ModelSpawn;
using check::ModelYieldSpin;
using check::RunModel;

// Push kItems through a ring one element at a time. Small on purpose:
// every extra element multiplies the DFS schedule space.
constexpr int kItems = 3;

// Capacity 2 wraps, so the third push assigns into a slot the consumer
// freed; capacity 4 never leaves the first lap, so every push is a
// placement construction of raw storage — the lazy-slot path.
constexpr size_t kWrappingCapacity = 2;
constexpr size_t kFirstLapCapacity = 4;

ModelResult RunSingleElementHarness(ModelConfig cfg,
                                    size_t capacity = kWrappingCapacity) {
  return RunModel(cfg, [capacity] {
    auto q = std::make_unique<SpscQueue<int>>(capacity);
    auto sum = std::make_unique<int>(0);
    int producer = ModelSpawn("producer", [&] {
      for (int v = 1; v <= kItems; ++v) {
        int item = v;
        while (!q->TryPush(std::move(item))) ModelYieldSpin();
      }
    });
    int consumer = ModelSpawn("consumer", [&] {
      for (int i = 1; i <= kItems; ++i) {
        int out = 0;
        while (!q->TryPop(out)) ModelYieldSpin();
        PLDP_MODEL_ASSERT(out == i);  // FIFO, no loss, no duplication
        *sum += out;
      }
    });
    ModelJoin(producer);
    ModelJoin(consumer);
    PLDP_MODEL_ASSERT(*sum == kItems * (kItems + 1) / 2);
    PLDP_MODEL_ASSERT(q->ApproxEmpty());
  });
}

// Same race surface through the batch entry points the shard hot path
// actually uses (TryPushN / TryPopN).
ModelResult RunBatchHarness(ModelConfig cfg) {
  return RunModel(cfg, [] {
    auto q = std::make_unique<SpscQueue<int>>(2);
    int producer = ModelSpawn("producer", [&] {
      int batch[2] = {1, 2};
      while (q->TryPushN(batch, 2) == 0) ModelYieldSpin();
      int tail[1] = {3};
      while (q->TryPushN(tail, 1) == 0) ModelYieldSpin();
    });
    int consumer = ModelSpawn("consumer", [&] {
      int out[2] = {0, 0};
      int seen = 0;
      int expect = 1;
      while (seen < kItems) {
        size_t n = q->TryPopN(out, 2);
        if (n == 0) {
          ModelYieldSpin();
          continue;
        }
        for (size_t i = 0; i < n; ++i) {
          PLDP_MODEL_ASSERT(out[i] == expect);
          ++expect;
        }
        seen += static_cast<int>(n);
      }
    });
    ModelJoin(producer);
    ModelJoin(consumer);
  });
}

// The in-place consumer path the exchange merge uses: refresh the tail
// once, read each readable item where it lies, then free its slot. Every
// read is race-checked, so a read after the producer could reuse the slot
// — or before the slot write is visible — is a finding.
ModelResult RunPeekHarness(ModelConfig cfg,
                           size_t capacity = kWrappingCapacity) {
  return RunModel(cfg, [capacity] {
    auto q = std::make_unique<SpscQueue<int>>(capacity);
    int producer = ModelSpawn("producer", [&] {
      for (int v = 1; v <= kItems; ++v) {
        int item = v;
        while (!q->TryPush(std::move(item))) ModelYieldSpin();
      }
    });
    int consumer = ModelSpawn("consumer", [&] {
      int expect = 1;
      while (expect <= kItems) {
        size_t readable = q->Readable();
        if (readable == 0) {
          ModelYieldSpin();
          continue;
        }
        for (; readable > 0; --readable) {
          // FIFO, no loss, no duplication.
          PLDP_MODEL_ASSERT(RaceCellRead(q->Front()) == expect);
          ++expect;
          q->PopFront();
        }
      }
    });
    ModelJoin(producer);
    ModelJoin(consumer);
    PLDP_MODEL_ASSERT(q->ApproxEmpty());
  });
}

#ifndef PLDP_CHECK_NEGATIVE_SPSC

TEST(SpscModel, SingleElementExhaustsClean) {
  ModelConfig cfg;
  cfg.name = "spsc-single";
  cfg.preemption_bound = 2;
  ModelResult r = RunSingleElementHarness(cfg);
  EXPECT_FALSE(r.failed) << r.report;
  EXPECT_TRUE(r.exhausted) << "DFS did not exhaust; executions="
                           << r.executions;
}

TEST(SpscModel, BatchExhaustsClean) {
  ModelConfig cfg;
  cfg.name = "spsc-batch";
  cfg.preemption_bound = 2;
  ModelResult r = RunBatchHarness(cfg);
  EXPECT_FALSE(r.failed) << r.report;
  EXPECT_TRUE(r.exhausted);
}

// A first-lap slot is constructed, not assigned; the construction must be
// ordered before the consumer's read exactly like a later-lap write.
TEST(SpscModel, FirstLapConstructionExhaustsClean) {
  ModelConfig cfg;
  cfg.name = "spsc-first-lap";
  cfg.preemption_bound = 2;
  ModelResult r = RunSingleElementHarness(cfg, kFirstLapCapacity);
  EXPECT_FALSE(r.failed) << r.report;
  EXPECT_TRUE(r.exhausted);
}

// In-place reads after wrapping: the third push assigns into the slot the
// consumer freed by PopFront, so the read of that slot must be ordered
// before the head store that frees it.
TEST(SpscModel, PeekThenPopExhaustsClean) {
  ModelConfig cfg;
  cfg.name = "spsc-peek";
  cfg.preemption_bound = 2;
  ModelResult r = RunPeekHarness(cfg);
  EXPECT_FALSE(r.failed) << r.report;
  EXPECT_TRUE(r.exhausted);
}

// In-place reads of first-lap slots, which the producer constructed.
TEST(SpscModel, PeekThenPopFirstLapExhaustsClean) {
  ModelConfig cfg;
  cfg.name = "spsc-peek-first-lap";
  cfg.preemption_bound = 2;
  ModelResult r = RunPeekHarness(cfg, kFirstLapCapacity);
  EXPECT_FALSE(r.failed) << r.report;
  EXPECT_TRUE(r.exhausted);
}

// Random-walk soak beyond the DFS preemption bound; CI deepens this via
// PLDP_MODEL_RANDOM_ITERS without a recompile.
TEST(SpscModel, RandomWalkClean) {
  ModelConfig cfg;
  cfg.name = "spsc-random";
  cfg.random = true;
  cfg.random_iterations = 300;
  cfg.seed = 7;
  ModelResult r = RunSingleElementHarness(cfg);
  EXPECT_FALSE(r.failed) << r.report;
}

#else  // PLDP_CHECK_NEGATIVE_SPSC

// With the tail publication weakened to relaxed, the consumer can observe
// the advanced tail index without the slot write ordered before it — the
// checker must report the payload race (and print a replayable schedule).
TEST(SpscModelNegative, CheckerCatchesWeakTailPublish) {
  ModelConfig cfg;
  cfg.name = "spsc-weak-tail";
  cfg.preemption_bound = 2;
  ModelResult r = RunSingleElementHarness(cfg);
  EXPECT_TRUE(r.failed)
      << "seeded relaxed tail publish was NOT caught by the checker";
  EXPECT_FALSE(r.replay.empty());
}

// The batch path publishes through the same constant — the checker must
// catch it there too.
TEST(SpscModelNegative, CheckerCatchesWeakTailPublishBatch) {
  ModelConfig cfg;
  cfg.name = "spsc-weak-tail-batch";
  cfg.preemption_bound = 2;
  ModelResult r = RunBatchHarness(cfg);
  EXPECT_TRUE(r.failed)
      << "seeded relaxed tail publish (batch) was NOT caught";
}

// With no lap completed, every slot write is a placement construction:
// the checker must still see the payload race, i.e. a constructed slot is
// a race-checked write too.
TEST(SpscModelNegative, CheckerCatchesWeakTailPublishFirstLap) {
  ModelConfig cfg;
  cfg.name = "spsc-weak-tail-first-lap";
  cfg.preemption_bound = 2;
  ModelResult r = RunSingleElementHarness(cfg, kFirstLapCapacity);
  EXPECT_TRUE(r.failed)
      << "seeded relaxed tail publish (first lap) was NOT caught";
}

// The in-place read sees the same unpublished slot: the checker must
// catch the weakened publication through Front() too, after wrapping and
// on the first lap.
TEST(SpscModelNegative, CheckerCatchesWeakTailPublishPeek) {
  ModelConfig cfg;
  cfg.name = "spsc-weak-tail-peek";
  cfg.preemption_bound = 2;
  ModelResult r = RunPeekHarness(cfg);
  EXPECT_TRUE(r.failed)
      << "seeded relaxed tail publish (peek) was NOT caught";
  EXPECT_FALSE(r.replay.empty());
}

TEST(SpscModelNegative, CheckerCatchesWeakTailPublishPeekFirstLap) {
  ModelConfig cfg;
  cfg.name = "spsc-weak-tail-peek-first-lap";
  cfg.preemption_bound = 2;
  ModelResult r = RunPeekHarness(cfg, kFirstLapCapacity);
  EXPECT_TRUE(r.failed)
      << "seeded relaxed tail publish (peek, first lap) was NOT caught";
}

#endif  // PLDP_CHECK_NEGATIVE_SPSC

}  // namespace
}  // namespace pldp
