// Copyright 2026 The PLDP Authors.
//
// The repartition/exchange fabric between the two shard stages.
//
// Stage-1 shards partition by data subject; a pattern that correlates
// events *across* subjects needs its events re-keyed by a correlation key
// (cep/correlation_key.h) and re-partitioned so all participants of one
// potential match meet on one stage-2 shard. The fabric is the classic
// dataflow exchange: an N1×N2 matrix of the runtime's bounded SPSC queues,
// where lane (p, c) is written only by stage-1 worker p and read only by
// stage-2 worker c — every lane keeps the proven single-producer /
// single-consumer discipline, and the matrix as a whole is the
// multi-producer ingest primitive the stage-2 side needs.
//
//   stage-1 shard p ──ExchangeEmitter── lane(p,0) ──► merge shard 0
//                  │                    lane(p,1) ──► merge shard 1
//                  │                       ...
//                  └─ BeginTrigger(seq) stamps every emission with an
//                     ExchangeKey; Broadcast(bound) raises the row's
//                     frontier word.
//
// Ordering is restored downstream by merging on `ExchangeKey`, a global
// sequence stamp: (primary, sub) where `primary` is the ingest-order
// sequence number of the event whose processing caused the emission and
// `sub` counts emissions within that trigger. Each lane carries strictly
// increasing keys, so a stage-2 k-way merge by key reproduces exactly the
// order a sequential engine would have seen — detection equivalence holds
// bit-for-bit, not just as a multiset.
//
// The frontier solves the empty-lane problem: a merge cannot release an
// event until every other lane is known to be past its key. Each producer
// row owns one monotone watermark word (MillWheel's low watermark):
// frontier `b` promises every future item of the row a primary >= b. The
// row's driver raises it when idle, at drain barriers and before waiting
// on a full lane — a release store plus a doorbell ring, no queue slot, no
// blocking; `kExchangeSeqEnd` closes the row. A merge loads it *before*
// reading the lane and applies it *after* the items that read exposed.
//
// Flow control: the lane is the merge's reorder buffer. The merge reads
// each lane's head in place and frees its slot only once the engine has
// consumed the event, so a lane's capacity bounds both the events in
// flight on it and the merge's reorder depth for it; a stalled merge
// shard backpressures its producers (and transitively the ingest thread)
// through full lanes. Liveness rests on one rule: whoever waits on a full
// queue or lane first publishes how far it has got. A stage-1 shard
// blocked on a full lane raises the frontier of every row it owns (one
// per lane-group) to the primary it is blocked on; the ingest thread
// publishes the producer floor before it waits on a full shard queue.
// Because a frontier word holds only a primary, the producers of one
// fabric must stamp distinct primaries — see docs/ARCHITECTURE.md
// ("Flow control and liveness").
//
// The full-lane wait and the in-place merge are machine-checked by
// tests/check/check_credits_test.cc; its negative twins
// PLDP_CHECK_NEGATIVE_POP_EARLY (the merge frees a slot before the engine
// reads it, caught as a slot race) and PLDP_CHECK_NEGATIVE_FRONTIER (the
// merge reads the frontier after the lane, caught by the
// `lane.bound <= item.key` order assert) must each be caught.

#ifndef PLDP_RUNTIME_EXCHANGE_H_
#define PLDP_RUNTIME_EXCHANGE_H_

#include <cstdint>
#include <memory>
#include <vector>

#include "common/atomic.h"
#include "common/status.h"
#include "common/thread_annotations.h"
#include "event/event.h"
#include "obs/instruments.h"
#include "runtime/router.h"
#include "runtime/spsc_queue.h"

namespace pldp {

/// Terminal frontier: no item ever carries a primary this large, so a row
/// whose frontier reached it is closed forever.
inline constexpr uint64_t kExchangeSeqEnd = ~uint64_t{0};

/// Global merge stamp: lexicographic (primary, sub). `primary` is the
/// ingest sequence number of the triggering event (finish_seq + subject for
/// finalize-time emissions); `sub` disambiguates multiple emissions of one
/// trigger. No two producers of one fabric stamp the same primary.
struct ExchangeKey {
  uint64_t primary = 0;
  uint64_t sub = 0;

  bool operator<(const ExchangeKey& o) const {
    return primary != o.primary ? primary < o.primary : sub < o.sub;
  }
  bool operator<=(const ExchangeKey& o) const { return !(o < *this); }
  bool operator==(const ExchangeKey& o) const {
    return primary == o.primary && sub == o.sub;
  }
};

/// One slot of an exchange lane: a keyed event.
struct ExchangeItem {
  ExchangeKey key;
  Event event;
};

/// One SPSC lane of the matrix plus its producer row's frontier.
struct ExchangeLane {
  ExchangeLane(size_t capacity, Atomic<uint64_t>& row_frontier)
      : queue(capacity), frontier(row_frontier) {}
  /// Doubles as the consumer's reorder buffer for this lane (see
  /// MergeShard): a slot is freed only after its event was released.
  SpscQueue<ExchangeItem> queue;
  /// The producer row's frontier, shared by every lane of the row: every
  /// future item on this lane has primary >= it. Written only by the row's
  /// driver (release, monotone); the consumer acquire-loads it before
  /// draining the queue.
  Atomic<uint64_t>& frontier;
};

/// The N1×N2 lane matrix. Constructed before the shards on either side and
/// destroyed after them (it owns the queues both sides touch).
class ExchangeFabric {
 public:
  /// `producers`/`consumers` must be >= 1; `lane_capacity` bounds each lane
  /// like any runtime queue (rounded up to a power of two, clamped) and
  /// with it the consumer's per-lane reorder depth.
  ExchangeFabric(size_t producers, size_t consumers, size_t lane_capacity);

  size_t producer_count() const { return producers_; }
  size_t consumer_count() const { return consumers_; }

  ExchangeLane& lane(size_t producer, size_t consumer) {
    return *lanes_[producer * consumers_ + consumer];
  }

  /// All lanes written by one producer, indexed by consumer.
  std::vector<ExchangeLane*> Row(size_t producer);
  /// All lanes read by one consumer, indexed by producer.
  std::vector<ExchangeLane*> Column(size_t consumer);

  /// Emergency brake: makes every blocked or future Emit fail fast instead
  /// of spinning on a lane nobody will ever drain (torn-down consumers).
  void Abort() {
    // order: release so whatever state motivated the abort is visible to
    // an emitter that observes it and bails out.
    abort_.store(true, std::memory_order_release);
  }
  bool aborted() const {
    // order: acquire pairs with Abort's release store.
    return abort_.load(std::memory_order_acquire);
  }

 private:
  size_t producers_;
  size_t consumers_;
  /// One frontier word per producer row (see ExchangeLane::frontier).
  std::vector<std::unique_ptr<Atomic<uint64_t>>> frontiers_;
  std::vector<std::unique_ptr<ExchangeLane>> lanes_;
  Atomic<bool> abort_{false};
};

/// Counters one emitter exposes (readable from any thread).
struct ExchangeEmitterStats {
  /// Events emitted into the fabric.
  size_t forwarded = 0;
  /// Times a full lane made the producer wait (one per wait episode).
  size_t backpressure_waits = 0;
};

/// The stage-1 side of the fabric: owned by one shard, driven only by that
/// shard's worker thread (single producer per lane). Routes each emitted
/// event to its consumer lane by correlation key and stamps it with the
/// current trigger's ExchangeKey.
class ExchangeEmitter {
 public:
  /// `row` is the producer's lane row (one lane per consumer); `key_fn`
  /// extracts the correlation key (nullptr = subject key, see EventRouter).
  ExchangeEmitter(std::vector<ExchangeLane*> row, ShardKeyFn key_fn,
                  ExchangeFabric* fabric);

  ExchangeEmitter(const ExchangeEmitter&) = delete;
  ExchangeEmitter& operator=(const ExchangeEmitter&) = delete;

  size_t consumer_count() const { return row_.size(); }

  /// The rows a full-lane wait raises: every emitter of the owning shard,
  /// one per lane-group, this one included (the default is this emitter
  /// alone). Set by the owning shard before Start.
  void SetShardRows(std::vector<ExchangeEmitter*> rows) {
    shard_rows_ = std::move(rows);
  }

  /// Opens the emission scope of one trigger: subsequent Emit calls stamp
  /// (primary, n) for n = 0, 1, ... Primaries must be opened in strictly
  /// increasing order per emitter and never repeat across the producers of
  /// one fabric; the worker opens one scope per processed event (primary =
  /// the event's ingest sequence number).
  PLDP_HOT void BeginTrigger(uint64_t primary) {
    driver_role_.Assert();
    trigger_ = primary;
    sub_next_ = 0;
  }

  /// Routes `event` to its consumer lane, blocking (with backoff) while
  /// the lane is full — i.e. while the consumer still holds a lane's worth
  /// of this row's events. Fails fast when the fabric was aborted.
  PLDP_HOT Status Emit(const Event& event);

  /// Raises the row's frontier to `bound` — every future item on this row
  /// has primary >= bound — and rings every consumer's doorbell. Monotone:
  /// a bound at or below the current frontier is a no-op. Never blocks.
  void Broadcast(uint64_t bound);

  ExchangeEmitterStats stats() const;

  /// Binds telemetry instruments. Must precede the owning shard's Start()
  /// (the emitter is driven by that shard's worker).
  void SetInstruments(const obs::ExchangeInstruments& instruments) {
    obs_ = instruments;
  }

  /// Instantaneous sum of this row's lane occupancies — safe from any
  /// thread (SPSC indices are atomics); the lane-depth gauge source.
  size_t RowDepth() const {
    size_t depth = 0;
    for (const ExchangeLane* lane : row_) depth += lane->queue.ApproxSize();
    return depth;
  }

 private:
  /// Full-lane wait: counts the episode, raises every shard row's frontier
  /// to the current trigger — the primary of the item still waiting to be
  /// pushed (without it, shards blocked on each other's unreleased items
  /// could deadlock the merges) — then spins until the push succeeds or
  /// the fabric aborts.
  Status PushSlow(ExchangeLane& lane, ExchangeItem& item)
      PLDP_REQUIRES(driver_role_);

  std::vector<ExchangeLane*> row_;
  /// The row's frontier word (owned by the fabric; this emitter is its
  /// only writer).
  Atomic<uint64_t>& frontier_;
  EventRouter router_;
  ExchangeFabric* fabric_;
  /// See SetShardRows.
  std::vector<ExchangeEmitter*> shard_rows_{this};

  /// Single-driver contract: BeginTrigger/Emit/Broadcast are driven by one
  /// thread at a time — the owning shard's worker while it runs, the
  /// orchestrator absorbing leftovers after the join. Asserted (not
  /// acquired) at each entry point so the capability documents the caller
  /// contract without a handoff protocol of its own.
  ThreadRole driver_role_;

  // Worker-local emission state.
  uint64_t trigger_ PLDP_GUARDED_BY(driver_role_) = 0;
  uint64_t sub_next_ PLDP_GUARDED_BY(driver_role_) = 0;

  // Stats written by the worker (relaxed), read from any thread.
  Atomic<uint64_t> forwarded_{0};
  Atomic<uint64_t> backpressure_waits_{0};

  // Telemetry bundle (null fields = un-instrumented), fixed before Start.
  obs::ExchangeInstruments obs_;
};

}  // namespace pldp

#endif  // PLDP_RUNTIME_EXCHANGE_H_
