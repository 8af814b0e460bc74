// Copyright 2026 The PLDP Authors.
//
// Stage-2 worker of the exchange pipeline: one correlation partition.
//
// A merge shard owns a worker thread, one exchange lane per stage-1
// producer (the consumer column of the fabric), and a private
// `StreamingCepEngine` holding the cross-subject queries. The worker
// restores global order with a frontier-gated k-way merge:
//
//   - every lane delivers strictly increasing `ExchangeKey`s; received
//     events are staged in a per-lane reorder buffer, and the producer
//     row's frontier word only advances the lane's lower bound (loaded
//     before the lane is drained, applied after the drained items);
//   - the smallest buffered key is released to the engine exactly when
//     every other lane is known to be past it (a buffered head or a
//     frontier bound proves it) — so the engine sees the events of this
//     correlation partition in precisely the order a sequential engine
//     processing the whole stream would have seen them;
//   - after each pass the worker publishes `safe_primary`, the sequence
//     number through which everything has been merged and processed. Drain
//     barriers wait on it; `kExchangeSeqEnd` means the pipeline is sealed.
//
// The reorder buffers are hard-bounded by the exchange's credit protocol:
// each lane carries a credit budget equal to its reorder capacity
// (ExchangeLane::initial_credits), an Emit consumes one credit, and this
// shard returns it when the event is released to the engine — so a lane's
// in-flight events (queue + buffer) never exceed the budget, whatever the
// producers do. In steady state the buffers hold at most a few lane
// bursts, because every producer keeps raising its frontier when idle —
// even one that receives no traffic at all (the router periodically
// publishes a producer floor for exactly that case). When this shard
// stalls, the exhausted credits backpressure the producers (and
// transitively the ingest thread) instead of growing the buffers; the
// buffers carry a protocol-assert capacity cap documenting that bound.
//
// The consume/return credit cycle and the capacity cap are machine-checked
// by tests/check/check_credits_test.cc (model seams below); the negative
// twin PLDP_CHECK_NEGATIVE_CREDITS (merge_shard.cc) returns credits at
// receipt instead of at release and trips the cap under the checker.
//
// Threading contract: AddQuery before Start; exactly one orchestrator
// thread calls Start/Stop; WaitSafe/stats may be called from any thread.
// engine() is safe to read after WaitSafe observed the bound covering
// everything of interest (release/acquire on safe_primary), or after
// Stop().

#ifndef PLDP_RUNTIME_MERGE_SHARD_H_
#define PLDP_RUNTIME_MERGE_SHARD_H_

#include <cstdint>
#include <thread>
#include <vector>

#include "cep/streaming_engine.h"
#include "common/atomic.h"
#include "common/status.h"
#include "common/thread_annotations.h"
#include "obs/instruments.h"
#include "runtime/backoff.h"
#include "runtime/exchange.h"
#include "runtime/ring_buffer.h"
#include "runtime/shard.h"

namespace pldp {

/// Worker thread + lane column + per-partition engine.
class MergeShard {
 public:
  /// `inputs` is the fabric column this shard consumes (one lane per
  /// stage-1 producer), fixed for the shard's lifetime.
  MergeShard(size_t index, std::vector<ExchangeLane*> inputs);
  ~MergeShard();

  MergeShard(const MergeShard&) = delete;
  MergeShard& operator=(const MergeShard&) = delete;

  size_t index() const { return index_; }

  /// Registers a cross-partition query. Must precede Start().
  StatusOr<size_t> AddQuery(Pattern pattern, Timestamp window);

  /// Binds telemetry instruments (null fields are skipped). Must precede
  /// Start().
  Status SetInstruments(const obs::MergeInstruments& instruments);

  /// Installs a user detection callback (worker thread) invoked for every
  /// detection of this partition's engine. Must precede Start().
  Status SetDetectionCallback(DetectionCallback callback);

  /// Pins the worker thread to `core` at startup (no-op when negative or
  /// unsupported). Must precede Start().
  void SetAffinityCore(int core) { affinity_core_ = core; }

  /// Doorbell park/wake counts (parking-liveness tests; also in stats()).
  uint64_t parks() const { return doorbell_.parks(); }
  uint64_t wakes() const { return doorbell_.wakes(); }

  /// Launches the worker thread. Returns FailedPrecondition if running.
  Status Start();

  /// Blocks until everything with sequence number < `bound` has been merged
  /// and processed (i.e. safe_primary() >= bound). The caller must have
  /// arranged for every producer to pass `bound` (drain + frontier
  /// flush), or this spins until they do.
  Status WaitSafe(uint64_t bound);

  /// The published merge frontier (acquire; see file comment).
  uint64_t safe_primary() const {
    // order: acquire pairs with the worker's release publication — engine
    // reads gated on the frontier must see the absorbed events.
    return safe_primary_.load(std::memory_order_acquire);
  }

  /// Stops and joins the worker, then absorbs any leftover lane items in
  /// key order (there are none after a proper drain barrier). Idempotent.
  Status Stop();

  bool running() const {
    // order: relaxed; advisory flag, carries no payload.
    return running_.load(std::memory_order_relaxed);
  }

  /// The partition-local engine. Read-only for the orchestrator; valid
  /// after WaitSafe's bound covers the reads, or after Stop().
  const StreamingCepEngine& engine() const { return engine_; }

  /// Safe from any thread (atomics). events_processed counts events
  /// released to the engine; backpressure_waits stays 0 (producer-side
  /// waits are counted by the emitters).
  ShardStats stats() const;

  /// Instantaneous reorder-buffer occupancy across all lanes — safe from
  /// any thread (dedicated atomic; the ring buffers themselves are
  /// worker-local). Gauge/health source.
  size_t reorder_buffered() const {
    // order: relaxed; instantaneous gauge, no payload to acquire.
    return static_cast<size_t>(buffered_.load(std::memory_order_relaxed));
  }

  /// Hard occupancy bound across all lanes (sum of the lanes' credit
  /// budgets) — the denominator of reorder saturation in health/metrics.
  /// Constant after construction; safe from any thread.
  size_t reorder_capacity() const { return reorder_capacity_; }

#ifdef PLDP_MODEL_CHECK
  /// Model-check seams (tests/check/check_credits_test.cc): run the worker
  /// loop on a model thread instead of a real std::thread, and request
  /// stop without joining. Start()/Stop() are never called in a model
  /// harness — std::thread would escape the cooperative scheduler.
  void ModelRunWorker() {
    worker_role_.Acquire();
    RunLoop();
    worker_role_.Release();
  }
  void ModelRequestStop() {
    // order: release mirrors Stop(); the worker's acquire load pairs.
    stop_requested_.store(true, std::memory_order_release);
    doorbell_.Ring();
  }
  /// Post-join leftover absorption, mirroring the tail of Stop(): the
  /// worker may observe the stop request in the same iteration that its
  /// receive pass ran dry, leaving late pushes in the lanes.
  void ModelFinalize() {
    worker_role_.Acquire();
    (void)ReceiveAvailable();
    (void)MergePass(/*force=*/true);
    worker_role_.Release();
  }
#endif

 private:
  struct LaneState {
    explicit LaneState(ExchangeLane* l) : lane(l) {}
    ExchangeLane* lane;
    /// Events received but not yet safe to release, in key order. A ring
    /// (not a deque) so steady-state buffering never allocates — capacity
    /// sticks after the first bursts (see runtime/ring_buffer.h).
    RingBuffer<ExchangeItem> buffer;
    /// Lower bound on every future key of this lane (from the last
    /// received item or the applied frontier).
    ExchangeKey bound{0, 0};
  };

  void RunLoop() PLDP_REQUIRES(worker_role_);
  /// Drains whatever the lanes currently hold into the reorder buffers.
  PLDP_HOT bool ReceiveAvailable() PLDP_REQUIRES(worker_role_);
  /// Releases every safe buffered event to the engine, in key order.
  /// When `force` (only after the producers are joined), gating by lane
  /// bounds is skipped and everything buffered is released.
  PLDP_HOT bool MergePass(bool force) PLDP_REQUIRES(worker_role_);
  void PublishSafeBound() PLDP_REQUIRES(worker_role_);

  const size_t index_;
  /// Sum of the input lanes' credit budgets (constant after construction).
  const size_t reorder_capacity_;
  /// Worker-thread confinement of the merge state: the orchestrator holds
  /// the role from construction until Start() launches the worker, the
  /// worker holds it for the thread's lifetime, and Stop() takes it back
  /// after the join to absorb leftovers. Zero-size, zero-cost — exists so
  /// the thread-safety analysis can prove the reorder buffers are never
  /// touched concurrently.
  ThreadRole worker_role_;
  std::vector<LaneState> lanes_ PLDP_GUARDED_BY(worker_role_);
  /// Wake-on-work doorbell the idle worker parks on; every input lane's
  /// queue rings it on push and on a frontier advance, Stop() rings it
  /// directly.
  Doorbell doorbell_;
  /// Worker thread CPU affinity (-1 = unpinned).
  int affinity_core_ = -1;
  StreamingCepEngine engine_;
  std::thread worker_;
  Atomic<bool> running_{false};
  Atomic<bool> stop_requested_{false};

  /// Merge frontier: everything with primary < safe_primary_ is done.
  /// Published with release after the engine absorbed the events.
  Atomic<uint64_t> safe_primary_{0};
  Atomic<uint64_t> merged_{0};
  Atomic<uint64_t> detections_{0};
  /// Events sitting in reorder buffers (receive increments, release
  /// decrements) — kept as an atomic so scrape threads never touch the
  /// worker-local ring buffers.
  Atomic<uint64_t> buffered_{0};

  // Telemetry bundle and optional user callback, fixed before Start.
  obs::MergeInstruments obs_;
  DetectionCallback user_callback_;
};

}  // namespace pldp

#endif  // PLDP_RUNTIME_MERGE_SHARD_H_
