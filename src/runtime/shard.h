// Copyright 2026 The PLDP Authors.
//
// One worker shard of the parallel streaming runtime.
//
// A shard owns a worker thread, a bounded SPSC queue feeding it, a private
// `StreamingCepEngine` (never touched by any other thread while running),
// optionally a `ShardEventSink` the worker feeds every event to after the
// engine — the hook the shard-local PLDP perturbation pipeline
// (core/parallel_private_engine.h) plugs into — and any number of
// `ExchangeEmitter`s (runtime/exchange.h) through which the worker re-keys
// its output into stage-2 fabrics. Each emitter belongs to one exchange
// lane-group (one correlation key); a pipeline with per-query correlation
// keys attaches one emitter per distinct key.
//
// What crosses the exchange follows from the topology: a shard without a
// sink forwards every processed event through all of its emitters (the
// plain cross-subject path); a shard with a sink forwards nothing itself,
// and only what the sink emits crosses (the private path, where nothing
// but protected views may leave the shard).
//
// Every queued event carries its global ingest sequence number
// (`StampedEvent`); the worker opens an exchange trigger scope per event so
// everything emitted downstream is stamped with a merge key that restores
// global order on the stage-2 side.
//
// Threading contract:
//   - Exactly one thread (the router / ParallelStreamingEngine caller) may
//     call PushStampedN / TryPushStampedN at a time; the worker thread is
//     the only consumer.
//   - AddQuery / SetEventSink / AddExchange must happen before Start. Start
//     and Stop must not race each other or a pushing producer (they manage
//     the worker thread), but a push racing a Stop fails fast instead of
//     hanging.
//   - Drain() and stats() may be called from any thread, including while a
//     producer is pushing: the counters (and the running flag) are atomics,
//     so the calls are race-free. A Drain that races a producer waits for
//     the events pushed at the moment it reads `pushed_` (best effort by
//     construction).
//   - RequestFlushWatermark / PostFinish are issued by one orchestrator
//     thread after a Drain; they run on the worker and are acknowledged
//     through WaitCommandAck. The orchestrator's claim that the shard has
//     seen every event below the given bound inherits Drain's best-effort
//     semantics under racing producers.
//   - engine() and sink contents are safe to read after Drain() or
//     Stop() returned: the worker publishes each processed batch with a
//     release store that Drain observes with an acquire load, which orders
//     all engine/sink mutations before the caller's reads. Command
//     acknowledgements publish the same way.

#ifndef PLDP_RUNTIME_SHARD_H_
#define PLDP_RUNTIME_SHARD_H_

#include <cstdint>
#include <memory>
#include <thread>
#include <vector>

#include "cep/streaming_engine.h"
#include "common/atomic.h"
#include "common/status.h"
#include "common/thread_annotations.h"
#include "event/event.h"
#include "obs/instruments.h"
#include "runtime/backoff.h"
#include "runtime/exchange.h"
#include "runtime/spsc_queue.h"

namespace pldp {

/// Counters one shard exposes to the orchestrator.
struct ShardStats {
  size_t shard_index = 0;
  /// Events delivered to this shard's engine.
  size_t events_processed = 0;
  /// Detections across this shard's queries.
  size_t detections = 0;
  /// Times the producer found the queue full and had to wait — a direct
  /// measure of backpressure on this shard.
  size_t backpressure_waits = 0;
  /// Events this shard emitted into the exchange fabric (0 when the shard
  /// has no emitter).
  size_t forwarded = 0;
  /// Times a full exchange lane made this shard's worker wait — direct
  /// backpressure from stage-2 (0 without an emitter).
  size_t exchange_backpressure_waits = 0;
  /// Times the idle worker parked on its doorbell (runtime/backoff.h) and
  /// how often a producer's ring took the slow notify path.
  size_t parks = 0;
  size_t wakes = 0;
};

/// A queued event plus its global ingest sequence number — the exchange
/// merge key's primary component (see runtime/exchange.h).
struct StampedEvent {
  uint64_t seq = 0;
  Event event;
};

/// Receives every event the shard worker processes, after the shard engine
/// saw it, on the worker thread, in arrival order. Implementations own any
/// state they need (it is worker-local while running; see the threading
/// contract above for when the orchestrator may read it).
class ShardEventSink {
 public:
  virtual ~ShardEventSink() = default;
  virtual void OnShardEvent(const Event& event) = 0;

  /// Called once per exchange fabric the shard is wired into, before
  /// Start (in AddExchange order). Sinks that emit downstream (e.g.
  /// protected views) keep the pointer; it outlives the sink. Default:
  /// ignore.
  virtual void AttachExchangeEmitter(ExchangeEmitter* /*emitter*/) {}

  /// End-of-stream, delivered on the worker thread by PostFinish after
  /// every event. `finish_seq` is the sequence bound of the stream (all
  /// processed events have seq < finish_seq); finalize-time emissions must
  /// use it as their trigger. Default: no-op.
  virtual void OnShardFinish(uint64_t /*finish_seq*/) {}
};

/// Worker thread + queue + per-shard engine.
class Shard {
 public:
  /// `queue_capacity` is rounded up to a power of two (and clamped to
  /// kMaxSpscCapacity).
  Shard(size_t index, size_t queue_capacity);
  ~Shard();

  Shard(const Shard&) = delete;
  Shard& operator=(const Shard&) = delete;

  size_t index() const { return index_; }

  /// Registers a query on this shard's engine. Must precede Start().
  StatusOr<size_t> AddQuery(Pattern pattern, Timestamp window);

  /// Installs the worker-side event sink. A shard with a sink never
  /// forwards raw events into its exchange emitters; only the sink's own
  /// emissions cross. Must precede Start().
  Status SetEventSink(std::unique_ptr<ShardEventSink> sink);

  /// Binds telemetry instruments (obs/instruments.h). Null fields are
  /// skipped at update sites; copy-by-value, the registry owns the
  /// instruments. Must precede Start().
  Status SetInstruments(const obs::ShardInstruments& instruments);

  /// Installs a user detection callback invoked on the worker thread for
  /// every detection this shard's engine fires, in addition to the internal
  /// detection counter. Must precede Start().
  Status SetDetectionCallback(DetectionCallback callback);

  /// Pins the worker thread to `core` at startup (no-op when negative or
  /// unsupported on this platform). Must precede Start().
  void SetAffinityCore(int core) { affinity_core_ = core; }

  /// Wires this shard into one more exchange fabric (one lane-group). The
  /// worker forwards every processed event through it unless the shard has
  /// a sink (see the file comment). May be called once per lane-group;
  /// must precede Start().
  Status AddExchange(std::unique_ptr<ExchangeEmitter> emitter)
      PLDP_EXCLUDES(reg_mu_);

  /// Launches the worker thread. Returns FailedPrecondition if running.
  Status Start();

  /// Bulk enqueue: moves `count` pre-stamped events out of `events` into
  /// the queue, blocking (spin + yield) while it is full. Sequence numbers
  /// must be strictly increasing across all pushes to this shard. Producer
  /// thread only; requires a running worker — fails fast with
  /// FailedPrecondition when the shard is stopped or stopping, instead of
  /// spinning forever on a queue nobody drains. One release store per
  /// queue burst. When `accepted` is non-null it receives the number of
  /// events actually enqueued (== count on success, possibly fewer when
  /// failing fast on a stop).
  Status PushStampedN(StampedEvent* events, size_t count,
                      size_t* accepted = nullptr);

  /// Non-blocking variant: enqueues as many leading events as the queue
  /// has room for and returns that number (0 when full, stopped, or not
  /// running — never waits). Same producer contract and stamping rules as
  /// PushStampedN; the admission/shedding layer (runtime/admission.h) is
  /// built on it.
  size_t TryPushStampedN(StampedEvent* events, size_t count);

  /// Producer-side progress hint: every event with seq < `floor` has been
  /// pushed to its target shard already (this one or another). Lets a
  /// shard that receives little or no traffic raise idle frontiers that
  /// track the global stream instead of staying silent until the
  /// next drain barrier — without it, skewed routings buffer everything
  /// downstream. Same caller as PushStampedN (the single ingest thread).
  void NoteProducerFloor(uint64_t floor) {
    // order: release so everything pushed before the floor claim is
    // visible to the worker's acquire load.
    producer_floor_.store(floor, std::memory_order_release);
    doorbell_.Ring();
  }

  /// Blocks until every event pushed so far has been processed. The worker
  /// stays alive; more events may be pushed after.
  Status Drain();

  /// Asks the worker to raise its exchange rows' frontiers to `bound` and
  /// blocks until it did. Call after Drain so the bound's claim —
  /// "this shard forwarded everything below `bound` it will ever see" —
  /// holds. No-op without an emitter (still acknowledged).
  Status RequestFlushWatermark(uint64_t bound);

  /// Posts end-of-stream to the worker without waiting and returns the
  /// acknowledgement token for WaitCommandAck: the sink's OnShardFinish
  /// runs (emitting any finalize-time output), then the exchange rows are
  /// closed with the terminal frontier. Call after Drain, with ingestion
  /// stopped. Under bounded exchange credits one shard's finalize
  /// emissions may only be releasable once every other shard has begun
  /// its own finalize — so the orchestrator must post finish to ALL
  /// shards before waiting on ANY (see ParallelStreamingEngine::Finish).
  StatusOr<uint64_t> PostFinish(uint64_t finish_seq);

  /// Blocks until the worker acknowledged the posted command `token`.
  /// Fails fast when the shard begins stopping first.
  Status WaitCommandAck(uint64_t token);

  /// Drains, stops, and joins the worker. Idempotent.
  Status Stop();

  bool running() const {
    // order: relaxed; advisory flag, carries no payload.
    return running_.load(std::memory_order_relaxed);
  }

  /// The shard-local engine. Read-only access for the orchestrator; only
  /// valid when the shard is stopped or drained (see threading contract).
  const StreamingCepEngine& engine() const { return engine_; }

  /// Safe from any thread at any time: the counters are atomics, and the
  /// attached-emitter list is read under the registration mutex so a scrape
  /// racing a late AddExchange (both pre-Start) is well-defined.
  ShardStats stats() const PLDP_EXCLUDES(reg_mu_);

  /// Instantaneous queue occupancy / capacity — safe from any thread
  /// (SPSC indices are atomics); used for queue-depth gauges and health.
  size_t queue_depth() const { return queue_.ApproxSize(); }
  size_t queue_capacity() const { return queue_.capacity(); }

  /// Doorbell park/wake counts (always tracked, even un-instrumented);
  /// used by stats() and the parking-liveness tests.
  uint64_t parks() const { return doorbell_.parks(); }
  uint64_t wakes() const { return doorbell_.wakes(); }

  /// Attached exchange lane-groups, in AddExchange order (which is the
  /// orchestrator's group order). Emitter stats/depth reads are
  /// thread-safe; used to wire per-lane instruments.
  size_t exchange_count() const PLDP_EXCLUDES(reg_mu_) {
    MutexLock lock(reg_mu_);
    return emitters_.size();
  }
  ExchangeEmitter* exchange_emitter(size_t i) PLDP_EXCLUDES(reg_mu_) {
    MutexLock lock(reg_mu_);
    return emitters_[i].get();
  }

 private:
  enum CommandKind : uint32_t {
    kCmdNone = 0,
    kCmdFlushWatermark = 1,
    kCmdFinish = 2,
  };

  /// The worker snapshots the emitter list once at startup (the list is
  /// frozen by then — AddExchange refuses while running) so the per-event
  /// path never touches the mutex-guarded vector.
  std::vector<ExchangeEmitter*> SnapshotEmitters() const
      PLDP_EXCLUDES(reg_mu_);

  void RunLoop() PLDP_REQUIRES(worker_role_);
  /// Delivers one event to the engine and then to the sink, or, without a
  /// sink, to every exchange emitter — the per-event section of the worker
  /// loop (also used by Stop's post-join leftover absorption, under the
  /// role handoff).
  PLDP_HOT void ProcessOne(const StampedEvent& stamped,
                           const std::vector<ExchangeEmitter*>& emitters)
      PLDP_REQUIRES(worker_role_);
  void ExecuteCommand(const std::vector<ExchangeEmitter*>& emitters)
      PLDP_REQUIRES(worker_role_);
  StatusOr<uint64_t> PostCommand(uint32_t kind, uint64_t payload);

  const size_t index_;
  SpscQueue<StampedEvent> queue_;
  /// Wake-on-work doorbell the idle worker parks on; rung by every queue
  /// push (SetWaker), producer floor, posted command, and stop.
  Doorbell doorbell_;
  /// Worker thread CPU affinity (-1 = unpinned).
  int affinity_core_ = -1;
  StreamingCepEngine engine_;
  std::unique_ptr<ShardEventSink> sink_;
  /// Guards the emitter list: AddExchange (orchestrator, pre-Start) can
  /// race a stats()/exchange_count() scrape, and vector growth is not
  /// atomic. The worker never takes it (see SnapshotEmitters).
  mutable Mutex reg_mu_;
  std::vector<std::unique_ptr<ExchangeEmitter>> emitters_
      PLDP_GUARDED_BY(reg_mu_);
  // Telemetry bundle (null fields = un-instrumented) and the optional user
  // detection callback; both fixed before Start, read on the worker.
  obs::ShardInstruments obs_;
  DetectionCallback user_callback_;
  std::thread worker_;
  // Written only by Start/Stop; atomic so Drain/stats from other threads
  // read it race-free.
  Atomic<bool> running_{false};

  /// Confinement token (zero-size, zero-cost — see thread_annotations.h):
  /// held by the worker thread, and by Stop after the join (the documented
  /// handoff).
  ThreadRole worker_role_;

  // Producer-side counters: written by the producer thread only (relaxed)
  // but read from arbitrary threads by Drain()/stats(), hence atomic.
  Atomic<uint64_t> pushed_{0};
  Atomic<uint64_t> backpressure_waits_{0};
  Atomic<uint64_t> producer_floor_{0};

  // Orchestrator → worker command channel: payload/kind are published by
  // the generation counter (release) and acknowledged by the worker
  // (release on cmd_ack_).
  Atomic<uint64_t> cmd_gen_{0};
  Atomic<uint64_t> cmd_ack_{0};
  Atomic<uint64_t> cmd_payload_{0};
  Atomic<uint32_t> cmd_kind_{kCmdNone};

  // Worker → producer publication point: incremented (release) after the
  // engine has absorbed a batch; Drain spins on it (acquire).
  Atomic<uint64_t> processed_{0};
  // Worker-side detection counter (fed by the engine callback) so stats()
  // never has to touch the non-atomic engine internals.
  Atomic<uint64_t> detections_{0};
  Atomic<bool> stop_requested_{false};

  // Worker-local: one past the last processed sequence number (0 before
  // the first event) — the idle-time frontier.
  uint64_t idle_bound_ PLDP_GUARDED_BY(worker_role_) = 0;
};

}  // namespace pldp

#endif  // PLDP_RUNTIME_SHARD_H_
