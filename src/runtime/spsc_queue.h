// Copyright 2026 The PLDP Authors.
//
// Bounded lock-free single-producer / single-consumer ring buffer.
//
// This is the only channel between the runtime's router thread and a shard
// worker (runtime/shard.h): exactly one thread calls TryPush and exactly one
// thread calls TryPop, which lets the queue get away with two atomic indices
// and no CAS loops. Capacity is fixed at construction (rounded up to a power
// of two) so a slow shard exerts backpressure on the router instead of
// growing without bound.
//
// Memory ordering: the producer publishes a slot with a release store of
// `tail_`; the consumer observes it with an acquire load, and vice versa for
// `head_` when freeing a slot. Each side additionally caches the other
// side's index so the common fast path touches only its own cache line
// (the classic Lamport queue + cached-index refinement).
//
// Slots are constructed lazily, as in folly's ProducerConsumerQueue: the
// constructor only allocates raw storage, the producer placement-
// constructs slot i the first time its tail reaches i (the first lap) and
// move-assigns into it on every later lap, and the destructor destroys
// the min(tail, capacity) slots that were ever constructed. Building a
// queue therefore writes none of its memory: a runtime sized for bursts
// pays page faults only for the slots its traffic actually reaches.
//
// The index handoff (push/pop vs pop-empty/push-full races, including the
// slot payload's visibility through the release/acquire pair) is
// machine-checked by tests/check/check_spsc_test.cc; its negative twin
// (PLDP_CHECK_NEGATIVE_SPSC, which weakens the tail publication below to
// relaxed) proves the checker sees the resulting payload race.

#ifndef PLDP_RUNTIME_SPSC_QUEUE_H_
#define PLDP_RUNTIME_SPSC_QUEUE_H_

#include <cstddef>
#include <memory>
#include <utility>

#include "common/atomic.h"
#include "common/thread_annotations.h"
#include "runtime/backoff.h"

namespace pldp {

/// Rounds `n` up to the next power of two (minimum 2). Inputs above the
/// highest representable power of two cannot round up; they saturate there
/// instead of looping forever on `p <<= 1` overflowing to zero.
constexpr size_t NextPowerOfTwo(size_t n) {
  constexpr size_t kHighBit = size_t{1} << (8 * sizeof(size_t) - 1);
  if (n >= kHighBit) return kHighBit;
  size_t p = 2;
  while (p < n) p <<= 1;
  return p;
}

/// Upper bound on SpscQueue capacity (slots). A bounded queue exists to
/// exert backpressure; requests beyond this are treated as configuration
/// errors and clamped so a bogus capacity cannot demand a near-2^64
/// allocation.
inline constexpr size_t kMaxSpscCapacity = size_t{1} << 20;

/// Fixed-capacity wait-free SPSC queue. `T` must be move-constructible and
/// move-assignable. Not safe for more than one producer or consumer thread.
template <typename T>
class SpscQueue {
 public:
  /// Usable capacity is `NextPowerOfTwo(capacity)` (the implementation
  /// keeps one index lap in reserve via the full/empty test, not a slot,
  /// so all slots are usable), clamped to `kMaxSpscCapacity`.
  explicit SpscQueue(size_t capacity)
      : mask_(NextPowerOfTwo(capacity < kMaxSpscCapacity ? capacity
                                                         : kMaxSpscCapacity) -
              1),
        slots_(std::allocator<Slot>().allocate(mask_ + 1)) {}

  ~SpscQueue() {
    // order: relaxed; destruction is externally ordered after both sides
    // finished, and only slots below the final tail were ever constructed.
    const size_t tail = tail_.load(std::memory_order_relaxed);
    std::destroy_n(slots_, tail < capacity() ? tail : capacity());
    std::allocator<Slot>().deallocate(slots_, capacity());
  }

  SpscQueue(const SpscQueue&) = delete;
  SpscQueue& operator=(const SpscQueue&) = delete;

  PLDP_HOT size_t capacity() const { return mask_ + 1; }

  /// Producer side. Returns false when the queue is full.
  PLDP_HOT bool TryPush(T&& value) {
    // order: relaxed; tail_ is producer-owned, only this thread writes it.
    const size_t tail = tail_.load(std::memory_order_relaxed);
    if (tail - cached_head_ > mask_) {
      // Looks full; refresh the consumer index and re-check.
      // order: acquire pairs with the consumer's release store of head_ —
      // the slot it freed must be visible before we overwrite it.
      cached_head_ = head_.load(std::memory_order_acquire);
      if (tail - cached_head_ > mask_) return false;
    }
    Fill(tail, std::move(value));
    // order: release publishes the slot write above to the consumer's
    // acquire load of tail_.
    tail_.store(tail + 1, kTailPublishOrder);
    if (waker_ != nullptr) waker_->Ring();
    return true;
  }

  bool TryPush(const T& value) {
    T copy = value;
    return TryPush(std::move(copy));
  }

  /// Bulk producer path: moves up to `count` items out of `items` into the
  /// queue and publishes them with a single release store (vs one per item
  /// for TryPush — the atomic amortization batched ingest is built on).
  /// Returns the number pushed; 0 when full. Items beyond the return value
  /// are left untouched.
  PLDP_HOT size_t TryPushN(T* items, size_t count) {
    // order: relaxed; tail_ is producer-owned, only this thread writes it.
    const size_t tail = tail_.load(std::memory_order_relaxed);
    size_t free = capacity() - (tail - cached_head_);
    if (free < count) {
      // order: acquire pairs with the consumer's release store of head_.
      cached_head_ = head_.load(std::memory_order_acquire);
      free = capacity() - (tail - cached_head_);
    }
    const size_t n = count < free ? count : free;
    for (size_t i = 0; i < n; ++i) Fill(tail + i, std::move(items[i]));
    if (n > 0) {
      // order: release publishes the whole burst of slot writes at once.
      tail_.store(tail + n, kTailPublishOrder);
      if (waker_ != nullptr) waker_->Ring();
    }
    return n;
  }

  /// Consumer side. Returns false when the queue is empty.
  PLDP_HOT bool TryPop(T& out) {
    // order: relaxed; head_ is consumer-owned, only this thread writes it.
    const size_t head = head_.load(std::memory_order_relaxed);
    if (head == cached_tail_) {
      // order: acquire pairs with the producer's release store of tail_ —
      // the slot contents must be visible before we move them out.
      cached_tail_ = tail_.load(std::memory_order_acquire);
      if (head == cached_tail_) return false;
    }
    out = RaceCellMove(slots_[head & mask_]);
    // order: release frees the slot to the producer's acquire load of
    // head_ — our move-out must complete before it reuses the slot.
    head_.store(head + 1, std::memory_order_release);
    return true;
  }

  /// Bulk consumer path: moves up to `max_count` items into `out`, freeing
  /// all of their slots with a single release store. Returns the number
  /// popped; 0 when empty.
  PLDP_HOT size_t TryPopN(T* out, size_t max_count) {
    // order: relaxed; head_ is consumer-owned, only this thread writes it.
    const size_t head = head_.load(std::memory_order_relaxed);
    size_t avail = cached_tail_ - head;
    if (avail < max_count) {
      // order: acquire pairs with the producer's release store of tail_.
      cached_tail_ = tail_.load(std::memory_order_acquire);
      avail = cached_tail_ - head;
    }
    const size_t n = max_count < avail ? max_count : avail;
    for (size_t i = 0; i < n; ++i) {
      out[i] = RaceCellMove(slots_[(head + i) & mask_]);
    }
    // order: release frees the whole burst of slots at once.
    if (n > 0) head_.store(head + n, std::memory_order_release);
    return n;
  }

  /// Racy size estimate — exact only when both sides are quiescent.
  size_t ApproxSize() const {
    // order: acquire on both indices — callers use the estimate to decide
    // "nothing below X is pending", which must not run ahead of the
    // publication the index advance covered.
    const size_t tail = tail_.load(std::memory_order_acquire);
    // order: acquire (see above).
    const size_t head = head_.load(std::memory_order_acquire);
    return tail - head;
  }

  bool ApproxEmpty() const { return ApproxSize() == 0; }

  /// Attaches a doorbell rung after every successful push, so a consumer
  /// parked on it (runtime/backoff.h) wakes when work arrives. Must be set
  /// before the producer starts pushing; the queue does not own the bell.
  void SetWaker(Doorbell* waker) { waker_ = waker; }

  /// Producer side: rings the waker without pushing, for progress the
  /// producer published beside the queue with its own release store (an
  /// exchange frontier). No-op without a waker.
  void Wake() {
    if (waker_ != nullptr) waker_->Ring();
  }

 private:
  static constexpr size_t kCacheLine = 64;

  // RaceCell is plain T in normal builds; under PLDP_MODEL_CHECK every
  // slot access (first-lap construction included) is vector-clock checked
  // against the chosen schedule.
  using Slot = RaceCell<T>;

  /// Producer-side slot write for absolute position `pos`: first-lap
  /// positions are raw storage and get constructed, later laps assign.
  PLDP_HOT void Fill(size_t pos, T&& value) {
    if (pos <= mask_) {
      ::new (static_cast<void*>(slots_ + pos)) Slot(std::move(value));
    } else {
      slots_[pos & mask_] = std::move(value);
    }
  }

#ifdef PLDP_CHECK_NEGATIVE_SPSC
  // Seeded mutation for the model checker's negative suite: publishing
  // the tail with relaxed ordering lets the consumer observe the new
  // index before the slot contents — the payload race the release store
  // exists to prevent.
  static constexpr std::memory_order kTailPublishOrder =
      std::memory_order_relaxed;
#else
  static constexpr std::memory_order kTailPublishOrder =
      std::memory_order_release;
#endif

  const size_t mask_;
  Slot* const slots_;  ///< capacity() slots of storage, see header comment

  // Producer-owned line: its index plus a cache of the consumer's.
  alignas(kCacheLine) Atomic<size_t> tail_{0};
  size_t cached_head_ = 0;
  Doorbell* waker_ = nullptr;

  // Consumer-owned line.
  alignas(kCacheLine) Atomic<size_t> head_{0};
  size_t cached_tail_ = 0;
};

}  // namespace pldp

#endif  // PLDP_RUNTIME_SPSC_QUEUE_H_
