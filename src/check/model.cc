// Copyright 2026 The PLDP Authors.

#include "check/model.h"

#include <cassert>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <exception>
#include <map>
#include <memory>
#include <sstream>
#include <thread>
#include <unordered_map>

namespace pldp {
namespace check {

namespace internal {

// Per-atomic-location store history (see model.h file comment).
struct Location {
  uint64_t latest_bits = 0;  // canonical value outside runs / reset seed
  uint64_t epoch = 0;
  int ordinal = -1;
  int last_sc = -1;  // index of the newest seq_cst store, -1 if none
  struct Store {
    uint64_t value = 0;
    VClock rel;   // release clock (absorbed by acquire loads)
    VClock snap;  // storing thread's full clock at the store
    int tid = -1;
  };
  std::vector<Store> history;
};

}  // namespace internal

namespace {

using internal::CondVarState;
using internal::Location;
using internal::MutexState;
using internal::RaceState;
using internal::VClock;

// Thrown to unwind a model thread when the execution aborts (failure
// found or teardown). Caught by the slot loop.
struct ModelAbort {};

enum class TStatus { kUnborn, kRunnable, kYielded, kBlocked, kFinished };
enum class BlockKind { kNone, kJoin, kMutex, kCondVar };

enum class Op : uint8_t {
  kLoad,
  kStore,
  kRmw,
  kCasOk,
  kCasFail,
  kFence,
  kCellRead,
  kCellWrite,
  kLock,
  kUnlock,
  kCondWait,
  kNotify,
  kSpawn,
  kJoin,
};

struct TraceEv {
  int tid;
  Op op;
  int loc;  // location/cell/mutex/condvar ordinal, -1 for fences
  int mo;   // memory order, -1 when not applicable
  uint64_t a;
  uint64_t b;
};

struct ThreadRec {
  int tid = -1;
  std::string name;
  TStatus status = TStatus::kUnborn;
  BlockKind bkind = BlockKind::kNone;
  const void* bobj = nullptr;
  int join_target = -1;
  VClock clock;
  VClock fence_rel;     // clock at the latest release fence
  VClock acq_pending;   // rel clocks seen by relaxed loads, pending a fence
  // Eventual visibility: set when the driver promotes this thread out of
  // a spin-yield because nothing else can run — its loads then read the
  // newest store (the C++ forward-progress guarantee that a store becomes
  // visible "in a finite period of time"), so a spin loop whose exit
  // condition HAS been satisfied cannot be misreported as a livelock.
  // Cleared when the thread yields again.
  bool fresh_read = false;
  std::unordered_map<const void*, size_t> floor;         // coherence floor
  std::unordered_map<const void*, size_t> fence_export;  // sc-fence export
  // Baton.
  std::condition_variable cv;
  bool go = false;
  bool has_work = false;
  std::function<void()> work;
  std::thread os;
};

struct Decision {
  uint32_t chosen;
  uint32_t count;
};

// The one checker instance. RunModel is not reentrant and model suites
// run their RunModel calls sequentially, so a process-wide singleton
// keeps the shadow-type hookup trivial (a ShadowAtomic has no way to
// name "its" engine).
struct Engine {
  std::mutex mx;
  std::condition_variable driver_cv;
  bool control_returned = false;
  bool pool_shutdown = false;

  ModelConfig cfg;
  bool active = false;
  bool replay_mode = false;

  // Per-execution state.
  uint64_t epoch = 0;
  int next_loc_ordinal = 0;
  int next_cell_ordinal = 0;
  int next_sync_ordinal = 0;
  uint64_t steps = 0;
  bool aborted = false;
  bool failed = false;
  std::string failure;
  std::map<const void*, size_t> sc_floor;  // seq_cst fence visibility floors
  bool progress = false;
  int last_tid = -1;
  int preempts = 0;
  int no_progress_rounds = 0;
  std::vector<TraceEv> trace;
  std::vector<Decision> path;
  std::vector<uint32_t> forced;
  size_t cursor = 0;
  uint64_t rng = 0;

  // Totals / results.
  uint64_t total_decisions = 0;
  std::string report;
  std::string replay_out;

  std::unique_ptr<ThreadRec> threads[kMaxModelThreads];
  int nthreads = 0;
};

Engine g;
thread_local ThreadRec* t_self = nullptr;

bool IsAcquire(std::memory_order mo) {
  return mo == std::memory_order_acquire || mo == std::memory_order_acq_rel ||
         mo == std::memory_order_seq_cst || mo == std::memory_order_consume;
}
bool IsRelease(std::memory_order mo) {
  return mo == std::memory_order_release || mo == std::memory_order_acq_rel ||
         mo == std::memory_order_seq_cst;
}
bool IsSeqCst(std::memory_order mo) {
  return mo == std::memory_order_seq_cst;
}

const char* MoName(int mo) {
  switch (mo) {
    case std::memory_order_relaxed: return "rlx";
    case std::memory_order_consume: return "cons";
    case std::memory_order_acquire: return "acq";
    case std::memory_order_release: return "rel";
    case std::memory_order_acq_rel: return "ar";
    case std::memory_order_seq_cst: return "sc";
    default: return "?";
  }
}

const char* OpName(Op op) {
  switch (op) {
    case Op::kLoad: return "load";
    case Op::kStore: return "store";
    case Op::kRmw: return "rmw";
    case Op::kCasOk: return "cas-ok";
    case Op::kCasFail: return "cas-fail";
    case Op::kFence: return "fence";
    case Op::kCellRead: return "cell-read";
    case Op::kCellWrite: return "cell-write";
    case Op::kLock: return "lock";
    case Op::kUnlock: return "unlock";
    case Op::kCondWait: return "cond-wait";
    case Op::kNotify: return "notify";
    case Op::kSpawn: return "spawn";
    case Op::kJoin: return "join";
  }
  return "?";
}

uint64_t Mix64(uint64_t x) {
  x += 0x9e3779b97f4a7c15ULL;
  x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ULL;
  x = (x ^ (x >> 27)) * 0x94d049bb133111ebULL;
  return x ^ (x >> 31);
}

uint64_t NextRng() {
  g.rng = Mix64(g.rng);
  return g.rng;
}

void FormatTraceEv(const TraceEv& e, std::string* out) {
  char buf[160];
  const ThreadRec* t =
      (e.tid >= 0 && e.tid < kMaxModelThreads) ? g.threads[e.tid].get()
                                               : nullptr;
  snprintf(buf, sizeof(buf), "  T%d(%s) %s #%d [%s] a=%llu b=%llu\n", e.tid,
           t ? t->name.c_str() : "?", OpName(e.op), e.loc,
           e.mo >= 0 ? MoName(e.mo) : "-",
           static_cast<unsigned long long>(e.a),
           static_cast<unsigned long long>(e.b));
  out->append(buf);
}

void Trace(Op op, int loc, int mo, uint64_t a, uint64_t b) {
  TraceEv ev{t_self ? t_self->tid : -1, op, loc, mo, a, b};
  if (g.trace.size() < 100000) g.trace.push_back(ev);
  if (g.replay_mode) {
    std::string line;
    FormatTraceEv(ev, &line);
    fputs(line.c_str(), stderr);
  }
}

// ---- Decision points -------------------------------------------------

uint32_t Choose(uint32_t count) {
  if (count <= 1) return 0;
  uint32_t c;
  if (g.cursor < g.forced.size()) {
    c = g.forced[g.cursor];
    if (c >= count) c = count - 1;  // replay from a diverging build: clamp
  } else if (g.cfg.random && !g.replay_mode) {
    c = static_cast<uint32_t>(NextRng() % count);
  } else {
    c = 0;
  }
  g.path.push_back({c, count});
  ++g.cursor;
  ++g.total_decisions;
  return c;
}

bool NextSchedule() {
  auto& p = g.path;
  while (!p.empty() && p.back().chosen + 1 >= p.back().count) p.pop_back();
  if (p.empty()) return false;
  ++p.back().chosen;
  g.forced.clear();
  g.forced.reserve(p.size());
  for (const Decision& d : p) g.forced.push_back(d.chosen);
  return true;
}

// ---- Baton handoff ---------------------------------------------------

// Must be called with g.mx held and g.aborted true. Throws ModelAbort to
// unwind the thread unless it is already unwinding (then the caller runs
// its op in "direct mode": no scheduling, newest-value semantics, so
// destructors can still make progress during teardown).
void AbortCheckLocked() {
  if (std::uncaught_exceptions() == 0) throw ModelAbort{};
}

// Pre-op yield point: hands the baton to the driver and waits for the
// next grant. No-op outside an active run or in direct (abort) mode.
void SchedulePoint() {
  ThreadRec* r = t_self;
  if (r == nullptr || !g.active) return;
  std::unique_lock<std::mutex> lk(g.mx);
  if (g.aborted) {
    AbortCheckLocked();
    return;
  }
  g.control_returned = true;
  g.driver_cv.notify_one();
  r->cv.wait(lk, [r] { return r->go; });
  r->go = false;
  if (g.aborted) AbortCheckLocked();
}

// Blocks the calling thread (join/mutex/condvar). Returns when some
// other thread made it runnable again and the driver granted it.
void BlockSelf(BlockKind k, const void* obj, int target) {
  ThreadRec* r = t_self;
  std::unique_lock<std::mutex> lk(g.mx);
  if (g.aborted) {
    AbortCheckLocked();
    return;
  }
  r->status = TStatus::kBlocked;
  r->bkind = k;
  r->bobj = obj;
  r->join_target = target;
  g.control_returned = true;
  g.driver_cv.notify_one();
  r->cv.wait(lk, [r] { return r->go; });
  r->go = false;
  r->bkind = BlockKind::kNone;
  r->bobj = nullptr;
  r->join_target = -1;
  if (g.aborted) AbortCheckLocked();
}

// Any visible write: wake spinners, reset the livelock counter's basis.
void VisibleWrite() {
  g.progress = true;
  for (int i = 0; i < g.nthreads; ++i) {
    ThreadRec* t = g.threads[i].get();
    if (t != nullptr && t->status == TStatus::kYielded) {
      t->status = TStatus::kRunnable;
    }
  }
}

void WakeBlockedOn(const void* obj) {
  for (int i = 0; i < g.nthreads; ++i) {
    ThreadRec* t = g.threads[i].get();
    if (t != nullptr && t->status == TStatus::kBlocked && t->bobj == obj) {
      t->status = TStatus::kRunnable;
    }
  }
}

// Records the first failure and unwinds the calling model thread.
void FailNow(const std::string& msg) {
  if (!g.failed) {
    g.failed = true;
    g.failure = msg;
  }
  g.aborted = true;
  if (std::uncaught_exceptions() == 0) throw ModelAbort{};
}

size_t FloorOf(ThreadRec* r, const void* loc) {
  auto it = r->floor.find(loc);
  return it == r->floor.end() ? 0 : it->second;
}

// ---- Thread pool -----------------------------------------------------

void SlotLoop(ThreadRec* r) {
  std::unique_lock<std::mutex> lk(g.mx);
  for (;;) {
    r->cv.wait(lk, [r] { return r->has_work || g.pool_shutdown; });
    if (g.pool_shutdown) return;
    t_self = r;
    r->cv.wait(lk, [r] { return r->go || g.pool_shutdown; });
    if (g.pool_shutdown) return;
    r->go = false;
    lk.unlock();
    std::string excuse;
    try {
      r->work();
    } catch (const ModelAbort&) {
    } catch (const std::exception& e) {
      excuse = std::string("uncaught exception in model thread: ") + e.what();
    } catch (...) {
      excuse = "uncaught non-std exception in model thread";
    }
    lk.lock();
    if (!excuse.empty()) {
      if (!g.failed) {
        g.failed = true;
        g.failure = excuse;
      }
      g.aborted = true;
    }
    r->status = TStatus::kFinished;
    r->has_work = false;
    r->work = nullptr;
    for (int i = 0; i < g.nthreads; ++i) {
      ThreadRec* o = g.threads[i].get();
      if (o != nullptr && o->status == TStatus::kBlocked &&
          o->bkind == BlockKind::kJoin && o->join_target == r->tid) {
        o->status = TStatus::kRunnable;
      }
    }
    t_self = nullptr;
    g.control_returned = true;
    g.driver_cv.notify_one();
  }
}

ThreadRec* GetSlot(int tid) {
  if (!g.threads[tid]) {
    auto rec = std::make_unique<ThreadRec>();
    rec->tid = tid;
    ThreadRec* p = rec.get();
    g.threads[tid] = std::move(rec);
    p->os = std::thread(SlotLoop, p);
  }
  return g.threads[tid].get();
}

// ---- Lazy per-execution reset of shadow state ------------------------

void EnsureFresh(Location* loc) {
  if (loc->epoch == g.epoch) return;
  loc->epoch = g.epoch;
  loc->ordinal = g.next_loc_ordinal++;
  loc->history.clear();
  loc->history.push_back({loc->latest_bits, VClock{}, VClock{}, -1});
  loc->last_sc = -1;
}

void EnsureFresh(RaceState& rs) {
  if (rs.epoch == g.epoch) return;
  rs.epoch = g.epoch;
  rs.ordinal = g.next_cell_ordinal++;
  rs.last_writer = -1;
  rs.write_stamp = 0;
  rs.readers.clear();
}

void EnsureFresh(MutexState& ms) {
  if (ms.epoch == g.epoch) return;
  ms.epoch = g.epoch;
  ms.ordinal = g.next_sync_ordinal++;
  ms.owner = -1;
  ms.clock = VClock{};
}

void EnsureFresh(CondVarState& cs) {
  if (cs.epoch == g.epoch) return;
  cs.epoch = g.epoch;
  cs.ordinal = g.next_sync_ordinal++;
  cs.waiters.clear();
}

// ---- Reporting -------------------------------------------------------

std::string DeadlockReport(bool livelock) {
  std::ostringstream os;
  os << (livelock ? "livelock: every live thread is spinning with no "
                    "visible write in between"
                  : "deadlock: no thread can run");
  bool lost_wakeup = false;
  for (int i = 0; i < g.nthreads; ++i) {
    ThreadRec* t = g.threads[i].get();
    if (t == nullptr) continue;
    os << "\n  T" << i << "(" << t->name << "): ";
    switch (t->status) {
      case TStatus::kRunnable: os << "runnable"; break;
      case TStatus::kYielded: os << "spin-yielded"; break;
      case TStatus::kFinished: os << "finished"; break;
      case TStatus::kUnborn: os << "unborn"; break;
      case TStatus::kBlocked:
        switch (t->bkind) {
          case BlockKind::kJoin:
            os << "blocked joining T" << t->join_target;
            break;
          case BlockKind::kMutex: os << "blocked on mutex"; break;
          case BlockKind::kCondVar:
            os << "parked on condvar";
            lost_wakeup = true;
            break;
          default: os << "blocked"; break;
        }
        break;
    }
  }
  if (lost_wakeup) {
    os << "\n  (a thread is parked on a condvar while no notifier can run "
          "anymore: lost-wakeup shape)";
  }
  return os.str();
}

void BuildReport() {
  std::ostringstream os;
  os << "model check FAILED (" << g.cfg.name << "): " << g.failure << "\n";
  os << "decisions this execution: " << g.path.size() << "\n";
  const size_t tail =
      g.trace.size() > g.cfg.trace_tail ? g.trace.size() - g.cfg.trace_tail : 0;
  os << "schedule trace (" << (g.trace.size() - tail) << " of "
     << g.trace.size() << " steps):\n";
  std::string lines;
  for (size_t i = tail; i < g.trace.size(); ++i) {
    FormatTraceEv(g.trace[i], &lines);
  }
  os << lines;
  std::ostringstream rp;
  for (size_t i = 0; i < g.path.size(); ++i) {
    if (i) rp << ",";
    rp << g.path[i].chosen;
  }
  g.replay_out = rp.str();
  os << "replay: PLDP_MODEL_REPLAY=" << g.replay_out << "\n";
  g.report = os.str();
}

// Driver-side failure (deadlock/livelock/budget): no thread to unwind;
// mark and let the abort drain finish the execution.
void DriverFail(const std::string& msg) {
  if (!g.failed) {
    g.failed = true;
    g.failure = msg;
  }
  g.aborted = true;
}

// ---- Driver ----------------------------------------------------------

void ResetExecution() {
  std::lock_guard<std::mutex> lk(g.mx);
  ++g.epoch;
  g.next_loc_ordinal = 0;
  g.next_cell_ordinal = 0;
  g.next_sync_ordinal = 0;
  g.steps = 0;
  g.aborted = false;
  g.failed = false;
  g.failure.clear();
  g.sc_floor.clear();
  g.progress = false;
  g.last_tid = -1;
  g.preempts = 0;
  g.no_progress_rounds = 0;
  g.trace.clear();
  g.path.clear();
  g.cursor = 0;
  g.nthreads = 0;
  for (auto& slot : g.threads) {
    if (!slot) continue;
    slot->status = TStatus::kUnborn;
    slot->bkind = BlockKind::kNone;
    slot->bobj = nullptr;
    slot->join_target = -1;
    slot->clock = VClock{};
    slot->fence_rel = VClock{};
    slot->acq_pending = VClock{};
    slot->floor.clear();
    slot->fence_export.clear();
    slot->fresh_read = false;
    slot->go = false;
  }
}

void RunOneExecution(const std::function<void()>& body) {
  ResetExecution();
  ThreadRec* t0 = GetSlot(0);
  g.nthreads = 1;
  t0->name = "main";
  t0->status = TStatus::kRunnable;
  t0->clock.v[0] = 1;
  {
    std::lock_guard<std::mutex> lk(g.mx);
    t0->work = [&body] { body(); };
    t0->has_work = true;
    t0->cv.notify_one();
  }

  std::unique_lock<std::mutex> lk(g.mx);
  for (;;) {
    bool all_finished = true;
    bool any_yielded = false;
    int runnable[kMaxModelThreads];
    int n_runnable = 0;
    for (int i = 0; i < g.nthreads; ++i) {
      ThreadRec* t = g.threads[i].get();
      if (t == nullptr) continue;
      if (t->status != TStatus::kFinished) all_finished = false;
      if (t->status == TStatus::kRunnable) runnable[n_runnable++] = i;
      if (t->status == TStatus::kYielded) any_yielded = true;
    }
    if (all_finished) break;
    if (n_runnable == 0) {
      if (g.aborted) {
        // Abort drain: force everything live to run so destructors and
        // unwinding can complete.
        for (int i = 0; i < g.nthreads; ++i) {
          ThreadRec* t = g.threads[i].get();
          if (t != nullptr && (t->status == TStatus::kBlocked ||
                               t->status == TStatus::kYielded)) {
            t->status = TStatus::kRunnable;
          }
        }
        continue;
      }
      if (any_yielded) {
        if (++g.no_progress_rounds > g.cfg.livelock_rounds) {
          DriverFail(DeadlockReport(/*livelock=*/true));
          continue;
        }
        for (int i = 0; i < g.nthreads; ++i) {
          ThreadRec* t = g.threads[i].get();
          if (t != nullptr && t->status == TStatus::kYielded) {
            t->status = TStatus::kRunnable;
            t->fresh_read = true;  // eventual visibility (see ThreadRec)
          }
        }
        continue;
      }
      DriverFail(DeadlockReport(/*livelock=*/false));
      continue;
    }

    int pick;
    if (g.aborted) {
      // Drain children before their spawners (tids grow monotonically,
      // so a spawner always has a lower tid): a child's closure may
      // reference the spawner's stack, which unwinding would free.
      pick = runnable[n_runnable - 1];
    } else {
      bool last_runnable = false;
      for (int i = 0; i < n_runnable; ++i) {
        if (runnable[i] == g.last_tid) last_runnable = true;
      }
      if (last_runnable && !g.cfg.random &&
          g.preempts >= g.cfg.preemption_bound) {
        pick = g.last_tid;  // out of preemption budget: must continue
      } else {
        // Option 0 continues the previous thread (the leftmost DFS path
        // is then the low-preemption one); the rest in tid order.
        int eligible[kMaxModelThreads];
        int n_eligible = 0;
        if (last_runnable) eligible[n_eligible++] = g.last_tid;
        for (int i = 0; i < n_runnable; ++i) {
          if (runnable[i] != g.last_tid) eligible[n_eligible++] = runnable[i];
        }
        pick = eligible[Choose(static_cast<uint32_t>(n_eligible))];
        if (last_runnable && pick != g.last_tid) ++g.preempts;
      }
      if (++g.steps > g.cfg.max_steps_per_exec) {
        DriverFail("step budget exceeded (suspected livelock)");
        continue;
      }
    }

    ThreadRec* t = g.threads[pick].get();
    g.progress = false;
    g.control_returned = false;
    t->go = true;
    t->cv.notify_one();
    g.driver_cv.wait(lk, [] { return g.control_returned; });
    if (g.progress) g.no_progress_rounds = 0;
    g.last_tid = (t->status == TStatus::kRunnable) ? pick : -1;
  }
}

void ShutdownPool() {
  {
    std::lock_guard<std::mutex> lk(g.mx);
    g.pool_shutdown = true;
    for (auto& slot : g.threads) {
      if (slot) slot->cv.notify_all();
    }
  }
  for (auto& slot : g.threads) {
    if (slot && slot->os.joinable()) slot->os.join();
    slot.reset();
  }
  g.pool_shutdown = false;
}

}  // namespace

// ---- Public API ------------------------------------------------------

bool InModelRun() { return t_self != nullptr && g.active; }

ModelResult RunModel(const ModelConfig& config,
                     const std::function<void()>& body) {
  assert(!g.active && "RunModel does not nest");
  g.cfg = config;
  if (const char* s = std::getenv("PLDP_MODEL_RANDOM_ITERS")) {
    if (g.cfg.random) g.cfg.random_iterations = std::strtoull(s, nullptr, 10);
  }
  if (const char* s = std::getenv("PLDP_MODEL_MAX_EXECS")) {
    g.cfg.max_executions = std::strtoull(s, nullptr, 10);
  }
  g.forced.clear();
  g.replay_mode = false;
  if (const char* rp = std::getenv("PLDP_MODEL_REPLAY")) {
    if (*rp != '\0') {
      g.replay_mode = true;
      const char* p = rp;
      while (*p != '\0') {
        g.forced.push_back(static_cast<uint32_t>(std::strtoul(p, nullptr, 10)));
        while (*p != '\0' && *p != ',') ++p;
        if (*p == ',') ++p;
      }
      fprintf(stderr, "[model:%s] replaying %zu forced decisions\n",
              g.cfg.name, g.forced.size());
    }
  }
  g.total_decisions = 0;
  g.report.clear();
  g.replay_out.clear();
  g.active = true;

  ModelResult res;
  uint64_t execs = 0;
  for (;;) {
    if (g.cfg.random && !g.replay_mode) {
      g.rng = Mix64(g.cfg.seed ^ Mix64(execs + 1));
    }
    RunOneExecution(body);
    ++execs;
    if (g.failed) {
      BuildReport();
      res.failed = true;
      res.report = g.report;
      res.replay = g.replay_out;
      break;
    }
    if (g.replay_mode) break;
    if (g.cfg.max_executions != 0 && execs >= g.cfg.max_executions) break;
    if (g.cfg.random) {
      if (execs >= g.cfg.random_iterations) break;
    } else if (!NextSchedule()) {
      res.exhausted = true;
      break;
    }
  }
  res.executions = execs;
  res.decisions = g.total_decisions;
  if (!res.failed && !g.replay_mode) {
    // The execution count pins the explored schedule space: a change that
    // keeps it keeps the exploration, whatever it does to the wall time.
    fprintf(stdout, "[model:%s] executions=%llu decisions=%llu%s\n",
            g.cfg.name, static_cast<unsigned long long>(execs),
            static_cast<unsigned long long>(g.total_decisions),
            res.exhausted ? " (exhausted)" : "");
  }
  ShutdownPool();
  g.active = false;
  return res;
}

int ModelSpawn(const char* name, std::function<void()> fn) {
  ThreadRec* r = t_self;
  if (r == nullptr || !g.active) {
    fn();  // outside a run: degrade to synchronous execution
    return -1;
  }
  SchedulePoint();
  if (g.aborted) return -1;  // unwinding teardown: do not start new work
  if (g.nthreads >= kMaxModelThreads) {
    FailNow("too many model threads (kMaxModelThreads)");
  }
  const int tid = g.nthreads++;
  ThreadRec* c = GetSlot(tid);
  c->name = name != nullptr ? name : "t";
  ++r->clock.v[r->tid];
  c->clock = r->clock;  // spawn happens-before the child's first step
  ++c->clock.v[tid];
  c->fence_rel = VClock{};
  c->acq_pending = VClock{};
  // Coherence-RR carries over a spawn edge: the child may not read
  // anything older than what the parent already read.
  c->floor = r->floor;
  c->fence_export = r->fence_export;
  c->status = TStatus::kRunnable;
  {
    std::lock_guard<std::mutex> lk(g.mx);
    c->work = std::move(fn);
    c->has_work = true;
    c->cv.notify_one();
  }
  Trace(Op::kSpawn, tid, -1, 0, 0);
  return tid;
}

void ModelJoin(int tid) {
  ThreadRec* r = t_self;
  if (r == nullptr || !g.active || tid < 0) return;
  SchedulePoint();
  ThreadRec* tgt = g.threads[tid].get();
  if (tgt == nullptr) return;
  while (tgt->status != TStatus::kFinished) {
    if (g.aborted) return;  // unwinding teardown
    BlockSelf(BlockKind::kJoin, tgt, tid);
  }
  r->clock.Join(tgt->clock);
  Trace(Op::kJoin, tid, -1, 0, 0);
}

void ModelYieldSpin() {
  ThreadRec* r = t_self;
  if (r == nullptr || !g.active) {
    std::this_thread::yield();
    return;
  }
  std::unique_lock<std::mutex> lk(g.mx);
  if (g.aborted) {
    AbortCheckLocked();
    return;
  }
  r->status = TStatus::kYielded;
  r->fresh_read = false;
  g.control_returned = true;
  g.driver_cv.notify_one();
  r->cv.wait(lk, [r] { return r->go; });
  r->go = false;
  if (g.aborted) AbortCheckLocked();
}

void ModelFailNow(const std::string& what) {
  if (!InModelRun()) {
    fprintf(stderr, "model failure outside run: %s\n", what.c_str());
    std::abort();
  }
  FailNow(what);
}

void ModelAssertFail(const char* expr, const char* file, int line) {
  std::ostringstream os;
  os << "model assertion failed: " << expr << " @ " << file << ":" << line;
  ModelFailNow(os.str());
}

void ProtocolAssertFail(const char* expr, const char* file, int line) {
  if (!InModelRun()) {
    fprintf(stderr, "protocol assertion failed: %s @ %s:%d\n", expr, file,
            line);
    std::abort();
  }
  std::ostringstream os;
  os << "protocol assertion failed: " << expr << " @ " << file << ":" << line;
  FailNow(os.str());
}

namespace internal {

Location* LocationCreate(uint64_t initial_bits) {
  Location* loc = new Location();
  loc->latest_bits = initial_bits;
  return loc;
}

void LocationDestroy(Location* loc) {
  if (g.active) {
    // Purge the pointer from every floor map: heap reuse could otherwise
    // alias a stale floor onto a future location at the same address.
    g.sc_floor.erase(loc);
    for (auto& slot : g.threads) {
      if (!slot) continue;
      slot->floor.erase(loc);
      slot->fence_export.erase(loc);
    }
  }
  delete loc;
}

uint64_t AtomicLoad(Location* loc, std::memory_order mo) {
  ThreadRec* r = t_self;
  if (r == nullptr || !g.active) return loc->latest_bits;
  SchedulePoint();
  EnsureFresh(loc);
  if (g.aborted) return loc->history.back().value;  // direct mode
  size_t floor = FloorOf(r, loc);
  // A store that happened-before this load hides everything older.
  for (size_t k = loc->history.size(); k-- > 0;) {
    if (loc->history[k].snap.LeqOf(r->clock)) {
      if (k > floor) floor = k;
      break;
    }
  }
  if (r->fresh_read) floor = loc->history.size() - 1;
  if (IsSeqCst(mo)) {
    if (loc->last_sc >= 0 && static_cast<size_t>(loc->last_sc) > floor) {
      floor = static_cast<size_t>(loc->last_sc);
    }
    auto it = g.sc_floor.find(loc);
    if (it != g.sc_floor.end() && it->second > floor) floor = it->second;
  }
  const size_t n = loc->history.size();
  size_t idx = floor;
  const size_t count = n - floor;
  if (count > 1) idx = floor + Choose(static_cast<uint32_t>(count));
  const Location::Store& s = loc->history[idx];
  r->floor[loc] = idx;
  if (IsAcquire(mo)) {
    r->clock.Join(s.rel);
  } else {
    r->acq_pending.Join(s.rel);
  }
  Trace(Op::kLoad, loc->ordinal, mo, s.value, idx);
  return s.value;
}

void AtomicStore(Location* loc, uint64_t bits, std::memory_order mo) {
  ThreadRec* r = t_self;
  if (r == nullptr || !g.active) {
    loc->latest_bits = bits;
    return;
  }
  SchedulePoint();
  EnsureFresh(loc);
  loc->latest_bits = bits;
  if (g.aborted) {  // direct mode: keep modification order moving
    loc->history.push_back({bits, VClock{}, VClock{}, r->tid});
    return;
  }
  ++r->clock.v[r->tid];
  Location::Store srec;
  srec.value = bits;
  srec.tid = r->tid;
  srec.snap = r->clock;
  srec.rel = IsRelease(mo) ? r->clock : r->fence_rel;
  loc->history.push_back(srec);
  const size_t idx = loc->history.size() - 1;
  r->floor[loc] = idx;
  r->fence_export[loc] = idx;
  if (IsSeqCst(mo)) {
    loc->last_sc = static_cast<int>(idx);
    size_t& f = g.sc_floor[loc];
    if (idx > f) f = idx;
  }
  VisibleWrite();
  Trace(Op::kStore, loc->ordinal, mo, bits, idx);
}

uint64_t AtomicRmw(Location* loc, std::memory_order mo,
                   uint64_t (*fn)(uint64_t, void*), void* ctx) {
  ThreadRec* r = t_self;
  if (r == nullptr || !g.active) {
    const uint64_t old = loc->latest_bits;
    loc->latest_bits = fn(old, ctx);
    return old;
  }
  SchedulePoint();
  EnsureFresh(loc);
  // RMW reads the newest store in modification order, always.
  const Location::Store last = loc->history.back();
  const uint64_t old = last.value;
  const uint64_t neu = fn(old, ctx);
  loc->latest_bits = neu;
  if (g.aborted) {
    loc->history.push_back({neu, VClock{}, VClock{}, r->tid});
    return old;
  }
  if (IsAcquire(mo)) {
    r->clock.Join(last.rel);
  } else {
    r->acq_pending.Join(last.rel);
  }
  ++r->clock.v[r->tid];
  Location::Store srec;
  srec.value = neu;
  srec.tid = r->tid;
  srec.snap = r->clock;
  srec.rel = IsRelease(mo) ? r->clock : r->fence_rel;
  srec.rel.Join(last.rel);  // release-sequence continuation
  loc->history.push_back(srec);
  const size_t idx = loc->history.size() - 1;
  r->floor[loc] = idx;
  r->fence_export[loc] = idx;
  if (IsSeqCst(mo)) {
    loc->last_sc = static_cast<int>(idx);
    size_t& f = g.sc_floor[loc];
    if (idx > f) f = idx;
  }
  VisibleWrite();
  Trace(Op::kRmw, loc->ordinal, mo, old, neu);
  return old;
}

bool AtomicCas(Location* loc, uint64_t* expected, uint64_t desired,
               std::memory_order success, std::memory_order failure) {
  ThreadRec* r = t_self;
  if (r == nullptr || !g.active) {
    if (loc->latest_bits == *expected) {
      loc->latest_bits = desired;
      return true;
    }
    *expected = loc->latest_bits;
    return false;
  }
  SchedulePoint();
  EnsureFresh(loc);
  const Location::Store last = loc->history.back();
  if (g.aborted) {
    if (last.value == *expected) {
      loc->latest_bits = desired;
      loc->history.push_back({desired, VClock{}, VClock{}, r->tid});
      return true;
    }
    *expected = last.value;
    return false;
  }
  if (last.value != *expected) {
    // Failed CAS is a load of the newest store with the failure order.
    if (IsAcquire(failure)) {
      r->clock.Join(last.rel);
    } else {
      r->acq_pending.Join(last.rel);
    }
    r->floor[loc] = loc->history.size() - 1;
    *expected = last.value;
    Trace(Op::kCasFail, loc->ordinal, failure, last.value, 0);
    return false;
  }
  if (IsAcquire(success)) {
    r->clock.Join(last.rel);
  } else {
    r->acq_pending.Join(last.rel);
  }
  ++r->clock.v[r->tid];
  Location::Store srec;
  srec.value = desired;
  srec.tid = r->tid;
  srec.snap = r->clock;
  srec.rel = IsRelease(success) ? r->clock : r->fence_rel;
  srec.rel.Join(last.rel);
  loc->history.push_back(srec);
  const size_t idx = loc->history.size() - 1;
  loc->latest_bits = desired;
  r->floor[loc] = idx;
  r->fence_export[loc] = idx;
  if (IsSeqCst(success)) {
    loc->last_sc = static_cast<int>(idx);
    size_t& f = g.sc_floor[loc];
    if (idx > f) f = idx;
  }
  VisibleWrite();
  Trace(Op::kCasOk, loc->ordinal, success, *expected, desired);
  return true;
}

void ThreadFence(std::memory_order mo) {
  ThreadRec* r = t_self;
  if (r == nullptr || !g.active) {
    std::atomic_thread_fence(mo);
    return;
  }
  SchedulePoint();
  if (g.aborted) return;
  ++r->clock.v[r->tid];
  if (IsAcquire(mo)) r->clock.Join(r->acq_pending);
  if (IsRelease(mo)) r->fence_rel = r->clock;
  if (IsSeqCst(mo)) {
    // The global SC order totally orders seq_cst fences: absorb the
    // per-location visibility floors exported by earlier fences, then
    // export our own stores. This is what makes the store-buffering
    // (Dekker) idiom work: whichever fence comes second sees the other
    // side's store.
    for (const auto& kv : g.sc_floor) {
      size_t& mine = r->floor[kv.first];
      if (kv.second > mine) mine = kv.second;
      size_t& fe = r->fence_export[kv.first];
      if (kv.second > fe) fe = kv.second;
    }
    for (const auto& kv : r->fence_export) {
      size_t& f = g.sc_floor[kv.first];
      if (kv.second > f) f = kv.second;
    }
    // Visibility floors changed: a spinning reader may now see a newer
    // value, so fences count as progress for livelock purposes.
    VisibleWrite();
  }
  Trace(Op::kFence, -1, mo, 0, 0);
}

void RaceRead(RaceState& rs) {
  ThreadRec* r = t_self;
  if (r == nullptr || !g.active || g.aborted) return;
  EnsureFresh(rs);
  if (rs.last_writer >= 0 &&
      r->clock.v[rs.last_writer] < rs.write_stamp) {
    std::ostringstream os;
    os << "data race: T" << r->tid << " reads cell #" << rs.ordinal
       << " concurrently with T" << rs.last_writer << "'s write";
    FailNow(os.str());
  }
  ++r->clock.v[r->tid];
  rs.readers.emplace_back(r->tid, r->clock.v[r->tid]);
  Trace(Op::kCellRead, rs.ordinal, -1, 0, 0);
}

void RaceWrite(RaceState& rs) {
  ThreadRec* r = t_self;
  if (r == nullptr || !g.active || g.aborted) return;
  EnsureFresh(rs);
  if (rs.last_writer >= 0 &&
      r->clock.v[rs.last_writer] < rs.write_stamp) {
    std::ostringstream os;
    os << "data race: T" << r->tid << " writes cell #" << rs.ordinal
       << " concurrently with T" << rs.last_writer << "'s write";
    FailNow(os.str());
  }
  for (const auto& rd : rs.readers) {
    if (r->clock.v[rd.first] < rd.second) {
      std::ostringstream os;
      os << "data race: T" << r->tid << " writes cell #" << rs.ordinal
         << " concurrently with T" << rd.first << "'s read";
      FailNow(os.str());
    }
  }
  ++r->clock.v[r->tid];
  rs.last_writer = r->tid;
  rs.write_stamp = r->clock.v[r->tid];
  rs.readers.clear();
  Trace(Op::kCellWrite, rs.ordinal, -1, 0, 0);
}

void MutexLockOp(MutexState& ms) {
  ThreadRec* r = t_self;
  SchedulePoint();
  EnsureFresh(ms);
  if (g.aborted) {
    ms.owner = r->tid;
    return;
  }
  while (ms.owner != -1) {
    BlockSelf(BlockKind::kMutex, &ms, -1);
    if (g.aborted) {
      ms.owner = r->tid;
      return;
    }
  }
  ms.owner = r->tid;
  ++r->clock.v[r->tid];
  r->clock.Join(ms.clock);
  Trace(Op::kLock, ms.ordinal, -1, 0, 0);
}

void MutexUnlockOp(MutexState& ms) {
  ThreadRec* r = t_self;
  SchedulePoint();
  EnsureFresh(ms);
  if (g.aborted) {
    ms.owner = -1;
    return;
  }
  if (ms.owner != r->tid) {
    FailNow("unlock of a mutex the thread does not own");
  }
  ++r->clock.v[r->tid];
  ms.clock = r->clock;
  ms.owner = -1;
  WakeBlockedOn(&ms);
  VisibleWrite();
  Trace(Op::kUnlock, ms.ordinal, -1, 0, 0);
}

void CondWaitOp(CondVarState& cs, MutexState& ms) {
  ThreadRec* r = t_self;
  SchedulePoint();
  EnsureFresh(cs);
  EnsureFresh(ms);
  if (g.aborted) return;
  if (ms.owner != r->tid) {
    FailNow("condvar wait without holding the mutex");
  }
  // Atomically: unlock, park.
  ++r->clock.v[r->tid];
  ms.clock = r->clock;
  ms.owner = -1;
  WakeBlockedOn(&ms);
  VisibleWrite();
  cs.waiters.push_back(r->tid);
  Trace(Op::kCondWait, cs.ordinal, -1, 0, 0);
  BlockSelf(BlockKind::kCondVar, &cs, -1);
  if (g.aborted) return;
  // Notified: re-acquire the mutex.
  while (ms.owner != -1) {
    BlockSelf(BlockKind::kMutex, &ms, -1);
    if (g.aborted) return;
  }
  ms.owner = r->tid;
  ++r->clock.v[r->tid];
  r->clock.Join(ms.clock);
}

void CondNotifyAllOp(CondVarState& cs) {
  ThreadRec* r = t_self;
  SchedulePoint();
  EnsureFresh(cs);
  if (g.aborted) {
    for (int w : cs.waiters) {
      ThreadRec* t = g.threads[w].get();
      if (t != nullptr && t->status == TStatus::kBlocked) {
        t->status = TStatus::kRunnable;
      }
    }
    cs.waiters.clear();
    return;
  }
  ++r->clock.v[r->tid];
  for (int w : cs.waiters) {
    ThreadRec* t = g.threads[w].get();
    if (t != nullptr && t->status == TStatus::kBlocked &&
        t->bkind == BlockKind::kCondVar) {
      t->status = TStatus::kRunnable;
    }
  }
  cs.waiters.clear();
  VisibleWrite();
  Trace(Op::kNotify, cs.ordinal, -1, 0, 0);
}

}  // namespace internal
}  // namespace check
}  // namespace pldp
