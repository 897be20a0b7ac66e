// ModelRuntime: an in-repo exhaustive-interleaving model checker for the
// lock-free primitives (relacy / CDSChecker-lite).
//
// A model test describes a tiny concurrent program: a setup closure that
// constructs fresh shared state, 2..kMaxModelThreads thread bodies, and a
// final invariant check. Explore() then runs the program over and over,
// enumerating thread interleavings with a depth-first search over scheduling
// decisions, until the (bounded) schedule space is exhausted or a violation
// is found. Failures replay deterministically: the failing decision string
// is reported and can be pinned via ModelConfig::replay.
//
// Memory model (see DESIGN.md section 11 for the full contract):
//
//  * Interleaving + store buffering (x86-TSO shape). Every atomic store
//    that is weaker than seq_cst enters the storing thread's FIFO buffer
//    and becomes globally visible only when committed - at a seq_cst store
//    or fence by that thread, or at a nondeterministic flush point chosen
//    by the scheduler. Loads snoop the thread's own buffer (store-to-load
//    forwarding) and otherwise read the last committed value. This is what
//    catches Dekker/store-buffering bugs like the PR 3 DrainRemote race.
//  * Happens-before race detection (FastTrack-style vector clocks) over the
//    non-atomic accesses instrumented through Traits::OnNonAtomicRead /
//    OnNonAtomicWrite. Acquire loads join the clock attached by release
//    stores; relaxed loads do not - so demoting an acquire/release pair to
//    relaxed surfaces as a reported data race on the payload it published,
//    regardless of whether TSO hardware would reorder it. This is what
//    catches e.g. a relaxed ring-head load in SpscRing::TryPush.
//  * Not modeled: IRIW / non-multi-copy-atomic effects, release sequences,
//    reading stores older than the latest committed one, and compiler
//    reorderings that TSO forbids but C++ allows (noted per-primitive in
//    the ordering structs).
//
// Scheduling: DPOR-lite - a bounded-preemption depth-first search (CHESS
// style). Only shared operations (atomic ops, fences, instrumented
// non-atomic accesses, yields) are scheduling points; switching away from a
// still-runnable thread costs one preemption against
// ModelConfig::preemption_bound, while switches at yields or thread exit
// are free. Store-buffer flushes are explored as zero-cost scheduler
// actions. Seeded-mutation tests in tests/model_check_test.cc prove the
// bound is deep enough to reproduce the bug classes we care about.

#ifndef SOFTTIMER_SRC_CHECK_MODEL_RUNTIME_H_
#define SOFTTIMER_SRC_CHECK_MODEL_RUNTIME_H_

#include <array>
#include <atomic>
#include <condition_variable>
#include <cstdint>
#include <deque>
#include <functional>
#include <memory>
#include <mutex>
#include <stdexcept>
#include <string>
#include <thread>
#include <unordered_map>
#include <vector>

namespace softtimer::check {

inline constexpr size_t kMaxModelThreads = 8;

// Per-thread logical clocks for happens-before tracking.
using VectorClock = std::array<uint32_t, kMaxModelThreads>;

inline void ClockJoin(VectorClock& into, const VectorClock& from) {
  for (size_t i = 0; i < kMaxModelThreads; ++i) {
    if (from[i] > into[i]) {
      into[i] = from[i];
    }
  }
}

// The model-side storage behind one ModelAtomic<T>: the last committed
// value plus the release clock attached by the store that committed it.
struct ModelAtomicMeta {
  uint64_t committed = 0;
  VectorClock commit_clock{};
};

struct ModelConfig {
  // Maximum context switches away from a still-runnable thread per
  // execution. 3 reproduces every bug class seeded in the mutation suite
  // with comfortable margin; raise for deeper protocols.
  int preemption_bound = 3;
  // Horizon: per-thread shared-operation budget. An execution that exceeds
  // it is pruned (counted in ExploreResult::horizon_hits), bounding
  // retry-loop livelocks instead of hanging the search.
  size_t max_steps_per_thread = 300;
  // Safety valve on the number of executions; the search reports
  // exhausted=false when it trips.
  size_t max_executions = 200'000;
  // When non-empty, run exactly this decision string (from a previous
  // failure report) instead of searching.
  std::vector<uint32_t> replay;
};

struct ExploreResult {
  bool ok = true;             // no violation found
  bool exhausted = false;     // the whole bounded schedule space was covered
  size_t executions = 0;      // complete executions explored
  size_t horizon_hits = 0;    // executions pruned by max_steps_per_thread
  std::string failure;        // description of the first violation
  std::vector<uint32_t> failing_schedule;  // decision string for replay

  // Gtest-friendly summary.
  std::string Summary() const;
};

// Thrown by MODEL_CHECK / race detection inside a model execution. Never
// escapes Explore().
struct ModelViolation : std::runtime_error {
  using std::runtime_error::runtime_error;
};

// Internal: unwinds a worker when the execution is being abandoned.
struct ModelAbort {};
// Internal: unwinds a worker that exceeded the step horizon.
struct ModelHorizon {};

#define MODEL_CHECK(cond)                                             \
  do {                                                                \
    if (!(cond)) {                                                    \
      throw ::softtimer::check::ModelViolation("MODEL_CHECK failed: " \
                                               #cond);               \
    }                                                                 \
  } while (0)

class ModelRuntime;

// Handle passed to the per-execution setup closure.
class ModelExecution {
 public:
  // Registers a thread body. At most kMaxModelThreads per execution.
  void Thread(std::function<void()> body);
  // Registers the end-of-execution invariant check, run on the controller
  // after every thread finished and every store buffer drained. Use
  // MODEL_CHECK inside it.
  void Finally(std::function<void()> check);

 private:
  friend class ModelRuntime;
  explicit ModelExecution(ModelRuntime* rt) : rt_(rt) {}
  ModelRuntime* rt_;
};

using ModelSetupFn = std::function<void(ModelExecution&)>;

// Runs the bounded exhaustive search. The setup closure is invoked once per
// execution and must construct fresh shared state (capture it in the thread
// bodies via shared_ptr).
ExploreResult Explore(const ModelConfig& config, const ModelSetupFn& setup);

// The engine. Tests use Explore(); ModelAtomic/ModelCheckerTraits call the
// instrumentation entry points below.
class ModelRuntime {
 public:
  // Non-null on any thread currently participating in a model execution
  // (workers and, during setup/finally, the controller).
  static ModelRuntime* Active();

  // --- Instrumentation entry points (model_atomic.h) -------------------
  uint64_t AtomicLoad(const ModelAtomicMeta* loc, std::memory_order order);
  void AtomicStore(ModelAtomicMeta* loc, uint64_t value,
                   std::memory_order order);
  uint64_t AtomicFetchAdd(ModelAtomicMeta* loc, uint64_t add,
                          std::memory_order order);
  bool AtomicCas(ModelAtomicMeta* loc, uint64_t& expected, uint64_t desired,
                 std::memory_order order);
  void Fence(std::memory_order order);
  void NonAtomicAccess(const volatile void* addr, bool is_write);
  void Yield();
  // Drops every buffered store to a location whose object is being
  // destroyed. Not a scheduling point: nothing can observe the location
  // again, so committing those stores or dropping them is the same.
  void ForgetLocation(const ModelAtomicMeta* loc);

 private:
  friend ExploreResult Explore(const ModelConfig& config,
                               const ModelSetupFn& setup);
  friend class ModelExecution;

  explicit ModelRuntime(ModelConfig config);
  ~ModelRuntime();

  ModelRuntime(const ModelRuntime&) = delete;
  ModelRuntime& operator=(const ModelRuntime&) = delete;

  enum class WorkerStatus : uint8_t {
    kIdle,      // no task assigned (parked at top of trampoline)
    kAssigned,  // task assigned, never scheduled yet
    kAtPoint,   // blocked inside a scheduling point
    kRunning,   // owns the turn, executing toward its next point
    kFinished,  // body returned / unwound this execution
  };

  struct BufferedStore {
    ModelAtomicMeta* loc;
    uint64_t value;
    VectorClock clock;  // release clock carried by this store (may be zero)
  };

  // One pooled worker thread; reused across executions.
  struct Worker {
    std::thread thread;
    std::function<void()> task;
    // Binary-semaphore handoff implemented with mutex+cv for portability.
    std::mutex m;
    std::condition_variable cv;
    bool resume_token = false;

    WorkerStatus status = WorkerStatus::kIdle;
    std::deque<BufferedStore> buffer;  // TSO store buffer, FIFO
    VectorClock clock{};               // happens-before clock
    VectorClock fence_release{};       // clock pinned by last release fence
    VectorClock acq_pending{};         // joined at the next acquire fence
    size_t steps = 0;
    bool yielded = false;
  };

  // FastTrack-lite record for one instrumented non-atomic address.
  struct AccessRecord {
    int last_writer = -1;
    uint32_t write_epoch = 0;
    VectorClock read_epochs{};
  };

  ExploreResult Run(const ModelSetupFn& setup);
  // Runs one execution following/extending the decision stack. Returns true
  // if a violation was found.
  bool RunOneExecution(const ModelSetupFn& setup);
  // Enumerates the deterministic action list for the current state.
  // Encoding: action id = thread index (step), or kFlushBase + thread index
  // (commit the oldest entry of that thread's store buffer).
  void EnumerateActions(std::vector<uint32_t>& out) const;
  void ApplyAction(uint32_t action);
  void StepWorker(size_t tid);
  void FlushOne(size_t tid);
  void CommitStore(const BufferedStore& s);
  void DrainBuffer(size_t tid);
  void AbortStragglers();
  void ResetExecutionState();

  // Worker-side helpers. WorkerLoop takes its Worker directly: workers_ may
  // still be growing (vector reallocation) while a fresh thread starts up.
  void WorkerLoop(size_t tid, Worker* w);
  void SchedulePoint();
  void RecordViolation(const std::string& what);

  static constexpr uint32_t kFlushBase = 16;

  ModelConfig config_;
  std::vector<std::unique_ptr<Worker>> workers_;
  size_t threads_this_execution_ = 0;
  std::function<void()> finally_;

  // Controller <- worker handoff.
  std::mutex ctl_m_;
  std::condition_variable ctl_cv_;
  bool ctl_token_ = false;
  void ControlWait();
  void ControlSignal();
  void ResumeWorker(size_t tid);
  // Takes the Worker directly, not an index: a freshly spawned thread waits
  // here while workers_ may still be reallocating under the controller.
  void WorkerWait(Worker& w);

  bool shutdown_ = false;
  bool abort_execution_ = false;
  bool horizon_hit_ = false;
  bool violation_ = false;
  std::string violation_text_;

  int current_thread_ = -1;
  int preemptions_used_ = 0;

  std::unordered_map<const volatile void*, AccessRecord> na_records_;

  // DFS state. Each decision records the chosen index into the enumerated
  // action list and the number of alternatives that existed.
  struct Decision {
    uint32_t chosen;
    uint32_t num_actions;
  };
  std::vector<Decision> stack_;
  size_t replay_depth_ = 0;  // decisions consumed from stack_ this execution
  std::vector<uint32_t> trace_;  // action ids taken this execution
};

}  // namespace softtimer::check

#endif  // SOFTTIMER_SRC_CHECK_MODEL_RUNTIME_H_
