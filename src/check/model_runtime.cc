#include "src/check/model_runtime.h"

#include <cassert>
#include <sstream>
#include <utility>

namespace softtimer::check {

namespace {

// Identity of the calling thread within the active runtime: -1 on the
// controller (and on threads that never joined an execution), otherwise the
// model thread index. The controller routes instrumentation calls to direct
// uninstrumented behavior, which is what setup/finally closures need.
thread_local ModelRuntime* g_active = nullptr;
thread_local int g_tid = -1;

bool IsAcquire(std::memory_order o) {
  return o == std::memory_order_acquire || o == std::memory_order_consume ||
         o == std::memory_order_acq_rel || o == std::memory_order_seq_cst;
}

bool IsRelease(std::memory_order o) {
  return o == std::memory_order_release || o == std::memory_order_acq_rel ||
         o == std::memory_order_seq_cst;
}

}  // namespace

std::string ExploreResult::Summary() const {
  std::ostringstream os;
  os << (ok ? "ok" : "FAILED") << ", executions=" << executions
     << ", exhausted=" << (exhausted ? "yes" : "no")
     << ", horizon_hits=" << horizon_hits;
  if (!ok) {
    os << "\n  failure: " << failure << "\n  replay schedule:";
    for (uint32_t c : failing_schedule) {
      os << ' ' << c;
    }
  }
  return os.str();
}

ModelRuntime* ModelRuntime::Active() { return g_active; }

ModelRuntime::ModelRuntime(ModelConfig config) : config_(std::move(config)) {}

ModelRuntime::~ModelRuntime() {
  // All workers are parked at the top of their trampoline by the time Run()
  // returns (every execution ends with AbortStragglers or clean finishes).
  shutdown_ = true;
  for (size_t i = 0; i < workers_.size(); ++i) {
    ResumeWorker(i);
  }
  for (auto& w : workers_) {
    if (w->thread.joinable()) {
      w->thread.join();
    }
  }
}

// --- controller <-> worker handoff -------------------------------------
//
// Exactly one thread (controller or a single worker) runs at any moment, so
// every piece of model state is plain memory; the mutexes below carry the
// happens-before between turns.

void ModelRuntime::ControlWait() {
  std::unique_lock<std::mutex> lock(ctl_m_);
  ctl_cv_.wait(lock, [this] { return ctl_token_; });
  ctl_token_ = false;
}

void ModelRuntime::ControlSignal() {
  {
    std::lock_guard<std::mutex> lock(ctl_m_);
    ctl_token_ = true;
  }
  ctl_cv_.notify_one();
}

void ModelRuntime::ResumeWorker(size_t tid) {
  Worker& w = *workers_[tid];
  {
    std::lock_guard<std::mutex> lock(w.m);
    w.resume_token = true;
  }
  w.cv.notify_one();
}

void ModelRuntime::WorkerWait(Worker& w) {
  std::unique_lock<std::mutex> lock(w.m);
  w.cv.wait(lock, [&w] { return w.resume_token; });
  w.resume_token = false;
}

// --- ModelExecution ----------------------------------------------------

void ModelExecution::Thread(std::function<void()> body) {
  ModelRuntime* rt = rt_;
  size_t idx = rt->threads_this_execution_;
  assert(idx < kMaxModelThreads && "too many model threads");
  if (idx >= rt->workers_.size()) {
    auto owned = std::make_unique<ModelRuntime::Worker>();
    ModelRuntime::Worker* w = owned.get();
    rt->workers_.push_back(std::move(owned));
    w->thread = std::thread([rt, idx, w] { rt->WorkerLoop(idx, w); });
  }
  ModelRuntime::Worker& w = *rt->workers_[idx];
  w.task = std::move(body);
  w.status = ModelRuntime::WorkerStatus::kAssigned;
  ++rt->threads_this_execution_;
}

void ModelExecution::Finally(std::function<void()> check) {
  rt_->finally_ = std::move(check);
}

// --- worker side -------------------------------------------------------

void ModelRuntime::WorkerLoop(size_t tid, Worker* worker) {
  g_active = this;
  g_tid = static_cast<int>(tid);
  Worker& w = *worker;
  while (true) {
    WorkerWait(w);
    if (shutdown_) {
      return;
    }
    w.status = WorkerStatus::kRunning;
    try {
      w.task();
    } catch (const ModelViolation& v) {
      RecordViolation(v.what());
    } catch (const ModelAbort&) {
    } catch (const ModelHorizon&) {
    }
    w.status = WorkerStatus::kFinished;
    w.task = nullptr;
    ControlSignal();
  }
}

void ModelRuntime::SchedulePoint() {
  Worker& w = *workers_[g_tid];
  if (abort_execution_) {
    throw ModelAbort{};
  }
  ++w.steps;
  if (w.steps > config_.max_steps_per_thread) {
    horizon_hit_ = true;
    throw ModelHorizon{};
  }
  w.status = WorkerStatus::kAtPoint;
  ControlSignal();
  WorkerWait(w);
  w.status = WorkerStatus::kRunning;
  if (abort_execution_) {
    throw ModelAbort{};
  }
}

void ModelRuntime::RecordViolation(const std::string& what) {
  if (!violation_) {
    violation_ = true;
    violation_text_ = what;
  }
  abort_execution_ = true;
}

// --- instrumentation entry points --------------------------------------
//
// Every entry blocks at a scheduling point *before* performing its effect,
// so the effect lands when the scheduler grants the turn - that is the unit
// of interleaving. Calls from the controller (setup/finally, g_tid < 0) and
// from foreign threads fall through to direct uninstrumented behavior.

uint64_t ModelRuntime::AtomicLoad(const ModelAtomicMeta* loc,
                                  std::memory_order order) {
  if (g_active != this || g_tid < 0) {
    return loc->committed;
  }
  SchedulePoint();
  Worker& w = *workers_[g_tid];
  ++w.clock[g_tid];
  // TSO store-to-load forwarding: a thread always observes its own latest
  // buffered store to the location, with no synchronization implied.
  for (auto it = w.buffer.rbegin(); it != w.buffer.rend(); ++it) {
    if (it->loc == loc) {
      return it->value;
    }
  }
  if (IsAcquire(order)) {
    ClockJoin(w.clock, loc->commit_clock);
  } else {
    // A relaxed read does not synchronize by itself, but a later acquire
    // fence can retroactively turn it into one (C11 fence semantics).
    ClockJoin(w.acq_pending, loc->commit_clock);
  }
  return loc->committed;
}

void ModelRuntime::AtomicStore(ModelAtomicMeta* loc, uint64_t value,
                               std::memory_order order) {
  if (g_active != this || g_tid < 0) {
    loc->committed = value;
    loc->commit_clock = VectorClock{};
    return;
  }
  SchedulePoint();
  Worker& w = *workers_[g_tid];
  ++w.clock[g_tid];
  if (order == std::memory_order_seq_cst) {
    // x86 mapping: MOV + MFENCE. The buffer drains, then the store commits.
    DrainBuffer(static_cast<size_t>(g_tid));
    loc->committed = value;
    loc->commit_clock = w.clock;
    return;
  }
  // Anything weaker sits in the FIFO store buffer until this thread issues
  // a seq_cst store/fence or the scheduler picks a flush action. A release
  // store carries the thread's clock; a relaxed store carries only what a
  // prior release fence pinned (possibly nothing).
  w.buffer.push_back(
      BufferedStore{loc, value, IsRelease(order) ? w.clock : w.fence_release});
}

uint64_t ModelRuntime::AtomicFetchAdd(ModelAtomicMeta* loc, uint64_t add,
                                      std::memory_order order) {
  (void)order;  // modeled conservatively: locked RMW = drain + acq_rel
  if (g_active != this || g_tid < 0) {
    uint64_t old = loc->committed;
    loc->committed = old + add;
    return old;
  }
  SchedulePoint();
  Worker& w = *workers_[g_tid];
  ++w.clock[g_tid];
  DrainBuffer(static_cast<size_t>(g_tid));
  uint64_t old = loc->committed;
  ClockJoin(w.clock, loc->commit_clock);
  loc->committed = old + add;
  loc->commit_clock = w.clock;
  return old;
}

bool ModelRuntime::AtomicCas(ModelAtomicMeta* loc, uint64_t& expected,
                             uint64_t desired, std::memory_order order) {
  (void)order;  // modeled conservatively: locked RMW = drain + acq_rel
  if (g_active != this || g_tid < 0) {
    if (loc->committed == expected) {
      loc->committed = desired;
      return true;
    }
    expected = loc->committed;
    return false;
  }
  SchedulePoint();
  Worker& w = *workers_[g_tid];
  ++w.clock[g_tid];
  DrainBuffer(static_cast<size_t>(g_tid));
  ClockJoin(w.clock, loc->commit_clock);
  if (loc->committed == expected) {
    loc->committed = desired;
    loc->commit_clock = w.clock;
    return true;
  }
  expected = loc->committed;
  return false;
}

void ModelRuntime::Fence(std::memory_order order) {
  if (g_active != this || g_tid < 0) {
    return;
  }
  SchedulePoint();
  Worker& w = *workers_[g_tid];
  ++w.clock[g_tid];
  if (order == std::memory_order_seq_cst) {
    // The store-load barrier: this is what closes Dekker/store-buffering
    // shapes, and what the seeded fence-weakening mutations remove.
    DrainBuffer(static_cast<size_t>(g_tid));
  }
  if (IsAcquire(order)) {
    ClockJoin(w.clock, w.acq_pending);
    w.acq_pending = VectorClock{};
  }
  if (IsRelease(order)) {
    w.fence_release = w.clock;
  }
}

void ModelRuntime::NonAtomicAccess(const volatile void* addr, bool is_write) {
  if (g_active != this || g_tid < 0) {
    return;
  }
  SchedulePoint();
  Worker& w = *workers_[g_tid];
  const int t = g_tid;
  ++w.clock[t];
  AccessRecord& rec = na_records_[addr];
  const void* plain_addr = const_cast<const void*>(addr);
  if (rec.last_writer >= 0 && rec.last_writer != t &&
      rec.write_epoch > w.clock[rec.last_writer]) {
    std::ostringstream os;
    os << "data race: " << (is_write ? "write" : "read") << " by thread " << t
       << " at " << plain_addr << " is unordered with the write by thread "
       << rec.last_writer;
    throw ModelViolation(os.str());
  }
  if (is_write) {
    for (size_t u = 0; u < kMaxModelThreads; ++u) {
      if (static_cast<int>(u) != t && rec.read_epochs[u] > w.clock[u]) {
        std::ostringstream os;
        os << "data race: write by thread " << t << " at " << plain_addr
           << " is unordered with the read by thread " << u;
        throw ModelViolation(os.str());
      }
    }
    rec.last_writer = t;
    rec.write_epoch = w.clock[t];
    // Prior reads happen-before this write (just checked), so the write
    // epoch alone now guards the location.
    rec.read_epochs = VectorClock{};
  } else {
    rec.read_epochs[t] = w.clock[t];
  }
}

void ModelRuntime::Yield() {
  if (g_active != this || g_tid < 0) {
    return;
  }
  Worker& w = *workers_[g_tid];
  w.yielded = true;  // switching away from us is preemption-free
  SchedulePoint();
  w.yielded = false;
}

void ModelRuntime::ForgetLocation(const ModelAtomicMeta* loc) {
  if (g_active != this || g_tid < 0) {
    return;
  }
  for (size_t t = 0; t < threads_this_execution_; ++t) {
    std::deque<BufferedStore>& buffer = workers_[t]->buffer;
    for (auto it = buffer.begin(); it != buffer.end();) {
      it = it->loc == loc ? buffer.erase(it) : it + 1;
    }
  }
}

// --- controller side ---------------------------------------------------

void ModelRuntime::StepWorker(size_t tid) {
  current_thread_ = static_cast<int>(tid);
  ResumeWorker(tid);
  ControlWait();
}

void ModelRuntime::CommitStore(const BufferedStore& s) {
  s.loc->committed = s.value;
  s.loc->commit_clock = s.clock;
}

void ModelRuntime::FlushOne(size_t tid) {
  Worker& w = *workers_[tid];
  CommitStore(w.buffer.front());
  w.buffer.pop_front();
}

void ModelRuntime::DrainBuffer(size_t tid) {
  Worker& w = *workers_[tid];
  while (!w.buffer.empty()) {
    CommitStore(w.buffer.front());
    w.buffer.pop_front();
  }
}

void ModelRuntime::EnumerateActions(std::vector<uint32_t>& out) const {
  out.clear();
  const bool budget_spent = preemptions_used_ >= config_.preemption_bound;
  bool cur_runnable = false;
  if (current_thread_ >= 0) {
    const Worker& cur = *workers_[current_thread_];
    cur_runnable = cur.status == WorkerStatus::kAtPoint && !cur.yielded;
  }
  for (size_t t = 0; t < threads_this_execution_; ++t) {
    if (workers_[t]->status != WorkerStatus::kAtPoint) {
      continue;
    }
    // CHESS-style bounding: once the preemption budget is spent, a thread
    // runs until it blocks, yields, or finishes; only then may another run.
    if (budget_spent && cur_runnable &&
        static_cast<int>(t) != current_thread_) {
      continue;
    }
    out.push_back(static_cast<uint32_t>(t));
  }
  for (size_t t = 0; t < threads_this_execution_; ++t) {
    const Worker& w = *workers_[t];
    if (w.buffer.empty()) {
      continue;
    }
    // Flushing the current thread's own buffer between two of its ops is
    // invisible (it forwards from the buffer); skip unless it finished.
    if (static_cast<int>(t) == current_thread_ &&
        w.status != WorkerStatus::kFinished) {
      continue;
    }
    out.push_back(kFlushBase + static_cast<uint32_t>(t));
  }
}

void ModelRuntime::ApplyAction(uint32_t action) {
  trace_.push_back(action);
  if (action >= kFlushBase) {
    FlushOne(action - kFlushBase);
    return;
  }
  const size_t tid = action;
  if (current_thread_ >= 0 && static_cast<int>(tid) != current_thread_) {
    const Worker& cur = *workers_[current_thread_];
    if (cur.status == WorkerStatus::kAtPoint && !cur.yielded) {
      ++preemptions_used_;  // switched away from a thread that could run
    }
  }
  StepWorker(tid);
}

void ModelRuntime::AbortStragglers() {
  abort_execution_ = true;
  for (size_t t = 0; t < threads_this_execution_; ++t) {
    Worker& w = *workers_[t];
    while (w.status == WorkerStatus::kAtPoint ||
           w.status == WorkerStatus::kAssigned) {
      StepWorker(t);  // resumed worker observes the abort flag and unwinds
    }
    w.buffer.clear();
  }
}

void ModelRuntime::ResetExecutionState() {
  for (auto& wp : workers_) {
    Worker& w = *wp;
    w.status = WorkerStatus::kIdle;
    w.task = nullptr;
    w.buffer.clear();
    w.clock = VectorClock{};
    w.fence_release = VectorClock{};
    w.acq_pending = VectorClock{};
    w.steps = 0;
    w.yielded = false;
  }
  threads_this_execution_ = 0;
  finally_ = nullptr;
  abort_execution_ = false;
  horizon_hit_ = false;
  violation_ = false;
  violation_text_.clear();
  current_thread_ = -1;
  preemptions_used_ = 0;
  na_records_.clear();
  replay_depth_ = 0;
  trace_.clear();
}

bool ModelRuntime::RunOneExecution(const ModelSetupFn& setup) {
  ResetExecutionState();
  ModelExecution ex(this);
  setup(ex);
  // Prologue: run every thread up to its first scheduling point. No shared
  // operation executes here (entries block *before* their effect), so the
  // prologue order is not a scheduling decision.
  for (size_t t = 0; t < threads_this_execution_; ++t) {
    if (violation_ || horizon_hit_) {
      break;
    }
    if (workers_[t]->status == WorkerStatus::kAssigned) {
      StepWorker(t);
    }
  }
  current_thread_ = -1;  // the first real switch is free
  std::vector<uint32_t> acts;
  while (!violation_ && !horizon_hit_) {
    bool done = true;
    for (size_t t = 0; t < threads_this_execution_; ++t) {
      if (workers_[t]->status != WorkerStatus::kFinished ||
          !workers_[t]->buffer.empty()) {
        done = false;
        break;
      }
    }
    if (done) {
      break;
    }
    EnumerateActions(acts);
    if (acts.empty()) {
      RecordViolation("model scheduler deadlock: no enabled actions");
      break;
    }
    uint32_t idx = 0;
    if (acts.size() > 1) {
      // Only genuine choice points are decisions; single-action stretches
      // replay identically for free.
      if (replay_depth_ < stack_.size()) {
        idx = stack_[replay_depth_].chosen;
        assert(idx < acts.size() && "non-deterministic model execution");
      } else {
        stack_.push_back(Decision{0, static_cast<uint32_t>(acts.size())});
      }
      ++replay_depth_;
    }
    ApplyAction(acts[idx]);
  }
  if (!violation_ && !horizon_hit_ && finally_) {
    current_thread_ = -1;
    try {
      finally_();
    } catch (const ModelViolation& v) {
      violation_ = true;
      violation_text_ = v.what();
    }
  }
  if (violation_ || horizon_hit_) {
    AbortStragglers();
  }
  return violation_;
}

ExploreResult ModelRuntime::Run(const ModelSetupFn& setup) {
  ModelRuntime* prev_active = g_active;
  int prev_tid = g_tid;
  g_active = this;
  g_tid = -1;
  ExploreResult res;
  const bool replay_mode = !config_.replay.empty();
  if (replay_mode) {
    for (uint32_t c : config_.replay) {
      stack_.push_back(Decision{c, c + 1});
    }
  }
  size_t horizon_total = 0;
  while (res.executions < config_.max_executions) {
    const bool bad = RunOneExecution(setup);
    ++res.executions;
    if (horizon_hit_) {
      ++horizon_total;
    }
    if (bad) {
      res.ok = false;
      res.failure = violation_text_;
      res.failing_schedule.clear();
      for (size_t i = 0; i < replay_depth_ && i < stack_.size(); ++i) {
        res.failing_schedule.push_back(stack_[i].chosen);
      }
      break;
    }
    if (replay_mode) {
      res.exhausted = true;
      break;
    }
    // Depth-first backtrack: advance the deepest decision that still has an
    // untried alternative; drop exhausted tails.
    while (!stack_.empty() &&
           stack_.back().chosen + 1 >= stack_.back().num_actions) {
      stack_.pop_back();
    }
    if (stack_.empty()) {
      res.exhausted = true;
      break;
    }
    ++stack_.back().chosen;
  }
  res.horizon_hits = horizon_total;
  g_active = prev_active;
  g_tid = prev_tid;
  return res;
}

ExploreResult Explore(const ModelConfig& config, const ModelSetupFn& setup) {
  ModelRuntime rt(config);
  return rt.Run(setup);
}

}  // namespace softtimer::check
