#include "src/core/sharded_soft_timer_runtime.h"

#include <cassert>
#include <utility>

#include "src/timer/timer_slab.h"

namespace softtimer {

namespace {
// Remote id layout below the shard byte: bit 55 = remote, bits 54..47 =
// producer slot, bits 46..0 = per-producer sequence.
constexpr uint32_t kRemoteProducerShift = 47;
constexpr uint64_t kRemoteSeqMask = (1ull << kRemoteProducerShift) - 1;
}  // namespace

// --- RemoteIdMap -------------------------------------------------------

void RemoteIdMap::Insert(uint64_t key, uint64_t value) {
  assert(key != 0);
  if (table_.empty() || (size_ + 1) * 10 >= table_.size() * 7) {
    Grow();
  }
  InsertNoGrow(key, value);
}

void RemoteIdMap::InsertNoGrow(uint64_t key, uint64_t value) {
  size_t i = SlotFor(key);
  while (table_[i].key != 0) {
    if (table_[i].key == key) {
      table_[i].value = value;
      return;
    }
    i = (i + 1) & (table_.size() - 1);
  }
  table_[i] = Entry{key, value};
  ++size_;
}

uint64_t RemoteIdMap::Find(uint64_t key) const {
  if (table_.empty()) {
    return 0;
  }
  size_t mask = table_.size() - 1;
  size_t i = Mix(key) & mask;
  while (table_[i].key != 0) {
    if (table_[i].key == key) {
      return table_[i].value;
    }
    i = (i + 1) & mask;
  }
  return 0;
}

bool RemoteIdMap::Erase(uint64_t key) {
  if (table_.empty()) {
    return false;
  }
  size_t mask = table_.size() - 1;
  size_t i = Mix(key) & mask;
  while (table_[i].key != 0) {
    if (table_[i].key == key) {
      break;
    }
    i = (i + 1) & mask;
  }
  if (table_[i].key == 0) {
    return false;
  }
  // Backward-shift deletion: pull every displaced follower one slot back so
  // linear probing needs no tombstones.
  size_t hole = i;
  size_t j = i;
  while (true) {
    j = (j + 1) & mask;
    if (table_[j].key == 0) {
      break;
    }
    size_t home = Mix(table_[j].key) & mask;
    // Move table_[j] into the hole unless its home slot lies strictly after
    // the hole on the cyclic probe path (in which case shifting it back
    // would place it before its home).
    if (((j - home) & mask) >= ((j - hole) & mask)) {
      table_[hole] = table_[j];
      hole = j;
    }
  }
  table_[hole] = Entry{};
  --size_;
  return true;
}

// SOFTTIMER_COLD: amortized rehash - the cross-core drain runs the table at
// its doubled capacity in steady state, so growth happens only while the
// remote-id population is still climbing toward its peak.
void RemoteIdMap::Grow() {
  std::vector<Entry> old = std::move(table_);
  size_t cap = old.empty() ? 64 : old.size() * 2;
  table_.assign(cap, Entry{});
  size_ = 0;
  for (const Entry& e : old) {
    if (e.key != 0) {
      InsertNoGrow(e.key, e.value);
    }
  }
}

// --- ShardedSoftTimerRuntime -------------------------------------------

ShardedSoftTimerRuntime::ShardedSoftTimerRuntime(const ClockSource* clock,
                                                 Config config)
    : clock_(clock) {
  assert(clock_ != nullptr);
  assert(config.num_shards >= 1 && config.num_shards <= kTimerIdMaxShards);
  shards_.reserve(config.num_shards);
  for (size_t i = 0; i < config.num_shards; ++i) {
    auto shard = std::make_unique<Shard>();
    shard->facility =
        std::make_unique<SoftTimerFacility>(clock_, config.facility);
    shard->facility->set_event_retired_hook(&OnEventRetired, shard.get());
    shards_.push_back(std::move(shard));
  }
}

// Undrained commands die with their channels: handlers are destroyed, never
// fired. Producer and owner threads must be quiescent by now (the host
// joins its shard threads before destroying the runtime).
ShardedSoftTimerRuntime::~ShardedSoftTimerRuntime() = default;

ShardedSoftTimerRuntime::ProducerToken ShardedSoftTimerRuntime::RegisterProducer() {
  std::lock_guard<std::mutex> lock(producer_mutex_);
  ProducerToken token;
  // ordering: registrations serialize on the mutex, so this thread holds
  // the count's only writer role.
  size_t index = producers_registered_.load(std::memory_order_relaxed);
  if (index == kMaxProducers) {
    return token;
  }
  for (auto& shard : shards_) {
    shard->channels[index] =
        std::make_unique<SpscChannel<Command>>(kInitialRingCapacity);
  }
  // ordering: this RegisterProducer release publishes the channels built
  // above; pairs with the acquire load of the count (see DrainChannels).
  producers_registered_.store(index + 1, std::memory_order_release);
  token.index_ = index;
  return token;
}

SoftEventId ShardedSoftTimerRuntime::ScheduleOnShard(
    size_t shard, uint64_t delta_ticks, SoftTimerFacility::Handler handler,
    uint32_t handler_tag) {
  SoftEventId id = shards_[shard]->facility->ScheduleSoftEvent(
      delta_ticks, std::move(handler), handler_tag);
  return SoftEventId{WithTimerIdShard(id.value, static_cast<uint32_t>(shard))};
}

bool ShardedSoftTimerRuntime::CancelOnShard(size_t shard, SoftEventId id) {
  if (!id.valid() || TimerIdShard(id.value) != shard) {
    return false;
  }
  return ApplyCancel(*shards_[shard], id.value);
}

// SOFTTIMER_HOT
bool ShardedSoftTimerRuntime::RescheduleOnShard(size_t shard, SoftEventId id,
                                                uint64_t delta_ticks) {
  if (!id.valid() || TimerIdShard(id.value) != shard) {
    return false;
  }
  return ApplyReschedule(*shards_[shard], id.value, delta_ticks);
}

// SOFTTIMER_HOT
size_t ShardedSoftTimerRuntime::DrainRemote(size_t shard) {
  Shard& s = *shards_[shard];
  // The steps (clear and fence, count load, bounded sweep, re-raise) and
  // their orderings live in DrainChannels (src/core/remote_pending.h),
  // which tests/model_check_test.cc runs as shipped: a command published
  // mid-sweep is either popped or left flagged for the next check.
  size_t applied = DrainChannels(
      s.remote_pending, producers_registered_, s.channels,
      [this, &s](Command&& cmd) { ApplyCommand(s, std::move(cmd)); });
  if (applied > 0) {
    ++s.stats.drains;
  }
  return applied;
}

void ShardedSoftTimerRuntime::ApplyCommand(Shard& shard, Command&& cmd) {
  // Re-anchors a schedule's or an update's delay at the enqueue tick, so
  // time spent in the ring counts against T instead of stretching it.
  auto remaining_ticks = [&shard, &cmd] {
    uint64_t now = shard.facility->MeasureTime();
    uint64_t due = cmd.enqueue_tick + cmd.delta_ticks;
    return due > now ? due - now : 0;
  };
  switch (cmd.op) {
    case Command::Op::kSchedule: {
      SoftEventId local = shard.facility->ScheduleSoftEventWithCookie(
          remaining_ticks(), std::move(cmd.handler), cmd.tag, cmd.id);
      shard.remote_ids.Insert(cmd.id, local.value);
      ++shard.stats.remote_scheduled;
      break;
    }
    case Command::Op::kCancel:
      if (ApplyCancel(shard, cmd.id)) {
        ++shard.stats.remote_cancelled;
      } else {
        ++shard.stats.remote_cancel_misses;
      }
      break;
    case Command::Op::kUpdate:
      if (ApplyReschedule(shard, cmd.id, remaining_ticks())) {
        ++shard.stats.remote_rescheduled;
      } else {
        ++shard.stats.remote_reschedule_misses;
      }
      break;
    case Command::Op::kNone:
      break;
  }
}

uint64_t ShardedSoftTimerRuntime::LocalId(const Shard& shard,
                                          uint64_t id_value) {
  // A remote id maps through the table: 0 (never a live facility id) when
  // the event fired, was cancelled, or its schedule has not drained yet.
  return IsRemoteTimerId(id_value) ? shard.remote_ids.Find(id_value)
                                   : StripTimerIdShard(id_value);
}

bool ShardedSoftTimerRuntime::ApplyCancel(Shard& shard, uint64_t id_value) {
  // The facility's retire hook erases a remote id's table entry when the
  // cancel lands, the same way a dispatch does - a live entry always maps
  // to a live event, so no explicit Erase here.
  return shard.facility->CancelSoftEvent(SoftEventId{LocalId(shard, id_value)});
}

// SOFTTIMER_HOT
bool ShardedSoftTimerRuntime::ApplyReschedule(Shard& shard, uint64_t id_value,
                                              uint64_t delta_ticks) {
  // The event keeps its facility id across the re-arm, so both a local id
  // and a remote id's table entry stay valid as they are.
  return shard.facility->RescheduleSoftEvent(
      SoftEventId{LocalId(shard, id_value)}, delta_ticks);
}

// SOFTTIMER_HOT
SoftEventId ShardedSoftTimerRuntime::ScheduleCrossCore(
    ProducerToken& token, size_t shard, uint64_t delta_ticks,
    SoftTimerFacility::Handler handler, uint32_t handler_tag) {
  if (!token.valid() || shard >= shards_.size()) {
    return SoftEventId{};
  }
  uint64_t seq = token.next_seq_++ & kRemoteSeqMask;
  uint64_t id = WithTimerIdShard(
      kTimerIdRemoteBit |
          (static_cast<uint64_t>(token.index_) << kRemoteProducerShift) | seq,
      static_cast<uint32_t>(shard));
  Command cmd;
  cmd.op = Command::Op::kSchedule;
  cmd.tag = handler_tag;
  cmd.id = id;
  cmd.delta_ticks = delta_ticks;
  cmd.enqueue_tick = clock_->NowTicks();
  cmd.handler = std::move(handler);
  PushCommand(token, shard, std::move(cmd));
  return SoftEventId{id};
}

// SOFTTIMER_HOT
bool ShardedSoftTimerRuntime::RescheduleCrossCore(ProducerToken& token,
                                                  SoftEventId id,
                                                  uint64_t delta_ticks) {
  if (!token.valid() || !id.valid()) {
    return false;
  }
  size_t shard = TimerIdShard(id.value);
  if (shard >= shards_.size()) {
    return false;
  }
  Command cmd;
  cmd.op = Command::Op::kUpdate;
  cmd.id = id.value;
  cmd.delta_ticks = delta_ticks;
  cmd.enqueue_tick = clock_->NowTicks();
  PushCommand(token, shard, std::move(cmd));
  return true;
}

// SOFTTIMER_HOT
bool ShardedSoftTimerRuntime::CancelCrossCore(ProducerToken& token,
                                              SoftEventId id) {
  if (!token.valid() || !id.valid()) {
    return false;
  }
  size_t shard = TimerIdShard(id.value);
  if (shard >= shards_.size()) {
    return false;
  }
  Command cmd;
  cmd.op = Command::Op::kCancel;
  cmd.id = id.value;
  PushCommand(token, shard, std::move(cmd));
  return true;
}

// SOFTTIMER_HOT
void ShardedSoftTimerRuntime::PushCommand(ProducerToken& token, size_t shard,
                                          Command&& cmd) {
  Shard& s = *shards_[shard];
  if (s.channels[token.index_]->Push(std::move(cmd))) {
    ++token.ring_growths_;
  }
  // Seq_cst publish, not release: pairs with the seq_cst fence in the drain
  // sweep so a publish racing a drain either has its command popped or
  // leaves the flag raised (see src/core/remote_pending.h).
  s.remote_pending.Publish();
  if (wake_fn_ != nullptr) {
    wake_fn_(wake_ctx_, shard);
  }
}

ShardedSoftTimerRuntime::RuntimeStats ShardedSoftTimerRuntime::AggregateStats()
    const {
  RuntimeStats out;
  for (const auto& shard : shards_) {
    const SoftTimerFacility::Stats& f = shard->facility->stats();
    out.checks += f.checks;
    out.dispatches += f.dispatches;
    out.scheduled += f.scheduled;
    out.cancelled += f.cancelled;
    out.rescheduled += f.rescheduled;
    for (size_t s = 0; s < kNumTriggerSources; ++s) {
      out.dispatches_by_source[s] += f.dispatches_by_source[s];
    }
    out.remote_scheduled += shard->stats.remote_scheduled;
    out.remote_cancelled += shard->stats.remote_cancelled;
    out.remote_rescheduled += shard->stats.remote_rescheduled;
    out.slab_capacity += f.slab_capacity;
    out.slab_live += f.slab_live;
  }
  return out;
}

}  // namespace softtimer
