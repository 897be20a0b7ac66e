// Exhaustive-interleaving verification of the repo's lock-free protocols
// (src/check/), in two directions:
//
//  1. The shipped ordering policies pass every explored schedule - SpscRing,
//     SpscChannel (the growing command channel), RemotePendingFlag with
//     DrainChannels (DrainRemote's own drain steps, also with a producer
//     registering mid-drain), and SleeperGate (the eventcount sleep/wake
//     protocol with its planned-tick wake rule, and two sleepers leaving a
//     shared deadline to one of them) are
//     instantiated against ModelCheckerTraits exactly as production
//     instantiates them against StdAtomicsTraits, and the checker explores
//     the bounded schedule space to exhaustion.
//
//  2. Mutation self-checks - weakening one shipped ordering at a time must
//     make the checker reproduce the corresponding historical race. This is
//     what makes the green runs in (1) trustworthy: the harness provably
//     has the teeth to catch the bug classes it guards against. The
//     headline mutation is the PR 3 review fix: demoting the DrainRemote
//     seq_cst fence back to a plain release strands a published command.
//
// Which mutations are detectable and why (TSO + happens-before lens) is
// documented in DESIGN.md section 11. Notably, fence weakenings surface as
// value-level invariant failures (a stranded command, a lost wakeup), while
// acquire/release weakenings on the ring surface as happens-before data
// races on the slot bytes.

#include <algorithm>
#include <array>
#include <cstdint>
#include <memory>
#include <vector>

#include <gtest/gtest.h>

#include "src/check/model_atomic.h"
#include "src/check/model_runtime.h"
#include "src/core/queue_claim.h"
#include "src/core/remote_pending.h"
#include "src/core/spsc_ring.h"
#include "src/rt/eventcount.h"

namespace softtimer {
namespace {

using check::Explore;
using check::ExploreResult;
using check::ModelAtomic;
using check::ModelCheckerTraits;
using check::ModelConfig;
using check::ModelExecution;

// --- seeded ordering mutations (never shipped) --------------------------
//
// Each derives from the shipped policy and weakens exactly one member; the
// primitive's protocol code is byte-for-byte the same.

struct WeakTailStoreOrdering : SpscRingOrdering {
  // Publish without release: the consumer can observe the counter bump
  // without the slot bytes it is supposed to cover.
  static constexpr std::memory_order kTailStore = std::memory_order_relaxed;
};

struct WeakHeadLoadOrdering : SpscRingOrdering {
  // Recycle without acquire: the producer can reuse a slot without being
  // ordered after the pop that freed it.
  static constexpr std::memory_order kHeadLoad = std::memory_order_relaxed;
};

struct WeakDrainFenceOrdering : RemotePendingOrdering {
  // The PR 3 bug, reintroduced: without the store-load fence the owner's
  // flag clear sits in its store buffer while the ring sweep runs ahead.
  static constexpr std::memory_order kDrainFence = std::memory_order_release;
};

struct NoRedrainChannelOrdering : SpscChannelOrdering {
  // Follow the link as soon as the old ring reads empty, without popping it
  // once more: pushes the empty reading missed are skipped (and freed).
  static constexpr bool kRedrainBeforeSwitch = false;
};

struct WeakClaimReleaseOrdering : QueueClaimOrdering {
  // Claim handback without release: the next claimant's acquire CAS sees
  // claim==0 but inherits none of the owner's governor/drain-state writes.
  static constexpr std::memory_order kReleaseStore = std::memory_order_relaxed;
};

struct WeakSleepFenceOrdering : SleeperGateOrdering {
  // Sleeper announces sleep but the flag can stay buffered past its
  // pending recheck.
  static constexpr std::memory_order kSleepFence = std::memory_order_relaxed;
};

struct WeakWakeFenceOrdering : SleeperGateOrdering {
  // Waker publishes work but the publish can stay buffered past its
  // sleeping-flag read.
  static constexpr std::memory_order kWakeFence = std::memory_order_relaxed;
};

// --- SpscRing: publish direction (tail store / tail load pairing) -------
//
// One push, consumer attempts two pops. Tiny on purpose: the interesting
// schedules are "pop sees the counter bump before/after the slot write
// commits", and the weak-tail-store mutation must turn the latter into a
// detected race on the slot bytes.

template <typename Ordering>
ExploreResult ExploreRingPublish() {
  ModelConfig cfg;
  cfg.preemption_bound = 3;
  return Explore(cfg, [](ModelExecution& ex) {
    struct State {
      SpscRing<int, ModelCheckerTraits, Ordering> ring{4};
      std::vector<int> popped;
    };
    auto st = std::make_shared<State>();
    ex.Thread([st] {
      int v = 7;
      MODEL_CHECK(st->ring.TryPush(std::move(v)));
    });
    ex.Thread([st] {
      int out = 0;
      for (int attempt = 0; attempt < 2; ++attempt) {
        if (st->ring.TryPop(out)) {
          st->popped.push_back(out);
        }
      }
    });
    ex.Finally([st] {
      for (int v : st->popped) {
        MODEL_CHECK(v == 7);
      }
      MODEL_CHECK(st->popped.size() <= 1);
    });
  });
}

TEST(SpscRingModel, ShippedPublishOrderingPassesAllSchedules) {
  ExploreResult r = ExploreRingPublish<SpscRingOrdering>();
  EXPECT_TRUE(r.ok) << r.Summary();
  EXPECT_TRUE(r.exhausted) << r.Summary();
  EXPECT_EQ(r.horizon_hits, 0u) << r.Summary();
}

TEST(SpscRingModel, MutationWeakTailStoreIsCaughtAsSlotRace) {
  ExploreResult r = ExploreRingPublish<WeakTailStoreOrdering>();
  ASSERT_FALSE(r.ok) << r.Summary();
  EXPECT_NE(r.failure.find("data race"), std::string::npos) << r.Summary();
}

// --- SpscRing: recycle direction (head store / head load pairing) -------
//
// Capacity-1 ring so the second push must reuse the slot the pop just
// freed; the weak-head-load mutation lets that reuse race the pop.

template <typename Ordering>
ExploreResult ExploreRingRecycle() {
  ModelConfig cfg;
  cfg.preemption_bound = 3;
  return Explore(cfg, [](ModelExecution& ex) {
    struct State {
      SpscRing<int, ModelCheckerTraits, Ordering> ring{1};
      std::vector<int> popped;
      int pushed = 0;
    };
    auto st = std::make_shared<State>();
    ex.Thread([st] {
      int a = 1;
      MODEL_CHECK(st->ring.TryPush(std::move(a)));
      st->pushed = 1;
      int b = 2;
      if (st->ring.TryPush(std::move(b))) {  // needs the pop to have landed
        st->pushed = 2;
      }
    });
    ex.Thread([st] {
      int out = 0;
      for (int attempt = 0; attempt < 2; ++attempt) {
        if (st->ring.TryPop(out)) {
          st->popped.push_back(out);
        }
      }
    });
    ex.Finally([st] {
      MODEL_CHECK(st->popped.size() <= static_cast<size_t>(st->pushed));
      for (size_t i = 0; i < st->popped.size(); ++i) {
        MODEL_CHECK(st->popped[i] == static_cast<int>(i) + 1);  // FIFO
      }
    });
  });
}

TEST(SpscRingModel, ShippedRecycleOrderingPassesAllSchedules) {
  ExploreResult r = ExploreRingRecycle<SpscRingOrdering>();
  EXPECT_TRUE(r.ok) << r.Summary();
  EXPECT_TRUE(r.exhausted) << r.Summary();
}

TEST(SpscRingModel, MutationWeakHeadLoadIsCaughtAsSlotReuseRace) {
  ExploreResult r = ExploreRingRecycle<WeakHeadLoadOrdering>();
  ASSERT_FALSE(r.ok) << r.Summary();
  EXPECT_NE(r.failure.find("data race"), std::string::npos) << r.Summary();
}

// Wraparound under a full schedule sweep: capacity-2 ring, three pushes, so
// the third push laps the buffer and reuses slot 0. Shipped orderings only;
// verifies FIFO order and per-slot race-freedom across the wrap.
TEST(SpscRingModel, ShippedWraparoundKeepsFifoUnderAllSchedules) {
  ModelConfig cfg;
  cfg.preemption_bound = 2;  // three pushes x three pops: keep it tractable
  ExploreResult r = Explore(cfg, [](ModelExecution& ex) {
    struct State {
      SpscRing<int, ModelCheckerTraits> ring{2};
      std::vector<int> popped;
      int pushed = 0;
    };
    auto st = std::make_shared<State>();
    ex.Thread([st] {
      for (int v = 1; v <= 3; ++v) {
        int tmp = v;
        if (!st->ring.TryPush(std::move(tmp))) {
          break;  // full is a legal outcome; FIFO of what landed still holds
        }
        st->pushed = v;
      }
    });
    ex.Thread([st] {
      int out = 0;
      for (int attempt = 0; attempt < 3; ++attempt) {
        if (st->ring.TryPop(out)) {
          st->popped.push_back(out);
        }
      }
    });
    ex.Finally([st] {
      MODEL_CHECK(st->popped.size() <= static_cast<size_t>(st->pushed));
      for (size_t i = 0; i < st->popped.size(); ++i) {
        MODEL_CHECK(st->popped[i] == static_cast<int>(i) + 1);
      }
    });
  });
  EXPECT_TRUE(r.ok) << r.Summary();
  EXPECT_TRUE(r.exhausted) << r.Summary();
}

// --- RemotePendingFlag: the DrainRemote publish/drain protocol ----------
//
// Runs the shipped drain, DrainChannels, on one registered producer: the
// producer pushes two commands into its channel, raising the flag after
// each; the shard owner runs one trigger-check drain pass (poll, then
// clear+fence, count read, bounded sweep, re-raise on leftovers).
// Liveness handoff invariant: afterwards, either every command was consumed
// or the flag is still raised so the next check will drain the rest. The
// weak-fence mutation reintroduces the store-buffering stranding: the sweep
// misses a command AND the owner's buffered clear overwrites the producer's
// publish.

template <typename Ordering>
ExploreResult ExploreRemotePending(ModelConfig cfg = {}) {
  cfg.preemption_bound = 2;  // the stranding needs only one preemption
  return Explore(cfg, [](ModelExecution& ex) {
    using Channel = SpscChannel<int, ModelCheckerTraits>;
    struct State {
      std::array<std::unique_ptr<Channel>, 1> channels{
          std::make_unique<Channel>(2)};
      ModelAtomic<size_t> registered{1};
      RemotePendingFlag<ModelCheckerTraits, Ordering> pending;
      int consumed = 0;
    };
    auto st = std::make_shared<State>();
    ex.Thread([st] {  // producer: two push+publish rounds
      for (int v = 1; v <= 2; ++v) {
        int cmd = v;
        st->channels[0]->Push(std::move(cmd));
        st->pending.Publish();
      }
    });
    ex.Thread([st] {  // shard owner: one DrainRemote pass
      if (!st->pending.AnyPendingRelaxed()) {
        return;  // nothing observed; producer's publish stays pending
      }
      DrainChannels(st->pending, st->registered, st->channels,
                    [st](int&&) { ++st->consumed; });
    });
    ex.Finally([st] {
      // Every published command is either consumed or still flagged for the
      // next drain - a stranded command (in the ring, flag down) is the bug.
      MODEL_CHECK(st->consumed == 2 || st->pending.AnyPendingRelaxed());
    });
  });
}

TEST(RemotePendingModel, ShippedOrderingNeverStrandsACommand) {
  ExploreResult r = ExploreRemotePending<RemotePendingOrdering>();
  EXPECT_TRUE(r.ok) << r.Summary();
  EXPECT_TRUE(r.exhausted) << r.Summary();
}

TEST(RemotePendingModel, MutationWeakDrainFenceStrandsACommand) {
  ExploreResult r = ExploreRemotePending<WeakDrainFenceOrdering>();
  ASSERT_FALSE(r.ok) << r.Summary();
  EXPECT_NE(r.failure.find("MODEL_CHECK"), std::string::npos) << r.Summary();
}

// A reported failing schedule must replay deterministically to the same
// violation - that is what makes a checker failure debuggable.
TEST(RemotePendingModel, FailingScheduleReplaysDeterministically) {
  ExploreResult first = ExploreRemotePending<WeakDrainFenceOrdering>();
  ASSERT_FALSE(first.ok) << first.Summary();

  // Re-run only the failing schedule: one execution, same violation.
  ModelConfig cfg;
  cfg.replay = first.failing_schedule;
  ExploreResult replayed = ExploreRemotePending<WeakDrainFenceOrdering>(cfg);
  EXPECT_FALSE(replayed.ok) << replayed.Summary();
  EXPECT_EQ(replayed.executions, 1u) << replayed.Summary();
  EXPECT_EQ(replayed.failure, first.failure);
}

// --- SpscChannel: the command channel grows without reordering ----------
//
// Mirrors one (producer, shard) channel of ShardedSoftTimerRuntime at its
// smallest: a 1-slot first ring, so the producer's second command finds it
// full unless the owner already took the first, and grows the channel.
//
// FIFO across a growth: the producer sends schedule A (1) and cancel A (2);
// the owner pops twice. What it got must be a prefix of what was sent, in
// order. Switching rings without re-draining the old
// one breaks this: the owner reads the old ring empty, the producer fills
// it and grows, and the owner follows the link to the cancel, past the
// schedule it never popped.

template <typename Ordering>
ExploreResult ExploreChannelFifo() {
  ModelConfig cfg;
  cfg.preemption_bound = 2;  // the overtaking needs one preemption
  return Explore(cfg, [](ModelExecution& ex) {
    struct State {
      SpscChannel<int, ModelCheckerTraits, Ordering> channel{1};
      std::vector<int> consumed;
    };
    auto st = std::make_shared<State>();
    st->consumed.reserve(2);
    ex.Thread([st] {
      for (int v = 1; v <= 2; ++v) {
        int cmd = v;
        st->channel.Push(std::move(cmd));
      }
    });
    ex.Thread([st] {
      int cmd = 0;
      for (int attempt = 0; attempt < 2; ++attempt) {
        if (st->channel.TryPop(cmd)) {
          st->consumed.push_back(cmd);
        }
      }
    });
    ex.Finally([st] {
      for (size_t i = 0; i < st->consumed.size(); ++i) {
        MODEL_CHECK(st->consumed[i] == static_cast<int>(i) + 1);
      }
    });
  });
}

TEST(SpscChannelModel, ShippedGrowthKeepsFifoUnderAllSchedules) {
  ExploreResult r = ExploreChannelFifo<SpscChannelOrdering>();
  EXPECT_TRUE(r.ok) << r.Summary();
  EXPECT_TRUE(r.exhausted) << r.Summary();
  EXPECT_EQ(r.horizon_hits, 0u) << r.Summary();
}

TEST(SpscChannelModel, MutationSwitchWithoutRedrainLetsACancelOvertake) {
  ExploreResult r = ExploreChannelFifo<NoRedrainChannelOrdering>();
  ASSERT_FALSE(r.ok) << r.Summary();
  EXPECT_NE(r.failure.find("consumed[i] =="), std::string::npos)
      << r.Summary();
}

// Nothing stranded across a growth: the producer sends two commands with a
// publish after each; the owner runs two DrainRemote-shaped passes (poll,
// clear+fence, sweep of one ring capacity, re-raise on leftovers). A pass
// can stop with the old ring empty and the rest behind the link, so the
// leftover probe must see the link. Afterwards the owner consumed both, in
// order, or the flag is still raised for the next check.
TEST(SpscChannelModel, ShippedGrowthStrandsNoCommand) {
  ModelConfig cfg;
  cfg.preemption_bound = 2;
  ExploreResult r = Explore(cfg, [](ModelExecution& ex) {
    struct State {
      SpscChannel<int, ModelCheckerTraits> channel{1};
      RemotePendingFlag<ModelCheckerTraits> pending;
      std::vector<int> consumed;
    };
    auto st = std::make_shared<State>();
    st->consumed.reserve(2);
    ex.Thread([st] {
      for (int v = 1; v <= 2; ++v) {
        int cmd = v;
        st->channel.Push(std::move(cmd));
        st->pending.Publish();
      }
    });
    ex.Thread([st] {
      for (int pass = 0; pass < 2; ++pass) {
        if (!st->pending.AnyPendingRelaxed()) {
          continue;
        }
        st->pending.BeginDrain();
        int cmd = 0;
        size_t budget = st->channel.capacity();
        while (budget-- > 0 && st->channel.TryPop(cmd)) {
          st->consumed.push_back(cmd);
        }
        if (!st->channel.EmptyRelaxed()) {
          st->pending.Reraise();
        }
      }
    });
    ex.Finally([st] {
      for (size_t i = 0; i < st->consumed.size(); ++i) {
        MODEL_CHECK(st->consumed[i] == static_cast<int>(i) + 1);
      }
      MODEL_CHECK(st->consumed.size() == 2 || st->pending.AnyPendingRelaxed());
    });
  });
  EXPECT_TRUE(r.ok) << r.Summary();
  EXPECT_TRUE(r.exhausted) << r.Summary();
  EXPECT_EQ(r.horizon_hits, 0u) << r.Summary();
}

// --- Producer registration: a channel built while the owner drains -------
//
// ShardedSoftTimerRuntime::RegisterProducer racing DrainRemote. Producer 0
// registered before the run and has one command queued and published.
// While the owner runs one drain pass, producer 1 registers - builds its
// channel, then release-stores the count - and pushes and publishes one
// command. Afterwards both commands were consumed or the flag is still
// raised. The shipped drain, DrainChannels, reads the count after the
// fence, like the rings. The mutant below is a test-local copy that reads
// it before the fence: the owner can see one producer, sweep only channel 0
// and then clear producer 1's publish, stranding its command in a channel
// no drain is told about.

using RegistrationChannel = SpscChannel<int, ModelCheckerTraits>;
struct RegistrationState {
  std::array<std::unique_ptr<RegistrationChannel>, 2> channels;
  ModelAtomic<size_t> registered{1};
  RemotePendingFlag<ModelCheckerTraits> pending;
  int consumed = 0;
};

// The drain pass with the count read moved above BeginDrain.
void DrainWithCountReadBeforeTheFence(RegistrationState& st) {
  size_t producers = st.registered.load(std::memory_order_acquire);
  st.pending.BeginDrain();
  bool leftover = false;
  for (size_t p = 0; p < producers; ++p) {
    ModelCheckerTraits::OnNonAtomicRead(&st.channels[p]);
    RegistrationChannel& channel = *st.channels[p];
    int cmd = 0;
    size_t budget = channel.capacity();
    while (budget-- > 0 && channel.TryPop(cmd)) {
      ++st.consumed;
    }
    if (!channel.EmptyRelaxed()) {
      leftover = true;
    }
  }
  if (leftover) {
    st.pending.Reraise();
  }
}

template <bool kShippedDrain>
ExploreResult ExploreProducerRegistration() {
  ModelConfig cfg;
  cfg.preemption_bound = 2;  // the stranding needs only one preemption
  return Explore(cfg, [](ModelExecution& ex) {
    auto st = std::make_shared<RegistrationState>();
    st->channels[0] = std::make_unique<RegistrationChannel>(2);
    int first = 1;
    st->channels[0]->Push(std::move(first));
    st->pending.Publish();
    ex.Thread([st] {  // producer 1: register, push, publish
      auto channel = std::make_unique<RegistrationChannel>(2);
      ModelCheckerTraits::OnNonAtomicWrite(&st->channels[1]);
      st->channels[1] = std::move(channel);
      st->registered.store(2, std::memory_order_release);
      int cmd = 2;
      st->channels[1]->Push(std::move(cmd));
      st->pending.Publish();
    });
    ex.Thread([st] {  // shard owner: one DrainRemote pass
      if (!st->pending.AnyPendingRelaxed()) {
        return;
      }
      if (kShippedDrain) {
        DrainChannels(st->pending, st->registered, st->channels,
                      [st](int&&) { ++st->consumed; });
      } else {
        DrainWithCountReadBeforeTheFence(*st);
      }
    });
    ex.Finally([st] {
      MODEL_CHECK(st->consumed == 2 || st->pending.AnyPendingRelaxed());
    });
  });
}

TEST(ProducerRegistrationModel, ShippedCountReadNeverStrandsACommand) {
  ExploreResult r = ExploreProducerRegistration<true>();
  EXPECT_TRUE(r.ok) << r.Summary();
  EXPECT_TRUE(r.exhausted) << r.Summary();
  EXPECT_EQ(r.horizon_hits, 0u) << r.Summary();
}

TEST(ProducerRegistrationModel, CountReadBeforeTheFenceStrandsACommand) {
  ExploreResult r = ExploreProducerRegistration<false>();
  ASSERT_FALSE(r.ok) << r.Summary();
  EXPECT_NE(r.failure.find("MODEL_CHECK"), std::string::npos) << r.Summary();
}

// --- SleeperGate: the eventcount sleep/wake protocol --------------------
//
// Mirrors ShardedRtHost: the sleeper publishes the tick it will block
// until, fences, and rechecks the pending flag; the waker publishes work (a
// relaxed store - the gate's own fence must order it) with a due tick,
// fences, reads the planned tick and decides with the shipped WakeMatters
// rule. It publishes two commands: one due after the sleeper's tick, which
// the rule may skip, then one due before it, which must not be stranded.
// Invariant: a sleeper that decided to block was notified of the command
// due before the tick it blocks on; "would sleep past it unnotified" is the
// lost wakeup the fences and the tick's placement exist to prevent. The
// rule must also skip the later command when it reads the real tick, or
// the suppression would be vacuous.

constexpr uint64_t kModelNow = 0;          // the waker's enqueue tick
constexpr uint64_t kModelHorizon = 2;      // the notify horizon K
constexpr uint64_t kModelEarlyTick = 4;    // a provisional tick, past K
constexpr uint64_t kModelBlockTick = 10;   // the tick the sleeper blocks on
constexpr uint64_t kModelDueBefore = 7;    // due before the blocking tick
constexpr uint64_t kModelDueAfter = 12;    // due after it
constexpr uint64_t kModelLateTick = 20;    // a provisional tick past both

// What the sleeper publishes before its recheck, and what after it.
enum class SleeperPublish {
  // The shipped default: the tick it blocks on, before the recheck.
  kBlockTick,
  // A later tick before the recheck, lowered to the blocking tick after it
  // (what a shard that first publishes its own plan and then takes the
  // queue deadline does): a waker reads one tick or the other, each at or
  // after the blocking one.
  kLaterTickThenLower,
  // The seeded protocol mutation: an earlier, provisional tick before the
  // recheck and the real one only after it, so a waker can read the early
  // tick, skip a command due before the real one, and leave it stranded
  // until the sleeper wakes.
  kEarlierTickThenRaise,
};

template <typename Ordering,
          SleeperPublish kPublish = SleeperPublish::kBlockTick>
ExploreResult ExploreSleeperGate() {
  ModelConfig cfg;
  cfg.preemption_bound = 3;
  return Explore(cfg, [](ModelExecution& ex) {
    using Gate = SleeperGate<ModelCheckerTraits, Ordering>;
    struct State {
      Gate gate;
      ModelAtomic<uint32_t> pending{0};
      bool would_sleep = false;
      bool notified_before = false;
      bool notified_after = false;
      uint64_t read_after = 0;  // the tick the later command's waker read
    };
    auto st = std::make_shared<State>();
    ex.Thread([st] {  // sleeper (shard loop entering SleepAndDispatch)
      switch (kPublish) {
        case SleeperPublish::kBlockTick:
          st->gate.PrepareSleep(kModelBlockTick);
          break;
        case SleeperPublish::kLaterTickThenLower:
          st->gate.PrepareSleep(kModelLateTick);
          break;
        case SleeperPublish::kEarlierTickThenRaise:
          st->gate.PrepareSleep(kModelEarlyTick);
          break;
      }
      // ordering: the recheck itself is relaxed in production too - the
      // gate's kSleepFence is what orders it after the planned-tick store.
      if (st->pending.load(std::memory_order_relaxed) == 0) {
        if (kPublish == SleeperPublish::kLaterTickThenLower) {
          st->gate.Lower(kModelBlockTick);
        } else if (kPublish == SleeperPublish::kEarlierTickThenRaise) {
          st->gate.PrepareSleep(kModelBlockTick);  // too late
        }
        // Enters cv.wait until kModelBlockTick: the word stays set until a
        // notify (or the timeout) ends the wait, so FinishSleep belongs to
        // a later instant than any waker this execution models - eliding
        // it is what keeps "waker decided to notify" equivalent to "notify
        // delivered".
        st->would_sleep = true;
      } else {
        st->gate.FinishSleep();  // decided not to block after all
      }
    });
    ex.Thread([st] {  // waker (producer after two cross-core publishes)
      auto publish = [&st](uint64_t due_tick, uint64_t* read) {
        st->pending.store(1, std::memory_order_relaxed);
        uint64_t planned = st->gate.PlannedWake();
        if (read != nullptr) {
          *read = planned;
        }
        // Would take the mutex and notify here.
        return planned != 0 && Gate::WakeMatters(planned, due_tick, kModelNow,
                                                 kModelHorizon);
      };
      st->notified_after = publish(kModelDueAfter, &st->read_after);
      st->notified_before = publish(kModelDueBefore, nullptr);
    });
    ex.Finally([st] {
      // No command due before the blocking tick is left unnotified.
      MODEL_CHECK(!(st->would_sleep && !st->notified_before));
      // A command due after the blocking tick, far from it, is skipped.
      MODEL_CHECK(!(st->read_after == kModelBlockTick && st->notified_after));
    });
  });
}

TEST(SleeperGateModel, ShippedOrderingNeverLosesAWakeup) {
  ExploreResult r = ExploreSleeperGate<SleeperGateOrdering>();
  EXPECT_TRUE(r.ok) << r.Summary();
  EXPECT_TRUE(r.exhausted) << r.Summary();
}

TEST(SleeperGateModel, MutationWeakSleepFenceLosesAWakeup) {
  ExploreResult r = ExploreSleeperGate<WeakSleepFenceOrdering>();
  ASSERT_FALSE(r.ok) << r.Summary();
  EXPECT_NE(r.failure.find("MODEL_CHECK"), std::string::npos) << r.Summary();
}

TEST(SleeperGateModel, MutationWeakWakeFenceLosesAWakeup) {
  ExploreResult r = ExploreSleeperGate<WeakWakeFenceOrdering>();
  ASSERT_FALSE(r.ok) << r.Summary();
  EXPECT_NE(r.failure.find("MODEL_CHECK"), std::string::npos) << r.Summary();
}

TEST(SleeperGateModel, LaterTickLoweredAfterRecheckNeverLosesAWakeup) {
  ExploreResult r = ExploreSleeperGate<SleeperGateOrdering,
                                       SleeperPublish::kLaterTickThenLower>();
  EXPECT_TRUE(r.ok) << r.Summary();
  EXPECT_TRUE(r.exhausted) << r.Summary();
}

TEST(SleeperGateModel, MutationTickStoredAfterRecheckStrandsAnEarlierDeadline) {
  ExploreResult r = ExploreSleeperGate<SleeperGateOrdering,
                                       SleeperPublish::kEarlierTickThenRaise>();
  ASSERT_FALSE(r.ok) << r.Summary();
  EXPECT_NE(r.failure.find("MODEL_CHECK"), std::string::npos) << r.Summary();
}

// --- SleeperGate: one waker per shared deadline --------------------------
//
// Mirrors ShardedRtHost::SleepAndDispatch when both shards of a host park
// at once with the queue gate's next-due tick (10) before their own plans
// (20). Each runs the shipped sequence on its own gate: publish its plan
// (PrepareSleep, with the fence), read the sibling's gate, and lower its
// wait and its word to the queue tick unless the sibling Covers it. No
// pending recheck is modeled: both block. Invariant: some blocked shard's
// wait ends at or before the queue tick, so the queue is served in time.

constexpr uint64_t kModelQueueDue = 10;  // the queue gate's next-due tick
constexpr uint64_t kModelOwnPlan = 20;   // each shard's own plan

enum class ParkOrder {
  // The shipped order: own plan, fence, read the sibling, lower.
  kPublishThenRead,
  // Mutation: read the sibling before publishing anything, so two shards
  // parking at once can each read the other as awake.
  kReadThenPublish,
  // Mutation: publish the queue tick, read the sibling, and withdraw to the
  // own plan when the sibling covers: both can read each other's queue tick
  // and both withdraw.
  kPublishDueThenWithdraw,
};

template <typename Ordering, ParkOrder kOrder = ParkOrder::kPublishThenRead>
ExploreResult ExploreSharedDeadline() {
  ModelConfig cfg;
  cfg.preemption_bound = 3;
  return Explore(cfg, [](ModelExecution& ex) {
    using Gate = SleeperGate<ModelCheckerTraits, Ordering>;
    struct State {
      std::array<Gate, 2> gates;
      std::array<uint64_t, 2> wait{};  // the tick each shard blocks until
    };
    auto st = std::make_shared<State>();
    auto park = [st](size_t self) {
      Gate& own = st->gates[self];
      const Gate& sibling = st->gates[1 - self];
      uint64_t wait = kModelOwnPlan;
      switch (kOrder) {
        case ParkOrder::kPublishThenRead:
          own.PrepareSleep(kModelOwnPlan);
          if (!Gate::Covers(sibling.SiblingPlan(), kModelQueueDue)) {
            wait = kModelQueueDue;
            own.Lower(kModelQueueDue);
          }
          break;
        case ParkOrder::kReadThenPublish:
          if (!Gate::Covers(sibling.SiblingPlan(), kModelQueueDue)) {
            wait = kModelQueueDue;
          }
          own.PrepareSleep(wait);
          break;
        case ParkOrder::kPublishDueThenWithdraw:
          own.PrepareSleep(kModelQueueDue);
          wait = kModelQueueDue;
          if (Gate::Covers(sibling.SiblingPlan(), kModelQueueDue)) {
            wait = kModelOwnPlan;
            own.PrepareSleep(kModelOwnPlan);
          }
          break;
      }
      st->wait[self] = wait;
    };
    ex.Thread([park] { park(0); });
    ex.Thread([park] { park(1); });
    ex.Finally([st] {
      MODEL_CHECK(std::min(st->wait[0], st->wait[1]) <= kModelQueueDue);
    });
  });
}

TEST(SleeperGateModel, ShippedParkOrderAlwaysLeavesOneWakerForTheDeadline) {
  ExploreResult r = ExploreSharedDeadline<SleeperGateOrdering>();
  EXPECT_TRUE(r.ok) << r.Summary();
  EXPECT_TRUE(r.exhausted) << r.Summary();
  EXPECT_EQ(r.horizon_hits, 0u) << r.Summary();
}

TEST(SleeperGateModel, MutationReadSiblingBeforePublishingLeavesNoWaker) {
  ExploreResult r = ExploreSharedDeadline<SleeperGateOrdering,
                                          ParkOrder::kReadThenPublish>();
  ASSERT_FALSE(r.ok) << r.Summary();
  EXPECT_NE(r.failure.find("MODEL_CHECK"), std::string::npos) << r.Summary();
}

TEST(SleeperGateModel, MutationPublishDeadlineThenWithdrawLeavesNoWaker) {
  ExploreResult r = ExploreSharedDeadline<SleeperGateOrdering,
                                          ParkOrder::kPublishDueThenWithdraw>();
  ASSERT_FALSE(r.ok) << r.Summary();
  EXPECT_NE(r.failure.find("MODEL_CHECK"), std::string::npos) << r.Summary();
}

TEST(SleeperGateModel, MutationWeakSleepFenceLeavesNoWakerForTheDeadline) {
  ExploreResult r = ExploreSharedDeadline<WeakSleepFenceOrdering>();
  ASSERT_FALSE(r.ok) << r.Summary();
  EXPECT_NE(r.failure.find("MODEL_CHECK"), std::string::npos) << r.Summary();
}

// --- QueueClaim / NextDueGate: the M-on-N queue claim protocol ----------
//
// Mirrors MultiQueuePoller::PollOnce: two cores race a claim/poll/release
// cycle on one queue. The claim word is the queue's lock - its release
// store / acquire CAS pairing must publish the owner's plain governor-state
// writes (modeled as one instrumented non-atomic counter) to the next
// claimant. Exclusivity plus publication together are "no queue is ever
// double-polled": the checker's race detector proves no two cycles touch
// the governor bytes concurrently, and the final count proves every
// successful claim ran exactly one poll.

template <typename Ordering>
ExploreResult ExploreQueueClaimCycle() {
  ModelConfig cfg;
  cfg.preemption_bound = 3;
  return Explore(cfg, [](ModelExecution& ex) {
    struct State {
      QueueClaim<ModelCheckerTraits, Ordering> q;
      uint32_t governor_state = 0;  // claim-protected plain state
      int claims = 0;               // per-thread tallies, summed in Finally
      int claims2 = 0;
    };
    auto st = std::make_shared<State>();
    auto cycle = [st](uint32_t core, int* claims) {
      if (st->q.TryClaim(core)) {
        // The poll: mutate claim-protected state exactly like PollOnce
        // mutates the queue's governor and last-poll tick.
        ModelCheckerTraits::OnNonAtomicRead(&st->governor_state);
        uint32_t v = st->governor_state;
        ModelCheckerTraits::OnNonAtomicWrite(&st->governor_state);
        st->governor_state = v + 1;
        ++*claims;
        st->q.Release(/*next_due_tick=*/10 + core);
      }
    };
    ex.Thread([st, cycle] { cycle(0, &st->claims); });
    ex.Thread([st, cycle] { cycle(1, &st->claims2); });
    ex.Finally([st] {
      // Every successful claim polled exactly once (and the race detector
      // vouches that none of those polls overlapped).
      MODEL_CHECK(st->governor_state ==
                  static_cast<uint32_t>(st->claims + st->claims2));
      MODEL_CHECK(st->claims + st->claims2 >= 1);  // someone always wins
    });
  });
}

TEST(QueueClaimModel, ShippedOrderingNeverDoublePollsAQueue) {
  ExploreResult r = ExploreQueueClaimCycle<QueueClaimOrdering>();
  EXPECT_TRUE(r.ok) << r.Summary();
  EXPECT_TRUE(r.exhausted) << r.Summary();
}

TEST(QueueClaimModel, MutationWeakReleaseStoreIsCaughtAsGovernorRace) {
  ExploreResult r = ExploreQueueClaimCycle<WeakClaimReleaseOrdering>();
  ASSERT_FALSE(r.ok) << r.Summary();
  EXPECT_NE(r.failure.find("data race"), std::string::npos) << r.Summary();
}

// --- NextDueGate: the no-stranded-queue invariant ------------------------
//
// The gate may only advance to a value that is <= every queue's true
// next-due tick, else a due queue sleeps behind a future gate until the
// backup interrupt (stranded). The shipped scan rule folds EVERY queue's
// peeked deadline into the advance min - claimed queues included, because
// their stale deadline word undershoots whatever the owner will publish.
// The "weakened" variant here is the tempting wrong rule (skip claimed
// queues: "the owner will fold its own deadline in when it releases"),
// which strands the queue whenever the owner's release does NOT lower the
// gate - e.g. MultiQueuePoller's stale-claim handback, modeled by thread A.

template <bool kIncludeClaimedInAdvanceMin>
ExploreResult ExploreGateAdvance() {
  ModelConfig cfg;
  cfg.preemption_bound = 3;
  return Explore(cfg, [](ModelExecution& ex) {
    struct State {
      QueueClaim<ModelCheckerTraits> q;
      NextDueGate<ModelCheckerTraits> gate;
    };
    auto st = std::make_shared<State>();
    // Setup (controller, pre-execution): the queue was served earlier and
    // its next poll is due at tick 10; the gate never rose above 0.
    st->q.Release(10);
    constexpr uint64_t kNow = 5;
    ex.Thread([st] {  // core A: claims, finds the deadline in the future
                      // (stale claim), hands back untouched - NO gate fold.
      if (st->q.TryClaim(0)) {
        uint64_t exact = st->q.deadline_owned();
        if (exact > kNow) {
          st->q.Release(exact);
        } else {
          st->q.Release(30);
          st->gate.Lower(30);
        }
      }
    });
    ex.Thread([st] {  // core B: scan-miss path of PollOnce
      uint64_t observed = st->gate.Load();
      if (observed > kNow) {
        return;  // gate skip
      }
      uint64_t d = st->q.deadline_peek();
      bool claimed = st->q.claimed_peek();
      if (d <= kNow && !claimed) {
        return;  // would claim+poll; not this model's concern
      }
      uint64_t min_seen = d;
      if (claimed && !kIncludeClaimedInAdvanceMin) {
        min_seen = UINT64_MAX;  // the weakened rule: ignore claimed queues
      }
      st->gate.TryAdvance(observed, min_seen);
    });
    ex.Finally([st] {
      // gate <= the queue's next-due tick, in every interleaving.
      MODEL_CHECK(st->gate.Load() <= st->q.deadline_peek());
    });
  });
}

TEST(NextDueGateModel, ShippedAdvanceRuleNeverStrandsADueQueue) {
  ExploreResult r = ExploreGateAdvance<true>();
  EXPECT_TRUE(r.ok) << r.Summary();
  EXPECT_TRUE(r.exhausted) << r.Summary();
}

TEST(NextDueGateModel, SkippingClaimedQueuesInAdvanceMinStrandsAQueue) {
  ExploreResult r = ExploreGateAdvance<false>();
  ASSERT_FALSE(r.ok) << r.Summary();
  EXPECT_NE(r.failure.find("MODEL_CHECK"), std::string::npos) << r.Summary();
}

// --- checker self-diagnostics -------------------------------------------

// Store buffering is actually modeled: the textbook Dekker litmus (two
// relaxed stores, two relaxed loads) must exhibit the r1==0 && r2==0
// outcome that no interleaving-only scheduler can produce.
TEST(ModelRuntimeSelf, StoreBufferingLitmusIsObservable) {
  ModelConfig cfg;
  cfg.preemption_bound = 3;
  ExploreResult r = Explore(cfg, [](ModelExecution& ex) {
    struct State {
      ModelAtomic<uint32_t> x{0};
      ModelAtomic<uint32_t> y{0};
      uint32_t r1 = 1;
      uint32_t r2 = 1;
    };
    auto st = std::make_shared<State>();
    ex.Thread([st] {
      st->x.store(1, std::memory_order_relaxed);
      st->r1 = st->y.load(std::memory_order_relaxed);
    });
    ex.Thread([st] {
      st->y.store(1, std::memory_order_relaxed);
      st->r2 = st->x.load(std::memory_order_relaxed);
    });
    ex.Finally([st] {
      // Fail on the weak outcome so the search surfaces it as a violation;
      // the test asserts the "failure" IS reachable.
      MODEL_CHECK(!(st->r1 == 0 && st->r2 == 0));
    });
  });
  ASSERT_FALSE(r.ok) << "store-buffering outcome was never explored: "
                     << r.Summary();
}

// ...and seq_cst fences forbid it, so the same litmus with fences between
// store and load passes exhaustively.
TEST(ModelRuntimeSelf, SeqCstFencesForbidStoreBufferingOutcome) {
  ModelConfig cfg;
  cfg.preemption_bound = 3;
  ExploreResult r = Explore(cfg, [](ModelExecution& ex) {
    struct State {
      ModelAtomic<uint32_t> x{0};
      ModelAtomic<uint32_t> y{0};
      uint32_t r1 = 1;
      uint32_t r2 = 1;
    };
    auto st = std::make_shared<State>();
    ex.Thread([st] {
      st->x.store(1, std::memory_order_relaxed);
      ModelCheckerTraits::ThreadFence(std::memory_order_seq_cst);
      st->r1 = st->y.load(std::memory_order_relaxed);
    });
    ex.Thread([st] {
      st->y.store(1, std::memory_order_relaxed);
      ModelCheckerTraits::ThreadFence(std::memory_order_seq_cst);
      st->r2 = st->x.load(std::memory_order_relaxed);
    });
    ex.Finally([st] {
      MODEL_CHECK(!(st->r1 == 0 && st->r2 == 0));
    });
  });
  EXPECT_TRUE(r.ok) << r.Summary();
  EXPECT_TRUE(r.exhausted) << r.Summary();
}

}  // namespace
}  // namespace softtimer
