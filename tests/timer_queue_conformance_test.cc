// Conformance suite for HeapTimerQueue: the semantics documented in
// src/timer/heap_timer_queue.h, plus randomized differential tests that
// replay operation streams (including Update re-arms) against trivially
// correct ordered-map oracles. Update moves a timer in place, so the Update
// tests keep acting through the original id, which is itself the stability
// check. The suite keeps its one-row parameter so its test ids stay stable
// (tests/queue_row.h).

#include <gtest/gtest.h>

#include <map>
#include <memory>
#include <utility>
#include <vector>

#include "src/sim/random.h"
#include "src/timer/heap_timer_queue.h"
#include "tests/queue_row.h"

namespace softtimer {
namespace {

class TimerQueueConformanceTest : public ::testing::TestWithParam<QueueRow> {
 protected:
  std::unique_ptr<HeapTimerQueue> Make() { return std::make_unique<HeapTimerQueue>(); }
};

TEST_P(TimerQueueConformanceTest, FiresAtOrAfterDeadline) {
  auto q = Make();
  int fired = 0;
  q->Schedule(100, [&] { ++fired; });
  EXPECT_EQ(q->ExpireUpTo(99), 0u);
  EXPECT_EQ(fired, 0);
  EXPECT_EQ(q->ExpireUpTo(100), 1u);
  EXPECT_EQ(fired, 1);
  EXPECT_EQ(q->size(), 0u);
}

TEST_P(TimerQueueConformanceTest, FiresInDeadlineOrder) {
  auto q = Make();
  std::vector<int> order;
  q->Schedule(300, [&] { order.push_back(3); });
  q->Schedule(100, [&] { order.push_back(1); });
  q->Schedule(200, [&] { order.push_back(2); });
  EXPECT_EQ(q->ExpireUpTo(1000), 3u);
  EXPECT_EQ(order, (std::vector<int>{1, 2, 3}));
}

TEST_P(TimerQueueConformanceTest, FifoAmongEqualDeadlines) {
  auto q = Make();
  std::vector<int> order;
  for (int i = 0; i < 8; ++i) {
    q->Schedule(500, [&order, i] { order.push_back(i); });
  }
  q->ExpireUpTo(500);
  EXPECT_EQ(order, (std::vector<int>{0, 1, 2, 3, 4, 5, 6, 7}));
}

TEST_P(TimerQueueConformanceTest, PastDeadlineFiresOnNextExpire) {
  auto q = Make();
  q->ExpireUpTo(1000);
  int fired = 0;
  q->Schedule(50, [&] { ++fired; });  // already in the past
  EXPECT_EQ(q->ExpireUpTo(1001), 1u);
  EXPECT_EQ(fired, 1);
}

TEST_P(TimerQueueConformanceTest, CancelSemantics) {
  auto q = Make();
  int fired = 0;
  TimerId a = q->Schedule(100, [&] { ++fired; });
  TimerId b = q->Schedule(100, [&] { ++fired; });
  EXPECT_TRUE(q->Cancel(a));
  EXPECT_FALSE(q->Cancel(a));          // double cancel
  EXPECT_FALSE(q->Cancel(TimerId{}));  // invalid id
  EXPECT_EQ(q->size(), 1u);
  q->ExpireUpTo(200);
  EXPECT_EQ(fired, 1);
  EXPECT_FALSE(q->Cancel(b));  // already fired
}

// --- ABA / id-reuse semantics: the slab recycles node slots, so a stale
// TimerId must never be honoured against the timer that reuses its slot.

TEST_P(TimerQueueConformanceTest, CancelAfterFireCannotHitSlotReuser) {
  auto q = Make();
  int fired_a = 0;
  int fired_b = 0;
  TimerId a = q->Schedule(10, [&] { ++fired_a; });
  EXPECT_EQ(q->ExpireUpTo(10), 1u);
  // b recycles a's slab slot (the free list hands it out first); a's id
  // must stay dead anyway.
  TimerId b = q->Schedule(20, [&] { ++fired_b; });
  EXPECT_EQ(TimerIdIndex(b.value), TimerIdIndex(a.value));
  EXPECT_FALSE(q->Cancel(a));
  EXPECT_EQ(q->size(), 1u);
  EXPECT_EQ(q->ExpireUpTo(20), 1u);
  EXPECT_EQ(fired_a, 1);
  EXPECT_EQ(fired_b, 1);
}

TEST_P(TimerQueueConformanceTest, CancelAfterCancelCannotHitSlotReuser) {
  auto q = Make();
  int fired_b = 0;
  TimerId a = q->Schedule(10, [] {});
  EXPECT_TRUE(q->Cancel(a));
  TimerId b = q->Schedule(20, [&] { ++fired_b; });
  EXPECT_EQ(TimerIdIndex(b.value), TimerIdIndex(a.value));
  EXPECT_FALSE(q->Cancel(a));  // stale: the slot now belongs to b
  EXPECT_EQ(q->size(), 1u);
  EXPECT_EQ(q->ExpireUpTo(20), 1u);
  EXPECT_EQ(fired_b, 1);
}

TEST_P(TimerQueueConformanceTest, StaleIdsStayDeadAcrossManySlotGenerations) {
  auto q = Make();
  uint64_t now = 0;
  std::vector<TimerId> stale;
  int fired = 0;
  // Each round recycles the same small pool of slab slots, so the stale ids
  // accumulate many generations of reuse over identical slot indices.
  for (int round = 0; round < 50; ++round) {
    TimerId cancelled = q->Schedule(now + 5, [&] { ++fired; });
    TimerId fires = q->Schedule(now + 6, [&] { ++fired; });
    EXPECT_TRUE(q->Cancel(cancelled));
    now += 10;
    EXPECT_EQ(q->ExpireUpTo(now), 1u);
    stale.push_back(cancelled);
    stale.push_back(fires);
  }
  EXPECT_EQ(fired, 50);
  int live = 0;
  TimerId pending = q->Schedule(now + 100, [&] { ++live; });
  for (TimerId id : stale) {
    EXPECT_FALSE(q->Cancel(id));
  }
  EXPECT_EQ(q->size(), 1u);  // the pending timer survived every stale cancel
  EXPECT_TRUE(q->Cancel(pending));
  EXPECT_EQ(q->ExpireUpTo(now + 200), 0u);
  EXPECT_EQ(live, 0);
}

// --- PeekUserData: the facility's cancel path reads the cookie *before*
// Cancel destroys the payload, so the peek must track liveness exactly -
// in particular across the cancel-after-fire window where the slab slot
// has been recycled by an unrelated timer carrying its own cookie.

TimerId ScheduleWithUserData(HeapTimerQueue& q, uint64_t deadline,
                             uint64_t user_data, int* fired = nullptr) {
  struct CountThunk {
    int* fired;
    void operator()(const TimerFired&) {
      if (fired != nullptr) {
        ++*fired;
      }
    }
  };
  TimerPayload payload;
  payload.user_data = user_data;
  payload.handler.emplace(CountThunk{fired});
  return q.Schedule(deadline, std::move(payload));
}

TEST_P(TimerQueueConformanceTest, PeekUserDataTracksLiveness) {
  auto q = Make();
  EXPECT_EQ(q->PeekUserData(TimerId{}), 0u);  // invalid id
  int fired = 0;
  TimerId a = ScheduleWithUserData(*q, 100, 0xA1, &fired);
  TimerId b = ScheduleWithUserData(*q, 100, 0, &fired);  // cookie-less
  EXPECT_EQ(q->PeekUserData(a), 0xA1u);
  EXPECT_EQ(q->PeekUserData(b), 0u);
  EXPECT_TRUE(q->Cancel(a));
  EXPECT_EQ(q->PeekUserData(a), 0u);  // cancelled: cookie is gone
  EXPECT_EQ(q->ExpireUpTo(100), 1u);
  EXPECT_EQ(fired, 1);
  EXPECT_EQ(q->PeekUserData(b), 0u);  // fired: cookie is gone
}

TEST_P(TimerQueueConformanceTest, PeekUserDataCannotLeakSlotReusersCookie) {
  // The cancel-after-fire race window: a's event fired, b recycled its slab
  // slot with a different cookie. A stale peek through a's id must read 0,
  // not b's cookie - otherwise the facility would retire b's cookie on a's
  // stale cancel and the owner's tracking table would drop a live event.
  auto q = Make();
  int fired_a = 0;
  TimerId a = ScheduleWithUserData(*q, 10, 0xA1, &fired_a);
  EXPECT_EQ(q->ExpireUpTo(10), 1u);
  EXPECT_EQ(fired_a, 1);
  TimerId b = ScheduleWithUserData(*q, 20, 0xB2);
  EXPECT_EQ(q->PeekUserData(a), 0u);
  EXPECT_FALSE(q->Cancel(a));
  EXPECT_EQ(q->PeekUserData(b), 0xB2u);  // b is untouched by the stale probe
  EXPECT_EQ(q->size(), 1u);
}

TEST_P(TimerQueueConformanceTest, PeekThenCancelWorksOnDueBatchPeer) {
  // Mid-expiry window: a handler peeks and cancels a peer that is due in the
  // same batch but has not fired yet. The peek must still see the peer's cookie and the
  // cancel must suppress its dispatch - this is exactly the sequence
  // SoftTimerFacility::CancelSoftEvent runs from inside a handler.
  auto q = Make();
  int peer_fired = 0;
  TimerId peer{};
  uint64_t peeked = UINT64_MAX;
  bool cancel_ok = false;
  q->Schedule(10, [&] {
    peeked = q->PeekUserData(peer);
    cancel_ok = q->Cancel(peer);
  });
  peer = ScheduleWithUserData(*q, 10, 0xC3, &peer_fired);
  q->ExpireUpTo(10);
  EXPECT_EQ(peeked, 0xC3u);
  EXPECT_TRUE(cancel_ok);
  EXPECT_EQ(peer_fired, 0);
  EXPECT_EQ(q->size(), 0u);
  // The cancelled peer's id is fully dead afterwards.
  EXPECT_EQ(q->PeekUserData(peer), 0u);
  EXPECT_FALSE(q->Cancel(peer));
}

// --- Update(id, new_deadline): moves a live timer in place, under its id.

TEST_P(TimerQueueConformanceTest, UpdateMovesDeadlineBothDirections) {
  auto q = Make();
  int fired = 0;
  TimerId id = q->Schedule(100, [&] { ++fired; });
  ASSERT_TRUE(q->Update(id, 500));  // push later
  EXPECT_EQ(q->ExpireUpTo(100), 0u);
  EXPECT_EQ(fired, 0);
  ASSERT_TRUE(q->Update(id, 200));  // pull earlier
  EXPECT_EQ(q->EarliestDeadline(), 200u);
  EXPECT_EQ(q->ExpireUpTo(200), 1u);
  EXPECT_EQ(fired, 1);
  EXPECT_EQ(q->size(), 0u);
}

TEST_P(TimerQueueConformanceTest, UpdatePreservesPayloadAndCookie) {
  auto q = Make();
  int fired = 0;
  TimerId id = ScheduleWithUserData(*q, 100, 0xD4, &fired);
  ASSERT_TRUE(q->Update(id, 300));
  EXPECT_EQ(q->PeekUserData(id), 0xD4u);  // cookie survived the move
  EXPECT_EQ(q->ExpireUpTo(300), 1u);
  EXPECT_EQ(fired, 1);
}

TEST_P(TimerQueueConformanceTest, UpdateToPastDeadlineClampsLikeSchedule) {
  auto q = Make();
  q->ExpireUpTo(1000);  // cursor is now 1001
  int fired = 0;
  TimerId id = q->Schedule(2000, [&] { ++fired; });
  ASSERT_TRUE(q->Update(id, 50));  // past: clamps to the cursor
  EXPECT_EQ(q->ExpireUpTo(1001), 1u);
  EXPECT_EQ(fired, 1);
}

TEST_P(TimerQueueConformanceTest, UpdatedTimerJoinsEqualDeadlineFifoAtTail) {
  // Parity pin for schedule order: a moved timer fires after timers already
  // sitting at its new deadline, exactly as a cancel+reschedule would.
  auto q = Make();
  std::vector<int> order;
  TimerId moved = q->Schedule(100, [&] { order.push_back(0); });
  q->Schedule(500, [&] { order.push_back(1); });
  q->Schedule(500, [&] { order.push_back(2); });
  ASSERT_TRUE(q->Update(moved, 500));
  q->ExpireUpTo(500);
  EXPECT_EQ(order, (std::vector<int>{1, 2, 0}));
}

TEST_P(TimerQueueConformanceTest, UpdateReturnedIdCancelsExactlyOnce) {
  auto q = Make();
  int fired = 0;
  TimerId id = q->Schedule(100, [&] { ++fired; });
  ASSERT_TRUE(q->Update(id, 200));
  EXPECT_TRUE(q->Cancel(id));
  EXPECT_FALSE(q->Cancel(id));
  EXPECT_EQ(q->size(), 0u);
  EXPECT_EQ(q->ExpireUpTo(1000), 0u);
  EXPECT_EQ(fired, 0);
}

// --- Generation staleness / ABA: Update on a dead id must fail and must
// not disturb whatever timer reuses the slot.

TEST_P(TimerQueueConformanceTest, UpdateOnCancelledIdFailsAndSparesReuser) {
  auto q = Make();
  int fired_b = 0;
  TimerId a = q->Schedule(10, [] {});
  EXPECT_TRUE(q->Cancel(a));
  // b very likely recycles a's slab slot; a's id must stay dead either way.
  TimerId b = ScheduleWithUserData(*q, 20, 0xB2, &fired_b);
  EXPECT_FALSE(q->Update(a, 5000));
  EXPECT_EQ(q->PeekUserData(b), 0xB2u);  // b is untouched by the stale probe
  EXPECT_EQ(q->EarliestDeadline(), 20u);
  EXPECT_EQ(q->ExpireUpTo(20), 1u);
  EXPECT_EQ(fired_b, 1);
}

TEST_P(TimerQueueConformanceTest, UpdateOnFiredIdFailsAndSparesReuser) {
  auto q = Make();
  int fired_a = 0;
  int fired_b = 0;
  TimerId a = q->Schedule(10, [&] { ++fired_a; });
  EXPECT_EQ(q->ExpireUpTo(10), 1u);
  TimerId b = ScheduleWithUserData(*q, 20, 0xB2, &fired_b);
  EXPECT_FALSE(q->Update(a, 5000));
  EXPECT_EQ(q->PeekUserData(b), 0xB2u);
  EXPECT_EQ(q->size(), 1u);
  EXPECT_EQ(q->ExpireUpTo(20), 1u);
  EXPECT_EQ(fired_a, 1);
  EXPECT_EQ(fired_b, 1);
}

TEST_P(TimerQueueConformanceTest, UpdateStaleIdsStayDeadAcrossGenerations) {
  auto q = Make();
  uint64_t now = 0;
  std::vector<TimerId> stale;
  int fired = 0;
  for (int round = 0; round < 50; ++round) {
    TimerId cancelled = q->Schedule(now + 5, [&] { ++fired; });
    TimerId fires = q->Schedule(now + 6, [&] { ++fired; });
    EXPECT_TRUE(q->Cancel(cancelled));
    now += 10;
    EXPECT_EQ(q->ExpireUpTo(now), 1u);
    stale.push_back(cancelled);
    stale.push_back(fires);
  }
  EXPECT_EQ(fired, 50);
  int live = 0;
  TimerId pending = q->Schedule(now + 100, [&] { ++live; });
  for (TimerId id : stale) {
    EXPECT_FALSE(q->Update(id, now + 50));
  }
  EXPECT_EQ(q->size(), 1u);  // the pending timer survived every stale update
  EXPECT_EQ(q->EarliestDeadline(), now + 100);
  EXPECT_TRUE(q->Cancel(pending));
  EXPECT_EQ(q->ExpireUpTo(now + 200), 0u);
  EXPECT_EQ(live, 0);
}

// --- Update-while-due: a handler re-arms a peer that is due in the same
// expiry batch but has not fired yet. The peer must not fire under its old
// deadline; it fires once, at the new one.

TEST_P(TimerQueueConformanceTest, UpdateWhileDueDefersPeerToNewDeadline) {
  auto q = Make();
  int peer_fired = 0;
  TimerId peer{};
  bool update_ok = false;
  q->Schedule(10, [&] { update_ok = q->Update(peer, 50); });
  peer = ScheduleWithUserData(*q, 10, 0xC3, &peer_fired);
  EXPECT_EQ(q->ExpireUpTo(10), 1u);  // only the updater fired
  EXPECT_TRUE(update_ok);
  EXPECT_EQ(peer_fired, 0);
  EXPECT_EQ(q->size(), 1u);
  EXPECT_EQ(q->PeekUserData(peer), 0xC3u);
  EXPECT_EQ(q->ExpireUpTo(49), 0u);
  EXPECT_EQ(q->ExpireUpTo(50), 1u);
  EXPECT_EQ(peer_fired, 1);
  EXPECT_EQ(q->size(), 0u);
}

TEST_P(TimerQueueConformanceTest, UpdateWhileDueThenCancelSuppressesPeer) {
  // Re-arm a due peer, then cancel it through its id, all from inside the
  // same batch: the peer must never fire, its slot must recycle cleanly,
  // and a timer reusing the slot must be unaffected.
  auto q = Make();
  int peer_fired = 0;
  int reuser_fired = 0;
  TimerId peer{};
  bool cancel_ok = false;
  q->Schedule(10, [&] {
    ASSERT_TRUE(q->Update(peer, 50));
    cancel_ok = q->Cancel(peer);
  });
  peer = ScheduleWithUserData(*q, 10, 0xC3, &peer_fired);
  EXPECT_EQ(q->ExpireUpTo(10), 1u);
  EXPECT_TRUE(cancel_ok);
  EXPECT_EQ(peer_fired, 0);
  EXPECT_EQ(q->size(), 0u);
  TimerId reuser = q->Schedule(60, [&] { ++reuser_fired; });
  EXPECT_FALSE(q->Cancel(peer));  // stale: it was cancelled
  EXPECT_EQ(q->ExpireUpTo(60), 1u);
  EXPECT_EQ(reuser_fired, 1);
  (void)reuser;
}

TEST_P(TimerQueueConformanceTest, UpdateWhileDueToStillDueDeadlineClamps) {
  // Re-arming a due peer to a deadline that is *also* already due clamps to
  // the cursor (one past the current expiry time), so it fires on the next
  // ExpireUpTo that reaches it - never inside the current batch under its
  // old deadline.
  auto q = Make();
  int peer_fired = 0;
  TimerId peer{};
  q->Schedule(10, [&] { EXPECT_TRUE(q->Update(peer, 3)); });
  peer = q->Schedule(10, [&] { ++peer_fired; });
  EXPECT_EQ(q->ExpireUpTo(10), 1u);
  EXPECT_EQ(peer_fired, 0);
  EXPECT_EQ(q->size(), 1u);
  EXPECT_EQ(q->ExpireUpTo(11), 1u);
  EXPECT_EQ(peer_fired, 1);
}

TEST_P(TimerQueueConformanceTest, UpdateUnchangedDeadlineStillFiresOnce) {
  // A no-op re-arm (RFC 6298 restart recomputing the same RTO) must leave
  // the event firing exactly once at its deadline, under its one id.
  auto q = Make();
  int fired = 0;
  TimerId id = q->Schedule(100, [&] { ++fired; });
  ASSERT_TRUE(q->Update(id, 100));
  EXPECT_EQ(q->size(), 1u);
  EXPECT_EQ(q->EarliestDeadline(), 100u);
  EXPECT_EQ(q->ExpireUpTo(99), 0u);
  EXPECT_EQ(q->ExpireUpTo(100), 1u);
  EXPECT_EQ(fired, 1);
  EXPECT_FALSE(q->Cancel(id));  // already fired, id is dead
}

TEST_P(TimerQueueConformanceTest, UpdateKeepsIdAndSlot) {
  // Update moves the timer in place: after any number of re-arms the
  // original id still names it, it never takes a second slab node, and the
  // id cancels exactly once.
  auto q = Make();
  int fired = 0;
  TimerId id = ScheduleWithUserData(*q, 100, 0xE5, &fired);
  for (uint64_t deadline : {500u, 200u, 300u}) {
    ASSERT_TRUE(q->Update(id, deadline));
    EXPECT_EQ(q->PeekUserData(id), 0xE5u);
    EXPECT_EQ(q->slab_stats().live, 1u);
  }
  EXPECT_EQ(q->EarliestDeadline(), 300u);
  EXPECT_TRUE(q->Cancel(id));
  EXPECT_FALSE(q->Cancel(id));
  EXPECT_EQ(q->slab_stats().live, 0u);
  EXPECT_EQ(q->ExpireUpTo(1000), 0u);
  EXPECT_EQ(fired, 0);
}

TEST_P(TimerQueueConformanceTest, UpdateFromOwnHandlerRequeuesUnderSameId) {
  // A handler runs in place. While it runs, its own id is dead to Cancel
  // and PeekUserData, but Update re-queues the timer under the same id; a
  // past deadline clamps to the next ExpireUpTo. Once a run does not
  // re-queue it, the id is dead.
  auto q = Make();
  std::vector<uint64_t> fired_ids;
  bool cancel_ok = true;
  uint64_t peeked = UINT64_MAX;
  bool update_ok = false;
  TimerPayload payload;
  payload.user_data = 0xF6;
  payload.handler.emplace([&](const TimerFired& fired) {
    fired_ids.push_back(fired.id.value);
    if (fired_ids.size() == 1) {
      cancel_ok = q->Cancel(fired.id);
      peeked = q->PeekUserData(fired.id);
      update_ok = q->Update(fired.id, 5);
    }
  });
  TimerId id = q->Schedule(10, std::move(payload));
  EXPECT_EQ(q->ExpireUpTo(10), 1u);
  EXPECT_FALSE(cancel_ok);
  EXPECT_EQ(peeked, 0u);
  EXPECT_TRUE(update_ok);
  EXPECT_EQ(q->size(), 1u);
  EXPECT_EQ(q->PeekUserData(id), 0xF6u);
  EXPECT_EQ(q->EarliestDeadline(), 11u);
  EXPECT_EQ(q->ExpireUpTo(11), 1u);
  EXPECT_EQ(fired_ids, (std::vector<uint64_t>{id.value, id.value}));
  EXPECT_FALSE(q->Cancel(id));
  EXPECT_FALSE(q->Update(id, 100));
  EXPECT_EQ(q->PeekUserData(id), 0u);
  EXPECT_EQ(q->size(), 0u);
  EXPECT_EQ(q->slab_stats().live, 0u);
}

TEST_P(TimerQueueConformanceTest, EarliestDeadlineTracksMin) {
  auto q = Make();
  EXPECT_FALSE(q->EarliestDeadline().has_value());
  q->Schedule(300, [] {});
  EXPECT_EQ(q->EarliestDeadline(), 300u);
  TimerId early = q->Schedule(100, [] {});
  EXPECT_EQ(q->EarliestDeadline(), 100u);
  q->Cancel(early);
  EXPECT_EQ(q->EarliestDeadline(), 300u);
  q->ExpireUpTo(300);
  EXPECT_FALSE(q->EarliestDeadline().has_value());
}

TEST_P(TimerQueueConformanceTest, CallbackMayScheduleFutureTimer) {
  auto q = Make();
  std::vector<uint64_t> fired_at;
  q->Schedule(10, [&] {
    fired_at.push_back(10);
    q->Schedule(20, [&] { fired_at.push_back(20); });
  });
  q->ExpireUpTo(15);
  EXPECT_EQ(fired_at, (std::vector<uint64_t>{10}));
  q->ExpireUpTo(25);
  EXPECT_EQ(fired_at, (std::vector<uint64_t>{10, 20}));
}

TEST_P(TimerQueueConformanceTest, CallbackSchedulingDueTimerFiresByNextExpire) {
  auto q = Make();
  int chained = 0;
  q->Schedule(10, [&] {
    q->Schedule(5, [&] { ++chained; });  // already due
  });
  q->ExpireUpTo(10);
  // The past deadline clamps to the cursor (11); it fires as soon as time
  // passes that point.
  q->ExpireUpTo(11);
  EXPECT_EQ(chained, 1);
}

TEST_P(TimerQueueConformanceTest, CallbackMayCancelPeer) {
  auto q = Make();
  int fired = 0;
  TimerId victim{};
  q->Schedule(10, [&] { q->Cancel(victim); });
  victim = q->Schedule(10, [&] { ++fired; });
  q->ExpireUpTo(100);
  EXPECT_EQ(fired, 0);
}

TEST_P(TimerQueueConformanceTest, SelfReschedulingTicker) {
  auto q = Make();
  std::vector<uint64_t> fires;
  uint64_t next = 10;
  std::function<void()> tick = [&] {
    fires.push_back(next);
    next += 10;
    if (next <= 100) {
      q->Schedule(next, tick);
    }
  };
  q->Schedule(next, tick);
  for (uint64_t t = 0; t <= 120; ++t) {
    q->ExpireUpTo(t);
  }
  EXPECT_EQ(fires.size(), 10u);
  EXPECT_EQ(fires.front(), 10u);
  EXPECT_EQ(fires.back(), 100u);
}

TEST_P(TimerQueueConformanceTest, LongHorizonDeadlines) {
  // Deadlines far beyond any wheel horizon must still fire correctly.
  auto q = Make();
  std::vector<int> order;
  q->Schedule(5, [&] { order.push_back(0); });
  q->Schedule(100'000'000, [&] { order.push_back(2); });
  q->Schedule(70'000, [&] { order.push_back(1); });
  q->ExpireUpTo(10);
  q->ExpireUpTo(80'000);
  q->ExpireUpTo(200'000'000);
  EXPECT_EQ(order, (std::vector<int>{0, 1, 2}));
}

TEST_P(TimerQueueConformanceTest, WheelRoundCollisions) {
  // Deadlines d, d + 1024 and d + 2048: the same bucket of a 1024-slot
  // timing wheel, in different rounds.
  auto q = Make();
  std::vector<uint64_t> fires;
  q->Schedule(100, [&] { fires.push_back(100); });
  q->Schedule(100 + 1024, [&] { fires.push_back(1124); });
  q->Schedule(100 + 2 * 1024, [&] { fires.push_back(2148); });
  q->ExpireUpTo(100);
  EXPECT_EQ(fires, (std::vector<uint64_t>{100}));
  q->ExpireUpTo(1124);
  EXPECT_EQ(fires, (std::vector<uint64_t>{100, 1124}));
  q->ExpireUpTo(5000);
  EXPECT_EQ(fires, (std::vector<uint64_t>{100, 1124, 2148}));
}

TEST_P(TimerQueueConformanceTest, RandomizedDifferentialAgainstReference) {
  auto q = Make();
  Rng rng(1);

  // Reference model: multimap deadline -> (seq, id).
  struct RefEntry {
    uint64_t seq;
    uint64_t key;
  };
  std::multimap<uint64_t, RefEntry> ref;
  std::map<uint64_t, TimerId> live_ids;  // key -> impl id
  uint64_t now = 0;
  uint64_t cursor = 0;  // reference clamp point (mirrors the impls)
  uint64_t seq = 0;
  uint64_t next_key = 1;
  std::vector<uint64_t> fired_impl;
  std::vector<uint64_t> fired_ref;

  for (int step = 0; step < 4000; ++step) {
    double dice = rng.NextDouble();
    if (dice < 0.55) {
      // Schedule with a mix of short, long, and past deadlines.
      uint64_t delta = 0;
      double kind = rng.NextDouble();
      if (kind < 0.6) {
        delta = rng.UniformU64(64);
      } else if (kind < 0.9) {
        delta = rng.UniformU64(8192);
      } else {
        delta = rng.UniformU64(3'000'000);
      }
      uint64_t deadline = now + delta;
      uint64_t key = next_key++;
      live_ids[key] = q->Schedule(deadline, [&fired_impl, key] { fired_impl.push_back(key); });
      // Past deadlines clamp up to the implementations' cursor.
      ref.emplace(deadline < cursor ? cursor : deadline, RefEntry{seq++, key});
    } else if (dice < 0.7 && !live_ids.empty()) {
      // Cancel a random live timer.
      auto it = live_ids.begin();
      std::advance(it, static_cast<long>(rng.UniformU64(live_ids.size())));
      EXPECT_TRUE(q->Cancel(it->second));
      for (auto r = ref.begin(); r != ref.end(); ++r) {
        if (r->second.key == it->first) {
          ref.erase(r);
          break;
        }
      }
      live_ids.erase(it);
    } else if (dice < 0.82 && !live_ids.empty()) {
      // Update a random live timer to a new deadline (the RTO re-arm mix):
      // it keeps its id, and the reference re-keys the entry with a fresh
      // seq at the clamped deadline.
      auto it = live_ids.begin();
      std::advance(it, static_cast<long>(rng.UniformU64(live_ids.size())));
      uint64_t delta = rng.NextDouble() < 0.8 ? rng.UniformU64(8192)
                                              : rng.UniformU64(3'000'000);
      uint64_t deadline = now + delta;
      ASSERT_TRUE(q->Update(it->second, deadline))
          << "live id went stale at step " << step;
      for (auto r = ref.begin(); r != ref.end(); ++r) {
        if (r->second.key == it->first) {
          uint64_t key = r->second.key;
          ref.erase(r);
          ref.emplace(deadline < cursor ? cursor : deadline,
                      RefEntry{seq++, key});
          break;
        }
      }
    } else {
      // Advance time and expire.
      now += rng.UniformU64(300);
      q->ExpireUpTo(now);
      cursor = now + 1;
      while (!ref.empty() && ref.begin()->first <= now) {
        // Fire in (deadline, seq) order; multimap preserves insertion order
        // among equal keys.
        uint64_t key = ref.begin()->second.key;
        fired_ref.push_back(key);
        live_ids.erase(key);
        ref.erase(ref.begin());
      }
      ASSERT_EQ(fired_impl, fired_ref) << "diverged at step " << step;
      EXPECT_EQ(q->size(), ref.size());
    }
  }
  // Drain everything.
  now += 10'000'000;
  q->ExpireUpTo(now);
  while (!ref.empty() && ref.begin()->first <= now) {
    fired_ref.push_back(ref.begin()->second.key);
    ref.erase(ref.begin());
  }
  EXPECT_EQ(fired_impl, fired_ref);
  EXPECT_EQ(q->size(), 0u);
}

INSTANTIATE_TEST_SUITE_P(AllKinds, TimerQueueConformanceTest,
                         ::testing::Values(QueueRow::kHeap),
                         [](const ::testing::TestParamInfo<QueueRow>&) {
                           return "Heap";
                         });

// --- Update-heavy script against an ordered-map oracle: one fixed rng-7
// stream of schedules, re-arms, cancels and expiries (the RTO ACK pattern).
// The oracle orders timers by (deadline, schedule sequence); an update is
// an erase plus an insert with a fresh sequence number, and a deadline
// already in the past clamps to one tick past the last expiry, as the
// queue's contract says.

TEST(TimerQueueUpdateParityTest, AllBackendsProduceIdenticalFireSequences) {
  HeapTimerQueue q;
  std::vector<uint64_t> fires;
  std::map<std::pair<uint64_t, uint64_t>, uint64_t> oracle;  // -> key
  std::map<uint64_t, std::pair<uint64_t, uint64_t>> oracle_pos;
  std::vector<uint64_t> oracle_fires;
  uint64_t cursor = 0;
  uint64_t seq = 0;
  auto oracle_insert = [&](uint64_t k, uint64_t deadline) {
    std::pair<uint64_t, uint64_t> pos{deadline < cursor ? cursor : deadline,
                                      seq++};
    oracle[pos] = k;
    oracle_pos[k] = pos;
  };
  auto oracle_erase = [&](uint64_t k) {
    auto it = oracle_pos.find(k);
    ASSERT_NE(it, oracle_pos.end()) << "oracle lost key " << k;
    oracle.erase(it->second);
    oracle_pos.erase(it);
  };
  auto oracle_expire = [&](uint64_t now) {
    while (!oracle.empty() && oracle.begin()->first.first <= now) {
      oracle_fires.push_back(oracle.begin()->second);
      oracle_pos.erase(oracle.begin()->second);
      oracle.erase(oracle.begin());
    }
    cursor = now + 1;
  };

  Rng rng(7);
  std::map<uint64_t, TimerId> live;
  uint64_t now = 0;
  uint64_t key = 1;
  size_t pruned = 0;  // fires consumed from the log so far
  for (int step = 0; step < 1500; ++step) {
    double dice = rng.NextDouble();
    uint64_t delta = rng.UniformU64(4096);
    if (dice < 0.35 || live.empty()) {
      uint64_t k = key++;
      live[k] = q.Schedule(now + delta, [&fires, k] { fires.push_back(k); });
      oracle_insert(k, now + delta);
    } else if (dice < 0.8) {
      // Update-heavy: re-arm an existing timer (the RTO ACK pattern).
      auto it = live.begin();
      std::advance(it, static_cast<long>(rng.UniformU64(live.size())));
      ASSERT_TRUE(q.Update(it->second, now + delta));
      oracle_erase(it->first);
      oracle_insert(it->first, now + delta);
    } else if (dice < 0.9) {
      auto it = live.begin();
      std::advance(it, static_cast<long>(rng.UniformU64(live.size())));
      EXPECT_TRUE(q.Cancel(it->second));
      oracle_erase(it->first);
      live.erase(it);
    } else {
      now += rng.UniformU64(512);
      q.ExpireUpTo(now);
      oracle_expire(now);
      ASSERT_EQ(fires, oracle_fires) << "diverged at step " << step;
      // Prune fired keys from the live pool via the fire log, so later
      // update/cancel picks only touch genuinely live timers.
      for (; pruned < fires.size(); ++pruned) {
        live.erase(fires[pruned]);
      }
    }
  }
  q.ExpireUpTo(now + 10'000'000);
  oracle_expire(now + 10'000'000);
  EXPECT_EQ(fires, oracle_fires);
  EXPECT_GT(fires.size(), 200u);
  EXPECT_TRUE(q.empty());
}

}  // namespace
}  // namespace softtimer
