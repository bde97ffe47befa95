// Parking-lot unit tests (§3.2): direct-handoff prefix grants, upgrader
// front entry, the park/grant race, advisory signals, bucket-collision
// isolation, and the keyed park/unpark contract. The fairness_test
// covers end-to-end starvation behavior; these pin the data-structure
// contracts directly.
#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <thread>
#include <vector>

#include "common/timing.h"
#include "core/fwd.h"
#include "core/lockword.h"
#include "core/queue.h"
#include "core/transaction.h"

namespace sbd::core {
namespace {

// Mirrors ParkingLot::bucket_for (same Fibonacci hash) so the collision
// test can pick two DISTINCT words that share a bucket on purpose.
size_t bucket_index(const LockWord* w) {
  uint64_t h = reinterpret_cast<uint64_t>(w) >> 3;
  h *= 0x9E3779B97F4A7C15ULL;
  return (h >> 58) & 63;
}

// WaitNode holds an atomic (not movable): initialize in place.
void init_node(WaitNode& n, const LockWord* word, int txnId, bool wantWrite,
               bool upgrader) {
  n.word = word;
  n.txnId = txnId;
  n.mask = txn_mask(txnId);
  n.wantWrite = wantWrite || upgrader;
  n.upgrader = upgrader;
}

TEST(ParkingLot, ReaderPrefixHandoffStopsAtFirstWriter) {
  ThreadContext tc;
  auto& lot = ParkingLot::instance();
  LockWord word = with_waiters(0);
  WaitNode r1;
  init_node(r1, &word, 1, false, false);
  WaitNode r2;
  init_node(r2, &word, 2, false, false);
  WaitNode w3;
  init_node(w3, &word, 3, true, false);
  WaitNode r4;
  init_node(r4, &word, 4, false, false);
  lot.publish(r1);
  lot.publish(r2);
  lot.publish(w3);
  lot.publish(r4);

  lot.unpark_word(tc, &word);
  // The grantable prefix is exactly the leading readers: both get the
  // lock in ONE word CAS, the writer and the reader behind it stay put.
  EXPECT_EQ(r1.state.load(), kNodeGranted);
  EXPECT_EQ(r2.state.load(), kNodeGranted);
  EXPECT_EQ(w3.state.load(), kNodeWaiting);
  EXPECT_EQ(r4.state.load(), kNodeWaiting);
  EXPECT_EQ(members(word), txn_mask(1) | txn_mask(2));
  EXPECT_FALSE(has_writer(word));
  EXPECT_TRUE(has_waiters(word)) << "waiters remain, bit must stay";

  // Cancel the trailing reader first (front writer still blocked by the
  // granted readers), then the writer; the final departure drops the bit.
  EXPECT_EQ(lot.cancel(tc, r4), CancelResult::kRemoved);
  EXPECT_EQ(w3.state.load(), kNodeWaiting);
  EXPECT_EQ(lot.cancel(tc, w3), CancelResult::kRemoved);
  EXPECT_FALSE(has_waiters(word)) << "empty queue must detach the bit";
}

TEST(ParkingLot, WriterHandoffClearsWaitersBitWhenQueueDrains) {
  ThreadContext tc;
  auto& lot = ParkingLot::instance();
  LockWord word = with_waiters(0);
  WaitNode w1;
  init_node(w1, &word, 5, true, false);
  lot.publish(w1);
  lot.unpark_word(tc, &word);
  EXPECT_EQ(w1.state.load(), kNodeGranted);
  EXPECT_TRUE(has_writer(word));
  EXPECT_TRUE(is_member(word, txn_mask(5)));
  EXPECT_FALSE(has_waiters(word)) << "sole waiter granted: bit drops in the same CAS";
}

TEST(ParkingLot, UpgraderEntersAtFrontAndBeatsEarlierWriter) {
  ThreadContext tc;
  auto& lot = ParkingLot::instance();
  // Txn 6 holds the read lock and the U bit; txn 7's write request was
  // queued FIRST, but the upgrader still goes in front (§3.2 — dueling
  // upgrades must resolve while the upgrader is the sole member).
  LockWord word = with_upgrader(with_member(with_waiters(0), txn_mask(6)));
  WaitNode writer;
  init_node(writer, &word, 7, true, false);
  WaitNode up;
  init_node(up, &word, 6, true, true);
  lot.publish(writer);
  lot.publish(up);

  lot.unpark_word(tc, &word);
  EXPECT_EQ(up.state.load(), kNodeGranted);
  EXPECT_EQ(writer.state.load(), kNodeWaiting);
  EXPECT_TRUE(has_writer(word));
  EXPECT_FALSE(has_upgrader(word)) << "upgrade consumed the U bit";
  EXPECT_EQ(members(word), txn_mask(6));
  EXPECT_TRUE(has_waiters(word));
  EXPECT_EQ(lot.cancel(tc, writer), CancelResult::kRemoved);
  EXPECT_FALSE(has_waiters(word));
}

TEST(ParkingLot, TimedParkReturnsOnTimeoutWithoutAWake) {
  ThreadContext tc;
  auto& lot = ParkingLot::instance();
  // The word is write-held by txn 9 (not a queue member): the parked
  // reader cannot be granted, so only the timeout can return.
  LockWord word = with_waiters(with_writer(with_member(0, txn_mask(9))));
  WaitNode r;
  init_node(r, &word, 10, false, false);
  lot.publish(r);
  const auto t0 = std::chrono::steady_clock::now();
  lot.park(r, 2'000'000);  // 2ms
  const auto waited = std::chrono::steady_clock::now() - t0;
  EXPECT_EQ(r.state.load(), kNodeWaiting) << "timeout is not a grant";
  EXPECT_LT(waited, std::chrono::seconds(5)) << "park must be timed";
  EXPECT_EQ(lot.cancel(tc, r), CancelResult::kRemoved);
}

TEST(ParkingLot, ParkAfterGrantRaceReturnsImmediately) {
  ThreadContext tc;
  auto& lot = ParkingLot::instance();
  LockWord word = with_waiters(0);
  WaitNode w;
  init_node(w, &word, 11, true, false);
  lot.publish(w);
  // The handoff lands BEFORE the waiter parks — the exact window the
  // futex protocol must cover: park(expected=kWaiting) must notice the
  // state already moved and return without sleeping the full timeout.
  lot.unpark_word(tc, &word);
  ASSERT_EQ(w.state.load(), kNodeGranted);
  const auto t0 = std::chrono::steady_clock::now();
  lot.park(w, 10'000'000'000ULL);  // 10s: a lost wake would hang here
  const auto waited = std::chrono::steady_clock::now() - t0;
  EXPECT_LT(waited, std::chrono::seconds(5));
}

TEST(ParkingLot, BucketCollisionKeepsWordsIndependent) {
  ThreadContext tc;
  auto& lot = ParkingLot::instance();
  // Find two distinct words that land in the SAME bucket: collisions
  // share a mutex, never semantics (every list op filters on n->word).
  static LockWord pool[512];
  LockWord* wa = &pool[0];
  LockWord* wb = nullptr;
  for (size_t i = 1; i < 512 && !wb; i++)
    if (bucket_index(&pool[i]) == bucket_index(wa)) wb = &pool[i];
  ASSERT_NE(wb, nullptr) << "512 candidates must collide within 64 buckets";
  *wa = with_waiters(0);
  *wb = with_waiters(0);

  WaitNode na;
  init_node(na, wa, 12, false, false);
  WaitNode nb;
  init_node(nb, wb, 13, true, false);
  lot.publish(na);
  lot.publish(nb);
  lot.unpark_word(tc, wa);
  EXPECT_EQ(na.state.load(), kNodeGranted);
  EXPECT_EQ(nb.state.load(), kNodeWaiting) << "neighbor word must be untouched";
  EXPECT_TRUE(has_waiters(*wb));
  bool found = lot.with_waiter(wb, 13, [&](const WaitNode& n, size_t depth) {
    EXPECT_EQ(depth, 1u) << "depth counts same-word waiters only";
    EXPECT_EQ(n.txnId, 13);
  });
  EXPECT_TRUE(found);
  EXPECT_EQ(lot.cancel(tc, nb), CancelResult::kRemoved);
  EXPECT_FALSE(has_waiters(*wb));
}

TEST(ParkingLot, CancellingFrontWriterUnblocksReadersBehindIt) {
  ThreadContext tc;
  auto& lot = ParkingLot::instance();
  // Txn 14 holds a read lock (not queued), so the front writer is stuck
  // and the readers behind it are stuck on the writer (anti-starvation).
  LockWord word = with_waiters(with_member(0, txn_mask(14)));
  WaitNode w1;
  init_node(w1, &word, 15, true, false);
  WaitNode r2;
  init_node(r2, &word, 16, false, false);
  WaitNode r3;
  init_node(r3, &word, 17, false, false);
  lot.publish(w1);
  lot.publish(r2);
  lot.publish(r3);
  lot.unpark_word(tc, &word);
  EXPECT_EQ(w1.state.load(), kNodeWaiting);
  EXPECT_EQ(r2.state.load(), kNodeWaiting);

  // The writer aborts out of the wait: its grant pass must promote the
  // readers it was blocking, in the same bucket critical section.
  EXPECT_EQ(lot.cancel(tc, w1), CancelResult::kRemoved);
  EXPECT_EQ(r2.state.load(), kNodeGranted);
  EXPECT_EQ(r3.state.load(), kNodeGranted);
  EXPECT_EQ(members(word), txn_mask(14) | txn_mask(16) | txn_mask(17));
  EXPECT_FALSE(has_waiters(word));
}

TEST(ParkingLot, UnparkTxnSignalsExactlyTheNamedWaiter) {
  ThreadContext tc;
  auto& lot = ParkingLot::instance();
  LockWord word = with_waiters(with_writer(with_member(0, txn_mask(18))));
  WaitNode a;
  init_node(a, &word, 19, false, false);
  WaitNode b;
  init_node(b, &word, 20, false, false);
  lot.publish(a);
  lot.publish(b);
  lot.unpark_txn(&word, 20);
  EXPECT_EQ(a.state.load(), kNodeWaiting);
  EXPECT_EQ(b.state.load(), kNodeSignaled);

  // The signal is advisory: an ineligible probe consumes it (so the
  // next park really sleeps) and reports the blockers in the digest.
  GrantProbe p = lot.try_grant_self(tc, b);
  EXPECT_FALSE(p.granted);
  EXPECT_EQ(b.state.load(), kNodeWaiting);
  EXPECT_NE(p.digest & txn_mask(18), 0u) << "holder is a blocker";
  EXPECT_NE(p.digest & txn_mask(19), 0u) << "waiter ahead is a blocker";
  EXPECT_EQ(lot.cancel(tc, a), CancelResult::kRemoved);
  EXPECT_EQ(lot.cancel(tc, b), CancelResult::kRemoved);
}

TEST(KeyedPark, UnparkWithoutWaitersIsANoOp) {
  auto& lot = ParkingLot::instance();
  static int key;
  const uint64_t wakes0 = ParkingLot::counters().futexWakes;
  EXPECT_FALSE(lot.unpark_one(&key));
  EXPECT_EQ(lot.unpark_all(&key), 0u);
  EXPECT_EQ(ParkingLot::counters().futexWakes, wakes0);
}

TEST(KeyedPark, NotBlockedReturnsAtOnceAndDeadlineTimesOut) {
  auto& lot = ParkingLot::instance();
  static int key;
  EXPECT_EQ(lot.park(&key, [] { return false; }, 0, kNoDeadline), ParkResult::kNotBlocked);
  const uint64_t t0 = now_nanos();
  EXPECT_EQ(lot.park(&key, [] { return true; }, 0, t0 + 2'000'000), ParkResult::kTimedOut);
  EXPECT_GE(now_nanos() - t0, 2'000'000u);
  EXPECT_EQ(lot.parked_on(&key), 0u) << "a timed-out waiter unlinks itself";
}

// The recheck under the bucket lock decides the result. Here it reads
// "not blocked" (the first, lock-free check read "blocked" so the park
// reached the lock) and every later read says "blocked", as when another
// thread takes a freed id right after the recheck: with no deadline the
// park must report kNotBlocked, never kTimedOut.
TEST(KeyedPark, RecheckUnderTheBucketLockDecidesTheResult) {
  auto& lot = ParkingLot::instance();
  static int key;
  int calls = 0;
  const auto blocked = [&calls] { return ++calls != 2; };
  EXPECT_EQ(lot.park(&key, blocked, 0, kNoDeadline), ParkResult::kNotBlocked);
  EXPECT_EQ(calls, 2) << "one lock-free check, one recheck under the lock";
  EXPECT_EQ(lot.parked_on(&key), 0u);
}

// Three waiters park on one key; unpark_one wakes them one at a time in
// arrival order, and only the waiters of that key.
TEST(KeyedPark, UnparkOneWakesInFifoOrderAndUnparkAllTheRest) {
  auto& lot = ParkingLot::instance();
  static int key;
  static int otherKey;
  std::atomic<int> order{0};
  int wokeAt[3] = {-1, -1, -1};
  std::vector<std::thread> ts;
  for (int i = 0; i < 3; i++) {
    ts.emplace_back([&, i] {
      EXPECT_EQ(lot.park(&key, [] { return true; }, 0, kNoDeadline), ParkResult::kUnparked);
      wokeAt[i] = order.fetch_add(1);
    });
    while (lot.parked_on(&key) != static_cast<size_t>(i + 1)) std::this_thread::yield();
  }
  EXPECT_FALSE(lot.unpark_one(&otherKey));
  EXPECT_TRUE(lot.unpark_one(&key));
  ts[0].join();
  EXPECT_EQ(wokeAt[0], 0);
  EXPECT_EQ(lot.parked_on(&key), 2u);
  EXPECT_EQ(lot.unpark_all(&key), 2u);
  ts[1].join();
  ts[2].join();
  EXPECT_EQ(lot.parked_on(&key), 0u);
}

}  // namespace
}  // namespace sbd::core
