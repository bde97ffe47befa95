// Embedded database: SQL subset, ACID, locking, the SBD wrapper.
#include "db/db.h"

#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <thread>

#include "api/sbd.h"
#include "common/timing.h"
#include "core/queue.h"
#include "db/sql.h"
#include "db/txwrapper.h"
#include "runtime/heap.h"
#include "threads/sbd_thread.h"

namespace sbd::db {
namespace {

std::unique_ptr<Database> fresh_db() {
  auto db = std::make_unique<Database>();
  auto c = db->connect();
  c->execute("CREATE TABLE accounts (id INT PRIMARY KEY, owner TEXT, balance INT)");
  return db;
}

TEST(Sql, ParseCreate) {
  auto st = parse_sql("CREATE TABLE t (a INT PRIMARY KEY, b TEXT)");
  EXPECT_EQ(st.kind, StmtKind::kCreate);
  EXPECT_EQ(st.createSchema.table, "T");
  ASSERT_EQ(st.createSchema.columns.size(), 2u);
  EXPECT_FALSE(st.createSchema.columns[0].isText);
  EXPECT_TRUE(st.createSchema.columns[1].isText);
  EXPECT_EQ(st.createSchema.pkColumn, 0);
}

TEST(Sql, ParseInsertWithParamsAndLiterals) {
  auto st = parse_sql("INSERT INTO t VALUES (1, ?, 'text', ?)");
  EXPECT_EQ(st.kind, StmtKind::kInsert);
  ASSERT_EQ(st.insertValues.size(), 4u);
  EXPECT_FALSE(st.insertValues[0].isParam);
  EXPECT_TRUE(st.insertValues[1].isParam);
  EXPECT_EQ(st.insertValues[1].paramIndex, 0);
  EXPECT_EQ(as_str(st.insertValues[2].literal), "text");
  EXPECT_EQ(st.insertValues[3].paramIndex, 1);
  EXPECT_EQ(st.paramCount, 2);
}

TEST(Sql, ParseSelectWhereConjunction) {
  auto st = parse_sql("SELECT a, b FROM t WHERE a = ? AND b <> 5");
  EXPECT_EQ(st.kind, StmtKind::kSelect);
  ASSERT_EQ(st.selectCols.size(), 2u);
  ASSERT_EQ(st.where.size(), 2u);
  EXPECT_EQ(st.where[0].op, CmpOp::kEq);
  EXPECT_EQ(st.where[1].op, CmpOp::kNe);
}

TEST(Sql, ParseAggregates) {
  EXPECT_EQ(parse_sql("SELECT COUNT(*) FROM t").agg, AggKind::kCount);
  auto st = parse_sql("SELECT SUM(balance) FROM t WHERE id < 10");
  EXPECT_EQ(st.agg, AggKind::kSum);
  EXPECT_EQ(st.aggColumn, "BALANCE");
}

TEST(Sql, RejectsGarbage) {
  EXPECT_THROW(parse_sql("DROP TABLE t"), DbError);
  EXPECT_THROW(parse_sql("SELECT FROM"), DbError);
  EXPECT_THROW(parse_sql("CREATE TABLE t (a INT)"), DbError);  // no pk
}

TEST(Db, InsertSelectRoundTrip) {
  auto db = fresh_db();
  auto c = db->connect();
  c->execute("INSERT INTO accounts VALUES (?, ?, ?)", {int64_t{1}, "alice", int64_t{100}});
  c->execute("INSERT INTO accounts VALUES (?, ?, ?)", {int64_t{2}, "bob", int64_t{50}});
  auto rs = c->execute("SELECT owner, balance FROM accounts WHERE id = ?", {int64_t{1}});
  ASSERT_EQ(rs.size(), 1u);
  EXPECT_EQ(rs.str_at(0, 0), "alice");
  EXPECT_EQ(rs.int_at(0, 1), 100);
}

TEST(Db, UpdateAndDelete) {
  auto db = fresh_db();
  auto c = db->connect();
  c->execute("INSERT INTO accounts VALUES (1, 'a', 10)");
  c->execute("UPDATE accounts SET balance = 20 WHERE id = 1");
  EXPECT_EQ(c->execute("SELECT balance FROM accounts WHERE id = 1").int_at(0, 0), 20);
  EXPECT_EQ(c->execute("DELETE FROM accounts WHERE id = 1").updateCount, 1);
  EXPECT_EQ(c->execute("SELECT * FROM accounts WHERE id = 1").size(), 0u);
}

TEST(Db, DuplicatePkRejected) {
  auto db = fresh_db();
  auto c = db->connect();
  c->execute("INSERT INTO accounts VALUES (1, 'a', 10)");
  EXPECT_THROW(c->execute("INSERT INTO accounts VALUES (1, 'b', 20)"), DbError);
}

TEST(Db, ScanWithPredicates) {
  auto db = fresh_db();
  auto c = db->connect();
  for (int64_t i = 0; i < 10; i++)
    c->execute("INSERT INTO accounts VALUES (?, 'u', ?)", {i, i * 10});
  auto rs = c->execute("SELECT id FROM accounts WHERE balance >= 50 AND balance < 80");
  EXPECT_EQ(rs.size(), 3u);  // 50, 60, 70
  EXPECT_EQ(c->execute("SELECT COUNT(*) FROM accounts").int_at(0, 0), 10);
  EXPECT_EQ(c->execute("SELECT SUM(balance) FROM accounts").int_at(0, 0), 450);
}

TEST(Db, RollbackRestoresUpdatesAndDeletes) {
  auto db = fresh_db();
  auto c = db->connect();
  c->execute("INSERT INTO accounts VALUES (1, 'a', 10)");
  c->begin();
  c->execute("UPDATE accounts SET balance = 99 WHERE id = 1");
  c->execute("DELETE FROM accounts WHERE id = 1");
  c->execute("INSERT INTO accounts VALUES (2, 'b', 20)");
  c->rollback();
  auto rs = c->execute("SELECT balance FROM accounts WHERE id = 1");
  ASSERT_EQ(rs.size(), 1u);
  EXPECT_EQ(rs.int_at(0, 0), 10);
  EXPECT_EQ(c->execute("SELECT COUNT(*) FROM accounts").int_at(0, 0), 1);
}

TEST(Db, CommitPersists) {
  auto db = fresh_db();
  auto c = db->connect();
  c->begin();
  c->execute("INSERT INTO accounts VALUES (5, 'e', 500)");
  c->commit();
  auto c2 = db->connect();
  EXPECT_EQ(c2->execute("SELECT balance FROM accounts WHERE id = 5").int_at(0, 0), 500);
}

TEST(Db, RowLocksSerializeConflictingTxns) {
  auto db = fresh_db();
  auto c1 = db->connect();
  c1->execute("INSERT INTO accounts VALUES (1, 'a', 0)");
  constexpr int kThreads = 4, kIncs = 50;
  std::vector<std::thread> ts;
  for (int t = 0; t < kThreads; t++) {
    ts.emplace_back([&db] {
      auto c = db->connect();
      for (int i = 0; i < kIncs; i++) {
        c->begin();
        auto rs = c->execute("SELECT balance FROM accounts WHERE id = 1");
        const int64_t bal = rs.int_at(0, 0);
        c->execute("UPDATE accounts SET balance = ? WHERE id = 1", {bal + 1});
        c->commit();
      }
    });
  }
  for (auto& t : ts) t.join();
  EXPECT_EQ(c1->execute("SELECT balance FROM accounts WHERE id = 1").int_at(0, 0),
            kThreads * kIncs);
}

TEST(Db, DeadlockDetectedByTimeout) {
  auto db = fresh_db();
  db->set_lock_timeout_ms(50);
  auto setup = db->connect();
  setup->execute("INSERT INTO accounts VALUES (1, 'a', 0)");
  setup->execute("INSERT INTO accounts VALUES (2, 'b', 0)");
  std::atomic<int> deadlocks{0};
  std::atomic<int> phase{0};
  auto worker = [&](int64_t first, int64_t second) {
    auto c = db->connect();
    try {
      c->begin();
      c->execute("UPDATE accounts SET balance = 1 WHERE id = ?", {first});
      phase++;
      while (phase.load() < 2) std::this_thread::yield();
      c->execute("UPDATE accounts SET balance = 1 WHERE id = ?", {second});
      c->commit();
    } catch (const DbDeadlock&) {
      deadlocks++;
      c->rollback();
    }
  };
  std::thread t1(worker, 1, 2), t2(worker, 2, 1);
  t1.join();
  t2.join();
  EXPECT_GE(deadlocks.load(), 1);
}

// A scan must not see a transfer half applied: point statements hold
// an intention lock on the table until their transaction ends, and a
// SUM scan's shared table lock waits that out (here: times out).
TEST(Db, ScanNeverSeesHalfAppliedTransfer) {
  auto db = fresh_db();
  db->set_lock_timeout_ms(50);
  auto setup = db->connect();
  setup->execute("INSERT INTO accounts VALUES (0, 'a', 100)");
  setup->execute("INSERT INTO accounts VALUES (1, 'b', 100)");
  auto c1 = db->connect();
  auto c2 = db->connect();
  c1->begin();
  // Read, then write: the serve transfer's pattern. The read takes the
  // row (and IS); the write must still raise the table intent to IX.
  EXPECT_EQ(c1->execute("SELECT balance FROM accounts WHERE id = 0").int_at(0, 0), 100);
  c1->execute("UPDATE accounts SET balance = 90 WHERE id = 0");
  try {
    EXPECT_EQ(c2->execute("SELECT SUM(balance) FROM accounts").int_at(0, 0), 200)
        << "a scan returned the dirty sum";
  } catch (const DbDeadlock&) {
  }
  c1->execute("UPDATE accounts SET balance = 110 WHERE id = 1");
  c1->commit();
  EXPECT_EQ(c2->execute("SELECT SUM(balance) FROM accounts").int_at(0, 0), 200);
}

// The converse: rows a transaction scanned stay put until it ends, its
// own point writes never wait on its own scan, and point reads share
// the table with the scan.
TEST(Db, ScanLockHoldsOffPointWritesUntilCommit) {
  auto db = fresh_db();
  db->set_lock_timeout_ms(50);
  auto setup = db->connect();
  setup->execute("INSERT INTO accounts VALUES (0, 'a', 100)");
  setup->execute("INSERT INTO accounts VALUES (1, 'b', 100)");
  auto scanner = db->connect();
  auto writer = db->connect();
  scanner->begin();
  EXPECT_EQ(scanner->execute("SELECT SUM(balance) FROM accounts").int_at(0, 0), 200);
  EXPECT_EQ(writer->execute("SELECT balance FROM accounts WHERE id = 1").int_at(0, 0), 100);
  EXPECT_THROW(writer->execute("UPDATE accounts SET balance = 0 WHERE id = 0"), DbDeadlock);
  scanner->execute("UPDATE accounts SET balance = 50 WHERE id = 1");
  EXPECT_EQ(scanner->execute("SELECT SUM(balance) FROM accounts").int_at(0, 0), 150);
  scanner->commit();
  EXPECT_EQ(writer->execute("UPDATE accounts SET balance = 0 WHERE id = 0").updateCount, 1);
}

TEST(TxWrapper, SectionCommitCommitsDb) {
  auto db = fresh_db();
  TxDbConnection conn(*db);
  run_sbd([&] {
    conn.execute("INSERT INTO accounts VALUES (1, 'sbd', 42)");
    // Not yet visible to other connections: still inside the section.
    auto other = db->connect();
    // (row lock is held; a SELECT by pk would block — check via COUNT on
    // a fresh table-level read after commit instead)
    split();  // section ends -> DB transaction commits
    EXPECT_EQ(other->execute("SELECT balance FROM accounts WHERE id = 1").int_at(0, 0),
              42);
  });
}

TEST(TxWrapper, SectionAbortRollsBackDb) {
  auto db = fresh_db();
  TxDbConnection conn(*db);
  run_sbd([&] {
    static bool aborted;
    aborted = false;
    split();
    conn.execute("INSERT INTO accounts VALUES (7, 'x', 7)");
    if (!aborted) {
      aborted = true;
      core::abort_and_restart(core::tls_context());
    }
    split();
  });
  auto c = db->connect();
  // The aborted attempt rolled back; the retry inserted exactly once.
  EXPECT_EQ(c->execute("SELECT COUNT(*) FROM accounts WHERE id = 7").int_at(0, 0), 1);
}

TEST(TxWrapper, UndoBytesReportedForTable8) {
  auto db = fresh_db();
  TxDbConnection conn(*db);
  run_sbd([&] {
    conn.execute("INSERT INTO accounts VALUES (3, 'm', 30)");
    EXPECT_GT(core::tls_context().txn.buffer_bytes(), 0u);
    split();
    EXPECT_EQ(core::tls_context().txn.buffer_bytes(), 0u);
  });
}

// An SBD thread waiting for a row lock must not hold up a stop-the-
// world: its wait runs in a safe region. The row is held by a plain
// thread with a 2 s lock timeout, so a collection that had to wait for
// the waiter would take the whole timeout.
TEST(TxWrapper, RowLockWaitDoesNotDelayStopTheWorld) {
  auto db = fresh_db();
  db->set_lock_timeout_ms(2000);
  db->connect()->execute("INSERT INTO accounts VALUES (1, 'a', 10)");
  std::atomic<bool> held{false}, release{false};
  std::thread holder([&] {
    auto c = db->connect();
    c->begin();
    c->execute("UPDATE accounts SET balance = 11 WHERE id = 1");
    held = true;
    while (!release) std::this_thread::sleep_for(std::chrono::milliseconds(1));
    c->commit();
  });
  while (!held) std::this_thread::yield();
  const size_t parked0 = core::ParkingLot::approx_waiters();
  TxDbConnection conn(*db);
  threads::SbdThread waiter([&] {
    EXPECT_EQ(conn.execute("SELECT balance FROM accounts WHERE id = 1").int_at(0, 0), 11);
  });
  uint64_t gcNanos = 0;
  run_sbd([&] {
    waiter.start();
    split();  // the start is deferred to this commit
    const uint64_t until = now_nanos() + 1'000'000'000;
    while (core::ParkingLot::approx_waiters() == parked0 && now_nanos() < until)
      std::this_thread::sleep_for(std::chrono::milliseconds(1));
    const uint64_t t0 = now_nanos();
    runtime::Heap::instance().collect();
    gcNanos = now_nanos() - t0;
    release = true;
    waiter.join();
  });
  holder.join();
  EXPECT_LT(gcNanos, 500'000'000u) << "the collection waited for the row-lock waiter";
}

}  // namespace
}  // namespace sbd::db
