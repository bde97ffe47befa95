// H2 analog: a TPC-C-lite workload against the embedded database.
// Client threads run a mix of new-order and payment transactions via
// the (JDBC-like) connection API.
//
// Both variants drive the SAME database engine — the difference is the
// synchronization model above it: the baseline uses explicit
// begin/commit per business transaction; the SBD variant maps each
// atomic section onto a DB transaction through the transactional
// wrapper (§5.3: the paper integrates JDBC via transactional wrappers,
// which is why H2 shows the lowest SBD overhead — the program spends
// most time inside the database, not in managed memory accesses).
#include <atomic>
#include <memory>
#include <thread>

#include "api/sbd.h"
#include "common/rng.h"
#include "dacapo/harness.h"
#include "db/db.h"
#include "db/txwrapper.h"

namespace sbd::dacapo {

namespace {

struct H2Config {
  int64_t warehouses = 2;
  int64_t districtsPerWh = 4;
  int64_t customersPerDistrict = 20;
  int64_t items = 100;
  uint64_t txnsPerThread;
};

H2Config make_config(const Scale& s) {
  H2Config cfg;
  cfg.txnsPerThread = s.of(80);
  return cfg;
}

std::unique_ptr<db::Database> build_database(const H2Config& cfg) {
  auto database = std::make_unique<db::Database>();
  auto c = database->connect();
  c->execute("CREATE TABLE warehouse (id INT PRIMARY KEY, ytd INT)");
  c->execute("CREATE TABLE district (id INT PRIMARY KEY, wid INT, ytd INT, next_oid INT)");
  c->execute("CREATE TABLE customer (id INT PRIMARY KEY, did INT, balance INT)");
  c->execute("CREATE TABLE stock (id INT PRIMARY KEY, qty INT)");
  c->execute("CREATE TABLE orders (id INT PRIMARY KEY, cid INT, amount INT)");
  for (int64_t w = 0; w < cfg.warehouses; w++)
    c->execute("INSERT INTO warehouse VALUES (?, 0)", {w});
  for (int64_t w = 0; w < cfg.warehouses; w++)
    for (int64_t d = 0; d < cfg.districtsPerWh; d++) {
      const int64_t did = w * cfg.districtsPerWh + d;
      c->execute("INSERT INTO district VALUES (?, ?, 0, ?)", {did, w, did * 1000000});
      for (int64_t cu = 0; cu < cfg.customersPerDistrict; cu++)
        c->execute("INSERT INTO customer VALUES (?, ?, 100)",
                   {did * 1000 + cu, did});
    }
  for (int64_t i = 0; i < cfg.items; i++)
    c->execute("INSERT INTO stock VALUES (?, 1000)", {i});
  return database;
}

// One new-order business transaction: claim an order id from the
// district, decrement the stock of 3 items, insert the order row.
template <typename Exec>
int64_t new_order(Exec&& exec, const H2Config& cfg, Rng& rng) {
  const int64_t did =
      rng.below(static_cast<uint64_t>(cfg.warehouses * cfg.districtsPerWh));
  auto rs = exec("SELECT next_oid FROM district WHERE id = ?", {db::Value{did}});
  const int64_t oid = rs.int_at(0, 0);
  exec("UPDATE district SET next_oid = ? WHERE id = ?", {db::Value{oid + 1}, db::Value{did}});
  int64_t amount = 0;
  for (int k = 0; k < 3; k++) {
    const int64_t item = rng.below(static_cast<uint64_t>(cfg.items));
    auto q = exec("SELECT qty FROM stock WHERE id = ?", {db::Value{item}});
    const int64_t qty = q.int_at(0, 0);
    exec("UPDATE stock SET qty = ? WHERE id = ?",
         {db::Value{qty > 10 ? qty - 1 : qty + 90}, db::Value{item}});
    amount += item + 1;
  }
  const int64_t cid = did * 1000 + rng.below(static_cast<uint64_t>(cfg.customersPerDistrict));
  exec("INSERT INTO orders VALUES (?, ?, ?)",
       {db::Value{oid}, db::Value{cid}, db::Value{amount}});
  return amount;
}

// One payment transaction: move money through warehouse/district/customer.
template <typename Exec>
int64_t payment(Exec&& exec, const H2Config& cfg, Rng& rng) {
  const int64_t w = rng.below(static_cast<uint64_t>(cfg.warehouses));
  const int64_t did =
      rng.below(static_cast<uint64_t>(cfg.warehouses * cfg.districtsPerWh));
  const int64_t cid = did * 1000 + rng.below(static_cast<uint64_t>(cfg.customersPerDistrict));
  const int64_t amount = 1 + static_cast<int64_t>(rng.below(50));
  auto wy = exec("SELECT ytd FROM warehouse WHERE id = ?", {db::Value{w}});
  exec("UPDATE warehouse SET ytd = ? WHERE id = ?",
       {db::Value{wy.int_at(0, 0) + amount}, db::Value{w}});
  auto dy = exec("SELECT ytd FROM district WHERE id = ?", {db::Value{did}});
  exec("UPDATE district SET ytd = ? WHERE id = ?",
       {db::Value{dy.int_at(0, 0) + amount}, db::Value{did}});
  auto cb = exec("SELECT balance FROM customer WHERE id = ?", {db::Value{cid}});
  exec("UPDATE customer SET balance = ? WHERE id = ?",
       {db::Value{cb.int_at(0, 0) - amount}, db::Value{cid}});
  return amount;
}

uint64_t final_checksum(db::Database& database) {
  auto c = database.connect();
  uint64_t sum = 0;
  sum += static_cast<uint64_t>(c->execute("SELECT SUM(ytd) FROM warehouse").int_at(0, 0));
  sum = sum * 31 +
        static_cast<uint64_t>(c->execute("SELECT SUM(ytd) FROM district").int_at(0, 0));
  sum = sum * 31 +
        static_cast<uint64_t>(c->execute("SELECT COUNT(*) FROM orders").int_at(0, 0));
  return sum;
}

uint64_t run_baseline_once(const H2Config& cfg, int threads) {
  auto database = build_database(cfg);
  std::vector<std::thread> ts;
  for (int t = 0; t < threads; t++) {
    ts.emplace_back([&, t] {
      auto conn = database->connect();
      Rng rng(mix64(1000 + static_cast<uint64_t>(t)));
      for (uint64_t i = 0; i < cfg.txnsPerThread; i++) {
        auto exec = [&](const std::string& sql, const std::vector<db::Value>& p) {
          return conn->execute(sql, p);
        };
        // A retried business transaction replays the same inputs, as
        // SBD's checkpoint rollback does for the stack-held rng.
        const Rng saved = rng;
        for (;;) {
          try {
            conn->begin();
            if (rng.chance(0.5))
              new_order(exec, cfg, rng);
            else
              payment(exec, cfg, rng);
            conn->commit();
            break;
          } catch (const db::DbDeadlock&) {
            conn->rollback();  // retry the business transaction
            rng = saved;
          }
        }
      }
    });
  }
  for (auto& t : ts) t.join();
  return final_checksum(*database);
}

uint64_t run_sbd_once(const H2Config& cfg, int threads) {
  auto database = build_database(cfg);
  // A little managed bookkeeping around the DB work (the original
  // benchmark's harness state): per-thread txn counters in a managed
  // array — this is what produces H2's small but nonzero lock-operation
  // counts in Table 7.
  runtime::GlobalRoot<runtime::I64Array> perThread;
  run_sbd([&] { perThread.set(runtime::I64Array::make(static_cast<uint64_t>(threads))); });
  {
    std::vector<threads::SbdThread> ts;
    for (int t = 0; t < threads; t++) {
      ts.emplace_back([&, t] {
        db::TxDbConnection conn(*database);
        Rng rng(mix64(1000 + static_cast<uint64_t>(t)));
        for (uint64_t i = 0; i < cfg.txnsPerThread; i++) {
          perThread.get().set(static_cast<uint64_t>(t),
                              perThread.get().get(static_cast<uint64_t>(t)) + 1);
          auto exec = [&](const std::string& sql, const std::vector<db::Value>& p) {
            return conn.execute(sql, p);
          };
          // One business transaction per atomic section; a DB deadlock
          // aborts and retries the section inside conn.execute.
          if (rng.chance(0.5))
            new_order(exec, cfg, rng);
          else
            payment(exec, cfg, rng);
          split();  // section end = DB commit
        }
      });
    }
    for (auto& t : ts) t.start();
    for (auto& t : ts) t.join();
  }
  return final_checksum(*database);
}

}  // namespace

Benchmark h2_benchmark() {
  Benchmark b;
  b.name = "H2";
  b.baseline = [](const Scale& s, int threads) {
    const auto cfg = make_config(s);
    return measure_baseline_run([&] { return run_baseline_once(cfg, threads); });
  };
  b.sbd = [](const Scale& s, int threads) {
    const auto cfg = make_config(s);
    return measure_sbd_run([&] { return run_sbd_once(cfg, threads); });
  };
  b.effort = EffortReport{1, 1, 0, 0, 0, 0, 1, 0, 39, 14, 1, 0};
  return b;
}

}  // namespace sbd::dacapo
