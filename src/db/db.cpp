#include "db/db.h"

#include <algorithm>
#include <bit>
#include <chrono>
#include <deque>
#include <optional>
#include <thread>
#include <unordered_map>

#include "common/check.h"
#include "common/timing.h"
#include "core/fault.h"
#include "core/queue.h"
#include "core/transaction.h"
#include "db/sql.h"

namespace sbd::db {

// Table lock modes, one bit each; the bit index is TableLock::held's.
enum LockMode : uint8_t { kIS = 1, kIX = 2, kS = 4, kX = 8 };

// Lock waits park in core::ParkingLot keyed by the `releases` counter
// of the row or table they wait on; a release bumps it under mu_ and
// wakes only that key.
struct RowLock {
  uint64_t owner = 0;  // 0 = free
  int waiters = 0;     // also pins the entry against erasure
  std::atomic<uint32_t> releases{0};
};

struct TableLock {
  int held[4] = {};  // transactions holding IS, IX, S, X (LockMode bit order)
  std::atomic<uint32_t> releases{0};
};

struct TableData {
  Schema schema;
  std::deque<Row> rows;                    // stable row storage
  std::unordered_map<int64_t, size_t> pk;  // pk -> row index
  std::vector<bool> alive;                 // tombstones for deletes
  TableLock lock;
  std::unordered_map<int64_t, RowLock> rowLocks;  // node-based: stable refs
};

int Schema::column_index(const std::string& name) const {
  for (size_t i = 0; i < columns.size(); i++) {
    // Parsed SQL uppercases identifiers; schemas may use any case.
    if (columns[i].name.size() == name.size()) {
      bool eq = true;
      for (size_t k = 0; k < name.size(); k++)
        if (std::toupper(static_cast<unsigned char>(columns[i].name[k])) !=
            std::toupper(static_cast<unsigned char>(name[k]))) {
          eq = false;
          break;
        }
      if (eq) return static_cast<int>(i);
    }
  }
  return -1;
}

// ---------------------------------------------------------------------------
// Database
// ---------------------------------------------------------------------------

Database::Database() = default;
Database::~Database() = default;

namespace {
std::string upper(const std::string& s) {
  std::string out = s;
  for (char& c : out) c = static_cast<char>(std::toupper(static_cast<unsigned char>(c)));
  return out;
}
}  // namespace

void Database::create_table(const Schema& schema) {
  std::lock_guard<std::mutex> lk(mu_);
  auto td = std::make_unique<TableData>();
  td->schema = schema;
  td->schema.table = upper(schema.table);
  SBD_CHECK_MSG(tables_.find(td->schema.table) == tables_.end(), "table exists");
  SBD_CHECK_MSG(!td->schema.columns[static_cast<size_t>(td->schema.pkColumn)].isText,
                "primary key must be an INT column");
  tables_[td->schema.table] = std::move(td);
}

bool Database::has_table(const std::string& name) const {
  std::lock_guard<std::mutex> lk(mu_);
  return tables_.find(upper(name)) != tables_.end();
}

const Schema& Database::schema(const std::string& name) const {
  std::lock_guard<std::mutex> lk(mu_);
  auto it = tables_.find(upper(name));
  SBD_CHECK_MSG(it != tables_.end(), "unknown table");
  return it->second->schema;
}

namespace {

// Whether `mode` is compatible with what OTHER transactions hold:
// IS-X, IX-S, IX-X, S-IX, S-X conflict, and X conflicts with all.
bool compatible(const TableLock& t, uint8_t mine, uint8_t mode) {
  auto others = [&](uint8_t m) { return t.held[std::countr_zero(m)] - ((mine & m) != 0); };
  switch (mode) {
    case kIS: return others(kX) == 0;
    case kIX: return others(kS) == 0 && others(kX) == 0;
    case kS: return others(kIX) == 0 && others(kX) == 0;
    default: return others(kIS) + others(kIX) + others(kS) + others(kX) == 0;
  }
}

// Parks until `releases` moves or `deadline` passes, with mu_ released
// meanwhile. A registered SBD thread waits inside a SafeScope, so a
// stop-the-world (GC, sampler) does not wait for the lock's holder.
// Returns false on timeout.
bool park_unlocked(std::unique_lock<std::mutex>& lk, const std::atomic<uint32_t>& releases,
                   uint64_t deadline) {
  const uint32_t seen = releases.load(std::memory_order_relaxed);
  lk.unlock();
  std::optional<core::Safepoint::SafeScope> safe;
  if (core::ThreadContext* tc = core::tls_context_if_present()) safe.emplace(*tc);
  const bool woke =
      core::ParkingLot::instance().park(
          &releases, [&] { return releases.load(std::memory_order_relaxed) == seen; }, 0,
          deadline) != core::ParkResult::kTimedOut;
  safe.reset();
  lk.lock();
  return woke;
}

}  // namespace

Connection::TableHold& Connection::hold_on(TableData& td) {
  for (TableHold& h : tableLocks_)
    if (h.td == &td) return h;
  return tableLocks_.emplace_back(TableHold{&td, 0});
}

void Database::lock_table_locked(std::unique_lock<std::mutex>& lk, Connection::TableHold& h,
                                 uint8_t mode, uint64_t deadline) {
  TableLock& t = h.td->lock;
  while (!compatible(t, h.modes, mode))
    if (!park_unlocked(lk, t.releases, deadline) && !compatible(t, h.modes, mode))
      throw DbDeadlock();
  t.held[std::countr_zero(mode)]++;
  h.modes |= mode;
}

void Database::lock_row(Connection& c, TableData& td, int64_t pk, uint8_t intent) {
  std::unique_lock<std::mutex> lk(mu_);
  Connection::TableHold& h = c.hold_on(td);
  auto it = td.rowLocks.find(pk);
  // A row read first and written now already is ours, but its write
  // still needs the table's IX.
  const bool owned = it != td.rowLocks.end() && it->second.owner == c.txnId_;
  if (owned && (h.modes & intent)) return;
  // Fault plan: a spurious lock-wait timeout, indistinguishable from a
  // real one — drives the caller's deadlock-retry path.
  if (!owned && fault::should_fire(fault::Site::kDbLockTimeout)) throw DbDeadlock();
  const uint64_t deadline = now_nanos() + static_cast<uint64_t>(lockTimeoutMs_) * 1'000'000;
  if (!(h.modes & intent)) lock_table_locked(lk, h, intent, deadline);
  if (owned) return;
  // Looked up after the intent wait, which may have released mu_; the
  // waiter count then pins the entry across the row wait.
  RowLock& rl = td.rowLocks[pk];
  rl.waiters++;
  while (rl.owner != 0) {
    if (!park_unlocked(lk, rl.releases, deadline) && rl.owner != 0) {
      rl.waiters--;
      throw DbDeadlock();
    }
  }
  rl.waiters--;
  rl.owner = c.txnId_;
  c.rowLocks_.emplace_back(&td, pk);
}

void Database::lock_table(Connection& c, TableData& td, uint8_t mode) {
  std::unique_lock<std::mutex> lk(mu_);
  Connection::TableHold& h = c.hold_on(td);
  if (h.modes & mode) return;
  // Fault plan: spurious lock-wait timeout (see lock_row).
  if (fault::should_fire(fault::Site::kDbLockTimeout)) throw DbDeadlock();
  lock_table_locked(lk, h, mode, now_nanos() + static_cast<uint64_t>(lockTimeoutMs_) * 1'000'000);
}

// Wakes only the waiters of what the transaction held: one per row
// (row locks are exclusive), all of a table's.
void Database::release_locks(Connection& c) {
  auto& lot = core::ParkingLot::instance();
  std::lock_guard<std::mutex> lk(mu_);
  for (const auto& [td, pk] : c.rowLocks_) {
    auto it = td->rowLocks.find(pk);
    if (it == td->rowLocks.end() || it->second.owner != c.txnId_) continue;
    RowLock& rl = it->second;
    rl.owner = 0;
    if (rl.waiters == 0) {
      td->rowLocks.erase(it);
      continue;
    }
    rl.releases.fetch_add(1, std::memory_order_relaxed);
    lot.unpark_one(&rl.releases);
  }
  c.rowLocks_.clear();
  for (const Connection::TableHold& h : c.tableLocks_) {
    TableLock& t = h.td->lock;
    for (int i = 0; i < 4; i++) t.held[i] -= (h.modes >> i) & 1;
    t.releases.fetch_add(1, std::memory_order_relaxed);
    lot.unpark_all(&t.releases);
  }
  c.tableLocks_.clear();
}

// ---------------------------------------------------------------------------
// Statement execution
// ---------------------------------------------------------------------------

namespace {
// Returns the pk value if the WHERE clause pins the primary key with
// equality (the point-operation fast path).
std::optional<int64_t> pk_equality(const Statement& st, const Schema& schema,
                                   const std::vector<Value>& params) {
  for (const Predicate& p : st.where) {
    if (p.op != CmpOp::kEq) continue;
    const int col = schema.column_index(p.column);
    if (col == schema.pkColumn) {
      const Value& v = resolve(p.value, params);
      if (std::holds_alternative<int64_t>(v)) return as_int(v);
    }
  }
  return std::nullopt;
}

bool row_matches(const Row& row, const Statement& st, const Schema& schema,
                 const std::vector<Value>& params) {
  for (const Predicate& p : st.where) {
    const int col = schema.column_index(p.column);
    if (col < 0) throw DbError("unknown column " + p.column);
    if (!compare(row.values[static_cast<size_t>(col)], p.op, resolve(p.value, params)))
      return false;
  }
  return true;
}
}  // namespace

std::vector<size_t> Database::lock_matches(Connection& c, TableData& td, const Statement& st,
                                           const std::vector<Value>& params, bool write) {
  const auto pk = pk_equality(st, td.schema, params);
  if (pk)
    lock_row(c, td, *pk, write ? kIX : kIS);
  else
    lock_table(c, td, write ? kX : kS);
  std::lock_guard<std::mutex> lk(mu_);
  std::vector<size_t> matches;
  auto match = [&](size_t i) {
    if (td.alive[i] && row_matches(td.rows[i], st, td.schema, params)) matches.push_back(i);
  };
  if (!pk) {
    for (size_t i = 0; i < td.rows.size(); i++) match(i);
  } else if (auto it = td.pk.find(*pk); it != td.pk.end()) {
    match(it->second);
  }
  return matches;
}

ResultSet Database::exec_parsed(Connection& c, const Statement& st,
                                const std::vector<Value>& params) {
  ResultSet rs;
  if (st.kind == StmtKind::kCreate) {
    create_table(st.createSchema);
    return rs;
  }

  const std::string tname = upper(st.table);
  TableData* td;
  {
    std::lock_guard<std::mutex> lk(mu_);
    auto it = tables_.find(tname);
    if (it == tables_.end()) throw DbError("unknown table " + st.table);
    td = it->second.get();
  }
  const Schema& schema = td->schema;

  switch (st.kind) {
    case StmtKind::kInsert: {
      if (st.insertValues.size() != schema.columns.size())
        throw DbError("insert arity mismatch");
      Row row;
      for (const Expr& e : st.insertValues) row.values.push_back(resolve(e, params));
      const Value& pkv = row.values[static_cast<size_t>(schema.pkColumn)];
      if (!std::holds_alternative<int64_t>(pkv)) throw DbError("pk must be INT");
      const int64_t pk = as_int(pkv);
      lock_row(c, *td, pk, kIX);
      {
        std::lock_guard<std::mutex> lk(mu_);
        if (td->pk.count(pk) && td->alive[td->pk[pk]])
          throw DbError("duplicate primary key");
        td->rows.push_back(row);
        td->alive.push_back(true);
        td->pk[pk] = td->rows.size() - 1;
      }
      c.undo_.push_back(Connection::UndoRecord{tname, pk, std::nullopt});
      rs.updateCount = 1;
      return rs;
    }

    case StmtKind::kSelect: {
      const std::vector<size_t> matches = lock_matches(c, *td, st, params, /*write=*/false);
      std::lock_guard<std::mutex> lk(mu_);
      if (st.agg == AggKind::kCount) {
        rs.columns = {"COUNT"};
        rs.rows.push_back({Value{static_cast<int64_t>(matches.size())}});
        return rs;
      }
      if (st.agg == AggKind::kSum) {
        const int col = schema.column_index(st.aggColumn);
        if (col < 0) throw DbError("unknown column " + st.aggColumn);
        int64_t sum = 0;
        for (size_t i : matches) sum += as_int(td->rows[i].values[static_cast<size_t>(col)]);
        rs.columns = {"SUM"};
        rs.rows.push_back({Value{sum}});
        return rs;
      }
      std::vector<int> cols;
      if (st.selectCols.empty()) {
        for (size_t i = 0; i < schema.columns.size(); i++) {
          cols.push_back(static_cast<int>(i));
          rs.columns.push_back(schema.columns[i].name);
        }
      } else {
        for (const auto& name : st.selectCols) {
          const int col = schema.column_index(name);
          if (col < 0) throw DbError("unknown column " + name);
          cols.push_back(col);
          rs.columns.push_back(name);
        }
      }
      for (size_t i : matches) {
        std::vector<Value> out;
        for (int col : cols) out.push_back(td->rows[i].values[static_cast<size_t>(col)]);
        rs.rows.push_back(std::move(out));
      }
      return rs;
    }

    case StmtKind::kUpdate:
    case StmtKind::kDelete: {
      const std::vector<size_t> matches = lock_matches(c, *td, st, params, /*write=*/true);
      std::lock_guard<std::mutex> lk(mu_);
      for (size_t i : matches) {
        Row& row = td->rows[i];
        const int64_t rowPk = as_int(row.values[static_cast<size_t>(schema.pkColumn)]);
        c.undo_.push_back(Connection::UndoRecord{tname, rowPk, row});
        if (st.kind == StmtKind::kUpdate) {
          for (const SetClause& sc : st.sets) {
            const int col = schema.column_index(sc.column);
            if (col < 0) throw DbError("unknown column " + sc.column);
            row.values[static_cast<size_t>(col)] = resolve(sc.value, params);
          }
        } else {
          td->alive[i] = false;
        }
      }
      rs.updateCount = static_cast<int64_t>(matches.size());
      return rs;
    }

    default:
      throw DbError("unsupported statement");
  }
}

// ---------------------------------------------------------------------------
// Connection
// ---------------------------------------------------------------------------

Connection::Connection(Database& db)
    : db_(db), txnId_(db.txnIdGen_.fetch_add(1, std::memory_order_relaxed)) {}

Connection::~Connection() {
  if (inTxn_) rollback();
  db_.release_locks(*this);
}

ResultSet Connection::execute(const std::string& sql, const std::vector<Value>& params) {
  const Statement st = parse_sql(sql);
  const bool autocommit = !inTxn_;
  if (autocommit) begin();
  try {
    ResultSet rs = db_.exec_parsed(*this, st, params);
    if (autocommit) commit();
    return rs;
  } catch (...) {
    if (autocommit) rollback();
    throw;
  }
}

void Connection::begin() {
  SBD_CHECK_MSG(!inTxn_, "nested DB transaction");
  inTxn_ = true;
  // Each transaction gets a fresh id so the lock manager's ownership
  // checks never confuse two transactions of the same connection.
  txnId_ = db_.txnIdGen_.fetch_add(1, std::memory_order_relaxed);
}

void Connection::commit() { end_txn(true); }

void Connection::rollback() { end_txn(false); }

void Connection::end_txn(bool commit) {
  SBD_CHECK_MSG(inTxn_, "no open DB transaction");
  if (commit) {
    // Fault plan: transient commit-fence faults (a stalled journal
    // flush). A real engine retries the fence until it clears; commit
    // never fails upward — the STM layer has already decided to commit.
    for (int transient = 0; transient < 3; transient++) {
      const uint64_t ns = fault::fire_delay_nanos(fault::Site::kDbCommit);
      if (ns == 0) break;
      std::this_thread::sleep_for(std::chrono::nanoseconds(ns));
    }
  }
  if (!commit) {
    std::lock_guard<std::mutex> lk(db_.mu_);
    for (auto it = undo_.rbegin(); it != undo_.rend(); ++it) {
      auto& td = db_.tables_[it->table];
      auto pkIt = td->pk.find(it->pk);
      if (pkIt == td->pk.end()) continue;
      const size_t idx = pkIt->second;
      if (it->before) {
        td->rows[idx] = *it->before;
        td->alive[idx] = true;  // deleted rows come back
      } else {
        td->alive[idx] = false;  // inserted rows disappear
        td->pk.erase(pkIt);
      }
    }
  }
  undo_.clear();
  inTxn_ = false;
  db_.release_locks(*this);
}

size_t Connection::undo_bytes() const {
  size_t sum = 0;
  for (const auto& u : undo_) {
    sum += sizeof(UndoRecord);
    if (u.before)
      for (const Value& v : u.before->values)
        sum += std::holds_alternative<std::string>(v) ? as_str(v).size() + 16 : 16;
  }
  return sum;
}

}  // namespace sbd::db
