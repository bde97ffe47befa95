// Embedded relational database — the H2 benchmark substitute.
//
// Scope (what the TPC-C-lite workload needs, done properly):
//   - typed tables (INT / TEXT columns) with an integer primary key
//   - a SQL subset: CREATE TABLE, INSERT, SELECT, UPDATE, DELETE with
//     ?-parameters, WHERE conjunctions, COUNT/SUM aggregates
//   - ACID transactions: strict two-phase locking — exclusive row
//     locks plus an intention lock (IS/IX) on the table for point
//     operations (pk equality), S/X table locks for scans —, undo-log
//     rollback, deadlock detection by timeout
//   - a JDBC-like Connection/ResultSet API
//
// The SBD integration (TxDbConnection in txwrapper.h) maps an atomic
// section onto a DB transaction, exactly as the paper integrates JDBC
// via transactional wrappers (§5.3: "As databases use transactions we
// integrated the JDBC classes using transactional wrappers").
#pragma once

#include <atomic>
#include <cstdint>
#include <map>
#include <memory>
#include <mutex>
#include <optional>
#include <stdexcept>
#include <string>
#include <variant>
#include <vector>

namespace sbd::db {

using Value = std::variant<std::monostate, int64_t, std::string>;

inline bool is_null(const Value& v) { return std::holds_alternative<std::monostate>(v); }
inline int64_t as_int(const Value& v) { return std::get<int64_t>(v); }
inline const std::string& as_str(const Value& v) { return std::get<std::string>(v); }

struct Column {
  std::string name;
  bool isText = false;
};

struct Schema {
  std::string table;
  std::vector<Column> columns;
  int pkColumn = 0;  // must be an INT column

  int column_index(const std::string& name) const;
};

struct Row {
  std::vector<Value> values;
};

struct ResultSet {
  std::vector<std::string> columns;
  std::vector<std::vector<Value>> rows;
  int64_t updateCount = 0;

  size_t size() const { return rows.size(); }
  int64_t int_at(size_t row, size_t col) const { return as_int(rows[row][col]); }
  const std::string& str_at(size_t row, size_t col) const {
    return as_str(rows[row][col]);
  }
};

class DbError : public std::runtime_error {
 public:
  explicit DbError(const std::string& msg) : std::runtime_error(msg) {}
};

class DbDeadlock : public DbError {
 public:
  DbDeadlock() : DbError("transaction deadlock (lock wait timeout)") {}
};

class Database;
struct TableData;

// One client session. Statements run in autocommit mode unless begin()
// opened an explicit transaction. Not thread-safe; use one per thread.
class Connection {
 public:
  explicit Connection(Database& db);
  ~Connection();
  Connection(const Connection&) = delete;
  Connection& operator=(const Connection&) = delete;

  ResultSet execute(const std::string& sql, const std::vector<Value>& params = {});

  void begin();
  void commit();
  void rollback();
  bool in_transaction() const { return inTxn_; }

  // Bytes of undo state buffered by the open transaction (Table 8).
  size_t undo_bytes() const;

 private:
  friend class Database;
  Database& db_;
  uint64_t txnId_;
  bool inTxn_ = false;

  struct UndoRecord {
    std::string table;
    int64_t pk;
    std::optional<Row> before;  // nullopt = row was inserted (undo = delete)
  };
  std::vector<UndoRecord> undo_;
  // Locks held until the transaction ends. Cleared, not freed, so a
  // connection stops allocating once it has seen its largest txn.
  std::vector<std::pair<TableData*, int64_t>> rowLocks_;
  struct TableHold {
    TableData* td;
    uint8_t modes;  // LockMode bits (db.cpp)
  };
  std::vector<TableHold> tableLocks_;
  TableHold& hold_on(TableData& td);  // finds or adds td's entry

  void end_txn(bool commit);
};

class Database {
 public:
  Database();
  ~Database();

  void create_table(const Schema& schema);
  bool has_table(const std::string& name) const;
  const Schema& schema(const std::string& name) const;

  std::unique_ptr<Connection> connect() { return std::make_unique<Connection>(*this); }

  // Row-lock wait timeout before declaring a deadlock.
  void set_lock_timeout_ms(int ms) { lockTimeoutMs_ = ms; }

 private:
  friend class Connection;

  // Table lock modes are LockMode bits (db.cpp): IS/IX for point
  // statements, S/X for scans. Adds `mode` to `hold`, waiting out the
  // conflicting modes other transactions hold on its table. mu_ held.
  void lock_table_locked(std::unique_lock<std::mutex>& lk, Connection::TableHold& hold,
                         uint8_t mode, uint64_t deadline);
  // `intent` (IS or IX) on the table, then the exclusive row lock.
  void lock_row(Connection& c, TableData& td, int64_t pk, uint8_t intent);
  void lock_table(Connection& c, TableData& td, uint8_t mode);
  void release_locks(Connection& c);

  // Takes the statement's locks — the row's (and an intention on the
  // table) when the WHERE clause pins the primary key, else the table's
  // — and returns the indices of the live rows it matches.
  std::vector<size_t> lock_matches(Connection& c, TableData& td, const struct Statement& st,
                                   const std::vector<Value>& params, bool write);

  ResultSet exec_parsed(Connection& c, const struct Statement& st,
                        const std::vector<Value>& params);

  mutable std::mutex mu_;  // guards tables_, their rows and their lock state
  std::map<std::string, std::unique_ptr<TableData>> tables_;
  std::atomic<uint64_t> txnIdGen_{1};
  int lockTimeoutMs_ = 100;
};

}  // namespace sbd::db
