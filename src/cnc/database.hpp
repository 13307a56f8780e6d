#pragma once
// The C&C server's relational store (the MySQL analogue).
//
// Tracks connecting clients, packages queued per client, encryption
// settings, and panel authentication — the tables Kaspersky's server
// analysis enumerated (paper Fig. 5 "Database" discussion).

#include <cstdint>
#include <map>
#include <optional>
#include <string>
#include <vector>

namespace cyd::cnc {

using Row = std::map<std::string, std::string>;

class Table {
 public:
  std::uint64_t insert(Row row);  // returns row id
  bool erase(std::uint64_t id);
  const Row* find(std::uint64_t id) const;
  Row* find(std::uint64_t id);
  /// Read-only view of the rows in id order; queries iterate it.
  const std::map<std::uint64_t, Row>& rows() const { return rows_; }
  std::size_t size() const { return rows_.size(); }
  void clear() { rows_.clear(); }

 private:
  std::map<std::uint64_t, Row> rows_;
  std::uint64_t next_id_ = 1;
};

class Database {
 public:
  Table& table(const std::string& name) { return tables_[name]; }
  const Table* find_table(const std::string& name) const;
  std::vector<std::string> table_names() const;
  /// Total rows across tables (server-side footprint metric).
  std::size_t total_rows() const;
  /// DROP everything (LogWiper's final act against the evidence).
  void wipe();
  bool wiped() const { return wiped_; }

 private:
  std::map<std::string, Table> tables_;
  bool wiped_ = false;
};

}  // namespace cyd::cnc
