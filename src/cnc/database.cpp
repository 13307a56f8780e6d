#include "cnc/database.hpp"

namespace cyd::cnc {

std::uint64_t Table::insert(Row row) {
  const std::uint64_t id = next_id_++;
  rows_.emplace(id, std::move(row));
  return id;
}

bool Table::erase(std::uint64_t id) { return rows_.erase(id) > 0; }

const Row* Table::find(std::uint64_t id) const {
  auto it = rows_.find(id);
  return it == rows_.end() ? nullptr : &it->second;
}

Row* Table::find(std::uint64_t id) {
  auto it = rows_.find(id);
  return it == rows_.end() ? nullptr : &it->second;
}

const Table* Database::find_table(const std::string& name) const {
  auto it = tables_.find(name);
  return it == tables_.end() ? nullptr : &it->second;
}

std::vector<std::string> Database::table_names() const {
  std::vector<std::string> out;
  out.reserve(tables_.size());
  for (const auto& [name, table] : tables_) out.push_back(name);
  return out;
}

std::size_t Database::total_rows() const {
  std::size_t n = 0;
  for (const auto& [name, table] : tables_) n += table.size();
  return n;
}

void Database::wipe() {
  tables_.clear();
  wiped_ = true;
}

}  // namespace cyd::cnc
