#include "sql/catalog.h"

#include "util/string_util.h"

namespace rdfrel::sql {

Table::Table(std::string name, Schema schema, size_t page_size)
    : name_(std::move(name)), storage_(std::move(schema), page_size) {}

Status Table::CreateIndex(const std::string& index_name,
                          const std::string& column_name) {
  if (FindIndexByName(index_name) != nullptr) {
    return Status::AlreadyExists("index " + index_name);
  }
  int col = schema().FindColumn(column_name);
  if (col < 0) {
    return Status::NotFound("column " + column_name + " in table " + name_);
  }
  auto idx = std::make_unique<IndexInfo>();
  idx->name = index_name;
  idx->column = col;
  IndexInfo* raw = idx.get();
  // Backfill from existing rows.
  RDFREL_RETURN_NOT_OK(storage_.Scan([&](RowId rid, const Row& row) {
    IndexInsert(raw, row, rid);
    return Status::OK();
  }));
  indexes_.push_back(std::move(idx));
  return Status::OK();
}

const IndexInfo* Table::FindIndexOn(const std::string& column_name) const {
  int col = schema().FindColumn(column_name);
  if (col < 0) return nullptr;
  for (const auto& idx : indexes_) {
    if (idx->column == col) return idx.get();
  }
  return nullptr;
}

const IndexInfo* Table::FindIndexByName(const std::string& index_name) const {
  for (const auto& idx : indexes_) {
    if (EqualsIgnoreCaseAscii(idx->name, index_name)) return idx.get();
  }
  return nullptr;
}

void Table::IndexInsert(IndexInfo* idx, const Row& row, RowId rid) {
  const Value& key = row[static_cast<size_t>(idx->column)];
  if (key.is_null()) return;  // NULLs are not indexed
  // Every caller posts a rid that is not in the index: freshly allocated by
  // Insert, re-posted by Update right after IndexRemove, or visited once by
  // the CreateIndex backfill. Append skips the duplicate scan, which is
  // quadratic in the posting-list length of a hot key.
  idx->index.Append(key, rid);
}

void Table::IndexRemove(IndexInfo* idx, const Row& row, RowId rid) {
  const Value& key = row[static_cast<size_t>(idx->column)];
  if (key.is_null()) return;
  idx->index.Remove(key, rid);
}

Result<RowId> Table::Insert(const Row& row) {
  RDFREL_ASSIGN_OR_RETURN(RowId rid, storage_.Insert(row));
  for (auto& idx : indexes_) IndexInsert(idx.get(), row, rid);
  InvalidateDecodedPage(rid.page);
  return rid;
}

Result<Row> Table::Get(RowId rid) const { return storage_.Get(rid); }

Result<RowId> Table::Update(RowId rid, const Row& new_row) {
  RDFREL_ASSIGN_OR_RETURN(Row old_row, storage_.Get(rid));
  RDFREL_ASSIGN_OR_RETURN(RowId new_rid, storage_.Update(rid, new_row));
  for (auto& idx : indexes_) {
    IndexRemove(idx.get(), old_row, rid);
    IndexInsert(idx.get(), new_row, new_rid);
  }
  InvalidateDecodedPage(rid.page);
  if (new_rid.page != rid.page) InvalidateDecodedPage(new_rid.page);
  return new_rid;
}

Status Table::Delete(RowId rid) {
  RDFREL_ASSIGN_OR_RETURN(Row old_row, storage_.Get(rid));
  RDFREL_RETURN_NOT_OK(storage_.Delete(rid));
  for (auto& idx : indexes_) IndexRemove(idx.get(), old_row, rid);
  InvalidateDecodedPage(rid.page);
  return Status::OK();
}

Result<std::shared_ptr<const DecodedPage>> Table::DecodePage(
    uint32_t page) const {
  {
    util::ReaderLock lock(&decoded_mu_);
    if (page < decoded_pages_.size() && decoded_pages_[page] != nullptr) {
      decoded_hits_.fetch_add(1, std::memory_order_relaxed);
      return decoded_pages_[page];
    }
  }
  decoded_misses_.fetch_add(1, std::memory_order_relaxed);
  // Decode outside the lock; a racing decode of the same page just loses
  // the store below (keep-first) and its copy dies with the caller.
  const Page& pg = storage_.heap().page(page);
  auto dp = std::make_shared<DecodedPage>();
  dp->slot_index.assign(pg.num_slots(), DecodedPage::kDeadSlot);
  dp->rows.reserve(pg.num_slots());
  for (uint32_t s = 0; s < pg.num_slots(); ++s) {
    if (!pg.IsLive(s)) continue;
    RDFREL_ASSIGN_OR_RETURN(std::string_view bytes, pg.Get(s));
    dp->slot_index[s] = static_cast<uint32_t>(dp->rows.size());
    dp->rows.emplace_back();
    RDFREL_RETURN_NOT_OK(DeserializeRowInto(schema(), bytes, &dp->rows.back()));
  }
  util::WriterLock lock(&decoded_mu_);
  if (page < decoded_pages_.size() && decoded_pages_[page] != nullptr) {
    return decoded_pages_[page];
  }
  if (decoded_rows_ + dp->rows.size() <= kDecodedRowBudget) {
    if (decoded_pages_.size() <= page) decoded_pages_.resize(page + 1);
    decoded_rows_ += dp->rows.size();
    decoded_pages_[page] = dp;
  }
  return std::shared_ptr<const DecodedPage>(std::move(dp));
}

void Table::InvalidateDecodedPage(uint32_t page) {
  util::WriterLock lock(&decoded_mu_);
  if (page < decoded_pages_.size() && decoded_pages_[page] != nullptr) {
    decoded_rows_ -= decoded_pages_[page]->rows.size();
    decoded_pages_[page].reset();
    decoded_evictions_.fetch_add(1, std::memory_order_relaxed);
  }
}

util::CacheStats Table::decoded_page_stats() const {
  util::CacheStats s;
  s.hits = decoded_hits_.load(std::memory_order_relaxed);
  s.misses = decoded_misses_.load(std::memory_order_relaxed);
  s.evictions = decoded_evictions_.load(std::memory_order_relaxed);
  util::ReaderLock lock(&decoded_mu_);
  for (const auto& dp : decoded_pages_) {
    if (dp != nullptr) ++s.entries;
  }
  return s;
}

Status Table::Scan(
    const std::function<Status(RowId, const Row&)>& fn) const {
  return storage_.Scan(fn);
}

Result<Table*> Catalog::CreateTable(const std::string& name, Schema schema,
                                    size_t page_size) {
  std::string key = ToLowerAscii(name);
  if (tables_.count(key)) return Status::AlreadyExists("table " + name);
  auto table = std::make_unique<Table>(name, std::move(schema), page_size);
  Table* raw = table.get();
  tables_.emplace(std::move(key), std::move(table));
  return raw;
}

Result<Table*> Catalog::GetTable(const std::string& name) const {
  auto it = tables_.find(ToLowerAscii(name));
  if (it == tables_.end()) return Status::NotFound("table " + name);
  return it->second.get();
}

bool Catalog::HasTable(const std::string& name) const {
  return tables_.count(ToLowerAscii(name)) > 0;
}

Status Catalog::DropTable(const std::string& name) {
  auto it = tables_.find(ToLowerAscii(name));
  if (it == tables_.end()) return Status::NotFound("table " + name);
  tables_.erase(it);
  return Status::OK();
}

std::vector<std::string> Catalog::TableNames() const {
  std::vector<std::string> names;
  names.reserve(tables_.size());
  for (const auto& [k, t] : tables_) names.push_back(t->name());
  return names;
}

util::CacheStats Catalog::page_cache_stats() const {
  util::CacheStats out;
  for (const auto& [k, t] : tables_) {
    util::CacheStats s = t->decoded_page_stats();
    out.hits += s.hits;
    out.misses += s.misses;
    out.evictions += s.evictions;
    out.entries += s.entries;
  }
  return out;
}

}  // namespace rdfrel::sql
