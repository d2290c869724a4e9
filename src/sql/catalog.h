#ifndef RDFREL_SQL_CATALOG_H_
#define RDFREL_SQL_CATALOG_H_

/// \file catalog.h
/// The catalog: named tables, each owning storage plus secondary indexes
/// that are kept consistent through the Table mutation API.

#include <atomic>
#include <map>
#include <memory>
#include <span>
#include <string>
#include <vector>

#include "sql/hash_index.h"
#include "sql/table_storage.h"
#include "util/lru_cache.h"
#include "util/mutex.h"
#include "util/status.h"

namespace rdfrel::sql {

/// A secondary index on one column of a table: a flat equality index
/// (sql/hash_index.h). NULLs are not indexed.
struct IndexInfo {
  std::string name;
  int column = -1;
  HashIndex index;

  /// RowIds matching \p key, borrowed in place from the index: valid until
  /// the next mutation of the table. Readers rely on the store's writer
  /// lock to keep a probe's posting list stable for the whole query.
  std::span<const RowId> Lookup(const Value& key) const {
    return index.Lookup(key);
  }
};

/// The live rows of one heap page, deserialized once and shared by readers.
/// Rows are in slot order; \p slot_index maps a page slot to its position in
/// \p rows (kDeadSlot for dead slots). Instances are immutable after
/// construction, so a scan holding the shared_ptr stays valid even if the
/// table mutates (invalidation only drops the cache's own reference).
struct DecodedPage {
  static constexpr uint32_t kDeadSlot = 0xffffffffu;
  std::vector<Row> rows;
  std::vector<uint32_t> slot_index;
};

/// A table with index-maintaining mutations. Use this (not raw
/// TableStorage) everywhere above the storage layer.
class Table {
 public:
  /// Cap on rows retained across all cached decoded pages of one table;
  /// beyond it DecodePage still decodes but no longer stores (keeps memory
  /// bounded on very large tables).
  static constexpr size_t kDecodedRowBudget = 1u << 22;
  Table(std::string name, Schema schema,
        size_t page_size = Page::kDefaultSize);

  const std::string& name() const { return name_; }
  const Schema& schema() const { return storage_.schema(); }
  const TableStorage& storage() const { return storage_; }
  uint64_t row_count() const { return storage_.row_count(); }

  /// Builds an index over existing rows; errors on duplicate name or
  /// unknown column.
  Status CreateIndex(const std::string& index_name,
                     const std::string& column_name);

  /// Index over \p column_name, or nullptr.
  const IndexInfo* FindIndexOn(const std::string& column_name) const;
  const IndexInfo* FindIndexByName(const std::string& index_name) const;
  const std::vector<std::unique_ptr<IndexInfo>>& indexes() const {
    return indexes_;
  }

  Result<RowId> Insert(const Row& row);
  Result<Row> Get(RowId rid) const;
  Result<RowId> Update(RowId rid, const Row& new_row);
  Status Delete(RowId rid);
  Status Scan(const std::function<Status(RowId, const Row&)>& fn) const;

  /// The decoded live rows of heap page \p page, served from a per-table
  /// cache so repeated scans deserialize each page once. Vectorized scans
  /// borrow the returned rows in place; mutations invalidate the touched
  /// pages. Safe for concurrent readers. \p page must be < num_pages().
  Result<std::shared_ptr<const DecodedPage>> DecodePage(uint32_t page) const;

  /// Hit/miss/invalidation counters of the decoded-page cache (hits serve
  /// a cached page; invalidations by mutations count as evictions).
  util::CacheStats decoded_page_stats() const;

 private:
  void IndexInsert(IndexInfo* idx, const Row& row, RowId rid);
  void IndexRemove(IndexInfo* idx, const Row& row, RowId rid);
  void InvalidateDecodedPage(uint32_t page);

  std::string name_;
  TableStorage storage_;
  std::vector<std::unique_ptr<IndexInfo>> indexes_;

  // Decoded-page cache (mutable: populated lazily from const scans).
  // kPageCache: taken below the store lock (kStore), above nothing.
  mutable util::SharedMutex decoded_mu_{"page-cache",
                                        util::lock_rank::kPageCache};
  mutable std::vector<std::shared_ptr<const DecodedPage>> decoded_pages_
      RDFREL_GUARDED_BY(decoded_mu_);
  mutable size_t decoded_rows_ RDFREL_GUARDED_BY(decoded_mu_) =
      0;  ///< rows held by decoded_pages_
  mutable std::atomic<uint64_t> decoded_hits_{0};
  mutable std::atomic<uint64_t> decoded_misses_{0};
  mutable std::atomic<uint64_t> decoded_evictions_{0};
};

/// Named-table registry.
class Catalog {
 public:
  Catalog() = default;

  /// Creates a table; AlreadyExists on duplicate (case-insensitive) name.
  Result<Table*> CreateTable(const std::string& name, Schema schema,
                             size_t page_size = Page::kDefaultSize);

  /// Table by name, or NotFound.
  Result<Table*> GetTable(const std::string& name) const;
  bool HasTable(const std::string& name) const;
  Status DropTable(const std::string& name);

  std::vector<std::string> TableNames() const;

  /// Decoded-page cache counters summed over every table.
  util::CacheStats page_cache_stats() const;

 private:
  std::map<std::string, std::unique_ptr<Table>> tables_;  // lower-case name
};

}  // namespace rdfrel::sql

#endif  // RDFREL_SQL_CATALOG_H_
