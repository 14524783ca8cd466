#include "checks.h"

#include <algorithm>
#include <climits>
#include <unordered_map>
#include <utility>

#include "catalog/schema.h"
#include "common/rng.h"

namespace perfbench {

using colt::ColumnId;
using colt::ColumnRef;
using colt::Query;
using colt::RowId;
using colt::TableData;
using colt::TableId;

TableSet TablesOf(const colt::Database& db) {
  TableSet out(static_cast<size_t>(db.catalog().table_count()), nullptr);
  for (TableId t = 0; t < db.catalog().table_count(); ++t) {
    if (db.HasData(t)) out[static_cast<size_t>(t)] = &db.data(t);
  }
  return out;
}

colt::Result<int64_t> ReferenceCount(const TableSet& tables, const Query& q) {
  const std::vector<TableId>& ids = q.tables();
  const size_t n = ids.size();
  if (n == 0) return colt::Status::InvalidArgument("query has no tables");

  // Filter each table's live rows by its selections.
  std::vector<std::vector<RowId>> rows(n);
  for (size_t i = 0; i < n; ++i) {
    const TableId t = ids[i];
    if (t < 0 || static_cast<size_t>(t) >= tables.size() ||
        tables[static_cast<size_t>(t)] == nullptr) {
      return colt::Status::InvalidArgument("table without data");
    }
    const TableData& data = *tables[static_cast<size_t>(t)];
    const std::vector<colt::SelectionPredicate> preds = q.SelectionsOn(t);
    std::vector<RowId>& kept = rows[i];
    if (preds.empty()) {
      for (RowId r = 0; r < data.row_count(); ++r) {
        if (data.live(r)) kept.push_back(r);
      }
      continue;
    }
    // Scan the first predicate's column without branching on the match
    // (selections are random, so a branch would mispredict), then narrow
    // by liveness and the other predicates.
    const std::vector<int64_t>& first = data.column(preds[0].column.column);
    const int64_t lo = preds[0].lo;
    const int64_t hi = preds[0].hi;
    kept.resize(first.size());
    size_t count = 0;
    for (size_t r = 0; r < first.size(); ++r) {
      kept[count] = static_cast<RowId>(r);
      count += static_cast<size_t>((first[r] >= lo) & (first[r] <= hi));
    }
    kept.resize(count);
    std::erase_if(kept, [&data](RowId r) { return !data.live(r); });
    for (size_t p = 1; p < preds.size(); ++p) {
      const std::vector<int64_t>& col = data.column(preds[p].column.column);
      std::erase_if(kept, [&](RowId r) {
        return !preds[p].Matches(col[static_cast<size_t>(r)]);
      });
    }
  }
  if (n == 1) return static_cast<int64_t>(rows[0].size());

  auto slot_of = [&ids](TableId t) {
    return static_cast<size_t>(std::find(ids.begin(), ids.end(), t) -
                               ids.begin());
  };
  // Joined tuples are stored flat, one row id per joined table;
  // position[slot] is the table's offset within a tuple (-1: not joined).
  std::vector<int> position(n, -1);
  position[0] = 0;
  std::vector<RowId> tuples = rows[0];
  for (size_t width = 1; width < n; ++width) {
    // Next table: any not yet joined that a predicate connects to the
    // joined set, with its predicates as (joined side, new side).
    size_t next = n;
    std::vector<std::pair<ColumnRef, ColumnRef>> connecting;
    for (size_t cand = 0; cand < n && next == n; ++cand) {
      if (position[cand] >= 0) continue;
      for (const auto& j : q.joins()) {
        const size_t ls = slot_of(j.left.table);
        const size_t rs = slot_of(j.right.table);
        if (rs == cand && position[ls] >= 0) {
          connecting.push_back({j.left, j.right});
        }
        if (ls == cand && position[rs] >= 0) {
          connecting.push_back({j.right, j.left});
        }
      }
      if (!connecting.empty()) next = cand;
    }
    if (next == n) {
      return colt::Status::InvalidArgument("join graph is not connected");
    }
    const TableData& next_data = *tables[static_cast<size_t>(ids[next])];
    std::unordered_map<int64_t, std::vector<RowId>> hash;
    const ColumnId build_col = connecting[0].second.column;
    for (RowId r : rows[next]) hash[next_data.value(build_col, r)].push_back(r);

    std::vector<RowId> out;
    for (size_t base = 0; base < tuples.size(); base += width) {
      auto joined_value = [&](size_t k) {
        const ColumnRef& col = connecting[k].first;
        const size_t offset =
            static_cast<size_t>(position[slot_of(col.table)]);
        return tables[static_cast<size_t>(col.table)]->value(
            col.column, tuples[base + offset]);
      };
      const auto it = hash.find(joined_value(0));
      if (it == hash.end()) continue;
      for (RowId r : it->second) {
        bool match = true;
        for (size_t k = 1; k < connecting.size() && match; ++k) {
          match = joined_value(k) ==
                  next_data.value(connecting[k].second.column, r);
        }
        if (!match) continue;
        out.insert(out.end(), tuples.begin() + static_cast<ptrdiff_t>(base),
                   tuples.begin() + static_cast<ptrdiff_t>(base + width));
        out.push_back(r);
      }
    }
    tuples = std::move(out);
    position[next] = static_cast<int>(width);
  }
  return static_cast<int64_t>(tuples.size() / n);
}

std::string AuditIndex(const TableData& data, ColumnId column,
                       const colt::BTreeIndex& tree) {
  std::vector<RowId> live;
  std::vector<std::pair<int64_t, RowId>> keyed;
  for (RowId r = 0; r < data.row_count(); ++r) {
    if (!data.live(r)) continue;
    live.push_back(r);
    keyed.push_back({data.value(column, r), r});
  }
  std::vector<RowId> scanned;
  tree.RangeScan(INT64_MIN, INT64_MAX, &scanned);
  std::sort(scanned.begin(), scanned.end());
  if (scanned != live) {
    return "full scan returned " + std::to_string(scanned.size()) +
           " rows, heap has " + std::to_string(live.size()) + " live rows";
  }
  std::sort(keyed.begin(), keyed.end());
  std::vector<RowId> expected;
  std::vector<RowId> found;
  for (size_t i = 0; i < keyed.size();) {
    const int64_t key = keyed[i].first;
    expected.clear();
    for (; i < keyed.size() && keyed[i].first == key; ++i) {
      expected.push_back(keyed[i].second);
    }
    found.clear();
    tree.Lookup(key, &found);
    std::sort(found.begin(), found.end());
    if (found != expected) {
      return "Lookup(" + std::to_string(key) + ") returned " +
             std::to_string(found.size()) + " rows, heap has " +
             std::to_string(expected.size());
    }
  }
  return "";
}

std::vector<std::string> AuditAllIndexes(const colt::Database& db) {
  std::vector<std::string> failures;
  for (colt::IndexId id : db.BuiltIndexIds()) {
    const colt::IndexDescriptor& desc = db.catalog().index(id);
    const std::string err =
        AuditIndex(db.data(desc.column.table), desc.column.column,
                   db.index(id));
    if (!err.empty()) failures.push_back(desc.name + ": " + err);
  }
  return failures;
}

namespace {

TableData HandTable(const std::vector<std::vector<int64_t>>& columns,
                    const std::vector<RowId>& deleted) {
  std::vector<colt::ColumnDef> defs;
  for (size_t c = 0; c < columns.size(); ++c) {
    colt::ColumnDef def;
    def.name = "c" + std::to_string(c);
    def.ndv = 1000;
    defs.push_back(def);
  }
  const colt::TableSchema schema(
      "hand", defs, static_cast<int64_t>(columns[0].size()));
  colt::Rng rng(1);
  TableData data = TableData::Generate(schema, rng);
  for (size_t c = 0; c < columns.size(); ++c) {
    for (size_t r = 0; r < columns[c].size(); ++r) {
      data.set_value(static_cast<ColumnId>(c), static_cast<RowId>(r),
                     columns[c][r]);
    }
  }
  for (RowId r : deleted) data.MarkDeleted(r);
  return data;
}

colt::BTreeIndex TreeOver(const TableData& data, ColumnId column,
                          RowId skip_row) {
  std::vector<std::pair<int64_t, RowId>> entries;
  for (RowId r = 0; r < data.row_count(); ++r) {
    if (data.live(r) && r != skip_row) {
      entries.push_back({data.value(column, r), r});
    }
  }
  colt::BTreeIndex tree(/*fanout=*/4);
  colt::ColtIgnoreStatus(tree.BulkLoad(std::move(entries)));
  return tree;
}

}  // namespace

std::vector<std::string> SelfTest() {
  std::vector<std::string> failures;
  // a(k, x): six rows, row 5 deleted. b(k, y): five rows.
  const TableData a =
      HandTable({{0, 1, 2, 3, 4, 5}, {10, 20, 20, 30, 40, 20}}, {5});
  const TableData b = HandTable({{0, 0, 1, 3, 7}, {1, 2, 3, 4, 5}}, {});
  const TableSet tables = {&a, &b};
  const ColumnRef ak{0, 0}, ax{0, 1}, bk{1, 0}, by{1, 1};
  auto sel = [](ColumnRef c, int64_t lo, int64_t hi) {
    colt::SelectionPredicate p;
    p.column = c;
    p.lo = lo;
    p.hi = hi;
    return p;
  };
  const colt::JoinPredicate join{ak, bk};
  struct Case {
    const char* name;
    Query q;
    int64_t expected;
  };
  const std::vector<Case> cases = {
      {"x = 20 skips the deleted row", Query({0}, {}, {sel(ax, 20, 20)}), 2},
      {"x in [15, 35]", Query({0}, {}, {sel(ax, 15, 35)}), 3},
      {"a join b on k", Query({0, 1}, {join}, {}), 4},
      {"a join b, x = 20", Query({0, 1}, {join}, {sel(ax, 20, 20)}), 1},
      {"a join b, y >= 2", Query({0, 1}, {join}, {sel(by, 2, INT64_MAX)}), 3},
  };
  for (const Case& c : cases) {
    const colt::Result<int64_t> got = ReferenceCount(tables, c.q);
    if (!got.ok() || *got != c.expected) {
      failures.push_back(std::string("reference count '") + c.name +
                         "' gave " +
                         (got.ok() ? std::to_string(*got) : "an error") +
                         ", expected " + std::to_string(c.expected));
    }
  }

  const colt::BTreeIndex whole = TreeOver(a, 1, /*skip_row=*/-1);
  if (const std::string err = AuditIndex(a, 1, whole); !err.empty()) {
    failures.push_back("audit rejected a complete tree: " + err);
  }
  const colt::BTreeIndex missing = TreeOver(a, 1, /*skip_row=*/2);
  if (AuditIndex(a, 1, missing).empty()) {
    failures.push_back("audit accepted a tree missing one entry");
  }
  colt::BTreeIndex erased = TreeOver(a, 1, /*skip_row=*/-1);
  erased.Erase(30, 3);
  erased.Insert(31, 3);
  if (AuditIndex(a, 1, erased).empty()) {
    failures.push_back("audit accepted a tree with a stale key");
  }
  return failures;
}

}  // namespace perfbench
