// Correctness checks of the repo benchmark. Each is computed apart from
// the code it checks: the reference evaluator reads the heap directly
// instead of going through the optimizer and executor, and the index
// audit compares a tree's contents with the heap it indexes.
#ifndef PERFBENCH_CHECKS_H_
#define PERFBENCH_CHECKS_H_

#include <cstdint>
#include <string>
#include <vector>

#include "index/btree.h"
#include "query/query.h"
#include "storage/database.h"
#include "storage/table_data.h"

namespace perfbench {

/// Table data indexed by TableId (null for tables without data).
using TableSet = std::vector<const colt::TableData*>;

/// The materialized tables of `db`.
TableSet TablesOf(const colt::Database& db);

/// COUNT(*) of `q` over the live rows of `tables`: each table's live rows
/// are filtered by its selections, then joined by hashing on the equi-join
/// predicates. For an UPDATE or DELETE this is the number of live rows its
/// WHERE matches. Fails on a join graph that is not connected.
colt::Result<int64_t> ReferenceCount(const TableSet& tables,
                                     const colt::Query& q);

/// Audits one single-column tree against the heap: a full-range RangeScan
/// must return exactly the table's live rows, and Lookup(v) must return
/// exactly the live rows whose `column` holds v. Returns an empty string
/// when the tree is consistent, else a description of the first mismatch.
std::string AuditIndex(const colt::TableData& data, colt::ColumnId column,
                       const colt::BTreeIndex& tree);

/// AuditIndex over every built index of `db`; collects mismatches.
std::vector<std::string> AuditAllIndexes(const colt::Database& db);

/// Runs the evaluator and the audit on tiny hand-built tables with known
/// answers, and on a tree missing one entry (which the audit must
/// reject). Returns the failures; empty means every check can both pass
/// and fail as intended.
std::vector<std::string> SelfTest();

}  // namespace perfbench

#endif  // PERFBENCH_CHECKS_H_
