#ifndef HAMLET_TESTS_LEGACY_HASH_JOIN_H_
#define HAMLET_TESTS_LEGACY_HASH_JOIN_H_

/// \file legacy_hash_join.h
/// Test-only reference join: the original label-keyed hash join, frozen.
/// A build map from label to right rows, per-key row vectors, and a
/// serial probe in left-row order. It shares no code with KfkJoin (no
/// codes, no DomainRemap, no parallelism), so KfkJoin's tables are
/// checked against an independent implementation.

#include <string>
#include <unordered_map>
#include <vector>

#include "common/result.h"
#include "relational/table.h"

namespace hamlet {

/// Inner equi-join of `left` and `right` on left.`left_column` =
/// right.`right_column`: all left columns followed by all right columns
/// except `right_column`, rows in left-row-major order with right rows
/// ascending within a key.
inline Result<Table> LegacyHashJoin(const Table& left, const Table& right,
                                    const std::string& left_column,
                                    const std::string& right_column) {
  HAMLET_ASSIGN_OR_RETURN(uint32_t l_idx, left.schema().IndexOf(left_column));
  HAMLET_ASSIGN_OR_RETURN(uint32_t r_idx,
                          right.schema().IndexOf(right_column));
  const Column& lcol = left.column(l_idx);
  const Column& rcol = right.column(r_idx);

  std::unordered_map<std::string, std::vector<uint32_t>> build;
  for (uint32_t row = 0; row < right.num_rows(); ++row) {
    build[rcol.label(row)].push_back(row);
  }
  std::vector<uint32_t> l_rows, r_rows;
  for (uint32_t row = 0; row < left.num_rows(); ++row) {
    auto it = build.find(lcol.label(row));
    if (it == build.end()) continue;
    for (uint32_t r_row : it->second) {
      l_rows.push_back(row);
      r_rows.push_back(r_row);
    }
  }

  std::vector<ColumnSpec> out_specs = left.schema().columns();
  std::vector<Column> out_cols;
  for (uint32_t c = 0; c < left.num_columns(); ++c) {
    out_cols.push_back(left.column(c).Gather(l_rows));
  }
  for (uint32_t c = 0; c < right.num_columns(); ++c) {
    if (c == r_idx) continue;
    out_specs.push_back(right.schema().column(c));
    out_cols.push_back(right.column(c).Gather(r_rows));
  }
  return Table(left.name() + "_join_" + right.name(),
               Schema(std::move(out_specs)), std::move(out_cols));
}

}  // namespace hamlet

#endif  // HAMLET_TESTS_LEGACY_HASH_JOIN_H_
