#ifndef HAMLET_RELATIONAL_JOIN_H_
#define HAMLET_RELATIONAL_JOIN_H_

/// \file join.h
/// Key–foreign-key equi-joins: the operation the paper asks whether you can
/// skip.
///
/// KfkJoin computes T ← π(R ⋈_{RID=FK} S) from Section 2.1: every S row is
/// matched with exactly one R row (RID is R's primary key; referential
/// integrity is required), and R's feature columns are appended to S's.
/// R's RID column is dropped from the output — it is duplicated by FK.
///
/// The join is code-level: when the key columns use distinct Domain
/// objects a one-shot DomainRemap (domain.h) translates codes once, so
/// build and probe never touch labels. The build side is a dense FK code
/// -> R row index, the probe a per-row gather, and output
/// materialization gathers each R column with chunked parallel writes.
/// Results are bit-identical at any thread count (the repo's determinism
/// contract). This is the only join in the library: the paper's question
/// is whether to run this one join at all, and no workload here needs a
/// general equi-join (docs/PERFORMANCE.md "KFK join: one CSR path").

#include <cstdint>
#include <string>
#include <vector>

#include "common/result.h"
#include "relational/table.h"

namespace hamlet {

/// Sentinel for "this key code has no matching row" in BuildFkRowIndex.
inline constexpr uint32_t kNoFkRow = UINT32_MAX;

/// Maps every code of `fk`'s domain to the `rid`-side row holding that
/// RID, or kNoFkRow when no row carries it. A DomainRemap translates rid
/// codes into fk codes once, so the per-row loop is integer-only even when
/// the two columns use distinct Domain objects. Fails on duplicate RIDs.
/// This is KfkJoin's probe index, exposed because factorized training
/// (ml/factorized.h) walks the same FK -> R hop without materializing the
/// join.
Result<std::vector<uint32_t>> BuildFkRowIndex(const Column& fk,
                                              const Column& rid);

/// Per-(key code, group) occurrence counts over a row subset: the result
/// is flat [code * num_groups + g], counting the rows r of `rows` with
/// key_codes[r] == code and groups[r] == g. This is the one entity-side
/// pass factorized training makes per FK — the table is then scattered
/// through the BuildFkRowIndex hop instead of joining. A subset of 2^14
/// rows or more is sharded at the run's width, at least `cells` rows per
/// shard, with per-shard local tables merged serially in shard order;
/// counts are integers, so the result is bit-identical at any width.
std::vector<uint64_t> GroupCountByCode(const std::vector<uint32_t>& key_codes,
                                       uint32_t num_codes,
                                       const std::vector<uint32_t>& groups,
                                       uint32_t num_groups,
                                       const std::vector<uint32_t>& rows);

/// A join's physical algorithm. KfkJoin has one path, so the enum has one
/// value and nothing reads it. It stays only because
/// perfbench/training.cc still assigns PipelineConfig::join_algorithm to
/// JoinOptions::algorithm; delete the enum and both fields together with
/// that line.
enum class JoinAlgorithm : uint8_t {
  kAuto = 0,
};

/// Join knobs.
struct JoinOptions {
  /// The join's parallel width (common/thread_pool.h): its probe and
  /// output gathers, and everything else the join runs, shard this many
  /// ways (1 = serial). 0 inherits the caller's width, or every hardware
  /// thread at top level. Any value yields the same table.
  uint32_t num_threads = 0;
  /// Unread; see JoinAlgorithm.
  JoinAlgorithm algorithm = JoinAlgorithm::kAuto;
};

/// Joins entity table `s` with attribute table `r` on `s.fk_column` =
/// r's primary key. Fails if the FK column is missing or not a foreign
/// key, if `r` has no primary key or duplicate RIDs, if referential
/// integrity is violated (an FK value with no matching RID), or if a
/// feature name in `r` collides with a column of `s`.
///
/// The output preserves `s`'s columns (including the FK itself, which the
/// paper keeps as a feature) followed by `r`'s feature columns.
Result<Table> KfkJoin(const Table& s, const Table& r,
                      const std::string& fk_column,
                      const JoinOptions& options = {});

}  // namespace hamlet

#endif  // HAMLET_RELATIONAL_JOIN_H_
