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
/// HashJoin is a general inner equi-join used as a reference implementation
/// and by tests.
///
/// Both joins are code-level: when the key columns use distinct Domain
/// objects a one-shot DomainRemap (domain.h) translates codes once, so
/// build and probe never touch labels. HashJoin's build side is a
/// CSR-style offsets+rows layout indexed by key code (no per-key
/// allocations), and output materialization gathers each column with
/// chunked parallel writes. Results are bit-identical at any thread count
/// (the repo's determinism contract).

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
/// through the BuildFkRowIndex hop instead of joining. `rows` is sharded
/// across threads with per-shard local tables merged serially in shard
/// order; counts are integers, so the result is bit-identical at any
/// thread count (0 = all hardware threads, 1 = serial).
std::vector<uint64_t> GroupCountByCode(const std::vector<uint32_t>& key_codes,
                                       uint32_t num_codes,
                                       const std::vector<uint32_t>& groups,
                                       uint32_t num_groups,
                                       const std::vector<uint32_t>& rows,
                                       uint32_t num_threads = 0);

/// HashJoin's physical algorithm. Every choice produces bit-identical
/// tables (and identical error reports); only cache behaviour differs.
/// KfkJoin ignores it: its probe is a dense code -> row gather with
/// nothing to partition.
enum class JoinAlgorithm : uint8_t {
  /// Pick per call: measured cost-profile records for the competing
  /// operators when the store has them (obs/cost_profile.h), else a
  /// size heuristic — radix once the build side's code range and the
  /// probe side both outgrow cache-resident scale. See
  /// docs/PERFORMANCE.md "Join algorithm matrix".
  kAuto = 0,
  /// One monolithic CSR over the whole key-code range (the PR 5 path):
  /// unbeatable while offsets+rows stay LLC-resident.
  kCsr,
  /// Radix-partitioned per-partition CSR (relational/radix_join.h):
  /// two-pass deterministic partition scatter, then build+probe inside
  /// cache-sized code sub-ranges.
  kRadix,
};

/// Blocked Bloom semi-join pre-filter over the build side's key codes
/// (common/bloom.h). Probe rows whose key the filter rejects never touch
/// the CSR. Applies to HashJoin only — KfkJoin requires every row to
/// match, so a pre-filter could only hide referential-integrity errors.
enum class BloomFilterMode : uint8_t {
  /// On exactly when the build side cannot cover its key domain
  /// (build_rows * 2 < distinct codes), i.e. when misses are certain to
  /// exist; off for FK-shaped joins where every probe row matches.
  kAuto = 0,
  kOff,
  kOn,
};

/// Join knobs. KfkJoin reads only num_threads; the rest tune HashJoin.
struct JoinOptions {
  /// Shards for probe and output materialization (0 = all hardware
  /// threads, 1 = serial). Any value yields the same table.
  uint32_t num_threads = 0;
  /// Physical algorithm (HashJoin only); results never depend on it.
  JoinAlgorithm algorithm = JoinAlgorithm::kAuto;
  /// log2 of the requested partition fanout for kRadix (0 = derive from
  /// the build side's code range; see MakeRadixLayout). Any fanout
  /// yields the same table.
  uint32_t radix_bits = 0;
  /// Bloom pre-filter switch (HashJoin only).
  BloomFilterMode bloom = BloomFilterMode::kAuto;
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

/// General inner equi-join of `left` and `right` on
/// left.`left_column` = right.`right_column`. The output contains all
/// left columns followed by all right columns except `right_column`.
/// Output rows appear in left-row-major order of matches (right rows
/// ascending within a key). Used as the nested-loop-checked reference for
/// KfkJoin and available to library users for non-KFK joins.
Result<Table> HashJoin(const Table& left, const Table& right,
                       const std::string& left_column,
                       const std::string& right_column,
                       const JoinOptions& options = {});

}  // namespace hamlet

#endif  // HAMLET_RELATIONAL_JOIN_H_
