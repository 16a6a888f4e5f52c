#include "ml/factorized.h"

#include <algorithm>
#include <unordered_set>

#include "common/check.h"
#include "common/parallel_for.h"
#include "common/string_util.h"
#include "obs/trace.h"
#include "relational/join.h"

namespace hamlet {

namespace {

obs::Counter& FactorizedBuildsCounter() {
  static obs::Counter& counter =
      obs::MetricsRegistry::Global().GetCounter("fs.factorized_builds");
  return counter;
}

obs::Histogram& FactorizedGroupHistogram() {
  static obs::Histogram& histogram =
      obs::MetricsRegistry::Global().GetHistogram("fs.factorized_group_ns");
  return histogram;
}

obs::Histogram& FactorizedScatterHistogram() {
  static obs::Histogram& histogram =
      obs::MetricsRegistry::Global().GetHistogram("fs.factorized_scatter_ns");
  return histogram;
}

}  // namespace

Result<FactorizedDataset> FactorizedDataset::Make(
    const NormalizedDataset& dataset,
    const std::vector<std::string>& fks_to_factorize) {
  FactorizedDataset out;
  const Table& s = dataset.entity();
  HAMLET_ASSIGN_OR_RETURN(out.entity_, EncodedDataset::FromTableAuto(s));

  out.metas_ = out.entity_.metas();
  out.refs_.resize(out.metas_.size());  // All entity refs: relation = -1.

  // Mirrors the sequential-KfkJoin collision rule: every foreign feature
  // name must be new with respect to S's columns and any relation
  // factorized before it.
  std::unordered_set<std::string> taken;
  for (const ColumnSpec& spec : s.schema().columns()) taken.insert(spec.name);

  for (const std::string& fk_name : fks_to_factorize) {
    HAMLET_ASSIGN_OR_RETURN(uint32_t fk_idx, s.schema().IndexOf(fk_name));
    const ColumnSpec& fk_spec = s.schema().column(fk_idx);
    if (fk_spec.role != ColumnRole::kForeignKey) {
      return Status::InvalidArgument(StringFormat(
          "column '%s' of '%s' is not a foreign key", fk_name.c_str(),
          s.name().c_str()));
    }
    HAMLET_ASSIGN_OR_RETURN(const Table* r,
                            dataset.AttributeTableFor(fk_name));
    HAMLET_ASSIGN_OR_RETURN(uint32_t rid_idx, r->schema().PrimaryKeyIndex());

    FactorizedRelation rel;
    rel.fk_column = fk_name;
    rel.table_name = r->name();

    const Column& fk = s.column(fk_idx);
    const Column& rid = r->column(rid_idx);
    HAMLET_ASSIGN_OR_RETURN(rel.fk_to_rrow, BuildFkRowIndex(fk, rid));

    // Referential integrity, serially: the lowest offending S row names
    // the error, exactly as KfkJoin's FirstFailure reduction would.
    for (uint32_t row = 0; row < fk.size(); ++row) {
      if (rel.fk_to_rrow[fk.code(row)] == kNoFkRow) {
        return Status::InvalidArgument(StringFormat(
            "referential integrity violation: FK value '%s' has no matching "
            "RID in '%s'",
            fk.label(row).c_str(), r->name().c_str()));
      }
    }

    if (fk_spec.closed_domain) {
      HAMLET_ASSIGN_OR_RETURN(uint32_t j,
                              out.entity_.FeatureIndexOf(fk_name));
      rel.fk_feature = static_cast<int32_t>(j);
    } else {
      rel.fk_feature = -1;
      rel.stored_fk_codes = fk.codes();
    }

    // R's usable feature columns, in R schema order — the columns KfkJoin
    // would append (minus RID) filtered the way FromTableAuto keeps them.
    rel.first_feature = static_cast<uint32_t>(out.metas_.size());
    const int32_t relation_index =
        static_cast<int32_t>(out.relations_.size());
    for (uint32_t c = 0; c < r->num_columns(); ++c) {
      if (c == rid_idx) continue;
      const ColumnSpec& spec = r->schema().column(c);
      const bool usable =
          spec.role == ColumnRole::kFeature ||
          (spec.role == ColumnRole::kForeignKey && spec.closed_domain);
      if (!usable) continue;
      if (!taken.insert(spec.name).second) {
        return Status::InvalidArgument(StringFormat(
            "column name collision on '%s' between '%s' and '%s'",
            spec.name.c_str(), s.name().c_str(), r->name().c_str()));
      }
      const Column& col = r->column(c);
      rel.columns.push_back(col.codes());
      rel.metas.push_back(FeatureMeta{spec.name, col.domain_size()});
      out.metas_.push_back(rel.metas.back());
      out.refs_.push_back(FeatureRef{
          relation_index, static_cast<uint32_t>(rel.columns.size() - 1)});
    }

    out.relations_.push_back(std::move(rel));
  }

  return out;
}

const FeatureMeta& FactorizedDataset::meta(uint32_t j) const {
  HAMLET_CHECK(j < num_features(), "feature index %u out of range %u", j,
               num_features());
  return metas_[j];
}

std::vector<std::string> FactorizedDataset::FeatureNames(
    const std::vector<uint32_t>& indices) const {
  std::vector<std::string> out;
  out.reserve(indices.size());
  for (uint32_t j : indices) out.push_back(meta(j).name);
  return out;
}

std::vector<uint32_t> FactorizedDataset::AllFeatureIndices() const {
  std::vector<uint32_t> out(num_features());
  for (uint32_t j = 0; j < num_features(); ++j) out[j] = j;
  return out;
}

bool FactorizedDataset::is_entity_feature(uint32_t j) const {
  HAMLET_CHECK(j < num_features(), "feature index %u out of range %u", j,
               num_features());
  return refs_[j].relation < 0;
}

const std::vector<uint32_t>& FactorizedDataset::fk_codes(size_t k) const {
  const FactorizedRelation& rel = relations_[k];
  if (rel.fk_feature >= 0) {
    return entity_.feature(static_cast<uint32_t>(rel.fk_feature));
  }
  return rel.stored_fk_codes;
}

void FactorizedDataset::GatherCodes(uint32_t j,
                                    const std::vector<uint32_t>& rows,
                                    std::vector<uint32_t>* out) const {
  HAMLET_CHECK(j < num_features(), "feature index %u out of range %u", j,
               num_features());
  out->resize(rows.size());
  const FeatureRef& ref = refs_[j];
  if (ref.relation < 0) {
    const uint32_t* col = entity_.feature(j).data();
    for (size_t i = 0; i < rows.size(); ++i) (*out)[i] = col[rows[i]];
    return;
  }
  const FactorizedRelation& rel = relations_[ref.relation];
  const uint32_t* fkc = fk_codes(ref.relation).data();
  const uint32_t* col = rel.columns[ref.column].data();
  const uint32_t* hop = rel.fk_to_rrow.data();
  for (size_t i = 0; i < rows.size(); ++i) {
    (*out)[i] = col[hop[fkc[rows[i]]]];
  }
}

SuffStats BuildFactorizedSuffStats(const FactorizedDataset& data,
                                   const std::vector<uint32_t>& rows) {
  FactorizedBuildsCounter().Add(1);
  SuffStats stats;
  stats.num_classes = data.num_classes();
  stats.num_rows = rows.size();

  const std::vector<uint32_t>& y = data.labels();
  stats.class_counts.assign(stats.num_classes, 0);
  for (uint32_t r : rows) {
    HAMLET_DCHECK(r < data.num_rows(), "row %u out of range %u", r,
                  data.num_rows());
    ++stats.class_counts[y[r]];
  }

  // One entity-side pass per relation: class counts grouped by FK code,
  // shared by every feature the relation contributes (including the FK
  // itself, whose contingency table *is* the group table).
  const std::vector<FactorizedRelation>& relations = data.relations();
  std::vector<std::vector<uint64_t>> group(relations.size());
  {
    obs::ScopedLatency latency(FactorizedGroupHistogram());
    for (size_t k = 0; k < relations.size(); ++k) {
      group[k] = GroupCountByCode(
          data.fk_codes(k),
          static_cast<uint32_t>(relations[k].fk_to_rrow.size()), y,
          stats.num_classes, rows);
    }
  }

  // Which entity feature is the FK of which relation (for the copy).
  std::vector<int32_t> fk_relation(data.num_features(), -1);
  for (size_t k = 0; k < relations.size(); ++k) {
    if (relations[k].fk_feature >= 0) {
      fk_relation[relations[k].fk_feature] = static_cast<int32_t>(k);
    }
  }

  const uint32_t num_features = data.num_features();
  stats.cardinalities.resize(num_features);
  stats.feature_counts.resize(num_features);
  // One work item per feature — BuildSuffStats' sharding contract — and
  // every count either scans S (entity features) or scatters a relation's
  // group table through the FK -> R hop in ascending code order (foreign
  // features). All reordering relative to the materialized build is over
  // integer additions: bit-identical at any width.
  obs::ScopedLatency latency(FactorizedScatterHistogram());
  ParallelFor(num_features, [&](uint32_t j) {
    const uint32_t card = data.meta(j).cardinality;
    stats.cardinalities[j] = card;
    std::vector<uint64_t>& counts = stats.feature_counts[j];
    if (data.is_entity_feature(j)) {
      if (fk_relation[j] >= 0) {
        counts = group[fk_relation[j]];  // FK feature: the group table.
        return;
      }
      const std::vector<uint32_t>& f = data.entity().feature(j);
      counts.assign(static_cast<size_t>(card) * stats.num_classes, 0);
      for (uint32_t r : rows) {
        ++counts[static_cast<size_t>(f[r]) * stats.num_classes + y[r]];
      }
      return;
    }
    // Foreign feature: every S row with FK code `code` contributes its
    // class to R's value at that code's row — so add the whole per-code
    // class vector at once. O(|D_FK|) instead of O(rows).
    size_t k = 0;
    while (data.relations()[k].first_feature +
               data.relations()[k].metas.size() <=
           j) {
      ++k;
    }
    const FactorizedRelation& rel = data.relations()[k];
    const std::vector<uint64_t>& g = group[k];
    const std::vector<uint32_t>& col =
        rel.columns[j - rel.first_feature];
    counts.assign(static_cast<size_t>(card) * stats.num_classes, 0);
    const uint32_t num_codes = static_cast<uint32_t>(rel.fk_to_rrow.size());
    for (uint32_t code = 0; code < num_codes; ++code) {
      const uint32_t rrow = rel.fk_to_rrow[code];
      if (rrow == kNoFkRow) continue;  // FK label never present in R.
      const uint64_t* src = &g[static_cast<size_t>(code) * stats.num_classes];
      uint64_t* dst =
          &counts[static_cast<size_t>(col[rrow]) * stats.num_classes];
      for (uint32_t c = 0; c < stats.num_classes; ++c) dst[c] += src[c];
    }
  });
  return stats;
}

}  // namespace hamlet
