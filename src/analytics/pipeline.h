#ifndef HAMLET_ANALYTICS_PIPELINE_H_
#define HAMLET_ANALYTICS_PIPELINE_H_

/// \file pipeline.h
/// The Section 5.4 integration: join avoidance as an *optimizer* inside a
/// declarative feature selection pipeline. The paper's conversations with
/// analysts suggest systems (e.g., Columbus) should fold the decision
/// rules in "either as new optimizations or as suggestions"; this module
/// is that fold — one call runs
///
///   normalized data -> advisor -> (partial) joins -> encode -> split ->
///   feature selection -> final model -> holdout error
///
/// with a single switch choosing between the JoinAll baseline and the
/// JoinOpt plan, and a report carrying every artifact an analyst needs
/// (the plan and its evidence, the chosen features, errors, runtimes).

#include <string>

#include "common/result.h"
#include "core/advisor.h"
#include "data/splits.h"
#include "fs/runner.h"
#include "ml/logistic_regression.h"
#include "obs/report.h"
#include "obs/trace.h"
#include "relational/catalog.h"
#include "stats/metrics.h"

namespace hamlet {

/// Which classifier the pipeline trains.
enum class ClassifierKind {
  kNaiveBayes,
  kLogisticRegressionL1,
  kLogisticRegressionL2,
  kTan,
  kDecisionTree,
  kGradientBoostedTrees,
};

/// "naive_bayes" / "logreg_l1" / "logreg_l2" / "tan" / "decision_tree" /
/// "gbt".
const char* ClassifierKindToString(ClassifierKind kind);

/// Builds the factory for a classifier kind (paper-default settings).
ClassifierFactory MakeClassifierFactory(ClassifierKind kind);

/// Declarative pipeline configuration.
struct PipelineConfig {
  /// The optimizer switch: apply the advisor's JoinOpt plan (true) or
  /// join every table (false, the JoinAll baseline).
  bool enable_join_avoidance = true;
  AdvisorOptions advisor;
  FsMethod method = FsMethod::kForwardSelection;
  ClassifierKind classifier = ClassifierKind::kNaiveBayes;
  ErrorMetric metric = ErrorMetric::kZeroOne;
  SplitFractions split;
  uint64_t seed = 42;
  /// The run's parallel width (common/thread_pool.h): every loop of the
  /// run — join, statistics, search, each candidate model's training and
  /// the final fit — shards at most this many ways (1 = serial). 0
  /// inherits the caller's width, or every hardware thread at top level.
  /// Selections are bit-for-bit identical at any setting; only the
  /// runtime changes.
  uint32_t num_threads = 0;
  /// Unread: JoinAlgorithm has one value (see join.h for why the field
  /// has not been deleted yet).
  JoinAlgorithm join_algorithm = JoinAlgorithm::kAuto;
  /// Trace this run: collect counters and histograms as well, fold the
  /// counters into PipelineReport::trace_summary, and write the JSONL
  /// export (see docs/OBSERVABILITY.md). The stage tree is recorded
  /// either way. The HAMLET_TRACE environment variable turns tracing on
  /// as well.
  bool trace = false;
  /// Escape hatch: disable the sufficient statistics and incremental
  /// candidate scoring for this run only, forcing the original scan-based
  /// evaluation (full retrain per candidate model). Selections and errors
  /// are unchanged — the fast path is equivalence-tested — so this exists
  /// for debugging and for measuring the fast path's speedup (see
  /// docs/PERFORMANCE.md).
  bool force_scan_eval = false;
  /// Factorized mode: run feature selection over the normalized (S, R)
  /// view (ml/factorized.h) instead of materializing the joins the plan
  /// keeps — the join the advisor decided *to* perform is answered with
  /// factorized learning rather than a physical table. Selections, model
  /// parameters, and errors are bit-identical to the materialized run
  /// (the `factorized` ctest label enforces it); peak memory drops by
  /// roughly the joined table's size (docs/PERFORMANCE.md). Naive Bayes
  /// trains from factorized statistics, and the tree classifiers
  /// (kDecisionTree, kGradientBoostedTrees) train through the FK hops
  /// (ModelTraits::reads_factorized_view); other classifiers — and NB
  /// force_scan_eval runs — fall back to materialization.
  /// PipelineReport::factorized says which path ran.
  bool avoid_materialization = false;
  /// When non-empty (and the run is traced), append one structured
  /// metrics snapshot line to this JSONL file at the end of the run
  /// (obs/exporter.h). Each line is that run's own collection window
  /// (`seq` 0), so repeated runs accumulate one line each. The
  /// HAMLET_METRICS_JSONL environment variable supplies a path as well;
  /// an explicit config value wins.
  std::string metrics_jsonl_path;
};

/// Everything one pipeline run produces.
struct PipelineReport {
  JoinPlan plan;                 ///< Advisor output (evidence included).
  bool avoidance_applied = false;
  /// True when the run trained over the factorized (S, R) view; the
  /// to-join tables were then never materialized (tables_joined stays 0).
  bool factorized = false;
  uint32_t tables_joined = 0;    ///< Attribute tables materialized.
  uint32_t tables_factorized = 0;  ///< Attribute tables factorized over.
  uint32_t features_in = 0;      ///< Candidate features offered to FS.
  FsRunReport selection;         ///< Chosen subset + errors + timings.

  /// The run's span events, rooted at `pipeline`, traced or not. Every
  /// duration in this report is read off them.
  obs::Trace trace;
  /// Stage-level rollup of `trace` (StageSeconds("pipeline") is the run's
  /// wall clock). Counters are folded in only when the run was traced.
  obs::TraceSummary trace_summary;

  /// A one-paragraph analyst-facing summary.
  std::string Summary() const;

  /// The explain-style stage tree (multi-line).
  std::string ExplainTree() const;
};

/// Runs the pipeline end to end on a normalized dataset.
Result<PipelineReport> RunPipeline(const NormalizedDataset& dataset,
                                   const PipelineConfig& config);

}  // namespace hamlet

#endif  // HAMLET_ANALYTICS_PIPELINE_H_
