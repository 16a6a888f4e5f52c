#ifndef HAMLET_HAMLET_H_
#define HAMLET_HAMLET_H_

/// \file hamlet.h
/// Umbrella header: the whole public API in one include, organized the
/// way the paper is. Downstream users who want a single entry point can
/// `#include "hamlet.h"`; the individual headers remain the
/// finer-grained option.

// Shared runtime (deterministic parallelism substrate).
#include "common/parallel_for.h"       // Indexed data-parallel loops.
#include "common/thread_pool.h"        // Persistent shared worker pool.

// Observability (tracing, metrics, explain-style run reports).
#include "common/json_writer.h"        // Hand-rolled JSON serializer.
#include "obs/cost_profile.h"          // Persisted operator cost records.
#include "obs/exporter.h"              // JSONL + Prometheus export.
#include "obs/metrics.h"               // Counters + latency histograms.
#include "obs/report.h"                // Explain tree + Chrome JSON.
#include "obs/trace.h"                 // RAII spans + collection switch.

// Relational substrate (Section 2.1's data model).
#include "relational/catalog.h"        // NormalizedDataset (S + R_i).
#include "relational/cold_start.h"     // "Others" key absorption.
#include "relational/csv.h"            // Ingestion/export.
#include "relational/functional_deps.h"  // Corollary C.1 machinery.
#include "relational/join.h"           // KFK joins.
#include "relational/select.h"         // Row selection.
#include "relational/table.h"

// Statistics and data preparation (Sections 2.2, 3.1).
#include "data/encoded_dataset.h"
#include "data/splits.h"               // Holdout + k-fold.
#include "stats/binning.h"
#include "stats/confusion.h"
#include "stats/info_theory.h"
#include "stats/metrics.h"

// Classifiers and feature selection (Sections 2.2, 5).
#include "fs/exhaustive_search.h"
#include "fs/filters.h"
#include "fs/greedy_search.h"
#include "fs/runner.h"
#include "ml/decision_tree.h"          // Histogram CART (high capacity).
#include "ml/eval.h"
#include "ml/factorized.h"             // Train over (S, R) without the join.
#include "ml/gbt.h"                    // Gradient-boosted trees.
#include "ml/logistic_regression.h"
#include "ml/naive_bayes.h"
#include "ml/tan.h"

// Learning theory (Section 3.2).
#include "theory/bias_variance.h"
#include "theory/generalization_bound.h"
#include "theory/multiclass_dimension.h"
#include "theory/vc_dimension.h"

// The paper's contribution (Section 4).
#include "core/advisor.h"
#include "core/calibration.h"
#include "core/decision_rules.h"
#include "core/fk_skew.h"
#include "core/generalized_avoidance.h"
#include "core/ror.h"
#include "core/skew_guard.h"
#include "core/tuple_ratio.h"

// Simulation study (Section 4.1, Appendix D).
#include "sim/data_synthesis.h"
#include "sim/monte_carlo.h"
#include "sim/scenario.h"

// Evaluation corpus and the analyst-facing pipeline (Sections 5, 5.4).
#include "analytics/pipeline.h"
#include "datasets/registry.h"

// Serving (docs/SERVING.md): versioned binary serde, the artifact
// store, and the in-process scoring + join-advice service.
#include "common/crc32.h"
#include "serve/artifact_store.h"
#include "serve/serde.h"
#include "serve/service.h"

#endif  // HAMLET_HAMLET_H_
