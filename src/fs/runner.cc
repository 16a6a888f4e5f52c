#include "fs/runner.h"

#include "common/thread_pool.h"
#include "fs/candidate_eval.h"
#include "fs/filters.h"
#include "fs/greedy_search.h"
#include "obs/report.h"

namespace hamlet {

const char* FsMethodToString(FsMethod method) {
  switch (method) {
    case FsMethod::kForwardSelection:
      return "Forward Selection";
    case FsMethod::kBackwardSelection:
      return "Backward Selection";
    case FsMethod::kMiFilter:
      return "MI Filter";
    case FsMethod::kIgrFilter:
      return "IGR Filter";
  }
  return "unknown";
}

std::unique_ptr<FeatureSelector> MakeSelector(FsMethod method,
                                              uint32_t num_threads,
                                              bool force_scan_eval) {
  std::unique_ptr<FeatureSelector> selector;
  switch (method) {
    case FsMethod::kForwardSelection:
      selector = std::make_unique<ForwardSelection>();
      break;
    case FsMethod::kBackwardSelection:
      selector = std::make_unique<BackwardSelection>();
      break;
    case FsMethod::kMiFilter:
      selector =
          std::make_unique<ScoreFilter>(FilterScore::kMutualInformation);
      break;
    case FsMethod::kIgrFilter:
      selector =
          std::make_unique<ScoreFilter>(FilterScore::kInformationGainRatio);
      break;
  }
  if (selector != nullptr) {
    selector->set_num_threads(num_threads);
    selector->set_force_scan_eval(force_scan_eval);
  }
  return selector;
}

std::vector<FsMethod> AllFsMethods() {
  return {FsMethod::kForwardSelection, FsMethod::kBackwardSelection,
          FsMethod::kMiFilter, FsMethod::kIgrFilter};
}

Result<FsRunReport> RunFeatureSelection(
    FeatureSelector& selector, const DataView& view,
    const HoldoutSplit& split, const ClassifierFactory& factory,
    ErrorMetric metric, const std::vector<uint32_t>& candidates) {
  FsRunReport report;
  report.method = selector.name();
  const ScopedWidth width = selector.OpenWidth();

  // The run's own span tree is its stopwatch: nested under `pipeline`
  // when RunPipeline calls, its own root otherwise.
  obs::RunTrace run("fs.run");
  // The backend the search and the final fit both score through; a
  // combination no backend serves fails inside the search.
  const Result<ScoringBackend> backend =
      ChooseScoringBackend(*factory(), view.factorized() != nullptr,
                           selector.force_scan_eval());
  const std::string backend_name =
      backend.ok() ? ScoringBackendName(*backend) : "none";
  // The statistics of split.train, built once for the whole run (under
  // `fs.run`, as `fs.stats_build`) when the scorer reads them.
  const std::shared_ptr<const SuffStats> stats =
      StatsForScorer(view, split.train, factory, selector.force_scan_eval());
  {
    obs::TraceSpan span("fs.search");
    span.AddAttr("method", selector.name());
    span.AddAttr("backend", backend_name);
    span.AddAttr("candidates", static_cast<uint64_t>(candidates.size()));
    HAMLET_ASSIGN_OR_RETURN(
        report.selection,
        selector.Search(view, split, factory, metric, candidates, stats));
    span.AddAttr("models_trained", report.selection.models_trained);
    span.AddAttr("selected",
                 static_cast<uint64_t>(report.selection.selected.size()));
  }

  report.selected_names = view.FeatureNames(report.selection.selected);
  {
    obs::TraceSpan span("fs.final_fit");
    span.AddAttr("backend", backend_name);
    span.AddAttr("features",
                 static_cast<uint64_t>(report.selection.selected.size()));
    // The final model trains on split.train and is scored on split.test
    // through the backend the search used, with the full training budget:
    // Naive Bayes from the run's statistics, anything else by a full
    // retrain — through the FK hops on the factorized view, which never
    // materializes the join. Every backend gives the same doubles.
    const std::vector<uint32_t>& selected = report.selection.selected;
    HAMLET_ASSIGN_OR_RETURN(
        std::unique_ptr<CandidateScorer> fit,
        MakeCandidateScorer(view, split.train, split.test, factory, metric,
                            selected, stats, selector.force_scan_eval()));
    HAMLET_ASSIGN_OR_RETURN(report.holdout_test_error,
                            fit->ScoreBase(selected));
  }
  const obs::TraceSummary stages = obs::SummarizeTrace(run.Finish());
  report.runtime_seconds = stages.StageSeconds("fs.search");
  report.fit_seconds = stages.StageSeconds("fs.final_fit");
  report.total_seconds = stages.StageSeconds("fs.run");
  return report;
}

Result<FsRunReport> RunFeatureSelectionFactorized(
    FeatureSelector& selector, const FactorizedDataset& data,
    const HoldoutSplit& split, const ClassifierFactory& factory,
    ErrorMetric metric, const std::vector<uint32_t>& candidates) {
  return RunFeatureSelection(selector, data, split, factory, metric,
                             candidates);
}

}  // namespace hamlet
