#include "fs/runner.h"

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

namespace {

// The one search + final-fit body behind both public runners.
Result<FsRunReport> RunSearchAndFit(FeatureSelector& selector,
                                    const DataView& view,
                                    const HoldoutSplit& split,
                                    const ClassifierFactory& factory,
                                    ErrorMetric metric,
                                    const std::vector<uint32_t>& candidates) {
  FsRunReport report;
  report.method = selector.name();

  // The run's own span tree is its stopwatch: nested under `pipeline`
  // when RunPipeline calls, its own root otherwise.
  obs::RunTrace run("fs.run");
  {
    obs::TraceSpan span("fs.search");
    span.AddAttr("method", selector.name());
    span.AddAttr("candidates", static_cast<uint64_t>(candidates.size()));
    HAMLET_ASSIGN_OR_RETURN(
        report.selection,
        selector.Search(view, split, factory, metric, candidates));
    span.AddAttr("models_trained", report.selection.models_trained);
    span.AddAttr("selected",
                 static_cast<uint64_t>(report.selection.selected.size()));
  }

  report.selected_names = view.FeatureNames(report.selection.selected);
  {
    obs::TraceSpan span("fs.final_fit");
    span.AddAttr("features",
                 static_cast<uint64_t>(report.selection.selected.size()));
    // The final model trains on split.train and is scored on split.test
    // through the backend the search used, outside the search's refit
    // budget: Naive Bayes from the (cached) statistics, anything else by
    // a full retrain — through the FK hops on the factorized view, which
    // never materializes the join. Every backend gives the same doubles.
    const std::vector<uint32_t>& selected = report.selection.selected;
    HAMLET_ASSIGN_OR_RETURN(
        std::unique_ptr<CandidateScorer> fit,
        MakeCandidateScorer(view, split.train, split.test, factory, metric,
                            selected, selector.force_scan_eval(),
                            selector.num_threads()));
    HAMLET_ASSIGN_OR_RETURN(report.holdout_test_error,
                            fit->ScoreBase(selected));
  }
  const obs::TraceSummary stages = obs::SummarizeTrace(run.Finish());
  report.runtime_seconds = stages.StageSeconds("fs.search");
  report.fit_seconds = stages.StageSeconds("fs.final_fit");
  report.total_seconds = stages.StageSeconds("fs.run");
  return report;
}

}  // namespace

Result<FsRunReport> RunFeatureSelection(
    FeatureSelector& selector, const EncodedDataset& data,
    const HoldoutSplit& split, const ClassifierFactory& factory,
    ErrorMetric metric, const std::vector<uint32_t>& candidates) {
  return RunSearchAndFit(selector, DataView(data), split, factory, metric,
                         candidates);
}

Result<FsRunReport> RunFeatureSelectionFactorized(
    FeatureSelector& selector, const FactorizedDataset& data,
    const HoldoutSplit& split, const ClassifierFactory& factory,
    ErrorMetric metric, const std::vector<uint32_t>& candidates) {
  return RunSearchAndFit(selector, DataView(data), split, factory, metric,
                         candidates);
}

}  // namespace hamlet
