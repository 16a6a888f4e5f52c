#include "fs/runner.h"

#include "common/timer.h"
#include "fs/filters.h"
#include "fs/greedy_search.h"
#include "ml/eval.h"
#include "ml/factorized.h"
#include "ml/naive_bayes.h"
#include "obs/trace.h"
#include "stats/metrics.h"

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
    FeatureSelector& selector, const EncodedDataset& data,
    const HoldoutSplit& split, const ClassifierFactory& factory,
    ErrorMetric metric, const std::vector<uint32_t>& candidates) {
  FsRunReport report;
  report.method = selector.name();

  Timer total_timer;
  {
    obs::TraceSpan span("fs.search");
    span.AddAttr("method", selector.name());
    span.AddAttr("candidates", static_cast<uint64_t>(candidates.size()));
    Timer timer;
    HAMLET_ASSIGN_OR_RETURN(
        report.selection,
        selector.Select(data, split, factory, metric, candidates));
    report.runtime_seconds = timer.ElapsedSeconds();
    span.AddAttr("models_trained", report.selection.models_trained);
    span.AddAttr("selected",
                 static_cast<uint64_t>(report.selection.selected.size()));
  }

  report.selected_names = data.FeatureNames(report.selection.selected);
  {
    obs::TraceSpan span("fs.final_fit");
    span.AddAttr("features",
                 static_cast<uint64_t>(report.selection.selected.size()));
    Timer timer;
    HAMLET_ASSIGN_OR_RETURN(
        report.holdout_test_error,
        TrainAndScore(factory, data, split.train, split.test,
                      report.selection.selected, metric));
    report.fit_seconds = timer.ElapsedSeconds();
  }
  report.total_seconds = total_timer.ElapsedSeconds();
  return report;
}

Result<FsRunReport> RunFeatureSelectionFactorized(
    FeatureSelector& selector, const FactorizedDataset& data,
    const HoldoutSplit& split, const ClassifierFactory& factory,
    ErrorMetric metric, const std::vector<uint32_t>& candidates) {
  FsRunReport report;
  report.method = selector.name();

  Timer total_timer;
  {
    obs::TraceSpan span("fs.search");
    span.AddAttr("method", selector.name());
    span.AddAttr("candidates", static_cast<uint64_t>(candidates.size()));
    Timer timer;
    HAMLET_ASSIGN_OR_RETURN(
        report.selection,
        selector.SelectFactorized(data, split, factory, metric, candidates));
    report.runtime_seconds = timer.ElapsedSeconds();
    span.AddAttr("models_trained", report.selection.models_trained);
    span.AddAttr("selected",
                 static_cast<uint64_t>(report.selection.selected.size()));
  }

  report.selected_names = data.FeatureNames(report.selection.selected);
  {
    obs::TraceSpan span("fs.final_fit");
    span.AddAttr("features",
                 static_cast<uint64_t>(report.selection.selected.size()));
    Timer timer;
    // The final fit never materializes the join. With a Naive Bayes
    // factory it trains straight from the factorized statistics (a cache
    // hit after the search) and scores the test split through an
    // evaluator whose codes come via the FK hops — the exact doubles the
    // materialized TrainAndScore would produce: TrainFromStats is how NB
    // trains from counts, and EvalSubset sums the subset in selection
    // order, the prediction path's order. Factorized-trainable
    // classifiers (trees, GBT) instead run their own full-budget
    // TrainFactorized/PredictFactorized, which they guarantee
    // bit-identical to the materialized twin.
    std::unique_ptr<Classifier> probe = factory();
    if (auto* nb = dynamic_cast<NaiveBayes*>(probe.get())) {
      std::shared_ptr<const SuffStats> stats = GetOrBuildFactorizedSuffStats(
          data, split.train, selector.num_threads());
      if (stats == nullptr) {
        return Status::FailedPrecondition(
            "factorized final fit requires an active sufficient-statistics "
            "cache (ScopedSuffStatsBypass is incompatible with factorized "
            "runs)");
      }
      HAMLET_RETURN_NOT_OK(
          nb->TrainFromStats(*stats, report.selection.selected));
      std::unique_ptr<NbSubsetEvaluator> holdout = MakeFactorizedNbEvaluator(
          data, stats, split.test, metric, nb->alpha(),
          report.selection.selected, selector.num_threads());
      report.holdout_test_error =
          holdout->EvalSubset(report.selection.selected);
    } else if (auto* factorized =
                   dynamic_cast<FactorizedTrainable*>(probe.get())) {
      HAMLET_RETURN_NOT_OK(factorized->TrainFactorized(
          data, split.train, report.selection.selected));
      std::vector<uint32_t> predicted;
      HAMLET_RETURN_NOT_OK(
          factorized->PredictFactorized(data, split.test, &predicted));
      std::vector<uint32_t> test_labels;
      test_labels.reserve(split.test.size());
      for (uint32_t r : split.test) test_labels.push_back(data.labels()[r]);
      report.holdout_test_error = ComputeError(metric, test_labels, predicted);
    } else {
      return Status::InvalidArgument(
          "factorized runs require a Naive Bayes or factorized-trainable "
          "(decision_tree/gbt) factory");
    }
    report.fit_seconds = timer.ElapsedSeconds();
  }
  report.total_seconds = total_timer.ElapsedSeconds();
  return report;
}

}  // namespace hamlet
