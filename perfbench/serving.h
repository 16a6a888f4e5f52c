#ifndef HAMLET_PERFBENCH_SERVING_H_
#define HAMLET_PERFBENCH_SERVING_H_

/// \file serving.h
/// The serving half of the benchmark: models trained on the data given
/// to Make are published with a version history into a fresh artifact
/// store, a HamletService with default options serves kLatest Score
/// requests from nproc-1 client threads, and one publisher thread
/// republishes a model every 50 ms (alternating two trained variants per
/// model, so a hot swap changes what kLatest resolves to). Phase 1 is an
/// unthrottled closed loop (throughput); phase 2 is paced at a fixed
/// request rate and times every request from its scheduled send time.

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "common/result.h"
#include "data/encoded_dataset.h"
#include "serve/artifact_store.h"
#include "serve/service.h"

namespace perfbench {

class Checker;

/// What the two phases measured.
struct ServeResult {
  // Phase 1 (closed loop).
  double rows_per_s = 0;  ///< Upper quartile over 0.25 s windows.
  double rows_per_cpu_s = 0;  ///< Rows per process CPU second.
  double mean_batch = 0;
  double pool_regions_per_request = 0;
  // Phase 2 (paced).
  /// Process CPU microseconds per served request (every thread: clients,
  /// service, publisher), median over 0.5 s windows.
  double cpu_us_per_request = 0;
  std::vector<double> latency_us;  ///< From scheduled send, OK requests.
  /// Lower quartile over 0.5 s windows of scheduled send times of each
  /// window's p99.
  double p99_us = 0;
  std::vector<double> late_us;     ///< Send time minus scheduled time.
  /// latency_us split by model kind: [0] Naive Bayes, [1] GBT.
  std::vector<double> latency_us_by_kind[2];
  std::vector<double> publish_ms;  ///< Put* latency of each publish.
  // Both phases.
  uint64_t offered = 0;
  uint64_t served = 0;      ///< OK responses.
  uint64_t mismatched = 0;  ///< OK responses with wrong predictions.
  uint64_t rejected = 0;    ///< kOverloaded / kDeadlineExceeded.
  uint64_t failed = 0;      ///< Any other error status.
  uint64_t publishes = 0;
  uint64_t publish_failures = 0;
  double cache_hit_ratio = 0;
};

class ServeBench {
 public:
  /// Trains every model variant on `data` and pre-builds the score blocks
  /// of `clients` client threads with their expected (serial Predict)
  /// outputs. Input preparation — not timed.
  static hamlet::Result<std::unique_ptr<ServeBench>> Make(
      const hamlet::EncodedDataset& data, uint32_t clients, uint64_t seed);

  ~ServeBench();
  ServeBench(const ServeBench&) = delete;
  ServeBench& operator=(const ServeBench&) = delete;

  /// Populates a fresh store at `root` (every model, its version history
  /// alternating its two variants), starts the service and scores every
  /// model until every shard's warm cache holds its models. Any previous
  /// service and store are torn down first.
  hamlet::Status Setup(const std::string& root);

  /// Runs phase 1 for `closed_s` then phase 2 for `paced_s`, with the
  /// publisher active throughout.
  hamlet::Result<ServeResult> Run(double closed_s, double paced_s);

  /// After Run: a kLatest Score of every model must equal a serial
  /// Predict by the variant published last.
  void CheckFinalState(Checker* checker);

  /// Median ScoreBatchDirect time of one block, per model kind.
  double DirectPassUs(bool gbt, int reps);
  /// Median Get* time after ClearCache (serde load + CRC), per kind.
  double ColdGetMs(bool gbt, int reps);
  /// Median Put* time during the last Setup (no load running).
  double setup_put_ms() const { return setup_put_ms_; }

  /// Stops the service and deletes the store directory.
  void Teardown();

 private:
  struct Model;
  ServeBench() = default;

  hamlet::Result<uint32_t> Publish(Model& model, int variant);
  bool Matches(const Model& model, size_t block,
               const std::vector<uint32_t>& predictions) const;

  uint32_t clients_ = 1;
  std::vector<std::unique_ptr<Model>> models_;
  /// Score blocks; blocks_[i] is shared by every client.
  std::vector<std::shared_ptr<const hamlet::EncodedDataset>> blocks_;
  std::string root_;
  std::unique_ptr<hamlet::serve::ArtifactStore> store_;
  std::unique_ptr<hamlet::serve::HamletService> service_;
  double setup_put_ms_ = 0;
};

}  // namespace perfbench

#endif  // HAMLET_PERFBENCH_SERVING_H_
