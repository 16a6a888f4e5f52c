#include "serve/service.h"

#include <gtest/gtest.h>

#include <filesystem>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "common/rng.h"
#include "data/splits.h"
#include "obs/report.h"
#include "obs/trace.h"

namespace hamlet::serve {
namespace {

EncodedDataset MakeData(uint64_t seed, uint32_t n = 500) {
  Rng rng(seed);
  std::vector<uint32_t> f(n), g(n), y(n);
  for (uint32_t i = 0; i < n; ++i) {
    f[i] = rng.Uniform(2);
    g[i] = rng.Uniform(4);
    y[i] = rng.Bernoulli(0.85) ? f[i] : 1 - f[i];
  }
  return EncodedDataset({f, g}, {{"F", 2}, {"G", 4}}, y, 2);
}

NaiveBayes TrainNb(const EncodedDataset& data) {
  NaiveBayes model(1.0);
  std::vector<uint32_t> rows(data.num_rows());
  for (uint32_t i = 0; i < data.num_rows(); ++i) rows[i] = i;
  EXPECT_TRUE(model.Train(data, rows, {0, 1}).ok());
  return model;
}

std::vector<uint32_t> AllRows(const EncodedDataset& data) {
  std::vector<uint32_t> rows(data.num_rows());
  for (uint32_t i = 0; i < data.num_rows(); ++i) rows[i] = i;
  return rows;
}

class ServiceTest : public ::testing::Test {
 protected:
  void SetUp() override {
    root_ = ::testing::TempDir() + "/hamlet_service_" +
            ::testing::UnitTest::GetInstance()->current_test_info()->name();
    std::filesystem::remove_all(root_);
    store_ = std::make_unique<ArtifactStore>(root_);
  }
  void TearDown() override {
    store_.reset();
    std::filesystem::remove_all(root_);
  }

  std::string root_;
  std::unique_ptr<ArtifactStore> store_;
};

TEST_F(ServiceTest, AdviseMatchesDirectAdvisorCall) {
  AdviseRequest request;
  request.n_train = 100000;
  request.label_entropy_bits = 1.0;
  request.candidates = {
      {"AdID", "Ads", 641707, 2, true},
      {"UserID", "Users", 984893, 4, true},
  };
  Result<JoinPlan> direct = AdviseJoinsFromStats(
      request.n_train, request.label_entropy_bits, request.candidates,
      request.options);
  ASSERT_TRUE(direct.ok()) << direct.status();

  HamletService service(store_.get());
  Result<JoinPlan> served = service.Advise(request);
  ASSERT_TRUE(served.ok()) << served.status();
  EXPECT_EQ(served->fks_avoided, direct->fks_avoided);
  EXPECT_EQ(served->fks_to_join, direct->fks_to_join);
  ASSERT_EQ(served->advice.size(), direct->advice.size());
  for (size_t i = 0; i < served->advice.size(); ++i) {
    EXPECT_EQ(served->advice[i].avoid, direct->advice[i].avoid);
  }
}

TEST_F(ServiceTest, ScoreMatchesSerialPredict) {
  EncodedDataset data = MakeData(1);
  NaiveBayes model = TrainNb(data);
  ASSERT_TRUE(store_->PutNaiveBayes("m", model).ok());
  std::vector<uint32_t> expected = model.Predict(data, AllRows(data));

  HamletService service(store_.get());
  ScoreRequest request;
  request.model = "m";
  request.rows = std::make_shared<EncodedDataset>(MakeData(1));
  Result<ScoreResponse> response = service.Score(std::move(request));
  ASSERT_TRUE(response.ok()) << response.status();
  EXPECT_EQ(response->predictions, expected);
  EXPECT_GE(response->batch_requests, 1u);
}

TEST_F(ServiceTest, ScoreLogisticRegressionModel) {
  EncodedDataset data = MakeData(2);
  LogisticRegressionOptions options;
  options.max_epochs = 5;
  LogisticRegression model(options);
  ASSERT_TRUE(model.Train(data, AllRows(data), {0, 1}).ok());
  ASSERT_TRUE(store_->PutModel("lr", model).ok());
  std::vector<uint32_t> expected = model.Predict(data, AllRows(data));

  HamletService service(store_.get());
  ScoreRequest request;
  request.model = "lr";
  request.rows = std::make_shared<EncodedDataset>(MakeData(2));
  Result<ScoreResponse> response = service.Score(std::move(request));
  ASSERT_TRUE(response.ok()) << response.status();
  EXPECT_EQ(response->predictions, expected);
}

TEST_F(ServiceTest, ScoreDecisionTreeModel) {
  EncodedDataset data = MakeData(11);
  DecisionTree model;
  ASSERT_TRUE(model.Train(data, AllRows(data), {0, 1}).ok());
  ASSERT_TRUE(store_->PutModel("tree", model).ok());
  std::vector<uint32_t> expected = model.Predict(data, AllRows(data));

  HamletService service(store_.get());
  ScoreRequest request;
  request.model = "tree";
  request.rows = std::make_shared<EncodedDataset>(MakeData(11));
  Result<ScoreResponse> response = service.Score(std::move(request));
  ASSERT_TRUE(response.ok()) << response.status();
  EXPECT_EQ(response->predictions, expected);
}

TEST_F(ServiceTest, ScoreGbtModel) {
  EncodedDataset data = MakeData(12);
  GbtOptions options;
  options.num_rounds = 4;
  Gbt model(options);
  ASSERT_TRUE(model.Train(data, AllRows(data), {0, 1}).ok());
  ASSERT_TRUE(store_->PutGbt("gbt", model).ok());
  std::vector<uint32_t> expected = model.Predict(data, AllRows(data));

  HamletService service(store_.get());
  ScoreRequest request;
  request.model = "gbt";
  request.rows = std::make_shared<EncodedDataset>(MakeData(12));
  Result<ScoreResponse> response = service.Score(std::move(request));
  ASSERT_TRUE(response.ok()) << response.status();
  EXPECT_EQ(response->predictions, expected);
  // The artifact kind is read once: a cold resolve is one store read.
  EXPECT_EQ(store_->cache_misses(), 1u);
  EXPECT_EQ(store_->cache_hits(), 0u);

  // A fresh service (cold warm cache) finds the GBT in the store's LRU:
  // no miss at all.
  {
    HamletService fresh(store_.get());
    ScoreRequest again;
    again.model = "gbt";
    again.rows = std::make_shared<EncodedDataset>(MakeData(12));
    Result<ScoreResponse> scored = fresh.Score(std::move(again));
    ASSERT_TRUE(scored.ok()) << scored.status();
    EXPECT_EQ(scored->predictions, expected);
  }
  EXPECT_EQ(store_->cache_misses(), 1u);
  EXPECT_EQ(store_->cache_hits(), 1u);

  // Batched direct scoring resolves the same GBT artifact and agrees.
  auto block = std::make_shared<EncodedDataset>(MakeData(12));
  std::vector<ScoreRequest> batch(3);
  for (ScoreRequest& r : batch) {
    r.model = "gbt";
    r.rows = block;
  }
  Result<std::vector<ScoreResponse>> responses =
      service.ScoreBatchDirect(batch);
  ASSERT_TRUE(responses.ok()) << responses.status();
  for (const ScoreResponse& r : *responses) {
    EXPECT_EQ(r.predictions, expected);
  }
}

TEST_F(ServiceTest, TreeLayoutMismatchRejected) {
  EncodedDataset data = MakeData(13);
  DecisionTree model;
  ASSERT_TRUE(model.Train(data, AllRows(data), {0, 1}).ok());
  ASSERT_TRUE(store_->PutModel("tree", model).ok());
  HamletService service(store_.get());

  // Wrong cardinality on feature 1: walking the tree could chase an
  // out-of-domain code, so the block must be rejected up front.
  Rng rng(13);
  const uint32_t n = 20;
  std::vector<uint32_t> f(n), g(n), y(n);
  for (uint32_t i = 0; i < n; ++i) {
    f[i] = rng.Uniform(2);
    g[i] = rng.Uniform(9);
    y[i] = 0;
  }
  ScoreRequest request;
  request.model = "tree";
  request.rows = std::make_shared<EncodedDataset>(
      EncodedDataset({f, g}, {{"F", 2}, {"G", 9}}, y, 2));
  Result<ScoreResponse> response = service.Score(std::move(request));
  ASSERT_FALSE(response.ok());
  EXPECT_EQ(response.status().code(), StatusCode::kInvalidArgument);
}

// The acceptance bar of ISSUE 4: under >= 8 concurrent clients, every
// Score response is identical to serial scoring — batching and request
// interleaving affect latency only, never results.
TEST_F(ServiceTest, ConcurrentClientsMatchSerialScoring) {
  EncodedDataset data = MakeData(3);
  NaiveBayes model = TrainNb(data);
  ASSERT_TRUE(store_->PutNaiveBayes("m", model).ok());
  std::vector<uint32_t> expected = model.Predict(data, AllRows(data));
  auto block = std::make_shared<EncodedDataset>(MakeData(3));

  // Tight queue + small batches so backpressure AND coalescing both
  // trigger under the concurrent load.
  ServiceOptions options;
  options.queue_capacity = 4;
  options.max_batch = 3;
  HamletService service(store_.get(), options);

  constexpr int kClients = 8;
  constexpr int kRequestsPerClient = 16;
  std::vector<int> mismatches(kClients, 0);
  std::vector<std::thread> clients;
  clients.reserve(kClients);
  for (int c = 0; c < kClients; ++c) {
    clients.emplace_back([&, c] {
      for (int r = 0; r < kRequestsPerClient; ++r) {
        ScoreRequest request;
        request.model = "m";
        request.rows = block;
        Result<ScoreResponse> response = service.Score(std::move(request));
        if (!response.ok() || response->predictions != expected) {
          ++mismatches[c];
        }
      }
    });
  }
  for (std::thread& t : clients) t.join();
  for (int c = 0; c < kClients; ++c) {
    EXPECT_EQ(mismatches[c], 0) << "client " << c;
  }
}

TEST_F(ServiceTest, BatchedAndUnbatchedAgree) {
  EncodedDataset data = MakeData(4);
  NaiveBayes model = TrainNb(data);
  ASSERT_TRUE(store_->PutNaiveBayes("m", model).ok());
  auto block = std::make_shared<EncodedDataset>(MakeData(4));
  std::vector<uint32_t> expected = model.Predict(data, AllRows(data));

  ServiceOptions unbatched;
  unbatched.batch_scoring = false;
  HamletService service_a(store_.get(), ServiceOptions{});
  HamletService service_b(store_.get(), unbatched);
  for (HamletService* service : {&service_a, &service_b}) {
    ScoreRequest request;
    request.model = "m";
    request.rows = block;
    Result<ScoreResponse> response = service->Score(std::move(request));
    ASSERT_TRUE(response.ok()) << response.status();
    EXPECT_EQ(response->predictions, expected);
  }
}

TEST_F(ServiceTest, ScoreBatchDirectGroupsAndAgrees) {
  EncodedDataset data = MakeData(5);
  NaiveBayes model = TrainNb(data);
  ASSERT_TRUE(store_->PutNaiveBayes("m", model).ok());
  auto block = std::make_shared<EncodedDataset>(MakeData(5));
  std::vector<uint32_t> expected = model.Predict(data, AllRows(data));

  HamletService service(store_.get());
  std::vector<ScoreRequest> batch(5);
  for (ScoreRequest& r : batch) {
    r.model = "m";
    r.rows = block;
  }
  Result<std::vector<ScoreResponse>> responses =
      service.ScoreBatchDirect(batch);
  ASSERT_TRUE(responses.ok()) << responses.status();
  ASSERT_EQ(responses->size(), 5u);
  for (const ScoreResponse& response : *responses) {
    EXPECT_EQ(response.predictions, expected);
    EXPECT_EQ(response.batch_requests, 5u);
  }
}

TEST_F(ServiceTest, ScoreErrorsAreTyped) {
  HamletService service(store_.get());
  ScoreRequest missing_rows;
  missing_rows.model = "m";
  EXPECT_EQ(service.Score(std::move(missing_rows)).status().code(),
            StatusCode::kInvalidArgument);

  ScoreRequest missing_model;
  missing_model.model = "absent";
  missing_model.rows = std::make_shared<EncodedDataset>(MakeData(6, 10));
  EXPECT_EQ(service.Score(std::move(missing_model)).status().code(),
            StatusCode::kNotFound);

  // Dataset and fs_report artifacts are not models: typed kind mismatch.
  ASSERT_TRUE(store_->PutDataset("data", MakeData(6, 10)).ok());
  ASSERT_TRUE(store_->PutFsRunReport("report", FsRunReport{}).ok());
  for (const char* name : {"data", "report"}) {
    ScoreRequest not_a_model;
    not_a_model.model = name;
    not_a_model.rows = std::make_shared<EncodedDataset>(MakeData(6, 10));
    Result<ScoreResponse> response = service.Score(std::move(not_a_model));
    ASSERT_FALSE(response.ok()) << name;
    EXPECT_EQ(SerdeErrorOf(response.status()), SerdeError::kKindMismatch)
        << name;
  }
}

TEST_F(ServiceTest, LayoutMismatchRejectedNotCrashed) {
  EncodedDataset data = MakeData(7);
  ASSERT_TRUE(store_->PutNaiveBayes("m", TrainNb(data)).ok());
  HamletService service(store_.get());

  // A block whose feature 1 has the wrong cardinality: scoring it would
  // index the model's likelihood table out of bounds.
  Rng rng(7);
  const uint32_t n = 20;
  std::vector<uint32_t> f(n), g(n), y(n);
  for (uint32_t i = 0; i < n; ++i) {
    f[i] = rng.Uniform(2);
    g[i] = rng.Uniform(9);
    y[i] = 0;
  }
  ScoreRequest request;
  request.model = "m";
  request.rows = std::make_shared<EncodedDataset>(
      EncodedDataset({f, g}, {{"F", 2}, {"G", 9}}, y, 2));
  Result<ScoreResponse> response = service.Score(std::move(request));
  ASSERT_FALSE(response.ok());
  EXPECT_EQ(response.status().code(), StatusCode::kInvalidArgument);
}

TEST_F(ServiceTest, StoppedServiceRejectsNewRequests) {
  HamletService service(store_.get());
  service.Stop();
  AdviseRequest request;
  EXPECT_EQ(service.Advise(request).status().code(),
            StatusCode::kFailedPrecondition);
  EXPECT_EQ(service.queue_depth(), 0u);
}

TEST_F(ServiceTest, SelectFeaturesPersistsTheWinningModel) {
  EncodedDataset data = MakeData(8, 800);
  ASSERT_TRUE(store_->PutDataset("train", data).ok());

  // The request's protocol, replicated directly for the expected result.
  Rng rng(21);
  HoldoutSplit split = MakeHoldoutSplit(data.num_rows(), rng);
  auto selector = MakeSelector(FsMethod::kForwardSelection);
  Result<FsRunReport> direct = RunFeatureSelection(
      *selector, data, split, MakeNaiveBayesFactory(1.0),
      ErrorMetric::kZeroOne, data.AllFeatureIndices());
  ASSERT_TRUE(direct.ok()) << direct.status();

  HamletService service(store_.get());
  SelectFeaturesRequest request;
  request.dataset = "train";
  request.method = FsMethod::kForwardSelection;
  request.seed = 21;
  request.model_name = "winner";
  Result<SelectFeaturesResponse> response =
      service.SelectFeatures(std::move(request));
  ASSERT_TRUE(response.ok()) << response.status();
  EXPECT_EQ(response->report.selection.selected, direct->selection.selected);
  EXPECT_EQ(response->report.holdout_test_error, direct->holdout_test_error);
  EXPECT_EQ(response->model_version, 1u);
  EXPECT_EQ(response->report_version, 1u);

  // The persisted model scores exactly like a fresh train on the same
  // split + selection.
  auto persisted = store_->GetNaiveBayes("winner");
  ASSERT_TRUE(persisted.ok()) << persisted.status();
  NaiveBayes fresh(1.0);
  ASSERT_TRUE(fresh.Train(data, split.train, direct->selection.selected).ok());
  EXPECT_EQ((*persisted)->Predict(data, split.test),
            fresh.Predict(data, split.test));

  auto report = store_->GetFsRunReport("winner.fs_report");
  ASSERT_TRUE(report.ok()) << report.status();
  EXPECT_EQ(report->selection.selected, direct->selection.selected);
}

TEST_F(ServiceTest, ServeMetricsAndSpansAreRecorded) {
  EncodedDataset data = MakeData(9);
  ASSERT_TRUE(store_->PutNaiveBayes("m", TrainNb(data)).ok());
  auto block = std::make_shared<EncodedDataset>(MakeData(9));

  obs::ScopedCollection collection(true);
  HamletService service(store_.get());
  AdviseRequest advise;
  advise.n_train = 1000;
  ASSERT_TRUE(service.Advise(advise).ok());
  for (int i = 0; i < 3; ++i) {
    ScoreRequest request;
    request.model = "m";
    request.rows = block;
    ASSERT_TRUE(service.Score(std::move(request)).ok());
  }
  service.Stop();

  obs::MetricsSnapshot snapshot = obs::MetricsRegistry::Global().Snapshot();
  EXPECT_EQ(snapshot.CounterValue("serve.requests"), 4u);
  EXPECT_EQ(snapshot.CounterValue("serve.advise_requests"), 1u);
  EXPECT_EQ(snapshot.CounterValue("serve.score_requests"), 3u);
  EXPECT_EQ(snapshot.CounterValue("serve.score_rows"),
            3u * data.num_rows());
  EXPECT_GE(snapshot.CounterValue("serve.score_batches"), 1u);
  bool saw_score_latency = false;
  for (const obs::HistogramSnapshot& h : snapshot.histograms) {
    if (h.name == "serve.score_ns") {
      saw_score_latency = h.count == 3;
    }
  }
  EXPECT_TRUE(saw_score_latency);

  // The spans land in the trace, so serve stages show up in the explain
  // tree next to the pipeline stages.
  obs::Trace trace = obs::Tracer::Global().Collect();
  bool saw_advise = false, saw_score = false;
  for (const obs::TraceEvent& event : trace.events) {
    saw_advise |= event.name == "serve.advise";
    saw_score |= event.name == "serve.score";
  }
  EXPECT_TRUE(saw_advise);
  EXPECT_TRUE(saw_score);
  EXPECT_NE(obs::RenderExplainTree(trace).find("serve.score"),
            std::string::npos);
}

TEST_F(ServiceTest, DestructorDrainsCleanly) {
  EncodedDataset data = MakeData(10);
  ASSERT_TRUE(store_->PutNaiveBayes("m", TrainNb(data)).ok());
  auto block = std::make_shared<EncodedDataset>(MakeData(10));
  {
    HamletService service(store_.get());
    ScoreRequest request;
    request.model = "m";
    request.rows = block;
    ASSERT_TRUE(service.Score(std::move(request)).ok());
  }  // Destructor stops + joins; nothing to assert beyond "no hang".
}

}  // namespace
}  // namespace hamlet::serve
