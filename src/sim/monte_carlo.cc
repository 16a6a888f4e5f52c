#include "sim/monte_carlo.h"

#include <array>
#include <numeric>

#include "common/parallel_for.h"
#include "common/thread_pool.h"
#include "core/tuple_ratio.h"
#include "ml/naive_bayes.h"
#include "ml/suff_stats.h"
#include "obs/trace.h"

namespace hamlet {

const char* ModelVariantToString(ModelVariant v) {
  switch (v) {
    case ModelVariant::kUseAll:
      return "UseAll";
    case ModelVariant::kNoJoin:
      return "NoJoin";
    case ModelVariant::kNoFK:
      return "NoFK";
  }
  return "unknown";
}

const BiasVarianceResult& MonteCarloResult::ForVariant(
    ModelVariant v) const {
  switch (v) {
    case ModelVariant::kUseAll:
      return use_all;
    case ModelVariant::kNoJoin:
      return no_join;
    case ModelVariant::kNoFK:
      return no_fk;
  }
  return use_all;
}

namespace {

// Element-wise accumulation for averaging decompositions across repeats.
void Accumulate(BiasVarianceResult* acc, const BiasVarianceResult& x) {
  acc->avg_test_error += x.avg_test_error;
  acc->avg_bias += x.avg_bias;
  acc->avg_variance += x.avg_variance;
  acc->avg_net_variance += x.avg_net_variance;
  acc->avg_noise += x.avg_noise;
  acc->num_points += x.num_points;
}

void Scale(BiasVarianceResult* acc, double inv) {
  acc->avg_test_error *= inv;
  acc->avg_bias *= inv;
  acc->avg_variance *= inv;
  acc->avg_net_variance *= inv;
  acc->avg_noise *= inv;
}

}  // namespace

namespace {

obs::Counter& SimModelsTrainedCounter() {
  static obs::Counter& counter =
      obs::MetricsRegistry::Global().GetCounter("sim.models_trained");
  return counter;
}

// One outer repeat: fresh R, fresh test set, |S| training draws.
Status RunOneRepeat(const SimConfig& config,
                    const MonteCarloOptions& options,
                    const ClassifierFactory& make, uint32_t rep,
                    MonteCarloResult* out) {
  // When repeats run on pool workers this span roots at its thread; the
  // explain tree still groups every sim.repeat into one stage.
  obs::TraceSpan span("sim.repeat");
  span.AddAttr("repeat", rep);
  span.AddAttr("training_sets", options.num_training_sets);

  Rng root(options.seed);
  Rng rng = root.Fork(rep);
  SimDataGenerator generator(config, rng);

  // One shared test set per repeat (paper: n_S / 4 examples).
  SimDraw test = generator.Draw(config.TestSize(), rng);
  std::vector<uint32_t> test_rows(test.data.num_rows());
  for (uint32_t i = 0; i < test_rows.size(); ++i) test_rows[i] = i;

  BiasVarianceAccumulator acc_all(test.true_conditionals);
  BiasVarianceAccumulator acc_nojoin(test.true_conditionals);
  BiasVarianceAccumulator acc_nofk(test.true_conditionals);

  const std::vector<uint32_t> f_all = generator.UseAllFeatures();
  const std::vector<uint32_t> f_nojoin = generator.NoJoinFeatures();
  const std::vector<uint32_t> f_nofk = generator.NoFkFeatures();

  // Probe the opaque factory once: the statistics reuse below only pays
  // off for classifiers that can train from counts.
  const bool nb_variants = dynamic_cast<NaiveBayes*>(make().get()) != nullptr;

  // Inner training-set loop, parallelized in blocks. Each block's draws
  // are taken serially in t order (preserving the exact RNG stream of a
  // fully serial run), the 3 variant trainings per draw — the expensive
  // part — run in parallel with one prediction slot per (t, variant), and
  // the accumulators consume the slots serially in t order. Results are
  // therefore bit-for-bit identical at any thread count and any block
  // size. When the outer repeat loop already runs parallel, the nested
  // ParallelFor below degrades to serial (shared pool, no
  // oversubscription).
  const uint32_t num_sets = options.num_training_sets;
  const uint32_t block_size =
      std::max(4 * ThreadPool::Global().ShardsFor(num_sets), 16u);
  std::vector<SimDraw> draws;
  for (uint32_t start = 0; start < num_sets; start += block_size) {
    const uint32_t count = std::min(block_size, num_sets - start);
    draws.clear();
    draws.reserve(count);
    for (uint32_t b = 0; b < count; ++b) {
      draws.push_back(generator.Draw(config.n_s, rng));
    }

    std::vector<std::array<std::vector<uint32_t>, 3>> predictions(count);
    std::vector<Status> statuses(count);
    ParallelFor(count, [&](uint32_t b) {
      const SimDraw& train = draws[b];
      std::vector<uint32_t> train_rows(train.data.num_rows());
      std::iota(train_rows.begin(), train_rows.end(), 0u);

      // With Naive Bayes, one sufficient-statistics pass over the draw
      // serves all three variant trainings (Train derives each model from
      // the counts it is handed — bit-identical to a scan).
      const SuffStats stats =
          nb_variants ? BuildSuffStats(train.data, train_rows) : SuffStats{};

      // The test set shares the feature layout, so models trained on the
      // training draw can predict it directly.
      auto run_variant = [&](const std::vector<uint32_t>& feats,
                             std::vector<uint32_t>* out) -> Status {
        std::unique_ptr<Classifier> model = make();
        HAMLET_RETURN_NOT_OK(model->Train(train.data, train_rows, feats,
                                          nb_variants ? &stats : nullptr));
        SimModelsTrainedCounter().Add(1);
        *out = model->Predict(test.data, test_rows);
        return Status::OK();
      };
      Status st = run_variant(f_all, &predictions[b][0]);
      if (st.ok()) st = run_variant(f_nojoin, &predictions[b][1]);
      if (st.ok()) st = run_variant(f_nofk, &predictions[b][2]);
      statuses[b] = st;
    });
    for (const Status& st : statuses) {
      HAMLET_RETURN_NOT_OK(st);
    }
    for (uint32_t b = 0; b < count; ++b) {
      acc_all.AddModel(predictions[b][0]);
      acc_nojoin.AddModel(predictions[b][1]);
      acc_nofk.AddModel(predictions[b][2]);
    }
  }

  out->use_all = acc_all.Finalize();
  out->no_join = acc_nojoin.Finalize();
  out->no_fk = acc_nofk.Finalize();
  return Status::OK();
}

}  // namespace

Result<MonteCarloResult> RunMonteCarlo(const SimConfig& config,
                                       const MonteCarloOptions& options,
                                       const ClassifierFactory* factory) {
  ClassifierFactory nb = MakeNaiveBayesFactory();
  const ClassifierFactory& make = factory != nullptr ? *factory : nb;

  obs::TraceSpan span("sim.monte_carlo");
  if (span.active()) {
    span.AddAttr("repeats", options.num_repeats);
    span.AddAttr("training_sets", options.num_training_sets);
  }

  // Repeats are independent (each forks its RNG from its index) and write
  // only their own slot, so the parallel reduction below is deterministic
  // at any thread count.
  std::vector<MonteCarloResult> per_repeat(options.num_repeats);
  std::vector<Status> statuses(options.num_repeats);
  ParallelFor(options.num_repeats, [&](uint32_t rep) {
    statuses[rep] =
        RunOneRepeat(config, options, make, rep, &per_repeat[rep]);
  });
  for (const Status& st : statuses) {
    HAMLET_RETURN_NOT_OK(st);
  }

  MonteCarloResult total;
  for (const MonteCarloResult& r : per_repeat) {
    Accumulate(&total.use_all, r.use_all);
    Accumulate(&total.no_join, r.no_join);
    Accumulate(&total.no_fk, r.no_fk);
  }
  const double inv = 1.0 / static_cast<double>(options.num_repeats);
  Scale(&total.use_all, inv);
  Scale(&total.no_join, inv);
  Scale(&total.no_fk, inv);
  return total;
}

double RorForSimConfig(const SimConfig& config, double delta) {
  RorInputs inputs;
  inputs.n_train = config.n_s;
  inputs.fk_domain_size = config.n_r;
  // q*_R: the noise columns are boolean, so with d_r >= 2 the minimum is
  // 2; with a lone signal column it is xr_card (the Figure 5 regime).
  inputs.min_foreign_domain_size =
      config.d_r >= 2 ? 2 : config.xr_card;
  inputs.delta = delta;
  return WorstCaseRor(inputs);
}

double TupleRatioForSimConfig(const SimConfig& config) {
  return TupleRatio(config.n_s, config.n_r);
}

}  // namespace hamlet
