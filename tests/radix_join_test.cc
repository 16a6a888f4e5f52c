/// Unit lockdown for the radix join path's building blocks: the blocked
/// Bloom filter (common/bloom.h), the deterministic radix partitioner
/// (common/radix_partition.h), and the algorithm/filter resolution plus
/// telemetry of relational/radix_join.h (and of KfkJoin's single path).
/// End-to-end bit-identity against the CSR join on bundled datasets
/// lives in ingest_join_determinism_test.cc; this file pins the pieces.
///
/// Suite names contain "Determinism" where the contract is layout
/// stability across thread counts, so scripts/check_determinism.sh's
/// TSAN run picks those up via its name filter as well as the `joins`
/// ctest label.

#include <gtest/gtest.h>

#include <string>
#include <unordered_set>
#include <vector>

#include "common/bloom.h"
#include "common/radix_partition.h"
#include "obs/cost_profile.h"
#include "obs/metrics.h"
#include "obs/trace.h"
#include "relational/domain.h"
#include "relational/join.h"
#include "relational/radix_join.h"
#include "relational/table.h"

namespace hamlet {
namespace {

uint64_t SplitMix64(uint64_t x) {
  x += 0x9e3779b97f4a7c15ull;
  x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ull;
  x = (x ^ (x >> 27)) * 0x94d049bb133111ebull;
  return x ^ (x >> 31);
}

// ---------------------------------------------------------------------------
// Blocked Bloom filter.

TEST(BloomFilterTest, NoFalseNegatives) {
  std::vector<uint32_t> codes;
  for (uint32_t i = 0; i < 5000; ++i) {
    codes.push_back(static_cast<uint32_t>(SplitMix64(i)) % 100000u);
  }
  const BlockedBloomFilter filter = BlockedBloomFilter::FromCodes(codes);
  for (uint32_t c : codes) {
    EXPECT_TRUE(filter.MayContain(c)) << c;
  }
}

TEST(BloomFilterTest, FalsePositiveRateIsSmall) {
  std::vector<uint32_t> codes;
  std::unordered_set<uint32_t> inserted;
  for (uint32_t i = 0; i < 10000; ++i) {
    const uint32_t c = static_cast<uint32_t>(SplitMix64(i));
    codes.push_back(c);
    inserted.insert(c);
  }
  const BlockedBloomFilter filter = BlockedBloomFilter::FromCodes(codes);
  uint32_t false_positives = 0, absent = 0;
  for (uint32_t i = 0; i < 20000; ++i) {
    const uint32_t c = static_cast<uint32_t>(SplitMix64(1u << 24 | i));
    if (inserted.count(c) != 0) continue;
    ++absent;
    if (filter.MayContain(c)) ++false_positives;
  }
  ASSERT_GT(absent, 0u);
  // kBitsPerKey = 10 with 3 blocked probes lands ~2-4%; 10% is the
  // "filter still pays for itself" ceiling.
  EXPECT_LT(static_cast<double>(false_positives) / absent, 0.10);
}

TEST(BloomFilterTest, EmptyFilterRejectsEverything) {
  const BlockedBloomFilter empty;
  EXPECT_TRUE(empty.empty());
  EXPECT_FALSE(empty.MayContain(0));
  EXPECT_FALSE(empty.MayContain(12345));

  const BlockedBloomFilter from_none =
      BlockedBloomFilter::FromCodes(std::vector<uint32_t>{});
  EXPECT_FALSE(from_none.MayContain(7));
}

TEST(BloomFilterDeterminismTest, ParallelBuildBitsAreIdentical) {
  std::vector<uint32_t> codes;
  for (uint32_t i = 0; i < 40000; ++i) {
    codes.push_back(static_cast<uint32_t>(SplitMix64(i)) % 65536u);
  }
  const BlockedBloomFilter serial = BlockedBloomFilter::FromCodes(codes, 1);
  for (uint32_t num_threads : {2u, 8u, 0u}) {
    const BlockedBloomFilter par =
        BlockedBloomFilter::FromCodes(codes, num_threads);
    EXPECT_EQ(par.words(), serial.words())
        << "threads=" << num_threads;
  }
}

// ---------------------------------------------------------------------------
// Radix partitioner.

TEST(RadixPartitionTest, LayoutGroupsByHighBitsInAscendingRowOrder) {
  // shift=8 over 10-bit codes -> 4 partitions.
  std::vector<uint32_t> codes(20000);
  for (uint32_t i = 0; i < codes.size(); ++i) {
    codes[i] = static_cast<uint32_t>(SplitMix64(i)) & 1023u;
  }
  const RadixPartitions parts = PartitionByCode(codes, 8, 4, 1);
  ASSERT_EQ(parts.offsets.size(), 5u);
  EXPECT_EQ(parts.offsets.front(), 0u);
  EXPECT_EQ(parts.offsets.back(), codes.size());
  EXPECT_EQ(parts.entries.size(), codes.size());
  for (uint32_t p = 0; p < 4; ++p) {
    uint32_t prev_row = 0;
    for (uint32_t i = parts.offsets[p]; i < parts.offsets[p + 1]; ++i) {
      const uint64_t entry = parts.entries[i];
      const uint32_t row = RadixEntryRow(entry);
      const uint32_t code = RadixEntryCode(entry);
      EXPECT_EQ(code, codes[row]);
      EXPECT_EQ(code >> 8, p);
      if (i != parts.offsets[p]) {
        EXPECT_GT(row, prev_row);
      }
      prev_row = row;
    }
  }
}

TEST(RadixPartitionTest, SkipCodeRowsAppearInNoPartition) {
  std::vector<uint32_t> codes(1000);
  uint32_t kept = 0;
  for (uint32_t i = 0; i < codes.size(); ++i) {
    if (i % 3 == 0) {
      codes[i] = kRadixSkipCode;
    } else {
      codes[i] = i & 255u;
      ++kept;
    }
  }
  const RadixPartitions parts = PartitionByCode(codes, 4, 16, 1);
  EXPECT_EQ(parts.entries.size(), kept);
  for (const uint64_t entry : parts.entries) {
    EXPECT_NE(RadixEntryRow(entry) % 3, 0u);
  }
}

TEST(RadixPartitionDeterminismTest, ShardCountNeverChangesTheLayout) {
  std::vector<uint32_t> codes(100000);
  for (uint32_t i = 0; i < codes.size(); ++i) {
    const uint64_t h = SplitMix64(i);
    codes[i] = (h % 37 == 0) ? kRadixSkipCode
                             : static_cast<uint32_t>(h) & 4095u;
  }
  const RadixPartitions serial = PartitionByCode(codes, 8, 16, 1);
  for (uint32_t num_threads : {2u, 3u, 8u, 0u}) {
    const RadixPartitions par = PartitionByCode(codes, 8, 16, num_threads);
    EXPECT_EQ(par.offsets, serial.offsets) << "threads=" << num_threads;
    EXPECT_TRUE(par.entries == serial.entries)
        << "threads=" << num_threads;
  }
}

TEST(RadixPartitionDeterminismTest, MaskedVariantMatchesSkipCodeRewrite) {
  // The keep-bitmap path must produce the exact layout of rewriting
  // dropped rows to kRadixSkipCode — at any shard count, including
  // shard boundaries that split bitmap words.
  constexpr uint32_t kN = 70000;  // Not a multiple of 64.
  std::vector<uint32_t> codes(kN), rewritten(kN);
  std::vector<uint64_t> keep((kN + 63) / 64, 0);
  for (uint32_t i = 0; i < kN; ++i) {
    codes[i] = static_cast<uint32_t>(SplitMix64(i)) & 2047u;
    const bool kept = SplitMix64(i ^ 0xabcdef) % 10 == 0;  // ~10% survive.
    rewritten[i] = kept ? codes[i] : kRadixSkipCode;
    if (kept) keep[i >> 6] |= uint64_t{1} << (i & 63);
  }
  const RadixPartitions expected = PartitionByCode(rewritten, 7, 16, 1);
  for (uint32_t num_threads : {1u, 2u, 8u}) {
    const RadixPartitions masked =
        PartitionByCodeMasked(codes, keep, 7, 16, num_threads);
    EXPECT_EQ(masked.offsets, expected.offsets)
        << "threads=" << num_threads;
    EXPECT_TRUE(masked.entries == expected.entries)
        << "threads=" << num_threads;
  }
}

TEST(RadixPartitionTest, MakeRadixLayoutCoversTheDomain) {
  // Explicit bits: fanout honoured, clamped to the code range.
  const RadixLayout four_bits = MakeRadixLayout(1u << 10, 4);
  EXPECT_EQ(four_bits.shift, 6u);
  EXPECT_EQ(four_bits.num_partitions, 16u);
  EXPECT_EQ(four_bits.sub_count, 64u);

  const RadixLayout over = MakeRadixLayout(8, 30);  // More bits than codes.
  EXPECT_EQ(over.shift, 0u);
  EXPECT_EQ(over.num_partitions, 8u);

  // Auto: small domains stay monolithic, large ones cap the fanout.
  const RadixLayout small = MakeRadixLayout(1000, 0);
  EXPECT_EQ(small.num_partitions, 1u);
  const RadixLayout large = MakeRadixLayout(1u << 24, 0);
  EXPECT_LE(large.num_partitions, 32u);
  EXPECT_GT(large.num_partitions, 1u);

  // Every domain code must map to a valid partition.
  for (uint32_t domain : {1u, 2u, 1000u, 4097u, 1u << 20}) {
    for (uint32_t bits : {0u, 3u, 8u}) {
      const RadixLayout lay = MakeRadixLayout(domain, bits);
      EXPECT_LT((domain - 1) >> lay.shift, lay.num_partitions)
          << "domain=" << domain << " bits=" << bits;
    }
  }
}

// ---------------------------------------------------------------------------
// Join algorithm / Bloom resolution.

TEST(ResolveJoinAlgorithmTest, ExplicitChoicePassesThrough) {
  obs::CostProfileStore::Global().Clear();
  JoinOptions options;
  options.algorithm = JoinAlgorithm::kCsr;
  EXPECT_EQ(ResolveJoinAlgorithm(options, 1u << 20, 1u << 20, 1u << 20),
            JoinAlgorithm::kCsr);
  options.algorithm = JoinAlgorithm::kRadix;
  EXPECT_EQ(ResolveJoinAlgorithm(options, 8, 8, 8), JoinAlgorithm::kRadix);
}

TEST(ResolveJoinAlgorithmTest, FallbackHeuristicUsesSizeThresholds) {
  obs::CostProfileStore::Global().Clear();
  obs::CostProfileStore::Global().ClearCalibration();
  JoinOptions options;  // kAuto.
  // Small on either axis: CSR.
  EXPECT_EQ(ResolveJoinAlgorithm(options, 100, 100, 100), JoinAlgorithm::kCsr);
  EXPECT_EQ(ResolveJoinAlgorithm(options, 1u << 20, 1u << 20,
                                 kRadixAutoMinDistinctKeys - 1),
            JoinAlgorithm::kCsr);
  EXPECT_EQ(ResolveJoinAlgorithm(options, kRadixAutoMinProbeRows - 1,
                                 1u << 20, 1u << 20),
            JoinAlgorithm::kCsr);
  // Large on both: radix.
  EXPECT_EQ(ResolveJoinAlgorithm(options, kRadixAutoMinProbeRows, 1u << 20,
                                 kRadixAutoMinDistinctKeys),
            JoinAlgorithm::kRadix);
}

TEST(ResolveJoinAlgorithmTest, MeasuredCostProfileOverridesHeuristic) {
  // Feed the store measured records where CSR is the cheaper operator at
  // a build size the heuristic would hand to radix — the measurement
  // must win. Then flip the costs and watch the choice flip.
  auto& store = obs::CostProfileStore::Global();
  store.Clear();
  store.ClearCalibration();

  obs::OperatorFeatures csr_features;
  csr_features.op = kHashJoinOp;
  csr_features.rows_in = 1u << 20;
  csr_features.build_rows = 1u << 20;
  csr_features.num_threads = 1;
  obs::OperatorFeatures radix_features = csr_features;
  radix_features.op = kRadixJoinOp;

  obs::CostObservation cheap, expensive;
  cheap.total_ns = 10'000'000;      // 10ns per probe row.
  expensive.total_ns = 30'000'000;  // 30ns per probe row.

  store.Record(csr_features, cheap);
  store.Record(radix_features, expensive);
  JoinOptions options;  // kAuto.
  options.num_threads = 1;
  EXPECT_EQ(ResolveJoinAlgorithm(options, 1u << 20, 1u << 20, 1u << 20),
            JoinAlgorithm::kCsr);

  store.Clear();
  store.Record(csr_features, expensive);
  store.Record(radix_features, cheap);
  EXPECT_EQ(ResolveJoinAlgorithm(options, 1u << 20, 1u << 20, 1u << 20),
            JoinAlgorithm::kRadix);
  store.Clear();
}

TEST(ResolveJoinAlgorithmTest, RanksOnlyRecordsAtTheJoinsThreadCount) {
  // A CSR record taken at 8 threads is cheap per probe row because the
  // probe ran on 8 cores; it says nothing about a serial join. Pooled
  // with the serial CSR record it would average 25ns and beat the 30ns
  // serial radix record. Matched at 1 thread, radix (30ns) beats CSR
  // (40ns).
  auto& store = obs::CostProfileStore::Global();
  store.Clear();
  store.ClearCalibration();

  obs::OperatorFeatures csr_parallel;
  csr_parallel.op = kHashJoinOp;
  csr_parallel.rows_in = 1u << 20;
  csr_parallel.build_rows = 1u << 20;
  csr_parallel.num_threads = 8;
  obs::OperatorFeatures csr_serial = csr_parallel;
  csr_serial.num_threads = 1;
  obs::OperatorFeatures radix_serial = csr_serial;
  radix_serial.op = kRadixJoinOp;

  obs::CostObservation cost;
  cost.total_ns = 10'000'000;  // 10ns per probe row.
  store.Record(csr_parallel, cost);
  cost.total_ns = 40'000'000;  // 40ns per probe row.
  store.Record(csr_serial, cost);
  cost.total_ns = 30'000'000;  // 30ns per probe row.
  store.Record(radix_serial, cost);

  JoinOptions options;  // kAuto.
  options.num_threads = 1;
  EXPECT_EQ(ResolveJoinAlgorithm(options, 1u << 20, 1u << 20, 1u << 20),
            JoinAlgorithm::kRadix);
  // At 8 threads radix has no record (its serial one does not count),
  // so the size heuristic decides.
  options.num_threads = 8;
  EXPECT_EQ(ResolveJoinAlgorithm(options, 1u << 20, 1u << 20, 1u << 20),
            JoinAlgorithm::kRadix);
  store.Clear();
}

TEST(ResolveBloomFilterTest, ModesAndCoverageHeuristic) {
  EXPECT_TRUE(ResolveBloomFilter(BloomFilterMode::kOn, 1u << 20, 16));
  EXPECT_FALSE(ResolveBloomFilter(BloomFilterMode::kOff, 16, 1u << 20));
  // kAuto: on exactly when the build side cannot cover its key domain.
  EXPECT_TRUE(ResolveBloomFilter(BloomFilterMode::kAuto, 100, 1000));
  EXPECT_FALSE(ResolveBloomFilter(BloomFilterMode::kAuto, 1000, 1000));
  EXPECT_FALSE(ResolveBloomFilter(BloomFilterMode::kAuto, 499, 998));
  EXPECT_TRUE(ResolveBloomFilter(BloomFilterMode::kAuto, 498, 998));
}

// ---------------------------------------------------------------------------
// The joins themselves.

Table MakeBuildSide(uint32_t rows, uint32_t domain) {
  TableBuilder builder(
      "R", Schema({ColumnSpec::Feature("K2"), ColumnSpec::Feature("VR")}));
  for (uint32_t i = 0; i < rows; ++i) {
    const uint32_t k = static_cast<uint32_t>(SplitMix64(i)) % domain;
    EXPECT_TRUE(builder
                    .AppendRowLabels({"k" + std::to_string(k),
                                      "v" + std::to_string(i % 17)})
                    .ok());
  }
  return builder.Build();
}

Table MakeProbeSide(uint32_t rows, uint32_t domain) {
  TableBuilder builder(
      "L", Schema({ColumnSpec::Feature("K"), ColumnSpec::Feature("VL")}));
  for (uint32_t i = 0; i < rows; ++i) {
    const uint32_t k =
        static_cast<uint32_t>(SplitMix64(i ^ 0x5eed)) % domain;
    EXPECT_TRUE(builder
                    .AppendRowLabels({"k" + std::to_string(k),
                                      "w" + std::to_string(i % 13)})
                    .ok());
  }
  return builder.Build();
}

void ExpectSameJoinOutput(const Table& a, const Table& b,
                          const std::string& what) {
  ASSERT_EQ(a.num_rows(), b.num_rows()) << what;
  ASSERT_EQ(a.num_columns(), b.num_columns()) << what;
  for (uint32_t c = 0; c < a.num_columns(); ++c) {
    ASSERT_EQ(a.column(c).codes(), b.column(c).codes())
        << what << " column " << a.schema().column(c).name;
  }
}

TEST(RadixJoinDeterminismTest, ManyToManyMatchesCsrWithBloomOnAndOff) {
  // Disjoint label universes force a real DomainRemap (the non-identity
  // probe path); duplicate keys on both sides exercise many-to-many
  // emit order.
  const Table right = MakeBuildSide(4000, 500);
  const Table probe = MakeProbeSide(6000, 800);  // k500..k799 never match.

  JoinOptions csr;
  csr.num_threads = 1;
  csr.algorithm = JoinAlgorithm::kCsr;
  csr.bloom = BloomFilterMode::kOff;
  auto base = HashJoin(probe, right, "K", "K2", csr);
  ASSERT_TRUE(base.ok()) << base.status();
  ASSERT_GT(base->num_rows(), 0u);

  for (BloomFilterMode bloom : {BloomFilterMode::kOff, BloomFilterMode::kOn}) {
    for (uint32_t radix_bits : {0u, 2u, 6u}) {
      for (uint32_t num_threads : {1u, 8u}) {
        JoinOptions options;
        options.num_threads = num_threads;
        options.algorithm = JoinAlgorithm::kRadix;
        options.radix_bits = radix_bits;
        options.bloom = bloom;
        auto t = HashJoin(probe, right, "K", "K2", options);
        ASSERT_TRUE(t.ok()) << t.status();
        ExpectSameJoinOutput(
            *t, *base,
            "bloom=" + std::to_string(bloom == BloomFilterMode::kOn) +
                " bits=" + std::to_string(radix_bits) +
                " threads=" + std::to_string(num_threads));
      }
    }
  }
}

TEST(RadixJoinDeterminismTest, SparseAndDenseEmitPathsAgree) {
  // Sparse emit engages when the pre-filter drops >7/8 of probe rows;
  // a build side covering ~1% of the probe's key universe gets there.
  // The same join with the filter off runs the dense passes — outputs
  // must be identical either way.
  const Table right = MakeBuildSide(300, 30);      // Keys k0..k29.
  const Table probe = MakeProbeSide(50000, 4000);  // ~0.75% match.

  JoinOptions dense;
  dense.num_threads = 1;
  dense.algorithm = JoinAlgorithm::kRadix;
  dense.bloom = BloomFilterMode::kOff;
  auto dense_out = HashJoin(probe, right, "K", "K2", dense);
  ASSERT_TRUE(dense_out.ok()) << dense_out.status();
  ASSERT_GT(dense_out->num_rows(), 0u);

  for (uint32_t num_threads : {1u, 8u}) {
    JoinOptions sparse;
    sparse.num_threads = num_threads;
    sparse.algorithm = JoinAlgorithm::kRadix;
    sparse.bloom = BloomFilterMode::kOn;
    auto sparse_out = HashJoin(probe, right, "K", "K2", sparse);
    ASSERT_TRUE(sparse_out.ok()) << sparse_out.status();
    ExpectSameJoinOutput(*sparse_out, *dense_out,
                         "threads=" + std::to_string(num_threads));
  }
}

// The CSR probe counts Bloom-skipped rows per shard, and only while
// collecting: the total is the number of probe rows whose key the
// filter rejects, at any thread count, and nothing is counted with
// collection off. Both sides share one key domain (identity remap), the
// case the filter exists for.
TEST(RadixJoinDeterminismTest, CsrProbeSkippedCountIsThreadInvariant) {
  constexpr uint32_t kDomain = 4096;
  const auto keys = Domain::Dense(kDomain, "k");
  const auto values = Domain::Dense(8, "v");
  std::vector<uint32_t> r_key(300), r_val(300), l_key(50000), l_val(50000);
  for (uint32_t i = 0; i < r_key.size(); ++i) {
    r_key[i] = (i * 7) % 64;
    r_val[i] = i % 8;
  }
  for (uint32_t i = 0; i < l_key.size(); ++i) {
    l_key[i] = static_cast<uint32_t>(SplitMix64(i)) % kDomain;
    l_val[i] = i % 8;
  }
  const BlockedBloomFilter bloom = BlockedBloomFilter::FromCodes(r_key);
  uint64_t expected = 0;
  for (uint32_t k : l_key) expected += !bloom.MayContain(k);
  ASSERT_GT(expected, 0u);
  const Table right(
      "R", Schema({ColumnSpec::Feature("K2"), ColumnSpec::Feature("VR")}),
      {Column(std::move(r_key), keys), Column(std::move(r_val), values)});
  const Table probe(
      "L", Schema({ColumnSpec::Feature("K"), ColumnSpec::Feature("VL")}),
      {Column(std::move(l_key), keys), Column(std::move(l_val), values)});

  JoinOptions options;
  options.algorithm = JoinAlgorithm::kCsr;
  options.bloom = BloomFilterMode::kOn;
  for (uint32_t num_threads : {1u, 2u, 7u}) {
    options.num_threads = num_threads;
    obs::ScopedCollection collection(true);
    ASSERT_TRUE(HashJoin(probe, right, "K", "K2", options).ok());
    EXPECT_EQ(obs::MetricsRegistry::Global().Snapshot().CounterValue(
                  "join.probe_skipped"),
              expected)
        << "threads=" << num_threads;
  }
  obs::MetricsRegistry::Global().Reset();
  ASSERT_TRUE(HashJoin(probe, right, "K", "K2", options).ok());
  EXPECT_EQ(obs::MetricsRegistry::Global().Snapshot().CounterValue(
                "join.probe_skipped"),
            0u);
}

TEST(RadixJoinTest, CostRecordCarriesPartitionAndBloomPhases) {
  const Table right = MakeBuildSide(2000, 3000);  // Sparse coverage.
  const Table probe = MakeProbeSide(30000, 3000);

  auto& store = obs::CostProfileStore::Global();
  store.Clear();
  obs::SetEnabled(true);
  JoinOptions options;
  options.algorithm = JoinAlgorithm::kRadix;
  options.bloom = BloomFilterMode::kOn;
  options.num_threads = 2;
  auto t = HashJoin(probe, right, "K", "K2", options);
  obs::SetEnabled(false);
  ASSERT_TRUE(t.ok()) << t.status();

  const obs::CostProfile profile = store.Snapshot();
  const obs::CostRecord* radix = nullptr;
  for (const auto& [key, record] : profile.records()) {
    if (record.features.op == kRadixJoinOp) radix = &record;
  }
  ASSERT_NE(radix, nullptr) << "no join.radix cost record";
  EXPECT_EQ(radix->observations, 1u);
  EXPECT_EQ(radix->features.rows_in, probe.num_rows());
  EXPECT_EQ(radix->features.build_rows, right.num_rows());
  EXPECT_GT(radix->total_ns_sum, 0u);
  EXPECT_GT(radix->partition_ns_sum, 0u);
  EXPECT_GT(radix->bloom_build_ns_sum, 0u);
  store.Clear();
}

TEST(RadixJoinTest, KfkJoinRecordsOneCsrCostRecordUnderRadix) {
  // KfkJoin has one physical path: asking for kRadix still runs the CSR
  // gather and records a single join.kfk observation with no partition
  // phase.
  TableBuilder rb("R", Schema({ColumnSpec::PrimaryKey("RID"),
                               ColumnSpec::Feature("XR")}));
  for (int i = 0; i < 500; ++i) {
    ASSERT_TRUE(rb.AppendRowLabels({"r" + std::to_string(i),
                                    "x" + std::to_string(i % 7)})
                    .ok());
  }
  Table r = rb.Build();
  TableBuilder sb("S", Schema({ColumnSpec::Target("Y"),
                               ColumnSpec::ForeignKey("FK", "R")}),
                  {nullptr, r.column(0).domain()});
  for (int i = 0; i < 20000; ++i) {
    ASSERT_TRUE(
        sb.AppendRowLabels({"0", "r" + std::to_string(i % 500)}).ok());
  }
  Table s = sb.Build();

  auto& store = obs::CostProfileStore::Global();
  store.Clear();
  obs::SetEnabled(true);
  JoinOptions options;
  options.algorithm = JoinAlgorithm::kRadix;
  options.num_threads = 2;
  auto t = KfkJoin(s, r, "FK", options);
  obs::SetEnabled(false);
  ASSERT_TRUE(t.ok()) << t.status();
  ASSERT_EQ(t->num_rows(), s.num_rows());

  const obs::CostProfile profile = store.Snapshot();
  ASSERT_EQ(profile.size(), 1u);
  const obs::CostRecord& record = profile.records().begin()->second;
  EXPECT_EQ(record.features.op, "join.kfk");
  EXPECT_EQ(record.observations, 1u);
  EXPECT_EQ(record.features.rows_in, s.num_rows());
  EXPECT_EQ(record.features.num_threads, 2u);
  EXPECT_GT(record.total_ns_sum, 0u);
  EXPECT_EQ(record.partition_ns_sum, 0u);
  EXPECT_EQ(record.bloom_build_ns_sum, 0u);  // KFK joins never filter.
  store.Clear();
}

}  // namespace
}  // namespace hamlet
