#include "relational/join.h"

#include <gtest/gtest.h>

#include "common/rng.h"
#include "legacy_hash_join.h"
#include "obs/metrics.h"
#include "obs/trace.h"

namespace hamlet {
namespace {

// The paper's running example: Customers ⋈ Employers.
struct ChurnFixture {
  Table customers;
  Table employers;

  ChurnFixture() {
    Schema r_schema({ColumnSpec::PrimaryKey("EmployerID"),
                     ColumnSpec::Feature("Country"),
                     ColumnSpec::Feature("Revenue")});
    TableBuilder rb("Employers", r_schema);
    EXPECT_TRUE(rb.AppendRowLabels({"e0", "US", "high"}).ok());
    EXPECT_TRUE(rb.AppendRowLabels({"e1", "IN", "low"}).ok());
    EXPECT_TRUE(rb.AppendRowLabels({"e2", "UK", "high"}).ok());
    employers = rb.Build();

    Schema s_schema({ColumnSpec::PrimaryKey("CustomerID"),
                     ColumnSpec::Target("Churn"),
                     ColumnSpec::Feature("Gender"),
                     ColumnSpec::ForeignKey("EmployerID", "Employers")});
    // FK shares the Employers PK domain (closed-domain setting).
    auto pk_domain = employers.column(0).domain();
    TableBuilder sb("Customers", s_schema,
                    {nullptr, nullptr, nullptr, pk_domain});
    EXPECT_TRUE(sb.AppendRowLabels({"c0", "yes", "F", "e1"}).ok());
    EXPECT_TRUE(sb.AppendRowLabels({"c1", "no", "M", "e0"}).ok());
    EXPECT_TRUE(sb.AppendRowLabels({"c2", "no", "F", "e1"}).ok());
    EXPECT_TRUE(sb.AppendRowLabels({"c3", "yes", "M", "e2"}).ok());
    customers = sb.Build();
  }
};

TEST(KfkJoinTest, ProducesExpectedSchema) {
  ChurnFixture f;
  auto t = KfkJoin(f.customers, f.employers, "EmployerID");
  ASSERT_TRUE(t.ok()) << t.status();
  // T(SID, Y, X_S, FK, X_R): RID dropped, FK kept.
  EXPECT_EQ(t->num_columns(), 6u);
  EXPECT_TRUE(t->schema().Contains("EmployerID"));
  EXPECT_TRUE(t->schema().Contains("Country"));
  EXPECT_TRUE(t->schema().Contains("Revenue"));
  EXPECT_EQ(t->num_rows(), 4u);
}

TEST(KfkJoinTest, GathersMatchingForeignFeatures) {
  ChurnFixture f;
  auto t = *KfkJoin(f.customers, f.employers, "EmployerID");
  const Column& country = **t.ColumnByName("Country");
  EXPECT_EQ(country.label(0), "IN");  // c0 -> e1.
  EXPECT_EQ(country.label(1), "US");  // c1 -> e0.
  EXPECT_EQ(country.label(2), "IN");  // c2 -> e1.
  EXPECT_EQ(country.label(3), "UK");  // c3 -> e2.
}

TEST(KfkJoinTest, FdHoldsInOutput) {
  // The FD FK -> X_R of Section 3.1: equal FK codes imply equal X_R.
  ChurnFixture f;
  auto t = *KfkJoin(f.customers, f.employers, "EmployerID");
  const Column& fk = **t.ColumnByName("EmployerID");
  const Column& country = **t.ColumnByName("Country");
  const Column& revenue = **t.ColumnByName("Revenue");
  for (uint32_t i = 0; i < t.num_rows(); ++i) {
    for (uint32_t j = 0; j < t.num_rows(); ++j) {
      if (fk.code(i) == fk.code(j)) {
        EXPECT_EQ(country.code(i), country.code(j));
        EXPECT_EQ(revenue.code(i), revenue.code(j));
      }
    }
  }
}

TEST(KfkJoinTest, NonFkColumnRejected) {
  ChurnFixture f;
  auto t = KfkJoin(f.customers, f.employers, "Gender");
  EXPECT_EQ(t.status().code(), StatusCode::kInvalidArgument);
}

TEST(KfkJoinTest, MissingColumnRejected) {
  ChurnFixture f;
  EXPECT_EQ(KfkJoin(f.customers, f.employers, "Nope").status().code(),
            StatusCode::kNotFound);
}

TEST(KfkJoinTest, ReferentialIntegrityViolationDetected) {
  ChurnFixture f;
  // An employers table missing e2, which c3 references.
  Table shrunk = f.employers.GatherRows({0, 1});
  auto t = KfkJoin(f.customers, shrunk, "EmployerID");
  EXPECT_EQ(t.status().code(), StatusCode::kInvalidArgument);
  EXPECT_NE(t.status().message().find("referential integrity"),
            std::string::npos);
}

TEST(KfkJoinTest, DuplicateRidRejected) {
  ChurnFixture f;
  Table dup = f.employers.GatherRows({0, 0, 1, 2});
  EXPECT_FALSE(KfkJoin(f.customers, dup, "EmployerID").ok());
}

TEST(KfkJoinTest, NameCollisionRejected) {
  ChurnFixture f;
  // An attribute table with a feature named like an S column.
  Schema r_schema({ColumnSpec::PrimaryKey("EmployerID2"),
                   ColumnSpec::Feature("Gender")});
  TableBuilder rb("Employers2", r_schema);
  ASSERT_TRUE(rb.AppendRowLabels({"e0", "x"}).ok());
  Schema s_schema({ColumnSpec::Target("Y"),
                   ColumnSpec::Feature("Gender"),
                   ColumnSpec::ForeignKey("FK", "Employers2")});
  TableBuilder sb("S", s_schema);
  ASSERT_TRUE(sb.AppendRowLabels({"1", "F", "e0"}).ok());
  auto t = KfkJoin(sb.Build(), rb.Build(), "FK");
  EXPECT_EQ(t.status().code(), StatusCode::kInvalidArgument);
}

TEST(KfkJoinTest, WorksAcrossDistinctDomainObjects) {
  // FK built with its own dictionary (same labels, different object).
  ChurnFixture f;
  Schema s_schema({ColumnSpec::Target("Y"),
                   ColumnSpec::ForeignKey("EmpFK", "Employers")});
  TableBuilder sb("S2", s_schema);
  ASSERT_TRUE(sb.AppendRowLabels({"1", "e2"}).ok());
  ASSERT_TRUE(sb.AppendRowLabels({"0", "e0"}).ok());
  Schema r_schema({ColumnSpec::PrimaryKey("EmployerID"),
                   ColumnSpec::Feature("Country"),
                   ColumnSpec::Feature("Revenue")});
  auto t = KfkJoin(sb.Build(), f.employers, "EmpFK");
  ASSERT_TRUE(t.ok()) << t.status();
  EXPECT_EQ((*t->ColumnByName("Country"))->label(0), "UK");
  EXPECT_EQ((*t->ColumnByName("Country"))->label(1), "US");
}

TEST(JoinProbeTest, KfkJoinRecordsEachPhaseOnce) {
  // One traced 2-thread KfkJoin adds exactly one observation to each
  // phase histogram, and its span carries the row counts.
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

  JoinOptions options;
  options.num_threads = 2;
  obs::Trace trace;
  {
    obs::ScopedCollection collection(true);
    auto t = KfkJoin(s, r, "FK", options);
    ASSERT_TRUE(t.ok()) << t.status();
    ASSERT_EQ(t->num_rows(), s.num_rows());
    trace = obs::Tracer::Global().Collect();
  }

  for (const char* phase :
       {"join.build_ns", "join.probe_ns", "join.materialize_ns"}) {
    EXPECT_EQ(
        obs::MetricsRegistry::Global().GetHistogram(phase).Snapshot().count,
        1u)
        << phase;
  }

  const obs::TraceEvent* join = nullptr;
  for (const obs::TraceEvent& event : trace.events) {
    if (event.name != "join.kfk") continue;
    ASSERT_EQ(join, nullptr) << "more than one join.kfk span";
    join = &event;
  }
  ASSERT_NE(join, nullptr);
  const auto attr = [&](const std::string& key) -> int64_t {
    for (const obs::TraceAttr& a : join->attrs) {
      if (a.key == key && a.is_number) return a.number;
    }
    ADD_FAILURE() << "join.kfk span has no numeric '" << key << "'";
    return -1;
  };
  EXPECT_EQ(attr("rows_built"), static_cast<int64_t>(r.num_rows()));
  EXPECT_EQ(attr("rows_probed"), static_cast<int64_t>(s.num_rows()));
  EXPECT_EQ(attr("rows_emitted"), static_cast<int64_t>(s.num_rows()));
}

// Property test: KfkJoin agrees with the frozen label-keyed hash join
// (legacy_hash_join.h) on randomized star schemas.
class JoinEquivalenceTest : public ::testing::TestWithParam<uint64_t> {};

TEST_P(JoinEquivalenceTest, KfkJoinMatchesHashJoin) {
  Rng rng(GetParam());
  const uint32_t n_r = 3 + rng.Uniform(20);
  const uint32_t n_s = 5 + rng.Uniform(60);

  Schema r_schema({ColumnSpec::PrimaryKey("RID"),
                   ColumnSpec::Feature("XR1"),
                   ColumnSpec::Feature("XR2")});
  TableBuilder rb("R", r_schema);
  for (uint32_t i = 0; i < n_r; ++i) {
    ASSERT_TRUE(rb.AppendRowLabels({"r" + std::to_string(i),
                                    "v" + std::to_string(rng.Uniform(4)),
                                    "w" + std::to_string(rng.Uniform(3))})
                    .ok());
  }
  Table r = rb.Build();

  Schema s_schema({ColumnSpec::Target("Y"), ColumnSpec::Feature("XS"),
                   ColumnSpec::ForeignKey("FK", "R")});
  TableBuilder sb("S", s_schema, {nullptr, nullptr, r.column(0).domain()});
  for (uint32_t i = 0; i < n_s; ++i) {
    ASSERT_TRUE(
        sb.AppendRowLabels({std::to_string(rng.Uniform(2)),
                            "x" + std::to_string(rng.Uniform(5)),
                            "r" + std::to_string(rng.Uniform(n_r))})
            .ok());
  }
  Table s = sb.Build();

  auto kfk = KfkJoin(s, r, "FK");
  ASSERT_TRUE(kfk.ok()) << kfk.status();
  auto reference = LegacyHashJoin(s, r, "FK", "RID");
  ASSERT_TRUE(reference.ok()) << reference.status();

  ASSERT_EQ(kfk->num_rows(), reference->num_rows());
  // The reference emits matches in left-row order and each S row matches
  // one R row, so outputs must agree cell-for-cell on the shared columns.
  for (const char* col : {"Y", "XS", "FK", "XR1", "XR2"}) {
    const Column& a = **kfk->ColumnByName(col);
    const Column& b = **reference->ColumnByName(col);
    for (uint32_t row = 0; row < kfk->num_rows(); ++row) {
      ASSERT_EQ(a.label(row), b.label(row))
          << "column " << col << " row " << row;
    }
  }
}

INSTANTIATE_TEST_SUITE_P(RandomStarSchemas, JoinEquivalenceTest,
                         ::testing::Range<uint64_t>(0, 12));

}  // namespace
}  // namespace hamlet
