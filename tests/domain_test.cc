#include "relational/domain.h"

#include <gtest/gtest.h>

#include "common/string_util.h"

namespace hamlet {
namespace {

TEST(DomainTest, EmptyByDefault) {
  Domain d;
  EXPECT_EQ(d.size(), 0u);
}

TEST(DomainTest, ConstructFromLabels) {
  Domain d({"red", "green", "blue"});
  EXPECT_EQ(d.size(), 3u);
  EXPECT_EQ(d.label(0), "red");
  EXPECT_EQ(d.label(2), "blue");
}

TEST(DomainTest, LookupFindsCodes) {
  Domain d({"a", "b"});
  ASSERT_TRUE(d.Lookup("b").ok());
  EXPECT_EQ(*d.Lookup("b"), 1u);
}

TEST(DomainTest, LookupMissingIsNotFound) {
  Domain d({"a"});
  EXPECT_EQ(d.Lookup("z").status().code(), StatusCode::kNotFound);
}

TEST(DomainTest, GetOrAddAppends) {
  Domain d;
  EXPECT_EQ(d.GetOrAdd("x"), 0u);
  EXPECT_EQ(d.GetOrAdd("y"), 1u);
  EXPECT_EQ(d.GetOrAdd("x"), 0u);  // Idempotent.
  EXPECT_EQ(d.size(), 2u);
}

TEST(DomainTest, Contains) {
  Domain d({"a"});
  EXPECT_TRUE(d.Contains("a"));
  EXPECT_FALSE(d.Contains("b"));
}

TEST(DomainTest, DenseFactory) {
  auto d = Domain::Dense(4, "id_");
  EXPECT_EQ(d->size(), 4u);
  EXPECT_EQ(d->label(0), "id_0");
  EXPECT_EQ(d->label(3), "id_3");
  EXPECT_EQ(*d->Lookup("id_2"), 2u);
}

TEST(DomainTest, DenseWithoutPrefix) {
  auto d = Domain::Dense(2);
  EXPECT_EQ(d->label(1), "1");
}

TEST(DomainTest, LabelsVectorMatchesOrder) {
  Domain d({"p", "q"});
  ASSERT_EQ(d.labels().size(), 2u);
  EXPECT_EQ(d.labels()[0], "p");
}

TEST(DomainTest, HeterogeneousLookupAcceptsStringView) {
  Domain d({"alpha", "beta"});
  // A view into a larger buffer: no temporary std::string is required.
  std::string buffer = "xxbetayy";
  std::string_view view(buffer.data() + 2, 4);
  EXPECT_TRUE(d.Contains(view));
  ASSERT_TRUE(d.Lookup(view).ok());
  EXPECT_EQ(*d.Lookup(view), 1u);
  EXPECT_EQ(d.GetOrAdd(view), 1u);
}

TEST(DomainTest, CodeOfReturnsSentinelOnMiss) {
  Domain d({"a", "b"});
  EXPECT_EQ(d.CodeOf("b"), 1u);
  EXPECT_EQ(d.CodeOf("zzz"), Domain::kNoCode);
}

TEST(DomainTest, IndexSurvivesManyGrowths) {
  // 100k labels through GetOrAdd double the label index from its
  // minimum size many times over; every code must still find itself.
  Domain d;
  constexpr uint32_t kLabels = 100000;
  for (uint32_t i = 0; i < kLabels; ++i) {
    ASSERT_EQ(d.GetOrAdd("label_" + std::to_string(i)), i);
  }
  ASSERT_EQ(d.size(), kLabels);
  for (uint32_t c = 0; c < kLabels; ++c) {
    ASSERT_EQ(d.CodeOf(d.label(c)), c);
  }
  for (uint32_t i = 0; i < 1000; ++i) {
    ASSERT_EQ(d.CodeOf("absent_" + std::to_string(i)), Domain::kNoCode);
    ASSERT_EQ(d.CodeOf("label_" + std::to_string(kLabels + i)),
              Domain::kNoCode);
  }
  EXPECT_EQ(d.GetOrAdd("label_12345"), 12345u);
  EXPECT_EQ(d.size(), kLabels);
}

TEST(DomainTest, EmptyLabelIsAnOrdinaryLabel) {
  Domain d;
  EXPECT_EQ(d.CodeOf(""), Domain::kNoCode);
  EXPECT_EQ(d.GetOrAdd("x"), 0u);
  EXPECT_EQ(d.GetOrAdd(""), 1u);
  EXPECT_EQ(d.GetOrAdd(""), 1u);
  EXPECT_EQ(d.CodeOf(""), 1u);
  EXPECT_EQ(d.label(1), "");
  Domain e({"", "a"});
  EXPECT_EQ(e.CodeOf(""), 0u);
  EXPECT_EQ(e.CodeOf("a"), 1u);
}

TEST(DomainTest, LabelsDifferingInTheLastByteAreDistinct) {
  Domain d;
  const std::string stem(40, 'k');
  for (char last = 'a'; last <= 'z'; ++last) {
    EXPECT_EQ(d.GetOrAdd(stem + last), static_cast<uint32_t>(last - 'a'));
  }
  EXPECT_EQ(d.size(), 26u);
  EXPECT_EQ(d.CodeOf(stem + 'q'), static_cast<uint32_t>('q' - 'a'));
  EXPECT_EQ(d.CodeOf(stem), Domain::kNoCode);
  EXPECT_EQ(d.CodeOf(stem + "aa"), Domain::kNoCode);
}

TEST(DomainTest, EmbeddedNulIsPartOfTheLabel) {
  const std::string with_nul("ab\0cd", 5);
  Domain d;
  EXPECT_EQ(d.GetOrAdd("ab"), 0u);
  EXPECT_EQ(d.GetOrAdd(std::string_view(with_nul)), 1u);
  EXPECT_EQ(d.label(1).size(), 5u);
  EXPECT_EQ(d.label(1), with_nul);
  EXPECT_EQ(d.CodeOf(std::string_view(with_nul)), 1u);
  EXPECT_EQ(d.CodeOf(std::string_view("ab\0ce", 5)), Domain::kNoCode);
  EXPECT_EQ(d.CodeOf("ab"), 0u);
}

TEST(DomainTest, CopyIsIndependentOfTheOriginal) {
  Domain original({"a", "b"});
  Domain copy = original;
  EXPECT_EQ(copy.GetOrAdd("c"), 2u);
  for (int i = 0; i < 100; ++i) copy.GetOrAdd("grow_" + std::to_string(i));
  EXPECT_EQ(original.size(), 2u);
  EXPECT_EQ(original.CodeOf("c"), Domain::kNoCode);
  EXPECT_EQ(original.CodeOf("b"), 1u);
  EXPECT_EQ(original.GetOrAdd("z"), 2u);
  EXPECT_EQ(copy.CodeOf("z"), Domain::kNoCode);
  EXPECT_EQ(copy.CodeOf("c"), 2u);
  EXPECT_EQ(copy.CodeOf("grow_99"), 102u);
}

TEST(DomainRemapTest, SameObjectIsIdentity) {
  auto d = std::make_shared<Domain>(std::vector<std::string>{"a", "b"});
  DomainRemap remap(d, d);
  EXPECT_TRUE(remap.identity());
  EXPECT_EQ(remap[0], 0u);
  EXPECT_EQ(remap[1], 1u);
}

TEST(DomainRemapTest, TranslatesByLabel) {
  auto from =
      std::make_shared<Domain>(std::vector<std::string>{"a", "b", "c"});
  auto to =
      std::make_shared<Domain>(std::vector<std::string>{"c", "a"});
  DomainRemap remap(from, to);
  EXPECT_FALSE(remap.identity());
  EXPECT_EQ(remap[0], 1u);                  // "a" -> 1 in `to`.
  EXPECT_EQ(remap[1], DomainRemap::kNoCode);  // "b" absent from `to`.
  EXPECT_EQ(remap[2], 0u);                  // "c" -> 0 in `to`.
}

TEST(DomainDeathTest, DuplicateLabelAborts) {
  EXPECT_DEATH(Domain d({"a", "a"}), "duplicate");
}

TEST(DomainDeathTest, DuplicateLabelAmongManyAborts) {
  std::vector<std::string> labels;
  for (int i = 0; i < 1000; ++i) labels.push_back(StringFormat("v%d", i));
  labels.push_back("v517");
  EXPECT_DEATH(Domain d(labels), "duplicate label 'v517'");
}

TEST(DomainDeathTest, LabelOutOfRangeAborts) {
  Domain d({"a"});
  EXPECT_DEATH((void)d.label(1), "out of domain");
}

}  // namespace
}  // namespace hamlet
