#include "obs/trace.h"

#include <gtest/gtest.h>

#include <cctype>
#include <cstdint>
#include <map>
#include <sstream>
#include <string>
#include <vector>

#include "common/json_writer.h"
#include "common/parallel_for.h"
#include "common/thread_pool.h"
#include "obs/report.h"

namespace hamlet {
namespace {

// --- A minimal JSON well-formedness checker for the exporter tests.
// Recursive descent over value / object / array / string / number /
// literal; rejects trailing garbage. Deliberately strict about the
// subset JsonWriter emits.
class JsonChecker {
 public:
  explicit JsonChecker(std::string text) : text_(std::move(text)) {}

  bool Valid() {
    pos_ = 0;
    SkipSpace();
    if (!Value()) return false;
    SkipSpace();
    return pos_ == text_.size();
  }

 private:
  bool Value() {
    if (pos_ >= text_.size()) return false;
    switch (text_[pos_]) {
      case '{':
        return Object();
      case '[':
        return Array();
      case '"':
        return String();
      case 't':
        return Literal("true");
      case 'f':
        return Literal("false");
      case 'n':
        return Literal("null");
      default:
        return Number();
    }
  }

  bool Object() {
    ++pos_;  // '{'
    SkipSpace();
    if (Peek() == '}') {
      ++pos_;
      return true;
    }
    while (true) {
      SkipSpace();
      if (!String()) return false;
      SkipSpace();
      if (Peek() != ':') return false;
      ++pos_;
      SkipSpace();
      if (!Value()) return false;
      SkipSpace();
      if (Peek() == ',') {
        ++pos_;
        continue;
      }
      if (Peek() == '}') {
        ++pos_;
        return true;
      }
      return false;
    }
  }

  bool Array() {
    ++pos_;  // '['
    SkipSpace();
    if (Peek() == ']') {
      ++pos_;
      return true;
    }
    while (true) {
      SkipSpace();
      if (!Value()) return false;
      SkipSpace();
      if (Peek() == ',') {
        ++pos_;
        continue;
      }
      if (Peek() == ']') {
        ++pos_;
        return true;
      }
      return false;
    }
  }

  bool String() {
    if (Peek() != '"') return false;
    ++pos_;
    while (pos_ < text_.size()) {
      const char c = text_[pos_];
      if (c == '"') {
        ++pos_;
        return true;
      }
      if (static_cast<unsigned char>(c) < 0x20) return false;  // Unescaped.
      if (c == '\\') {
        ++pos_;
        if (pos_ >= text_.size()) return false;
        const char esc = text_[pos_];
        if (esc == 'u') {
          if (pos_ + 4 >= text_.size()) return false;
          pos_ += 4;
        } else if (std::string("\"\\/bfnrt").find(esc) ==
                   std::string::npos) {
          return false;
        }
      }
      ++pos_;
    }
    return false;
  }

  bool Number() {
    const size_t start = pos_;
    if (Peek() == '-') ++pos_;
    while (pos_ < text_.size() &&
           (std::isdigit(text_[pos_]) || text_[pos_] == '.' ||
            text_[pos_] == 'e' || text_[pos_] == 'E' ||
            text_[pos_] == '+' || text_[pos_] == '-')) {
      ++pos_;
    }
    return pos_ > start;
  }

  bool Literal(const std::string& word) {
    if (text_.compare(pos_, word.size(), word) != 0) return false;
    pos_ += word.size();
    return true;
  }

  char Peek() const { return pos_ < text_.size() ? text_[pos_] : '\0'; }
  void SkipSpace() {
    while (pos_ < text_.size() &&
           (text_[pos_] == ' ' || text_[pos_] == '\n' ||
            text_[pos_] == '\t' || text_[pos_] == '\r')) {
      ++pos_;
    }
  }

  std::string text_;
  size_t pos_ = 0;
};

TEST(TraceSpanTest, DisabledSpansAreInert) {
  ASSERT_FALSE(obs::Enabled());
  obs::Tracer::Global().Clear();
  {
    obs::TraceSpan span("test.disabled");
    span.AddAttr("k", static_cast<uint64_t>(1));
    EXPECT_FALSE(span.active());
  }
  EXPECT_TRUE(obs::Tracer::Global().Collect().empty());
}

TEST(TraceSpanTest, NestedSpansFormATree) {
  obs::ScopedCollection collection(true);
  {
    obs::TraceSpan root("test.root");
    {
      obs::TraceSpan child("test.child");
      obs::TraceSpan grandchild("test.grandchild");
    }
    obs::TraceSpan sibling("test.child");  // Second span, same name.
  }
  obs::Trace trace = obs::Tracer::Global().Collect();
  ASSERT_EQ(trace.events.size(), 4u);
  // Collect() sorts by start time, so the root comes first.
  std::map<std::string, std::vector<const obs::TraceEvent*>> by_name;
  for (const auto& e : trace.events) by_name[e.name].push_back(&e);
  ASSERT_EQ(by_name["test.root"].size(), 1u);
  ASSERT_EQ(by_name["test.child"].size(), 2u);
  ASSERT_EQ(by_name["test.grandchild"].size(), 1u);
  const auto* root = by_name["test.root"][0];
  EXPECT_EQ(root->parent_id, 0u);
  EXPECT_EQ(trace.events[0].name, "test.root");
  for (const auto* child : by_name["test.child"]) {
    EXPECT_EQ(child->parent_id, root->id);
  }
  EXPECT_EQ(by_name["test.grandchild"][0]->parent_id,
            by_name["test.child"][0]->id);
  for (const auto& e : trace.events) EXPECT_GE(e.end_ns, e.start_ns);
}

TEST(TraceSpanTest, AttributesAreRecorded) {
  obs::ScopedCollection collection(true);
  {
    obs::TraceSpan span("test.attrs");
    span.AddAttr("count", static_cast<uint64_t>(42));
    span.AddAttr("mode", std::string("JoinOpt"));
  }
  obs::Trace trace = obs::Tracer::Global().Collect();
  ASSERT_EQ(trace.events.size(), 1u);
  ASSERT_EQ(trace.events[0].attrs.size(), 2u);
  EXPECT_EQ(trace.events[0].attrs[0].key, "count");
  EXPECT_TRUE(trace.events[0].attrs[0].is_number);
  EXPECT_EQ(trace.events[0].attrs[0].number, 42);
  EXPECT_EQ(trace.events[0].attrs[1].key, "mode");
  EXPECT_FALSE(trace.events[0].attrs[1].is_number);
  EXPECT_EQ(trace.events[0].attrs[1].text, "JoinOpt");
}

TEST(TraceSpanTest, PoolSpansRootWhenSubmitterHasNoSpan) {
  // Cross-thread propagation parents worker spans under the span active
  // on the *submitting* thread (tests/trace_propagation_test.cc). When
  // the submitter has no active span, worker spans are roots.
  obs::ScopedCollection collection(true);
  ThreadPool pool(4);
  pool.ParallelFor(8, [](uint32_t i) {
    obs::TraceSpan span("test.worker");
    span.AddAttr("item", i);
  });
  obs::Trace trace = obs::Tracer::Global().Collect();
  ASSERT_EQ(trace.events.size(), 8u);
  for (const auto& e : trace.events) {
    EXPECT_EQ(e.name, "test.worker");
    EXPECT_EQ(e.parent_id, 0u);  // Nothing to inherit from the submitter.
  }
}

TEST(TraceSpanTest, ExplainTreeMergesSpansByNameUnderParent) {
  obs::ScopedCollection collection(true);
  {
    obs::TraceSpan root("test.root");
    for (int i = 0; i < 3; ++i) {
      obs::TraceSpan step("test.step");
      step.AddAttr("candidates", static_cast<uint64_t>(10));
    }
  }
  obs::Trace trace = obs::Tracer::Global().Collect();
  obs::TraceSummary summary = obs::SummarizeTrace(trace);
  ASSERT_EQ(summary.stages.size(), 2u);
  EXPECT_EQ(summary.stages[0].name, "test.root");
  EXPECT_EQ(summary.stages[0].depth, 0u);
  EXPECT_EQ(summary.stages[0].count, 1u);
  EXPECT_EQ(summary.stages[1].name, "test.step");
  EXPECT_EQ(summary.stages[1].depth, 1u);
  EXPECT_EQ(summary.stages[1].count, 3u);
  // Numeric attrs sum across merged spans: 3 steps x 10 candidates.
  ASSERT_EQ(summary.stages[1].numeric_attrs.size(), 1u);
  EXPECT_EQ(summary.stages[1].numeric_attrs[0].first, "candidates");
  EXPECT_EQ(summary.stages[1].numeric_attrs[0].second, 30);
  // Self time of the root excludes its children; totals stay positive.
  EXPECT_GE(summary.stages[0].total_seconds,
            summary.stages[1].total_seconds);
  EXPECT_GE(summary.stages[0].self_seconds, 0.0);
  EXPECT_GT(summary.total_seconds, 0.0);
  EXPECT_EQ(summary.StageSeconds("test.step"),
            summary.stages[1].total_seconds);
  EXPECT_EQ(summary.StageSeconds("missing"), 0.0);

  const std::string rendered = obs::RenderExplainTree(trace);
  EXPECT_NE(rendered.find("test.root"), std::string::npos);
  EXPECT_NE(rendered.find("  test.step"), std::string::npos);  // Indented.
  EXPECT_NE(rendered.find("candidates=30"), std::string::npos);
}

TEST(TraceSpanTest, ChromeTraceJsonIsWellFormed) {
  obs::ScopedCollection collection(true);
  {
    obs::TraceSpan root("test.root");
    root.AddAttr("label", std::string("quotes \" and \\ back\nslash"));
    obs::TraceSpan child("test.child");
    child.AddAttr("n", static_cast<uint64_t>(7));
  }
  obs::Trace trace = obs::Tracer::Global().Collect();
  std::ostringstream oss;
  obs::WriteChromeTraceJson(trace, oss);
  const std::string json = oss.str();

  JsonChecker checker(json);
  EXPECT_TRUE(checker.Valid()) << json;
  EXPECT_NE(json.find("\"traceEvents\""), std::string::npos);
  EXPECT_NE(json.find("\"displayTimeUnit\""), std::string::npos);
  EXPECT_NE(json.find("\"ph\":\"X\""), std::string::npos);
  EXPECT_NE(json.find("\"test.child\""), std::string::npos);
  // The tricky attribute string must round-trip escaped.
  EXPECT_NE(json.find("quotes \\\" and \\\\ back\\nslash"),
            std::string::npos);
}

TEST(JsonWriterTest, EscapesControlAndSpecialCharacters) {
  EXPECT_EQ(JsonWriter::Escape("plain"), "plain");
  EXPECT_EQ(JsonWriter::Escape("a\"b"), "a\\\"b");
  EXPECT_EQ(JsonWriter::Escape("a\\b"), "a\\\\b");
  EXPECT_EQ(JsonWriter::Escape("a\nb\tc"), "a\\nb\\tc");
  EXPECT_EQ(JsonWriter::Escape("a\001b"), "a\\u0001b");
}

TEST(JsonWriterTest, WritesNestedStructures) {
  std::ostringstream oss;
  {
    JsonWriter w(oss);
    w.BeginObject();
    w.Key("name");
    w.String("x");
    w.Key("vals");
    w.BeginArray();
    w.Int(-3);
    w.UInt(7);
    w.Double(1.5);
    w.Bool(true);
    w.Null();
    w.EndArray();
    w.EndObject();
  }
  EXPECT_EQ(oss.str(), "{\"name\":\"x\",\"vals\":[-3,7,1.5,true,null]}");
  JsonChecker checker(oss.str());
  EXPECT_TRUE(checker.Valid());
}

TEST(TraceSpanTest, ScopedCollectionRestoresDisabledState) {
  ASSERT_FALSE(obs::Enabled());
  {
    obs::ScopedCollection collection(true);
    EXPECT_TRUE(obs::Enabled());
    {
      // Nested windows restore the enabled state they found.
      obs::ScopedCollection inner(true);
      EXPECT_TRUE(obs::Enabled());
    }
    EXPECT_TRUE(obs::Enabled());
  }
  EXPECT_FALSE(obs::Enabled());
  {
    obs::ScopedCollection off(false);
    EXPECT_FALSE(obs::Enabled());
    EXPECT_FALSE(off.enabled());
  }
  EXPECT_FALSE(obs::Enabled());
}

}  // namespace
}  // namespace hamlet
