// Fuzz harness for the trace/json parser and the swsched timeline importer.
//
// Seeded, deterministic fuzzing (no libFuzzer dependency — the container
// bakes none): valid timeline exports are mutated byte-by-byte, truncated,
// spliced and drowned in garbage, and every variant is fed to parse_json /
// timeline_from_json. The contract under test is crash-freedom: the parsers
// may reject (return false) anything, but must never crash, hang, leak or
// trip ASan/UBSan — CI runs this binary under both sanitizers in the
// asan-ubsan job. Failures reproduce from the printed (seed, case) pair.
#include <gtest/gtest.h>

#include <cstdint>
#include <string>
#include <vector>

#include "check/plan_model.h"
#include "check/timeline.h"
#include "check/timeline_extract.h"
#include "check/timeline_io.h"
#include "check/verify.h"
#include "proptest.h"
#include "topo/collective.h"
#include "trace/json.h"

namespace swcaffe {
namespace {

using proptest::Rng;
using proptest::for_all;

/// One valid timeline export to seed the mutations: the executed
/// hierarchical all-reduce at 16/4 as a comm graph, exactly what
/// swcaffe_check --export-timeline writes.
std::string seed_document() {
  const check::CommSchedule hier = check::comm_schedule(
      topo::hierarchical_schedule({16, 4}, 16), "allreduce.hier");
  const check::TimelineGraph graph =
      check::timeline_from_comm("fuzz-seed", {hier});
  return check::timeline_to_json(graph);
}

/// The parse must either succeed or fail cleanly; on success the DOM must
/// be walkable without tripping anything.
void expect_no_crash(const std::string& text) {
  trace::JsonValue value;
  std::string error;
  if (trace::parse_json(text, &value, &error)) {
    // Walk the DOM: every accessor on every node must be safe.
    std::vector<const trace::JsonValue*> stack = {&value};
    std::size_t visited = 0;
    while (!stack.empty() && visited < 100000) {
      const trace::JsonValue* v = stack.back();
      stack.pop_back();
      ++visited;
      v->as_bool();
      v->as_double();
      v->as_int();
      v->as_string();
      for (const auto& item : v->items()) stack.push_back(&item);
      for (const auto& [key, member] : v->members()) stack.push_back(&member);
    }
  } else {
    EXPECT_FALSE(error.empty());
  }
  check::TimelineGraph graph;
  (void)check::timeline_from_json(text, &graph);
  std::vector<check::TimelineGraph> graphs;
  (void)check::timelines_from_json(text, &graphs);
}

TEST(JsonFuzzTest, SeedDocumentParses) {
  const std::string doc = seed_document();
  trace::JsonValue value;
  std::string error;
  ASSERT_TRUE(trace::parse_json(doc, &value, &error)) << error;
  check::TimelineGraph graph;
  ASSERT_TRUE(check::timeline_from_json(doc, &graph, &error)) << error;
  EXPECT_FALSE(graph.events.empty());
  // Round trip is byte-identical (the writer is deterministic).
  EXPECT_EQ(check::timeline_to_json(graph), doc);
}

TEST(JsonFuzzTest, SingleByteMutations) {
  const std::string doc = seed_document();
  for_all(0xF022ULL, 300, [&](Rng& rng, int) {
    std::string mutated = doc;
    const int flips = 1 + static_cast<int>(rng.next_below(8));
    for (int f = 0; f < flips; ++f) {
      const std::size_t pos = rng.next_below(mutated.size());
      mutated[pos] = static_cast<char>(rng.next_below(256));
    }
    expect_no_crash(mutated);
  });
}

TEST(JsonFuzzTest, Truncations) {
  const std::string doc = seed_document();
  for_all(0x7A7CULL, 200, [&](Rng& rng, int) {
    expect_no_crash(doc.substr(0, rng.next_below(doc.size() + 1)));
  });
}

TEST(JsonFuzzTest, Splices) {
  // Random substrings glued together: structurally plausible fragments in
  // implausible orders.
  const std::string doc = seed_document();
  for_all(0x5B11CEULL, 200, [&](Rng& rng, int) {
    std::string spliced;
    const int pieces = 2 + static_cast<int>(rng.next_below(4));
    for (int p = 0; p < pieces; ++p) {
      const std::size_t a = rng.next_below(doc.size());
      const std::size_t b = a + rng.next_below(doc.size() - a + 1);
      spliced += doc.substr(a, b - a);
    }
    expect_no_crash(spliced);
  });
}

TEST(JsonFuzzTest, RandomGarbage) {
  for_all(0x6A4BULL, 300, [](Rng& rng, int) {
    std::string garbage(rng.next_below(512), '\0');
    for (auto& c : garbage) c = static_cast<char>(rng.next_below(256));
    expect_no_crash(garbage);
  });
}

TEST(JsonFuzzTest, StructuredGarbage) {
  // Garbage drawn from JSON's own alphabet — much likelier to get deep into
  // the grammar than uniform bytes.
  static const char kAlphabet[] = "{}[]\",:0123456789.eE+-truefalsn \n\t\\u";
  for_all(0x57A6ULL, 500, [](Rng& rng, int) {
    std::string text(rng.next_below(256), ' ');
    for (auto& c : text) {
      c = kAlphabet[rng.next_below(sizeof(kAlphabet) - 1)];
    }
    expect_no_crash(text);
  });
}

TEST(JsonFuzzTest, DeepNestingDoesNotOverflowTheStack) {
  // A recursive-descent parser must bound (or survive) adversarial nesting
  // depth; 100k levels would smash an unguarded stack long before ASan
  // could say anything polite about it.
  for (const char open : {'[', '{'}) {
    for (std::size_t depth : {64u, 1024u, 100000u}) {
      std::string text(depth, open);
      expect_no_crash(text);
      // Balanced variant too (failure can't hide behind "unexpected EOF").
      std::string balanced = std::string(depth, '[');
      balanced += std::string(depth, ']');
      expect_no_crash(balanced);
    }
  }
}

TEST(JsonFuzzTest, NumberEdgeCases) {
  for (const char* text :
       {"1e999", "-1e999", "1e-999", "0.00000000000000000000001",
        "9223372036854775807", "9223372036854775808", "-9223372036854775808",
        "-9223372036854775809", "1E+308", "2E+308", "0", "-0", "1e",
        "1e+", ".5", "01", "+1", "--1", "0x10", "NaN", "Infinity",
        "184467440737095516150", "1.7976931348623157e308"}) {
    expect_no_crash(text);
  }
}

TEST(JsonFuzzTest, StringEdgeCases) {
  for (const std::string& text :
       {std::string("\"\\u0000\""), std::string("\"\\ud800\""),
        std::string("\"\\udfff\\udfff\""), std::string("\"\\ud83d\\ude00\""),
        std::string("\"\\"), std::string("\"\\x41\""),
        std::string("\"\\u00\""), std::string("\"unterminated"),
        std::string("\"\x80\xff\x01\""),
        std::string("\"a\0b\"", 5)}) {
    expect_no_crash(text);
  }
}

TEST(JsonFuzzTest, MutatedTimelinesThatParseStillVerifySafely) {
  // When a mutation survives the JSON grammar, the resulting timeline
  // graph — possibly with out-of-range indices or absurd values — must be
  // safe to run through the checker (which reports diagnostics, never
  // crashes).
  const std::string doc = seed_document();
  int checked = 0;
  for_all(0xC4ECULL, 400, [&](Rng& rng, int) {
    std::string mutated = doc;
    const std::size_t pos = rng.next_below(mutated.size());
    mutated[pos] = static_cast<char>(rng.next_below(128));
    check::TimelineGraph graph;
    if (check::timeline_from_json(mutated, &graph)) {
      (void)check::verify_timeline(graph);
      ++checked;
    }
  });
  // Single-byte mutations over hundreds of tries must sometimes still
  // parse (e.g. a digit flip) — otherwise this test is vacuous.
  EXPECT_GT(checked, 0);
}

}  // namespace
}  // namespace swcaffe
