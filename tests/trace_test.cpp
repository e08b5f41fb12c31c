// Tracing subsystem: span nesting over simulated time, hw instrumentation
// aggregates matching the TrafficLedgers, Chrome-trace export validity, and
// the central invariant that tracing is purely observational — every
// simulated number is bit-identical with the tracer attached or not.
#include <gtest/gtest.h>

#include <cctype>
#include <cstddef>
#include <sstream>
#include <string>
#include <vector>

#include "base/log.h"
#include "collective_fixtures.h"
#include "core/models.h"
#include "core/spec.h"
#include "fixtures.h"
#include "hw/chip.h"
#include "hw/cost_model.h"
#include "hw/dma.h"
#include "hw/rlc.h"
#include "parallel/trainer.h"
#include "swdnn/layer_estimate.h"
#include "swgemm/mesh_gemm.h"
#include "topo/allreduce.h"
#include "trace/chrome_trace.h"
#include "trace/report.h"
#include "trace/tracer.h"

namespace swcaffe {
namespace {

// ---------------------------------------------------------------------------
// Minimal JSON validator: parses one value, rejects malformed documents.
// Enough to assert the exporters emit real JSON without a library.
class JsonParser {
 public:
  explicit JsonParser(const std::string& text) : s_(text) {}

  bool valid() {
    skip_ws();
    if (!value()) return false;
    skip_ws();
    return pos_ == s_.size();
  }

 private:
  bool value() {
    if (pos_ >= s_.size()) return false;
    switch (s_[pos_]) {
      case '{': return object();
      case '[': return array();
      case '"': return string();
      case 't': return literal("true");
      case 'f': return literal("false");
      case 'n': return literal("null");
      default: return number();
    }
  }
  bool object() {
    ++pos_;  // '{'
    skip_ws();
    if (peek() == '}') { ++pos_; return true; }
    while (true) {
      skip_ws();
      if (!string()) return false;
      skip_ws();
      if (peek() != ':') return false;
      ++pos_;
      skip_ws();
      if (!value()) return false;
      skip_ws();
      if (peek() == ',') { ++pos_; continue; }
      if (peek() == '}') { ++pos_; return true; }
      return false;
    }
  }
  bool array() {
    ++pos_;  // '['
    skip_ws();
    if (peek() == ']') { ++pos_; return true; }
    while (true) {
      skip_ws();
      if (!value()) return false;
      skip_ws();
      if (peek() == ',') { ++pos_; continue; }
      if (peek() == ']') { ++pos_; return true; }
      return false;
    }
  }
  bool string() {
    if (peek() != '"') return false;
    ++pos_;
    while (pos_ < s_.size() && s_[pos_] != '"') {
      if (s_[pos_] == '\\') {
        if (pos_ + 1 >= s_.size()) return false;
        pos_ += 2;
      } else if (static_cast<unsigned char>(s_[pos_]) < 0x20) {
        return false;  // raw control character: invalid JSON
      } else {
        ++pos_;
      }
    }
    if (pos_ >= s_.size()) return false;
    ++pos_;
    return true;
  }
  bool number() {
    const std::size_t start = pos_;
    if (peek() == '-') ++pos_;
    while (pos_ < s_.size() &&
           (std::isdigit(static_cast<unsigned char>(s_[pos_])) ||
            s_[pos_] == '.' || s_[pos_] == 'e' || s_[pos_] == 'E' ||
            s_[pos_] == '+' || s_[pos_] == '-')) {
      ++pos_;
    }
    return pos_ > start;
  }
  bool literal(const char* lit) {
    const std::size_t n = std::string(lit).size();
    if (s_.compare(pos_, n, lit) != 0) return false;
    pos_ += n;
    return true;
  }
  char peek() const { return pos_ < s_.size() ? s_[pos_] : '\0'; }
  void skip_ws() {
    while (pos_ < s_.size() &&
           std::isspace(static_cast<unsigned char>(s_[pos_]))) {
      ++pos_;
    }
  }

  const std::string& s_;
  std::size_t pos_ = 0;
};

// Extracts `"key": "value"` occurrences of a string field, in order.
std::vector<std::string> string_fields(const std::string& json,
                                       const std::string& key) {
  std::vector<std::string> out;
  const std::string pat = "\"" + key + "\":\"";
  std::size_t pos = 0;
  while ((pos = json.find(pat, pos)) != std::string::npos) {
    pos += pat.size();
    const std::size_t end = json.find('"', pos);
    out.push_back(json.substr(pos, end - pos));
    pos = end;
  }
  return out;
}

// ---------------------------------------------------------------------------
// Tracer core

TEST(TracerTest, SpansNestAndClockIsMonotonic) {
  trace::Tracer t;
  const auto outer = t.begin_span(0, "iteration", "train");
  t.advance(0, 1.0);
  const auto inner = t.begin_span(0, "layer", "layer");
  t.advance(0, 2.0);
  t.end_span(0);
  t.advance(0, 0.5);
  t.end_span(0);

  ASSERT_EQ(t.spans().size(), 2u);
  const trace::Span& o = t.spans()[outer];
  const trace::Span& i = t.spans()[inner];
  EXPECT_EQ(o.depth, 0);
  EXPECT_EQ(o.parent, trace::kNoParent);
  EXPECT_EQ(i.depth, 1);
  EXPECT_EQ(i.parent, outer);
  EXPECT_DOUBLE_EQ(o.begin_s, 0.0);
  EXPECT_DOUBLE_EQ(o.end_s, 3.5);
  EXPECT_DOUBLE_EQ(i.begin_s, 1.0);
  EXPECT_DOUBLE_EQ(i.end_s, 3.0);
  EXPECT_GE(i.begin_s, o.begin_s);
  EXPECT_LE(i.end_s, o.end_s);
  EXPECT_EQ(t.open_spans(), 0u);
}

TEST(TracerTest, CountersFoldInclusivelyIntoParents) {
  trace::Tracer t;
  t.begin_span(0, "parent", "x");
  sim::TrafficCounters direct;
  direct.dma_get_bytes = 100;
  t.charge(0, direct);
  t.begin_span(0, "child", "x");
  sim::TrafficCounters nested;
  nested.dma_put_bytes = 40;
  nested.flops = 7.0;
  t.charge(0, nested);
  t.end_span(0);
  t.end_span(0);

  const trace::Span& child = t.spans()[1];
  const trace::Span& parent = t.spans()[0];
  EXPECT_EQ(child.traffic.dma_put_bytes, 40u);
  EXPECT_EQ(parent.traffic.dma_get_bytes, 100u);
  EXPECT_EQ(parent.traffic.dma_put_bytes, 40u);  // inclusive of the child
  EXPECT_DOUBLE_EQ(parent.traffic.flops, 7.0);
}

TEST(TracerTest, ChargeOutsideAnySpanIsIgnored) {
  trace::Tracer t;
  sim::TrafficCounters c;
  c.rlc_bytes = 8;
  t.charge(0, c);  // hw engines may run before any span opens
  EXPECT_TRUE(t.spans().empty());
}

TEST(TracerTest, SetClockCannotRewindPastOpenSpan) {
  trace::Tracer t;
  t.advance(0, 5.0);
  t.begin_span(0, "s", "x");
  EXPECT_THROW(t.set_clock(0, 1.0), base::CheckError);
  t.set_clock(0, 9.0);  // forward jumps are fine
  t.end_span(0);
  EXPECT_DOUBLE_EQ(t.spans()[0].end_s, 9.0);
}

TEST(TracerTest, SpanScopeIsNullSafe) {
  trace::SpanScope scope(nullptr, 0, "noop", "x");  // must not crash
  trace::Tracer t;
  {
    trace::SpanScope live(&t, 0, "live", "x");
    t.advance(0, 1.0);
  }
  ASSERT_EQ(t.spans().size(), 1u);
  EXPECT_DOUBLE_EQ(t.spans()[0].duration_s(), 1.0);
}

// ---------------------------------------------------------------------------
// Hardware instrumentation vs ledgers

TEST(TraceHwTest, DmaSpansMatchEngineLedger) {
  hw::CostModel cost;
  trace::Tracer tracer;
  cost.set_tracer(&tracer, 0);
  hw::DmaEngine dma(cost);

  std::vector<double> src(4096, 1.0), dst(4096, 0.0);
  tracer.begin_span(0, "kernel", "test");
  dma.get(std::span<const double>(src).subspan(0, 1024),
          std::span<double>(dst).subspan(0, 1024), 64);
  dma.put(std::span<const double>(src).subspan(0, 512),
          std::span<double>(dst).subspan(0, 512), 64);
  dma.get_strided(src, 64, std::span<double>(dst).subspan(0, 32 * 16), 16, 32,
                  8);
  tracer.end_span(0);

  const trace::Span& outer = tracer.spans()[0];
  EXPECT_EQ(outer.traffic.dma_get_bytes, dma.ledger().dma_get_bytes);
  EXPECT_EQ(outer.traffic.dma_put_bytes, dma.ledger().dma_put_bytes);
  EXPECT_DOUBLE_EQ(outer.duration_s(), dma.ledger().elapsed_s);
  // One "hw.dma" child per transfer, nested in the kernel span.
  int dma_spans = 0;
  for (const auto& s : tracer.spans()) {
    if (s.category == "hw.dma") {
      ++dma_spans;
      EXPECT_EQ(s.parent, 0);
    }
  }
  EXPECT_EQ(dma_spans, 3);
}

TEST(TraceHwTest, RlcSpansMatchFabricLedger) {
  hw::HwParams params;
  hw::RlcFabric fabric(params);
  trace::Tracer tracer;
  fabric.set_tracer(&tracer, 0);

  std::vector<double> msg(32, 1.5);
  tracer.begin_span(0, "kernel", "test");
  fabric.row_broadcast(0, 0, msg);
  fabric.send(1, 0, 1, 5, msg);
  tracer.end_span(0);
  for (int c = 1; c < params.mesh_cols; ++c) fabric.receive_row(0, c);
  fabric.receive_row(1, 5);

  const trace::Span& outer = tracer.spans()[0];
  EXPECT_EQ(outer.traffic.rlc_bytes, fabric.ledger().rlc_bytes);
  EXPECT_DOUBLE_EQ(outer.duration_s(), fabric.ledger().elapsed_s);
}

TEST(TraceHwTest, MeshGemmSpanMatchesStats) {
  hw::CoreGroup cg{hw::HwParams{}};
  trace::Tracer tracer;
  cg.set_tracer(&tracer, 0);

  const int n = 16;
  std::vector<double> a(n * n, 1.0), b(n * n, 2.0), c(n * n, 0.0);
  const auto stats = gemm::mesh_gemm(cg, a, b, c, n, n, n);

  ASSERT_EQ(tracer.open_spans(), 0u);
  const trace::Span* top = nullptr;
  for (const auto& s : tracer.spans()) {
    if (s.name == "mesh_gemm") top = &s;
  }
  ASSERT_NE(top, nullptr);
  EXPECT_NEAR(top->duration_s(), stats.ledger.elapsed_s,
              1e-12 * stats.ledger.elapsed_s);
  EXPECT_EQ(top->traffic.dma_bytes(), stats.ledger.dma_bytes());
  EXPECT_EQ(top->traffic.rlc_bytes, stats.ledger.rlc_bytes);
  EXPECT_DOUBLE_EQ(top->traffic.flops, stats.ledger.flops);
}

TEST(TraceHwTest, MeshGemmNumbersBitIdenticalWithTracing) {
  const int n = 16;
  std::vector<double> a(n * n, 1.0), b(n * n, 2.0);

  hw::CoreGroup plain{hw::HwParams{}};
  std::vector<double> c1(n * n, 0.0);
  const auto untraced = gemm::mesh_gemm(plain, a, b, c1, n, n, n);

  hw::CoreGroup traced_cg{hw::HwParams{}};
  trace::Tracer tracer;
  traced_cg.set_tracer(&tracer, 0);
  std::vector<double> c2(n * n, 0.0);
  const auto traced = gemm::mesh_gemm(traced_cg, a, b, c2, n, n, n);

  EXPECT_EQ(traced.ledger.elapsed_s, untraced.ledger.elapsed_s);
  EXPECT_EQ(traced.dma_seconds, untraced.dma_seconds);
  EXPECT_EQ(traced.rlc_seconds, untraced.rlc_seconds);
  EXPECT_EQ(traced.compute_seconds, untraced.compute_seconds);
  EXPECT_EQ(c1, c2);
}

// ---------------------------------------------------------------------------
// Layer estimates

TEST(TraceLayerTest, EstimatesBitIdenticalWithTracing) {
  const auto descs = fixtures::alexnet_descs(2);
  hw::CostModel plain;
  trace::Tracer tracer;
  hw::CostModel traced;
  traced.set_tracer(&tracer, 0);

  bool saw_conv = false;
  for (const auto& d : descs) {
    const bool first = d.kind == core::LayerKind::kConv && !saw_conv;
    if (d.kind == core::LayerKind::kConv) saw_conv = true;
    const auto a = dnn::estimate_layer_sw(plain, d, first);
    const auto b = dnn::estimate_layer_sw(traced, d, first);
    EXPECT_EQ(a.fwd_s, b.fwd_s) << d.name;  // bit-identical, not just close
    EXPECT_EQ(a.bwd_s, b.bwd_s) << d.name;
  }
  EXPECT_EQ(tracer.open_spans(), 0u);
}

TEST(TraceLayerTest, ReportAggregatesMatchCostModelTable) {
  const auto descs = fixtures::alexnet_descs(2);
  trace::Tracer tracer;
  hw::CostModel cost;
  cost.set_tracer(&tracer, 0);

  std::vector<double> expected;
  double expected_total = 0.0;
  bool saw_conv = false;
  for (const auto& d : descs) {
    const bool first = d.kind == core::LayerKind::kConv && !saw_conv;
    if (d.kind == core::LayerKind::kConv) saw_conv = true;
    const auto sw = dnn::estimate_layer_sw(cost, d, first);
    expected.push_back(sw.total());
    expected_total += sw.total();
  }

  const trace::Report report = trace::Report::build(tracer, "layer");
  // Layers with zero estimated time (data/accuracy) may or may not emit a
  // span; every traced row must match its table entry.
  std::size_t next = 0;
  for (const auto& row : report.rows()) {
    while (next < descs.size() && descs[next].name != row.name) ++next;
    ASSERT_LT(next, descs.size()) << "unexpected report row " << row.name;
    EXPECT_NEAR(row.total_s, expected[next], 1e-12 * (expected[next] + 1e-30))
        << row.name;
    ++next;
  }
  EXPECT_NEAR(report.total_seconds(), expected_total, 1e-9 * expected_total);
}

// ---------------------------------------------------------------------------
// All-reduce

/// The events of `kind` in the tracer's log, in record order.
std::vector<sim::Event> events_of(const trace::Tracer& tracer,
                                  sim::EventKind kind) {
  std::vector<sim::Event> out;
  for (const sim::Event& e : tracer.log().events()) {
    if (e.kind == kind) out.push_back(e);
  }
  return out;
}

TEST(TraceAllreduceTest, CostEmitsOneSpanWithBreakdownCounters) {
  const topo::NetParams net = topo::sunway_network();
  topo::Topology topo{8, 4};
  trace::Tracer tracer;
  const auto c =
      topo::cost_rhd(64 << 20, topo, net, topo::Placement::kRoundRobin);
  topo::trace_allreduce(&tracer, 0, "allreduce.rhd", c);

  const auto spans = events_of(tracer, sim::EventKind::kSpan);
  ASSERT_EQ(spans.size(), 1u);
  const trace::Span& s = spans[0];
  EXPECT_EQ(s.name, "allreduce.rhd");
  EXPECT_EQ(s.category, "comm.allreduce");
  EXPECT_DOUBLE_EQ(s.duration_s(), c.seconds);
  EXPECT_EQ(s.traffic.net_bytes,
            static_cast<std::size_t>(c.beta1_bytes + c.beta2_bytes));
  const auto counters = events_of(tracer, sim::EventKind::kCounter);
  ASSERT_EQ(counters.size(), 4u);
  EXPECT_EQ(counters[0].name, trace::kCounterAlphaTerms);
  EXPECT_DOUBLE_EQ(counters[0].value, c.alpha_terms);
}

TEST(TraceAllreduceTest, NonPowerOfTwoStillEmitsExactlyOneSpan) {
  // The MPICH fold/unfold recursion prices the core algorithm and the fold
  // separately; the traced collective is still one span of the total.
  const topo::NetParams net = topo::sunway_network();
  topo::Topology topo{6, 4};
  trace::Tracer tracer;
  const auto c =
      topo::cost_rhd(1 << 20, topo, net, topo::Placement::kAdjacent);
  topo::trace_allreduce(&tracer, 0, "allreduce.rhd", c);
  const auto spans = events_of(tracer, sim::EventKind::kSpan);
  ASSERT_EQ(spans.size(), 1u);
  EXPECT_EQ(spans[0].duration_s(), c.seconds);
}

TEST(TraceAllreduceTest, FunctionalVariantsTraceTheSameBreakdown) {
  // A functional ring all-reduce is recorded as the price of its payload:
  // one span named for the algorithm, as long as cost_ring says.
  const topo::NetParams net = topo::sunway_network();
  topo::Topology topo{4, 4};
  std::vector<std::vector<float>> data(4, std::vector<float>(64, 1.0f));
  trace::Tracer tracer;
  fixtures::run_allreduce(topo::AllreduceAlgo::kRing, topo, data);
  for (const auto& v : data) {
    EXPECT_EQ(v, std::vector<float>(64, 4.0f));
  }
  const auto c =
      topo::cost_ring(64 * 4, topo, net, topo::Placement::kAdjacent);
  topo::trace_allreduce(&tracer, 0,
                        topo::allreduce_span_name(topo::AllreduceAlgo::kRing),
                        c);
  const auto spans = events_of(tracer, sim::EventKind::kSpan);
  ASSERT_EQ(spans.size(), 1u);
  EXPECT_EQ(spans[0].name, "allreduce.ring");
  EXPECT_DOUBLE_EQ(spans[0].duration_s(), c.seconds);
}

// ---------------------------------------------------------------------------
// Chrome trace export

TEST(ChromeTraceTest, ExportIsValidJsonWithMatchedEvents) {
  trace::Tracer tracer;
  tracer.set_track_name(0, "node");
  tracer.begin_span(0, "iteration \"zero\"\n", "train");  // hostile name
  tracer.advance(0, 1e-3);
  tracer.begin_span(0, "layer", "layer");
  tracer.end_span(0, 2e-3);
  tracer.counter(0, "loss", 0.5);
  tracer.instant(0, "marker", "phase");
  tracer.end_span(0);

  std::ostringstream os;
  trace::write_chrome_trace(tracer, os);
  const std::string json = os.str();

  EXPECT_TRUE(JsonParser(json).valid()) << json;
  const auto phases = string_fields(json, "ph");
  int depth = 0, begins = 0, ends = 0;
  for (const auto& ph : phases) {
    if (ph == "B") { ++depth; ++begins; }
    if (ph == "E") { --depth; ++ends; ASSERT_GE(depth, 0); }
  }
  EXPECT_EQ(depth, 0);
  EXPECT_EQ(begins, 2);
  EXPECT_EQ(ends, 2);
  EXPECT_NE(json.find("\"node\""), std::string::npos);      // thread_name
  EXPECT_NE(json.find("\"ph\":\"C\""), std::string::npos);  // counter
  EXPECT_NE(json.find("\"ph\":\"i\""), std::string::npos);  // instant
}

TEST(ChromeTraceTest, ZeroDurationSpansKeepStackDiscipline) {
  trace::Tracer tracer;
  tracer.begin_span(0, "outer", "x");
  tracer.begin_span(0, "empty", "x");  // zero simulated duration
  tracer.end_span(0);
  tracer.end_span(0, 1e-3);

  std::ostringstream os;
  trace::write_chrome_trace(tracer, os);
  const auto phases = string_fields(os.str(), "ph");
  int depth = 0;
  for (const auto& ph : phases) {
    if (ph == "B") ++depth;
    if (ph == "E") { --depth; ASSERT_GE(depth, 0); }
  }
  EXPECT_EQ(depth, 0);
}

TEST(ChromeTraceTest, RejectsUnbalancedTrace) {
  trace::Tracer tracer;
  tracer.begin_span(0, "open", "x");
  std::ostringstream os;
  EXPECT_THROW(trace::write_chrome_trace(tracer, os), base::CheckError);
}

TEST(ChromeTraceTest, JsonEscape) {
  EXPECT_EQ(trace::json_escape("a\"b\\c\n\t"), "a\\\"b\\\\c\\n\\t");
  EXPECT_EQ(trace::json_escape(std::string(1, '\x01')), "\\u0001");
}

TEST(ReportTest, JsonOutputIsValid) {
  trace::Tracer tracer;
  tracer.begin_span(0, "conv1", "layer");
  sim::TrafficCounters c;
  c.dma_get_bytes = 1 << 20;
  c.flops = 1e9;
  tracer.charge(0, c);
  tracer.end_span(0, 0.01);

  const trace::Report report = trace::Report::build(tracer, "layer");
  ASSERT_EQ(report.rows().size(), 1u);
  EXPECT_DOUBLE_EQ(report.rows()[0].total_s, 0.01);
  EXPECT_NEAR(report.rows()[0].gflops(), 100.0, 1e-9);
  std::ostringstream os;
  report.write_json(os);
  EXPECT_TRUE(JsonParser(os.str()).valid()) << os.str();
}

// ---------------------------------------------------------------------------
// Trainer end-to-end

core::NetSpec tiny_cnn(int sub_batch) {
  core::NetSpec spec;
  spec.name = "trace-test";
  spec.inputs.push_back({"data", {sub_batch, 2, 8, 8}});
  spec.inputs.push_back({"label", {sub_batch}});
  spec.layers.push_back(core::conv_spec("c1", "data", "c1", 8, 3, 1, 1));
  spec.layers.push_back(core::relu_spec("r1", "c1", "r1"));
  spec.layers.push_back(core::ip_spec("fc", "r1", "scores", 4));
  spec.layers.push_back(
      core::softmax_loss_spec("loss", "scores", "label", "loss"));
  return spec;
}

io::DatasetSpec tiny_dataset() {
  io::DatasetSpec d;
  d.num_samples = 512;
  d.classes = 4;
  d.channels = 2;
  d.height = d.width = 8;
  return d;
}

parallel::TrainStats run_trainer(trace::Tracer* tracer, int iters) {
  core::SolverSpec solver;
  solver.base_lr = 0.05f;
  solver.momentum = 0.9f;
  parallel::TrainOptions opt;
  opt.max_iter = iters;
  opt.display_every = 2;
  opt.tracer = tracer;
  parallel::Trainer trainer(tiny_cnn(2), solver, tiny_dataset(),
                            io::DiskParams{}, opt);
  return trainer.run();
}

TEST(TraceTrainerTest, StatsBitIdenticalWithAndWithoutTracer) {
  const parallel::TrainStats plain = run_trainer(nullptr, 8);
  trace::Tracer tracer;
  const parallel::TrainStats traced = run_trainer(&tracer, 8);

  EXPECT_EQ(traced.simulated_seconds, plain.simulated_seconds);
  EXPECT_EQ(traced.simulated_io_seconds, plain.simulated_io_seconds);
  EXPECT_EQ(traced.final_loss, plain.final_loss);
  ASSERT_EQ(traced.losses.size(), plain.losses.size());
  for (std::size_t i = 0; i < plain.losses.size(); ++i) {
    EXPECT_EQ(traced.losses[i], plain.losses[i]);
  }
}

TEST(TraceTrainerTest, TimelineMatchesSimulatedSeconds) {
  trace::Tracer tracer;
  const parallel::TrainStats stats = run_trainer(&tracer, 6);

  EXPECT_EQ(tracer.open_spans(), 0u);
  double iteration_total = 0.0;
  int iterations = 0, cg_spans = 0;
  for (const auto& s : tracer.spans()) {
    if (s.category == "train.iteration") {
      ++iterations;
      iteration_total += s.duration_s();
    }
    if (s.category == "train.cg") ++cg_spans;
  }
  EXPECT_EQ(iterations, 6);
  EXPECT_EQ(cg_spans, 6 * 4);  // one span per core group per iteration
  EXPECT_NEAR(iteration_total, stats.simulated_seconds,
              1e-9 * stats.simulated_seconds);

  // The whole run exports as a valid, balanced Chrome trace.
  std::ostringstream os;
  trace::write_chrome_trace(tracer, os);
  EXPECT_TRUE(JsonParser(os.str()).valid());
}

}  // namespace
}  // namespace swcaffe
