#include "trace/chrome_trace.h"

#include <algorithm>
#include <cinttypes>
#include <cstdio>
#include <fstream>
#include <ostream>
#include <vector>

#include "base/log.h"

namespace swcaffe::trace {

namespace {

constexpr const char* kProcessName = "sw26010-sim";

/// Formats a double without locale surprises and with enough digits to
/// round-trip microsecond-scale simulated times.
std::string num(double v) {
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%.9g", v);
  return buf;
}

std::string traffic_args(const sim::TrafficCounters& t) {
  std::string out = "{";
  out += "\"dma_get_bytes\":" + std::to_string(t.dma_get_bytes);
  out += ",\"dma_put_bytes\":" + std::to_string(t.dma_put_bytes);
  out += ",\"rlc_bytes\":" + std::to_string(t.rlc_bytes);
  out += ",\"mpe_bytes\":" + std::to_string(t.mpe_bytes);
  out += ",\"net_bytes\":" + std::to_string(t.net_bytes);
  out += ",\"flops\":" + num(t.flops);
  out += "}";
  return out;
}

/// One B or E event belonging to a span, for the global time sort.
struct Edge {
  double t_s;
  bool begin;
  const Span* span;
};

}  // namespace

std::string json_escape(const std::string& s) {
  std::string out;
  out.reserve(s.size() + 8);
  for (const char c : s) {
    switch (c) {
      case '"': out += "\\\""; break;
      case '\\': out += "\\\\"; break;
      case '\n': out += "\\n"; break;
      case '\r': out += "\\r"; break;
      case '\t': out += "\\t"; break;
      default:
        if (static_cast<unsigned char>(c) < 0x20) {
          char buf[8];
          std::snprintf(buf, sizeof(buf), "\\u%04x", c);
          out += buf;
        } else {
          out += c;
        }
    }
  }
  return out;
}

void write_chrome_trace(const Tracer& tracer, std::ostream& os) {
  SWC_CHECK_MSG(tracer.open_spans() == 0,
                "cannot export a trace with " << tracer.open_spans()
                                              << " open span(s)");
  os << "{\"displayTimeUnit\":\"ms\",\"traceEvents\":[";
  bool first = true;
  auto emit = [&](const std::string& event) {
    if (!first) os << ",";
    first = false;
    os << "\n" << event;
  };

  // Process/thread metadata so Perfetto shows named tracks.
  emit(std::string("{\"ph\":\"M\",\"pid\":0,\"name\":\"process_name\","
                   "\"args\":{\"name\":\"") +
       kProcessName + "\"}}");
  for (const auto& [track, name] : tracer.track_names()) {
    emit("{\"ph\":\"M\",\"pid\":0,\"tid\":" + std::to_string(track) +
         ",\"name\":\"thread_name\",\"args\":{\"name\":\"" +
         json_escape(name) + "\"}}");
  }

  // Duration events. Chrome requires each tid's B/E stream to be time-sorted
  // and stack-disciplined. At a tied timestamp the valid order is: close
  // spans that began earlier (innermost first), then zero-duration spans as
  // immediately-nested B..E pairs, then open spans that end later (outermost
  // first). Encoded as (rank, subkey) below.
  const std::vector<sim::Event>& events = tracer.log().events();
  std::vector<Edge> edges;
  for (const sim::Event& s : events) {
    if (s.kind != sim::EventKind::kSpan) continue;
    edges.push_back({s.begin_s, true, &s});
    edges.push_back({s.end_s, false, &s});
  }
  auto rank = [](const Edge& e) {
    if (e.span->begin_s == e.span->end_s) return 1;  // zero-duration span
    return e.begin ? 2 : 0;
  };
  auto subkey = [&](const Edge& e) {
    switch (rank(e)) {
      case 0: return -e.span->depth;  // inner E first
      case 1:                         // B outer..inner, then E inner..outer
        return e.begin ? e.span->depth : (1 << 20) - e.span->depth;
      default: return e.span->depth;  // outer B first
    }
  };
  std::stable_sort(edges.begin(), edges.end(),
                   [&](const Edge& a, const Edge& b) {
                     if (a.t_s != b.t_s) return a.t_s < b.t_s;
                     if (rank(a) != rank(b)) return rank(a) < rank(b);
                     return subkey(a) < subkey(b);
                   });
  for (const Edge& e : edges) {
    const Span& s = *e.span;
    std::string ev = "{\"ph\":\"";
    ev += e.begin ? 'B' : 'E';
    ev += "\",\"pid\":0,\"tid\":" + std::to_string(s.actor) +
          ",\"ts\":" + num(e.t_s * 1e6);
    if (e.begin) {
      ev += ",\"name\":\"" + json_escape(s.name) + "\",\"cat\":\"" +
            json_escape(s.category) + "\"";
    } else if (!s.traffic.empty()) {
      ev += ",\"args\":{\"traffic\":" + traffic_args(s.traffic) + "}";
    }
    ev += "}";
    emit(ev);
  }

  // Point and async events keep record order within each kind.
  for (const sim::Event& c : events) {
    if (c.kind != sim::EventKind::kCounter) continue;
    emit("{\"ph\":\"C\",\"pid\":0,\"tid\":" + std::to_string(c.actor) +
         ",\"ts\":" + num(c.begin_s * 1e6) + ",\"name\":\"" +
         json_escape(c.name) + "\",\"args\":{\"value\":" + num(c.value) +
         "}}");
  }
  for (const sim::Event& i : events) {
    if (i.kind != sim::EventKind::kInstant) continue;
    emit("{\"ph\":\"i\",\"s\":\"t\",\"pid\":0,\"tid\":" +
         std::to_string(i.actor) + ",\"ts\":" + num(i.begin_s * 1e6) +
         ",\"name\":\"" + json_escape(i.name) + "\",\"cat\":\"" +
         json_escape(i.category) + "\"}");
  }
  // Async spans ("b"/"e" pairs keyed by id): overlap-tolerant intervals —
  // Perfetto gives each id its own sub-lane, so per-request queue spans that
  // coexist in time render side by side instead of violating the B/E stack.
  // Ids count async spans in record order (Tracer::async_span's return).
  std::int64_t id = 0;
  for (const sim::Event& a : events) {
    if (a.kind != sim::EventKind::kAsync) continue;
    const std::string common = ",\"pid\":0,\"tid\":" + std::to_string(a.actor) +
                               ",\"id\":" + std::to_string(id++) +
                               ",\"cat\":\"" + json_escape(a.category) +
                               "\",\"name\":\"" + json_escape(a.name) + "\"";
    emit("{\"ph\":\"b\",\"ts\":" + num(a.begin_s * 1e6) + common + "}");
    emit("{\"ph\":\"e\",\"ts\":" + num(a.end_s * 1e6) + common + "}");
  }
  os << "\n]}\n";
}

void save_chrome_trace(const Tracer& tracer, const std::string& path) {
  std::ofstream out(path);
  SWC_CHECK_MSG(out.good(), "cannot open trace output file: " << path);
  write_chrome_trace(tracer, out);
}

}  // namespace swcaffe::trace
