#include "harness.h"

#include <sys/resource.h>

#include <cstdio>
#include <fstream>
#include <stdexcept>

namespace swcbench {

double now_s() {
  static const auto t0 = std::chrono::steady_clock::now();
  return std::chrono::duration<double>(std::chrono::steady_clock::now() - t0)
      .count();
}

double peak_rss_mb() {
  rusage u{};
  getrusage(RUSAGE_SELF, &u);
  return static_cast<double>(u.ru_maxrss) / 1024.0;  // ru_maxrss is in KiB
}

std::uint64_t mix(std::uint64_t x) {
  x += 0x9e3779b97f4a7c15ULL;
  x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ULL;
  x = (x ^ (x >> 27)) * 0x94d049bb133111ebULL;
  return x ^ (x >> 31);
}

double unit(std::uint64_t seed, std::uint64_t a, std::uint64_t b) {
  const std::uint64_t x = mix(mix(mix(seed) ^ a) ^ b);
  return static_cast<double>(x >> 11) * 0x1.0p-53;
}

double median(std::vector<double> v) {
  if (v.empty()) return 0.0;
  const std::size_t mid = v.size() / 2;
  std::sort(v.begin(), v.end());
  return v.size() % 2 ? v[mid] : 0.5 * (v[mid - 1] + v[mid]);
}

double geomean(const std::vector<double>& v) {
  if (v.empty()) return 0.0;
  double log_sum = 0.0;
  for (double x : v) log_sum += std::log(x);
  return std::exp(log_sum / static_cast<double>(v.size()));
}

void Result::count_op(const std::vector<std::string>& failures, int index) {
  ++attempted_;
  if (failures.empty()) return;
  ++failed_;
  for (const auto& f : failures) {
    errors_.push_back("op " + std::to_string(index) + ": " + f);
  }
}

namespace {

std::string json_string(const std::string& s) {
  std::string out = "\"";
  for (char c : s) {
    if (c == '"' || c == '\\') {
      out += '\\';
      out += c;
    } else if (static_cast<unsigned char>(c) < 0x20) {
      char buf[8];
      std::snprintf(buf, sizeof buf, "\\u%04x", c);
      out += buf;
    } else {
      out += c;
    }
  }
  return out + "\"";
}

std::string json_number(double v) {
  if (!std::isfinite(v)) return "null";
  char buf[32];
  std::snprintf(buf, sizeof buf, "%.17g", v);
  return buf;
}

}  // namespace

void Result::save(const std::string& path, const Config& cfg) const {
  std::ofstream out(path);
  if (!out) throw std::runtime_error("cannot write " + path);
  out << "{\n  \"workload\": " << json_string(cfg.workload)
      << ",\n  \"seed\": " << cfg.seed
      << ",\n  \"trace\": " << (cfg.trace ? "true" : "false")
      << ",\n  \"correct\": " << (correct() ? "true" : "false")
      << ",\n  \"attempted\": " << attempted_
      << ",\n  \"failed\": " << failed_ << ",\n  \"errors\": [";
  for (std::size_t i = 0; i < errors_.size(); ++i) {
    out << (i ? ", " : "") << json_string(errors_[i]);
  }
  out << "],\n  \"metrics\": {";
  bool first = true;
  for (const auto& [name, vu] : metrics_) {
    out << (first ? "\n    " : ",\n    ") << json_string(name)
        << ": {\"value\": " << json_number(vu.first)
        << ", \"unit\": " << json_string(vu.second) << "}";
    first = false;
  }
  out << "\n  }\n}\n";
  if (!out) throw std::runtime_error("failed writing " + path);
}

Timer::Scope::Scope(trace::Tracer* tracer, const char* name,
                    const char* category)
    : tracer_(tracer) {
  if (tracer_ == nullptr) return;
  tracer_->set_clock(0, now_s());
  tracer_->begin_span(0, name, category);
}

Timer::Scope::~Scope() {
  if (tracer_ == nullptr) return;
  tracer_->set_clock(0, now_s());
  tracer_->end_span(0);
}

void layer_metrics(const trace::Tracer& tracer, Result& res) {
  const auto& spans = tracer.spans();
  double op_total = 0.0;
  double covered = 0.0;
  std::map<std::string, std::vector<double>> op_calls;
  std::map<std::string, std::vector<double>> setup_calls;
  for (const trace::Span& s : spans) {
    if (s.category == "op") op_total += s.duration_s();
    if (s.category != "layer" || s.parent == trace::kNoParent) continue;
    const trace::Span& top = spans[static_cast<std::size_t>(s.parent)];
    if (top.category == "op") {
      op_calls[s.name].push_back(s.duration_s());
      covered += s.duration_s();
    } else if (top.category == "setup") {
      setup_calls[s.name].push_back(s.duration_s());
    }
  }
  for (const auto& [name, calls] : op_calls) {
    double sum = 0.0;
    for (double d : calls) sum += d;
    res.metric(name + ".share", op_total > 0 ? 100.0 * sum / op_total : 0.0,
               "%");
    res.metric(name + ".ms_p50", 1e3 * median(calls), "ms");
  }
  for (const auto& [name, calls] : setup_calls) {
    res.metric("setup." + name + ".ms_p50", 1e3 * median(calls), "ms");
  }
  res.metric("bench.self.share",
             op_total > 0 ? 100.0 * (op_total - covered) / op_total : 0.0, "%");
}

}  // namespace swcbench
