#include "trace/tracer.h"

#include "base/log.h"

namespace swcaffe::trace {

namespace {

Span make_event(sim::EventKind kind, int track, double begin_s, double end_s,
                std::string name, std::string category) {
  Span e;
  e.kind = kind;
  e.actor = track;
  e.begin_s = begin_s;
  e.end_s = end_s;
  e.name = std::move(name);
  e.category = std::move(category);
  return e;
}

}  // namespace

Tracer::Track& Tracer::track(int id) { return tracks_[id]; }

const Tracer::Track* Tracer::find_track(int id) const {
  auto it = tracks_.find(id);
  return it == tracks_.end() ? nullptr : &it->second;
}

double Tracer::now(int track_id) const {
  const Track* t = find_track(track_id);
  return t ? t->clock : 0.0;
}

void Tracer::set_clock(int track_id, double t_s) {
  Track& t = track(track_id);
  if (!t.open.empty()) {
    SWC_CHECK_GE(t_s, log_.events()[t.open.back()].begin_s);
  }
  t.clock = t_s;
}

void Tracer::advance(int track_id, double dt_s) {
  SWC_CHECK_GE(dt_s, 0.0);
  track(track_id).clock += dt_s;
}

std::int64_t Tracer::begin_span(int track_id, std::string name,
                                std::string category) {
  Track& t = track(track_id);
  Span s = make_event(sim::EventKind::kSpan, track_id, t.clock, t.clock,
                      std::move(name), std::move(category));
  s.depth = static_cast<int>(t.open.size());
  s.parent = t.open.empty() ? kNoParent : t.open.back();
  const auto index = static_cast<std::int64_t>(log_.record(std::move(s)));
  t.open.push_back(index);
  return index;
}

void Tracer::end_span(int track_id) {
  Track& t = track(track_id);
  SWC_CHECK_MSG(!t.open.empty(),
                "end_span on track " << track_id << " with no open span");
  const std::int64_t index = t.open.back();
  t.open.pop_back();
  Span& s = log_.at(index);
  SWC_CHECK_GE(t.clock, s.begin_s);
  s.end_s = t.clock;
  // Counters are inclusive: fold the closed child into its parent.
  if (s.parent != kNoParent) log_.at(s.parent).traffic.add(s.traffic);
}

void Tracer::end_span(int track_id, double dt_s) {
  advance(track_id, dt_s);
  end_span(track_id);
}

void Tracer::charge(int track_id, const sim::TrafficCounters& c) {
  Track& t = track(track_id);
  if (t.open.empty()) return;
  log_.at(t.open.back()).traffic.add(c);
}

void Tracer::counter(int track_id, std::string name, double value) {
  const double t = track(track_id).clock;
  Span e = make_event(sim::EventKind::kCounter, track_id, t, t,
                      std::move(name), "");
  e.value = value;
  log_.record(std::move(e));
}

void Tracer::instant(int track_id, std::string name, std::string category) {
  const double t = track(track_id).clock;
  log_.record(make_event(sim::EventKind::kInstant, track_id, t, t,
                         std::move(name), std::move(category)));
}

std::int64_t Tracer::async_span(int track_id, std::string name,
                                std::string category, double begin_s,
                                double end_s) {
  log_.record(make_event(sim::EventKind::kAsync, track_id, begin_s, end_s,
                         std::move(name), std::move(category)));
  return async_spans_++;
}

void Tracer::set_track_name(int track_id, std::string name) {
  track_names_[track_id] = std::move(name);
}

std::size_t Tracer::open_spans() const {
  std::size_t n = 0;
  for (const auto& [id, t] : tracks_) n += t.open.size();
  return n;
}

void Tracer::clear() {
  tracks_.clear();
  log_.clear();
  async_spans_ = 0;
  // track_names_ kept: naming is configuration, not recorded data.
}

}  // namespace swcaffe::trace
