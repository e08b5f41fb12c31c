#include "check/timeline.h"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <map>
#include <utility>

#include "check/comm_graph.h"

namespace swcaffe::check {

namespace {

/// Times arrive from bit-exact busy-interval chaining, but an extractor may
/// re-derive a quantity (a ready time, a prefix sum) through a different
/// association order, so comparisons allow ~1 ulp of slack on the seconds
/// scale without ever absorbing a real scheduling error.
double time_tolerance(double a, double b) {
  return 1e-9 + 1e-9 * std::max(std::abs(a), std::abs(b));
}

/// Deterministic short rendering of a simulated time ("0.00123456789 s"
/// regardless of locale or magnitude — %g keeps microsecond schedules and
/// thousand-second sweeps equally readable).
std::string fmt_s(double t) {
  char buf[32];
  std::snprintf(buf, sizeof buf, "%.9g", t);
  return std::string(buf);
}

std::string describe(const TimelineGraph& g, int e) {
  const TimelineEvent& ev = g.events[static_cast<std::size_t>(e)];
  return ev.name + " [" + fmt_s(ev.start_s) + ", " + fmt_s(ev.end_s) + "]";
}

/// Structural validation: every index in range, every interval ordered.
/// Returns false (and reports) when the graph is too malformed to analyze.
bool validate(const TimelineGraph& g, Report* report) {
  bool ok = true;
  const int actors = static_cast<int>(g.actors.size());
  const int resources = static_cast<int>(g.resources.size());
  const int ledgers = static_cast<int>(g.ledgers.size());
  const int n = static_cast<int>(g.events.size());
  for (int i = 0; i < n; ++i) {
    const TimelineEvent& ev = g.events[static_cast<std::size_t>(i)];
    if (ev.actor < 0 || ev.actor >= actors || ev.resource >= resources ||
        ev.resource < -1 || ev.ledger >= ledgers || ev.ledger < -1) {
      report->add(Code::kGeomInvalid, Severity::kError, g.name,
                  "event " + ev.name +
                      " references an unknown actor/resource/ledger");
      ok = false;
    }
    if (!(ev.end_s >= ev.start_s)) {  // also catches NaN
      report->add(Code::kGeomInvalid, Severity::kError, g.name,
                  "event " + ev.name + " has end " + fmt_s(ev.end_s) +
                      " before start " + fmt_s(ev.start_s));
      ok = false;
    }
  }
  for (const TimelineEdge& e : g.edges) {
    if (e.from < 0 || e.from >= n || e.to < 0 || e.to >= n ||
        e.from == e.to) {
      report->add(Code::kGeomInvalid, Severity::kError, g.name,
                  "edge (" + std::to_string(e.from) + " -> " +
                      std::to_string(e.to) + ") references unknown events");
      ok = false;
    }
  }
  return ok;
}

/// The events occupying resource r, sorted by start time (ties broken by
/// insertion order so every derived diagnostic and edge is deterministic).
std::vector<int> events_on(const TimelineGraph& g, int r) {
  std::vector<int> on;
  for (int i = 0; i < static_cast<int>(g.events.size()); ++i) {
    if (g.events[static_cast<std::size_t>(i)].resource == r) on.push_back(i);
  }
  std::stable_sort(on.begin(), on.end(), [&](int a, int b) {
    return g.events[static_cast<std::size_t>(a)].start_s <
           g.events[static_cast<std::size_t>(b)].start_s;
  });
  return on;
}

/// The full happens-before edge set: program order within each actor,
/// explicit extractor edges, and the serialization order of every exclusive
/// resource (the resource serves its events one at a time, which orders
/// them even across actors).
struct HbGraph {
  std::vector<std::vector<int>> succ;
  std::vector<int> pos;  ///< index of each event within its actor's program

  explicit HbGraph(const TimelineGraph& g)
      : succ(g.events.size()), pos(g.events.size(), 0) {
    std::vector<int> last(g.actors.size(), -1);  // latest event per actor
    for (std::size_t i = 0; i < g.events.size(); ++i) {
      int& prev = last[static_cast<std::size_t>(g.events[i].actor)];
      if (prev >= 0) {
        add(prev, static_cast<int>(i));
        pos[i] = pos[static_cast<std::size_t>(prev)] + 1;
      }
      prev = static_cast<int>(i);
    }
    for (const TimelineEdge& e : g.edges) add(e.from, e.to);
    for (int r = 0; r < static_cast<int>(g.resources.size()); ++r) {
      if (!g.resources[static_cast<std::size_t>(r)].exclusive) continue;
      const std::vector<int> on = events_on(g, r);
      for (std::size_t k = 1; k < on.size(); ++k) add(on[k - 1], on[k]);
    }
  }

  void add(int from, int to) {
    succ[static_cast<std::size_t>(from)].push_back(to);
  }
};

// --- Pass 1: exclusive-resource overlap -------------------------------------

void pass_overlap(const TimelineGraph& g, Report* report) {
  for (int r = 0; r < static_cast<int>(g.resources.size()); ++r) {
    const TimelineResource& res = g.resources[static_cast<std::size_t>(r)];
    if (!res.exclusive) continue;
    // Sorted by start, so it suffices to track the latest finisher seen:
    // any event starting before it ends is double-booked.
    int open = -1;
    for (const int i : events_on(g, r)) {
      const TimelineEvent& ev = g.events[static_cast<std::size_t>(i)];
      if (open >= 0) {
        const TimelineEvent& prev = g.events[static_cast<std::size_t>(open)];
        if (ev.start_s < prev.end_s - time_tolerance(ev.start_s, prev.end_s) &&
            ev.end_s > ev.start_s) {
          report->add(Code::kTimelineOverlap, Severity::kError, g.name,
                      res.name + ": " + describe(g, i) + " overlaps " +
                          describe(g, open) +
                          "; an exclusive resource cannot serve two intervals "
                          "at once");
        }
      }
      if (open < 0 || ev.end_s > g.events[static_cast<std::size_t>(open)].end_s) {
        open = i;
      }
    }
  }
}

// --- Pass 3: byte conservation ----------------------------------------------

void pass_bytes(const TimelineGraph& g, Report* report) {
  std::vector<std::int64_t> moved(g.ledgers.size(), 0);
  for (const TimelineEvent& ev : g.events) {
    if (ev.ledger >= 0) moved[static_cast<std::size_t>(ev.ledger)] += ev.bytes;
  }
  for (std::size_t l = 0; l < g.ledgers.size(); ++l) {
    if (moved[l] != g.ledgers[l].expected_bytes) {
      report->add(Code::kTimelineBytes, Severity::kError, g.name,
                  g.ledgers[l].name + ": timeline events move " +
                      std::to_string(moved[l]) + " B but the ledger expects " +
                      std::to_string(g.ledgers[l].expected_bytes) +
                      " B; the schedule loses or invents payload");
    }
  }
}

// --- Pass 4a: causality (edge timing soundness) -----------------------------

void pass_causality(const TimelineGraph& g, Report* report) {
  for (const TimelineEdge& e : g.edges) {
    const TimelineEvent& from = g.events[static_cast<std::size_t>(e.from)];
    const TimelineEvent& to = g.events[static_cast<std::size_t>(e.to)];
    if (to.start_s < from.end_s - time_tolerance(to.start_s, from.end_s)) {
      report->add(Code::kTimelineCausality, Severity::kError, g.name,
                  to.name + " starts at " + fmt_s(to.start_s) + " but its " +
                      (e.why.empty() ? std::string("dependency")
                                     : e.why) +
                      " " + from.name + " only finishes at " +
                      fmt_s(from.end_s) + "; the schedule consumes data "
                      "before it exists");
    }
  }
}

// --- Pass 4b: deadline soundness --------------------------------------------

void pass_deadline(const TimelineGraph& g, Report* report) {
  for (const TimelineEvent& ev : g.events) {
    if (ev.deadline_s < 0.0) continue;
    if (ev.end_s > ev.deadline_s + time_tolerance(ev.end_s, ev.deadline_s)) {
      report->add(Code::kTimelineDeadline,
                  ev.hard_deadline ? Severity::kError : Severity::kWarning,
                  g.name,
                  ev.name + " provably completes at " + fmt_s(ev.end_s) +
                      ", past its deadline of " + fmt_s(ev.deadline_s) +
                      (ev.hard_deadline
                           ? "; the admission/soundness bound is violated"
                           : "; the tail of the plan is dead code"));
    }
  }
}

// --- Pass 6: gang co-scheduling ---------------------------------------------

void pass_gang(const TimelineGraph& g, Report* report) {
  // Gangs grouped per tag (std::map: deterministic iteration order).
  std::map<std::string, std::vector<int>> gangs;
  for (int i = 0; i < static_cast<int>(g.events.size()); ++i) {
    const TimelineEvent& ev = g.events[static_cast<std::size_t>(i)];
    if (!ev.gang.empty()) gangs[ev.gang].push_back(i);
  }
  for (const auto& [tag, members] : gangs) {
    const TimelineEvent& lead = g.events[static_cast<std::size_t>(members[0])];
    for (std::size_t k = 1; k < members.size(); ++k) {
      const TimelineEvent& ev = g.events[static_cast<std::size_t>(members[k])];
      if (std::abs(ev.start_s - lead.start_s) >
              time_tolerance(ev.start_s, lead.start_s) ||
          std::abs(ev.end_s - lead.end_s) >
              time_tolerance(ev.end_s, lead.end_s)) {
        report->add(Code::kTimelineGang, Severity::kError, g.name,
                    "gang '" + tag + "': " + describe(g, members[k]) +
                        " does not run in lockstep with " +
                        describe(g, members[0]) +
                        "; a gang's members must start and stop together");
        break;  // one diagnostic per gang: every straggler would cascade
      }
    }
  }
}

// --- Pass 2: vector-clock race detection ------------------------------------

void pass_races(const TimelineGraph& g, const HbGraph& hb,
                const std::vector<int>& order, Report* report) {
  const std::size_t actors = g.actors.size();
  const std::size_t n = g.events.size();
  // Accesses grouped per state key (std::map: deterministic iteration).
  struct Access {
    int event;
    bool write;
  };
  std::map<std::string, std::vector<Access>> by_state;
  for (std::size_t i = 0; i < n; ++i) {
    for (const StateAccess& a : g.events[i].accesses) {
      by_state[a.state].push_back({static_cast<int>(i), a.write});
    }
  }
  // A race needs two accesses; without any, skip the events x actors clocks.
  if (by_state.empty()) return;

  // clock[e][a] = how many of actor a's events happen-before (or are) e.
  // In topological order every predecessor has pushed its final clock into
  // e before e pushes its own on.
  std::vector<std::vector<int>> clock(n, std::vector<int>(actors, 0));
  for (const int e : order) {
    auto& vc = clock[static_cast<std::size_t>(e)];
    const auto actor = static_cast<std::size_t>(
        g.events[static_cast<std::size_t>(e)].actor);
    vc[actor] =
        std::max(vc[actor], hb.pos[static_cast<std::size_t>(e)] + 1);
    for (const int s : hb.succ[static_cast<std::size_t>(e)]) {
      auto& sv = clock[static_cast<std::size_t>(s)];
      for (std::size_t a = 0; a < actors; ++a) sv[a] = std::max(sv[a], vc[a]);
    }
  }
  const auto happens_before = [&](int a, int b) {
    const TimelineEvent& ea = g.events[static_cast<std::size_t>(a)];
    return clock[static_cast<std::size_t>(b)]
                [static_cast<std::size_t>(ea.actor)] >=
           hb.pos[static_cast<std::size_t>(a)] + 1;
  };

  for (const auto& [state, accesses] : by_state) {
    bool reported = false;
    for (std::size_t i = 0; i < accesses.size() && !reported; ++i) {
      for (std::size_t j = i + 1; j < accesses.size() && !reported; ++j) {
        const Access& x = accesses[i];
        const Access& y = accesses[j];
        if (!x.write && !y.write) continue;
        if (x.event == y.event) continue;
        if (happens_before(x.event, y.event) ||
            happens_before(y.event, x.event)) {
          continue;
        }
        report->add(
            Code::kTimelineRace, Severity::kError, g.name,
            "state '" + state + "': " +
                (x.write ? "write by " : "read by ") + describe(g, x.event) +
                " races " + (y.write ? "write by " : "read by ") +
                describe(g, y.event) +
                "; no happens-before path orders the accesses");
        reported = true;  // one diagnostic per state: peers would cascade
      }
    }
  }
}

// --- Pass 5: dependency cycles ----------------------------------------------

/// Reports the events the partial topological order never reached: those
/// on a happens-before cycle or blocked behind one.
void report_cycle(const TimelineGraph& g, const std::vector<int>& order,
                  Report* report) {
  std::vector<bool> runs(g.events.size(), false);
  for (const int e : order) runs[static_cast<std::size_t>(e)] = true;
  std::size_t first = 0;
  while (runs[first]) ++first;
  report->add(Code::kTimelineCycle, Severity::kError, g.name,
              std::to_string(g.events.size() - order.size()) +
                  " event(s) in a happens-before cycle (e.g. " +
                  g.events[first].name +
                  "); the schedule can never make progress");
}

}  // namespace

int TimelineGraph::add_actor(std::string name) {
  actors.push_back(std::move(name));
  return static_cast<int>(actors.size()) - 1;
}

int TimelineGraph::add_resource(std::string name, bool exclusive) {
  resources.push_back({std::move(name), exclusive});
  return static_cast<int>(resources.size()) - 1;
}

int TimelineGraph::add_ledger(std::string name, std::int64_t expected_bytes) {
  ledgers.push_back({std::move(name), expected_bytes});
  return static_cast<int>(ledgers.size()) - 1;
}

int TimelineGraph::add_event(TimelineEvent e) {
  events.push_back(std::move(e));
  return static_cast<int>(events.size()) - 1;
}

void TimelineGraph::add_edge(int from, int to, std::string why) {
  edges.push_back({from, to, std::move(why)});
}

void check_timeline(const TimelineGraph& graph, const Options& opts,
                    Report* report) {
  (void)opts;
  if (!validate(graph, report)) return;
  pass_overlap(graph, report);
  pass_bytes(graph, report);
  pass_causality(graph, report);
  pass_deadline(graph, report);
  pass_gang(graph, report);
  const HbGraph hb(graph);
  const std::vector<int> order = topological_order(hb.succ);
  if (order.size() < graph.events.size()) {
    // Vector clocks are meaningless on a cyclic graph; report the deadlock
    // and stop — fixing it will re-enable the race pass.
    report_cycle(graph, order, report);
    return;
  }
  pass_races(graph, hb, order, report);
}

Report verify_timeline(const TimelineGraph& graph, const Options& opts) {
  Report report;
  check_timeline(graph, opts, &report);
  return report;
}

}  // namespace swcaffe::check
