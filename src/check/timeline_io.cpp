#include "check/timeline_io.h"

#include <cstdio>
#include <utility>

#include "trace/chrome_trace.h"
#include "trace/json.h"

namespace swcaffe::check {

namespace {

std::string num(double v) {
  char buf[40];
  std::snprintf(buf, sizeof(buf), "%.17g", v);
  return buf;
}

std::string quoted(const std::string& s) {
  std::string out = "\"";
  out += trace::json_escape(s);
  out += '"';
  return out;
}

}  // namespace

std::string timeline_to_json(const TimelineGraph& graph) {
  std::string out = "{\n  \"name\": " + quoted(graph.name) + ",\n";
  out += "  \"actors\": [";
  for (std::size_t i = 0; i < graph.actors.size(); ++i) {
    if (i) out += ", ";
    out += quoted(graph.actors[i]);
  }
  out += "],\n  \"resources\": [";
  for (std::size_t i = 0; i < graph.resources.size(); ++i) {
    if (i) out += ", ";
    out += "{\"name\": " + quoted(graph.resources[i].name) +
           ", \"exclusive\": " +
           (graph.resources[i].exclusive ? "true" : "false") + "}";
  }
  out += "],\n  \"ledgers\": [";
  for (std::size_t i = 0; i < graph.ledgers.size(); ++i) {
    if (i) out += ", ";
    out += "{\"name\": " + quoted(graph.ledgers[i].name) +
           ", \"expected_bytes\": " +
           std::to_string(graph.ledgers[i].expected_bytes) + "}";
  }
  out += "],\n  \"events\": [";
  for (std::size_t i = 0; i < graph.events.size(); ++i) {
    const TimelineEvent& e = graph.events[i];
    out += i ? ",\n    " : "\n    ";
    out += "{\"name\": " + quoted(e.name) +
           ", \"actor\": " + std::to_string(e.actor) +
           ", \"resource\": " + std::to_string(e.resource) +
           ", \"start_s\": " + num(e.start_s) +
           ", \"end_s\": " + num(e.end_s) +
           ", \"bytes\": " + std::to_string(e.bytes) +
           ", \"ledger\": " + std::to_string(e.ledger) +
           ", \"deadline_s\": " + num(e.deadline_s) +
           ", \"hard_deadline\": " + (e.hard_deadline ? "true" : "false") +
           (e.gang.empty() ? std::string()
                           : ", \"gang\": " + quoted(e.gang)) +
           ", \"accesses\": [";
    for (std::size_t a = 0; a < e.accesses.size(); ++a) {
      if (a) out += ", ";
      out += "{\"state\": " + quoted(e.accesses[a].state) +
             ", \"write\": " + (e.accesses[a].write ? "true" : "false") + "}";
    }
    out += "]}";
  }
  out += graph.events.empty() ? "],\n  \"edges\": [" : "\n  ],\n  \"edges\": [";
  for (std::size_t i = 0; i < graph.edges.size(); ++i) {
    const TimelineEdge& e = graph.edges[i];
    out += i ? ",\n    " : "\n    ";
    out += "{\"from\": " + std::to_string(e.from) +
           ", \"to\": " + std::to_string(e.to) +
           ", \"why\": " + quoted(e.why) + "}";
  }
  out += graph.edges.empty() ? "]\n}\n" : "\n  ]\n}\n";
  return out;
}

namespace {

bool decode_graph(const trace::JsonValue& doc, TimelineGraph* out,
                  std::string* error) {
  if (!doc.is_object()) {
    if (error) *error = "timeline document must be a JSON object";
    return false;
  }
  TimelineGraph g;
  if (const trace::JsonValue* v = doc.find("name")) g.name = v->as_string();
  if (const trace::JsonValue* v = doc.find("actors")) {
    for (const trace::JsonValue& a : v->items()) {
      g.actors.push_back(a.as_string());
    }
  }
  if (const trace::JsonValue* v = doc.find("resources")) {
    for (const trace::JsonValue& r : v->items()) {
      TimelineResource res;
      if (const trace::JsonValue* f = r.find("name")) res.name = f->as_string();
      if (const trace::JsonValue* f = r.find("exclusive")) {
        res.exclusive = f->as_bool(true);
      }
      g.resources.push_back(std::move(res));
    }
  }
  if (const trace::JsonValue* v = doc.find("ledgers")) {
    for (const trace::JsonValue& l : v->items()) {
      TimelineLedger led;
      if (const trace::JsonValue* f = l.find("name")) led.name = f->as_string();
      if (const trace::JsonValue* f = l.find("expected_bytes")) {
        led.expected_bytes = f->as_int();
      }
      g.ledgers.push_back(std::move(led));
    }
  }
  if (const trace::JsonValue* v = doc.find("events")) {
    for (const trace::JsonValue& ev : v->items()) {
      TimelineEvent e;
      if (const trace::JsonValue* f = ev.find("name")) e.name = f->as_string();
      if (const trace::JsonValue* f = ev.find("actor")) {
        e.actor = static_cast<int>(f->as_int());
      }
      if (const trace::JsonValue* f = ev.find("resource")) {
        e.resource = static_cast<int>(f->as_int(-1));
      }
      if (const trace::JsonValue* f = ev.find("start_s")) {
        e.start_s = f->as_double();
      }
      if (const trace::JsonValue* f = ev.find("end_s")) {
        e.end_s = f->as_double();
      }
      if (const trace::JsonValue* f = ev.find("bytes")) e.bytes = f->as_int();
      if (const trace::JsonValue* f = ev.find("ledger")) {
        e.ledger = static_cast<int>(f->as_int(-1));
      }
      if (const trace::JsonValue* f = ev.find("deadline_s")) {
        e.deadline_s = f->as_double(-1.0);
      }
      if (const trace::JsonValue* f = ev.find("hard_deadline")) {
        e.hard_deadline = f->as_bool(true);
      }
      if (const trace::JsonValue* f = ev.find("gang")) e.gang = f->as_string();
      if (const trace::JsonValue* f = ev.find("accesses")) {
        for (const trace::JsonValue& acc : f->items()) {
          StateAccess a;
          if (const trace::JsonValue* s = acc.find("state")) {
            a.state = s->as_string();
          }
          if (const trace::JsonValue* s = acc.find("write")) {
            a.write = s->as_bool(false);
          }
          e.accesses.push_back(std::move(a));
        }
      }
      g.events.push_back(std::move(e));
    }
  }
  if (const trace::JsonValue* v = doc.find("edges")) {
    for (const trace::JsonValue& ed : v->items()) {
      TimelineEdge e;
      if (const trace::JsonValue* f = ed.find("from")) {
        e.from = static_cast<int>(f->as_int());
      }
      if (const trace::JsonValue* f = ed.find("to")) {
        e.to = static_cast<int>(f->as_int());
      }
      if (const trace::JsonValue* f = ed.find("why")) e.why = f->as_string();
      g.edges.push_back(std::move(e));
    }
  }
  *out = std::move(g);
  return true;
}

}  // namespace

bool timeline_from_json(const std::string& text, TimelineGraph* out,
                        std::string* error) {
  trace::JsonValue doc;
  if (!trace::parse_json(text, &doc, error)) return false;
  return decode_graph(doc, out, error);
}

bool timelines_from_json(const std::string& text,
                         std::vector<TimelineGraph>* out, std::string* error) {
  trace::JsonValue doc;
  if (!trace::parse_json(text, &doc, error)) return false;
  std::vector<TimelineGraph> graphs;
  if (doc.is_array()) {
    for (const trace::JsonValue& item : doc.items()) {
      TimelineGraph g;
      if (!decode_graph(item, &g, error)) return false;
      graphs.push_back(std::move(g));
    }
  } else {
    TimelineGraph g;
    if (!decode_graph(doc, &g, error)) return false;
    graphs.push_back(std::move(g));
  }
  *out = std::move(graphs);
  return true;
}

std::string timelines_to_json(const std::vector<TimelineGraph>& graphs) {
  std::string out = "[\n";
  for (std::size_t i = 0; i < graphs.size(); ++i) {
    if (i) out += ",\n";
    out += timeline_to_json(graphs[i]);
    // timeline_to_json ends with a newline; keep entries separated cleanly.
    while (!out.empty() && out.back() == '\n') out.pop_back();
  }
  out += "\n]\n";
  return out;
}

}  // namespace swcaffe::check
