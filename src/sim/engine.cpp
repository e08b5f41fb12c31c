#include "sim/engine.h"

#include <utility>

#include "base/log.h"

namespace swcaffe::sim {

int Engine::add_actor(std::string name) {
  actors_.push_back(std::move(name));
  return static_cast<int>(actors_.size()) - 1;
}

int Engine::add_resource(std::string name) {
  resource_names_.push_back(std::move(name));
  resources_.emplace_back();
  return static_cast<int>(resources_.size()) - 1;
}

std::uint64_t Engine::post(double t_s, int actor, std::string name,
                           Handler fn) {
  SWC_CHECK_GE(actor, 0);
  SWC_CHECK_LT(actor, static_cast<int>(actors_.size()));
  SWC_CHECK_MSG(t_s >= now_, "time travel: posting " << name << " at " << t_s
                                                     << " with now=" << now_);
  SWC_CHECK(fn != nullptr);
  (void)name;  // names travel on the recorded spans, not the timers
  const std::uint64_t id = handlers_.size();
  handlers_.push_back(std::move(fn));
  queue_.push(Pending{t_s, actor, id});
  return id;
}

void Engine::cancel(std::uint64_t id) {
  if (id < handlers_.size()) handlers_[id] = nullptr;
}

void Engine::run() {
  while (!queue_.empty()) {
    const Pending p = queue_.top();
    queue_.pop();
    Handler fn = std::move(handlers_[p.id]);
    if (!fn) continue;  // cancelled
    handlers_[p.id] = nullptr;
    now_ = p.time_s;
    ++processed_;
    fn(*this);
  }
}

double Engine::acquire(int resource, int actor, double ready_s,
                       double duration_s, std::string name,
                       std::int64_t bytes) {
  SWC_CHECK_GE(resource, 0);
  SWC_CHECK_LT(resource, static_cast<int>(resources_.size()));
  const double start = resources_[static_cast<std::size_t>(resource)].serve(
      ready_s, duration_s);
  Event e;
  e.begin_s = start;
  e.end_s = start + duration_s;
  e.actor = actor;
  e.resource = resource;
  e.bytes = bytes;
  e.kind = EventKind::kCharge;
  e.name = std::move(name);
  log_.record(std::move(e));
  return start;
}

void Engine::record_span(int actor, double start_s, double duration_s,
                         std::string name, std::int64_t bytes,
                         EventKind kind) {
  Event e;
  e.begin_s = start_s;
  e.end_s = start_s + duration_s;
  e.actor = actor;
  e.bytes = bytes;
  e.kind = kind;
  e.name = std::move(name);
  log_.record(std::move(e));
}

const Resource& Engine::resource(int id) const {
  SWC_CHECK_GE(id, 0);
  SWC_CHECK_LT(id, static_cast<int>(resources_.size()));
  return resources_[static_cast<std::size_t>(id)];
}

}  // namespace swcaffe::sim
