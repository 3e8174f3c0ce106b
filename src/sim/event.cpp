#include "sim/event.hpp"

namespace chase::sim {

void Event::trigger(Simulation& sim) {
  if (fired_) return;
  fired_ = true;
  // Resume via the event queue, not inline: keeps trigger() safe to call
  // from any context and preserves deterministic ordering.
  for (auto h : waiters_) {
    sim.schedule(0.0, [h] { h.resume(); });
  }
  waiters_.clear();
}

Task wait_all(Simulation& sim, std::vector<EventPtr> events) {
  for (auto& ev : events) {
    co_await ev->wait(sim);
  }
}

bool run_until(Simulation& sim, const EventPtr& ev) {
  sim.run_until([&] { return ev->fired(); });
  return ev->fired();
}

void Semaphore::release(Simulation& sim) {
  if (!waiters_.empty()) {
    auto h = waiters_.front();
    waiters_.pop_front();
    // Hand the permit directly to the waiter (permits_ stays unchanged).
    sim.schedule(0.0, [h] { h.resume(); });
  } else {
    ++permits_;
  }
}

}  // namespace chase::sim
