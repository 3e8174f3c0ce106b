#pragma once
/// \file event.hpp
/// Synchronization primitives for coroutine processes: one-shot completion
/// events, counting semaphores, and helpers for waiting on groups of events.

#include <coroutine>
#include <cstdint>
#include <memory>
#include <vector>

#include "sim/simulation.hpp"
#include "util/block_pool.hpp"
#include "util/inline_vec.hpp"

namespace chase::sim {

/// One-shot completion signal. Processes `co_await ev->wait(sim)`; a trigger
/// resumes all waiters (at the current virtual time, as fresh events).
/// Events are shared between producer and consumers via shared_ptr.
class Event {
 public:
  bool fired() const { return fired_; }

  void trigger(Simulation& sim);

  struct Awaiter {
    Event* ev;
    Simulation* sim;
    bool await_ready() const noexcept { return ev->fired_; }
    void await_suspend(std::coroutine_handle<> h) {
      // chase-lint: allow(hot-alloc) InlineVec: 4 inline slots, BlockPool spill; no global heap in steady state
      ev->waiters_.push_back(h);
    }
    void await_resume() const noexcept {}
  };
  Awaiter wait(Simulation& sim) { return Awaiter{this, &sim}; }

 private:
  bool fired_ = false;
  util::InlineVec<std::coroutine_handle<>, 4> waiters_;
};

using EventPtr = std::shared_ptr<Event>;

/// Events churn once per transfer/lease/barrier, so the object and its
/// shared_ptr control block come from the BlockPool (one combined
/// allocation, recycled on release) instead of the global heap.
inline EventPtr make_event() {
  return std::allocate_shared<Event>(util::PoolAllocator<Event>{});
}

/// Wait until all events in the group have fired.
Task wait_all(Simulation& sim, std::vector<EventPtr> events);

/// Drive the simulation until `ev` fires (or the queue drains), with
/// Simulation::run()'s audit checkpoints. Returns true if the event fired.
/// Useful when long-lived services (e.g. a Redis ReplicaSet) keep the event
/// queue non-empty forever.
bool run_until(Simulation& sim, const EventPtr& ev);

/// Counting semaphore for limiting concurrency (e.g. parallel download
/// connections, per-OSD recovery streams). FIFO handoff.
class Semaphore {
 public:
  explicit Semaphore(std::int64_t permits) : permits_(permits) {}

  std::int64_t available() const { return permits_; }
  std::size_t queue_length() const { return waiters_.size(); }

  struct Awaiter {
    Semaphore* sem;
    bool await_ready() const noexcept {
      if (sem->permits_ > 0 && sem->waiters_.empty()) {
        --sem->permits_;
        return true;
      }
      return false;
    }
    void await_suspend(std::coroutine_handle<> h) {
      // chase-lint: allow(hot-alloc) InlineVec: 4 inline slots, BlockPool spill; no global heap in steady state
      sem->waiters_.push_back(h);
    }
    void await_resume() const noexcept {}
  };
  /// Acquire one permit (may suspend).
  Awaiter acquire() { return Awaiter{this}; }

  /// Release one permit; wakes the longest-waiting acquirer at now+0.
  void release(Simulation& sim);

 private:
  std::int64_t permits_;
  util::InlineVec<std::coroutine_handle<>, 4> waiters_;
};

/// RAII-style completion latch: counts down, fires an event at zero.
class Latch {
 public:
  Latch(std::int64_t count, EventPtr done) : count_(count), done_(std::move(done)) {}
  void count_down(Simulation& sim) {
    if (--count_ == 0) done_->trigger(sim);
  }
  std::int64_t remaining() const { return count_; }

 private:
  std::int64_t count_;
  EventPtr done_;
};

}  // namespace chase::sim
