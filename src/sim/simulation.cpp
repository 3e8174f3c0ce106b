#include "sim/simulation.hpp"

#include <algorithm>
#include <cassert>
#include <cstdio>
#include <exception>

#include "util/alloc_stats.hpp"
#include "util/check.hpp"

namespace chase::sim {

namespace {
/// Initial event-heap capacity. The vector grows amortized past this; the
/// point is that steady-state churn never reallocates (the capacity sticks
/// at the high-water mark), which the zero-alloc audit in step() relies on.
constexpr std::size_t kInitialQueueCapacity = 1024;
}  // namespace

void SleepAwaiter::await_suspend(std::coroutine_handle<> h) const {
  sim->schedule(delay, [h] { h.resume(); });
}

std::coroutine_handle<> Task::promise_type::FinalAwaiter::await_suspend(
    Task::Handle h) noexcept {
  auto& p = h.promise();
  std::coroutine_handle<> cont =
      p.continuation ? p.continuation : std::coroutine_handle<>(std::noop_coroutine());
  if (p.owner != nullptr) {
    // Detached task: deregister and self-destroy. Destroying a coroutine that
    // is suspended at its final suspend point is well-defined.
    p.owner->unregister_detached(h.address());
    h.destroy();
  }
  return cont;
}

void Task::promise_type::unhandled_exception() {
  // Simulation processes must not leak exceptions: there is no caller stack
  // to propagate into. Treat as a programming error.
  std::fprintf(stderr, "chase::sim::Task: unhandled exception in process\n");
  std::terminate();
}

Task& Task::operator=(Task&& other) noexcept {
  if (this != &other) {
    if (handle_) handle_.destroy();
    handle_ = other.handle_;
    other.handle_ = {};
  }
  return *this;
}

Task::~Task() {
  if (handle_) handle_.destroy();
}

Simulation::Simulation() { queue_.reserve(kInitialQueueCapacity); }

Simulation::~Simulation() {
  // Drop pending callbacks first (they may reference coroutine frames), then
  // destroy frames that never completed.
  queue_.clear();
  for (void* frame : detached_) {
    std::coroutine_handle<>::from_address(frame).destroy();
  }
}

void Simulation::schedule(double delay, util::SmallFn<void()> fn) {
  assert(delay >= 0.0 && "cannot schedule into the past");
  if (delay < 0.0) delay = 0.0;
  queue_.push_back(Entry{now_ + delay, seq_++, std::move(fn)});
  std::push_heap(queue_.begin(), queue_.end(), std::greater<>{});
}

void Simulation::spawn(Task task) {
  Task::Handle h = task.handle_;
  task.handle_ = {};  // release ownership to the simulation
  h.promise().owner = this;
  detached_.insert(h.address());
  // Start at the next event boundary so spawn() is safe to call from
  // anywhere, including inside another process.
  schedule(0.0, [h] { h.resume(); });
}

std::uint64_t Simulation::run(double until) {
  const std::uint64_t n = run_until([&] { return !(queue_.front().time <= until); });
  if (now_ < until && until < std::numeric_limits<double>::infinity()) {
    now_ = until;
  }
  return n;
}

bool Simulation::step() {
  if (queue_.empty()) return false;
  // Zero-alloc witness: with the counting hook linked (tests) and expensive
  // audits on, the dequeue machinery below — heap sift, SmallFn relocation,
  // pop_back — must not reach the global heap. The callback body itself is
  // covered by the steady-state loop test in tests/alloc_stats_test.cpp.
  std::uint64_t news_before = 0;
  const bool audit_allocs =
      util::audit_level() >= 2 && util::alloc_stats::hooked();
  if (audit_allocs) news_before = util::alloc_stats::news();
  std::pop_heap(queue_.begin(), queue_.end(), std::greater<>{});
  Entry e = std::move(queue_.back());
  queue_.pop_back();
  if (audit_allocs) {
    CHASE_AUDIT(util::alloc_stats::news() == news_before,
                "event dispatch machinery allocated on the global heap");
  }
  CHASE_ASSERT(e.time + 1e-12 >= now_, "event time went backwards");
  now_ = e.time;
  ++events_processed_;
  if (trace_hook_) trace_hook_(e.time, e.seq);
  e.fn();
  return true;
}

std::uint64_t Simulation::add_audit_hook(util::SmallFn<void()> hook) {
  const std::uint64_t id = next_audit_hook_id_++;
  audit_hooks_.emplace(id, std::move(hook));
  return id;
}

void Simulation::remove_audit_hook(std::uint64_t id) { audit_hooks_.erase(id); }

void Simulation::audit_now() const {
  check_invariants();
  for (const auto& [id, hook] : audit_hooks_) hook();
}

void Simulation::check_invariants() const {
  CHASE_INVARIANT(now_ >= 0.0, "virtual clock is negative");
  // The heap root is the minimum, so one comparison covers every queued entry.
  CHASE_INVARIANT(queue_.empty() || queue_.front().time >= now_ - 1e-12,
                  "event heap holds work scheduled before now()");
}

}  // namespace chase::sim
