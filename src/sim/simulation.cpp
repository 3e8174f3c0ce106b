#include "sim/simulation.hpp"

#include <algorithm>
#include <cassert>
#include <cstdio>
#include <exception>

#include "util/alloc_stats.hpp"
#include "util/check.hpp"

namespace chase::sim {

namespace {
/// Initial capacity of the slab, free list, heap and lane. Each grows
/// amortized past this; the point is that steady-state churn never
/// reallocates (capacities stick at the high-water mark), which the
/// zero-alloc audit in step() relies on.
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

Simulation::Simulation() {
  slab_.reserve(kInitialQueueCapacity);
  free_slots_.reserve(kInitialQueueCapacity);
  heap_.reserve(kInitialQueueCapacity);
  lane_.reserve(kInitialQueueCapacity);
}

Simulation::~Simulation() {
  // Drop pending callbacks first (they may reference coroutine frames), then
  // destroy frames that never completed. Every queued callback, lane or
  // heap, lives in the slab.
  slab_.clear();
  for (void* frame : detached_) {
    std::coroutine_handle<>::from_address(frame).destroy();
  }
}

void Simulation::schedule(double delay, util::SmallFn<void()> fn) {
  assert(delay >= 0.0 && "cannot schedule into the past");
  if (delay < 0.0) delay = 0.0;
  std::uint32_t slot;
  if (!free_slots_.empty()) {
    slot = free_slots_.back();
    free_slots_.pop_back();
    slab_[slot] = std::move(fn);
  } else {
    slot = static_cast<std::uint32_t>(slab_.size());
    slab_.push_back(std::move(fn));
    // step() returns every slot to the free list; keep room for all of them
    // so dispatch never reallocates it.
    if (free_slots_.capacity() < slab_.capacity()) free_slots_.reserve(slab_.capacity());
  }
  const double time = now_ + delay;
  const Key key{std::bit_cast<std::uint64_t>(time), seq_++, slot};
  if (time == now_) {
    lane_push(key);  // same instant: the largest seq so far, so FIFO is sorted
  } else {
    heap_.push_back(key);
    std::push_heap(heap_.begin(), heap_.end(), later);
  }
}

void Simulation::lane_push(const Key& key) {
  if (lane_.size() == lane_.capacity() && 2 * lane_head_ >= lane_.size()) {
    // Full, and at least half of it dispatched keys (a same-instant chain
    // that never lets the lane drain): reclaim them instead of growing.
    // Each such move frees as many slots as it copies, so pushes stay O(1)
    // amortized.
    lane_.erase(lane_.begin(), lane_.begin() + static_cast<std::ptrdiff_t>(lane_head_));
    lane_head_ = 0;
  }
  lane_.push_back(key);
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
  const std::uint64_t n = run_until([&] { return !(next_key().time() <= until); });
  if (now_ < until && until < std::numeric_limits<double>::infinity()) {
    now_ = until;
  }
  return n;
}

bool Simulation::step() {
  if (empty()) return false;
  // Zero-alloc witness: with the counting hook linked (tests) and expensive
  // audits on, the dequeue machinery below — lane pop or heap sift, the
  // callback's move out of the slab, the free-list push — must not reach
  // the global heap. The callback body itself is covered by the
  // steady-state loop test in tests/alloc_stats_test.cpp.
  std::uint64_t news_before = 0;
  const bool audit_allocs =
      util::audit_level() >= 2 && util::alloc_stats::hooked();
  if (audit_allocs) news_before = util::alloc_stats::news();
  Key key;
  if (lane_first()) {
    key = lane_[lane_head_++];
    if (lane_head_ == lane_.size()) {
      lane_.clear();
      lane_head_ = 0;
    }
  } else {
    std::pop_heap(heap_.begin(), heap_.end(), later);
    key = heap_.back();
    heap_.pop_back();
  }
  // Move the callback out once: it may schedule, which can grow the slab.
  util::SmallFn<void()> fn = std::move(slab_[key.slot]);
  free_slots_.push_back(key.slot);
  if (audit_allocs) {
    CHASE_AUDIT(util::alloc_stats::news() == news_before,
                "event dispatch machinery allocated on the global heap");
  }
  const double time = key.time();
  CHASE_ASSERT(time + 1e-12 >= now_, "event time went backwards");
  now_ = time;
  ++events_processed_;
  if (trace_hook_) trace_hook_(time, key.seq);
  fn();
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
  // The heap root is the minimum, so one comparison covers every heap entry.
  CHASE_INVARIANT(heap_.empty() || heap_.front().time() >= now_ - 1e-12,
                  "event heap holds work scheduled before now()");
  std::uint64_t prev_seq = 0;
  for (std::size_t i = lane_head_; i < lane_.size(); ++i) {
    const Key& key = lane_[i];
    CHASE_INVARIANT(key.time() == now_, "same-instant lane holds work not at now()");
    CHASE_INVARIANT(i == lane_head_ || key.seq > prev_seq, "same-instant lane out of seq order");
    prev_seq = key.seq;
  }
  CHASE_INVARIANT(slab_.size() == free_slots_.size() + heap_.size() + (lane_.size() - lane_head_),
                  "callback slab slots leaked or double-queued");
}

}  // namespace chase::sim
