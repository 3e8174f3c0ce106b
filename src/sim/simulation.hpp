#pragma once
/// \file simulation.hpp
/// Deterministic single-threaded discrete-event simulation kernel.
///
/// The kernel executes callbacks ordered by (virtual time, insertion
/// sequence). On top of the raw callback queue, `task.hpp` provides C++20
/// coroutine "processes" that `co_await` virtual delays and events — the
/// style in which all CHASE-CI workloads (download workers, trainers,
/// controllers, OSD recovery, ...) are written.
///
/// Queue layout. Callbacks (util::SmallFn, 48-byte inline buffer, BlockPool
/// overflow — see util/small_fn.hpp) live in a slab with a free-slot list;
/// the ordering structures hold only 24-byte keys (time, seq, slot), so a
/// heap sift moves keys, never callables, and step() moves each callback
/// out of its slot exactly once. Keys go to one of two places:
///  * the same-instant lane, a FIFO queue, when the event's time equals
///    now() (spawn, Event::trigger, zero-delay wakeups). Such an event has
///    the largest seq so far, so appending keeps the lane in (time, seq)
///    order and it never pays a heap sift;
///  * an explicit binary min-heap otherwise.
/// step() pops the smaller of the lane front and the heap top, which is the
/// same strict total (time, seq) order a single heap gives — replay hashes
/// do not depend on which structure held an event.
///
/// The event loop is allocation-free in the steady state: slab, free list,
/// lane and heap are reserved vectors whose capacity sticks at the
/// high-water mark, so after warmup neither scheduling nor dispatching an
/// event touches the global heap. At audit level >= 2 with the alloc_stats
/// hook linked, step() asserts this per event.

#include <algorithm>
#include <bit>
#include <coroutine>
#include <cstdint>
#include <limits>
#include <map>
#include <unordered_set>
#include <vector>

#include "util/check.hpp"
#include "util/small_fn.hpp"

namespace chase::sim {

class Simulation;

/// An awaitable virtual-time delay; produced by Simulation::sleep().
struct SleepAwaiter {
  Simulation* sim;
  double delay;
  bool await_ready() const noexcept { return delay <= 0.0; }
  void await_suspend(std::coroutine_handle<> h) const;
  void await_resume() const noexcept {}
};

/// Fire-and-forget coroutine process. A Task is either:
///  * awaited by a parent coroutine (`co_await child()`), in which case the
///    parent owns the frame and resumes when the child finishes, or
///  * spawned detached via Simulation::spawn(), in which case the frame
///    destroys itself on completion (or at Simulation teardown).
class [[nodiscard]] Task {
 public:
  struct promise_type;
  using Handle = std::coroutine_handle<promise_type>;

  struct promise_type {
    std::coroutine_handle<> continuation{};
    Simulation* owner = nullptr;  // set when spawned detached
    Task get_return_object() { return Task{Handle::from_promise(*this)}; }
    std::suspend_always initial_suspend() noexcept { return {}; }
    struct FinalAwaiter {
      bool await_ready() const noexcept { return false; }
      std::coroutine_handle<> await_suspend(Handle h) noexcept;
      void await_resume() const noexcept {}
    };
    FinalAwaiter final_suspend() noexcept { return {}; }
    void return_void() {}
    void unhandled_exception();
  };

  Task(Task&& other) noexcept : handle_(other.handle_) { other.handle_ = {}; }
  Task& operator=(Task&& other) noexcept;
  Task(const Task&) = delete;
  Task& operator=(const Task&) = delete;
  ~Task();

  bool valid() const { return static_cast<bool>(handle_); }

  /// Awaiting a Task starts it and suspends the awaiter until it returns.
  /// Awaiting a temporary is safe: temporaries alive across a suspension
  /// point are stored in the awaiting coroutine's frame.
  struct Awaiter {
    Handle child;
    bool await_ready() const noexcept { return false; }
    std::coroutine_handle<> await_suspend(std::coroutine_handle<> parent) noexcept {
      child.promise().continuation = parent;
      return child;  // symmetric transfer into the child
    }
    void await_resume() const noexcept {}
  };
  Awaiter operator co_await() { return Awaiter{handle_}; }

 private:
  friend class Simulation;
  explicit Task(Handle h) : handle_(h) {}
  Handle handle_{};
};

/// The event queue + virtual clock.
class Simulation {
 public:
  Simulation();
  ~Simulation();

  Simulation(const Simulation&) = delete;
  Simulation& operator=(const Simulation&) = delete;

  double now() const { return now_; }

  /// Schedule `fn` to run `delay` seconds from now (delay >= 0).
  /// SmallFn converts from any callable; captures beyond 48 bytes land in
  /// the BlockPool rather than the global heap.
  void schedule(double delay, util::SmallFn<void()> fn);

  /// Awaitable delay for coroutine processes.
  SleepAwaiter sleep(double delay) { return SleepAwaiter{this, delay}; }

  /// Start a detached coroutine process. The frame self-destroys when the
  /// coroutine returns; any frames still suspended when the Simulation is
  /// destroyed are destroyed with it.
  void spawn(Task task);

  /// Run until the queue drains or `until` is reached (whichever first).
  /// Returns the number of events processed in this call.
  std::uint64_t run(double until = std::numeric_limits<double>::infinity());
  /// Run until the queue drains or `stop()` holds, checked before each
  /// event, with the same audit checkpoints as run(). Returns the number of
  /// events processed in this call.
  template <class Stop>
  std::uint64_t run_until(Stop stop);

  /// Process a single event; returns false if the queue is empty.
  bool step();

  std::uint64_t events_processed() const { return events_processed_; }
  bool empty() const { return lane_.empty() && heap_.empty(); }

  // --- invariant-audit checkpoints ------------------------------------------
  //
  // Stateful subsystems (kube, ceph, redis, net, ...) register their
  // check_invariants() here at construction; run() and run_until() call
  // every hook after each `audit_interval()` processed events while the
  // audit level is >= 1 (see util/check.hpp). Hooks must be read-only over
  // simulation state.

  /// Register an audit hook; returns an id for remove_audit_hook().
  std::uint64_t add_audit_hook(util::SmallFn<void()> hook);
  void remove_audit_hook(std::uint64_t id);
  std::size_t audit_hook_count() const { return audit_hooks_.size(); }

  /// Events between checkpoints (default 1024). Level 2 runs hooks every
  /// `interval / 8` events so expensive audits see more boundaries.
  void set_audit_interval(std::uint64_t interval) { audit_interval_ = interval; }
  std::uint64_t audit_interval() const { return audit_interval_; }
  /// Run every registered audit hook immediately (also called by run()).
  void audit_now() const;

  /// Kernel self-check: virtual time is non-negative, the heap never holds
  /// work scheduled before `now()`, the lane holds only `now()` work in seq
  /// order, and every occupied slab slot is queued exactly once.
  void check_invariants() const;

  /// Observe every processed event as (virtual time, sequence number) —
  /// the event trace hashed by tools/determinism_check. Pass {} to clear.
  void set_trace_hook(util::SmallFn<void(double time, std::uint64_t seq)> hook) {
    trace_hook_ = std::move(hook);
  }

 private:
  friend struct Task::promise_type;
  void unregister_detached(void* frame) { detached_.erase(frame); }

  /// One queued event: its (time, seq) order key and the slab slot holding
  /// its callback. Event times are never negative, so the IEEE-754 bit
  /// pattern of `time` orders like the value and (time, seq) compares as a
  /// single unsigned 128-bit integer, without branches.
  struct Key {
    std::uint64_t time_bits;
    std::uint64_t seq;
    std::uint32_t slot;
    double time() const { return std::bit_cast<double>(time_bits); }
    unsigned __int128 order() const {
      return (static_cast<unsigned __int128>(time_bits) << 64) | seq;
    }
  };
  /// Heap comparator: std::*_heap with `later` keeps the earliest key on top.
  static bool later(const Key& a, const Key& b) { return a.order() > b.order(); }

  /// True when the lane front, not the heap top, is dispatched next.
  bool lane_first() const {
    return !lane_.empty() &&
           (heap_.empty() || lane_[lane_head_].order() < heap_.front().order());
  }
  /// The next key to dispatch (queue must be non-empty).
  const Key& next_key() const { return lane_first() ? lane_[lane_head_] : heap_.front(); }
  void lane_push(const Key& key);

  double now_ = 0.0;
  std::uint64_t seq_ = 0;
  std::uint64_t events_processed_ = 0;
  std::vector<util::SmallFn<void()>> slab_;  // callbacks, indexed by Key::slot
  std::vector<std::uint32_t> free_slots_;   // capacity kept >= slab_'s
  std::vector<Key> heap_;                   // binary min-heap under later()
  // Same-instant lane: lane_[lane_head_, size) is queued; emptied (not
  // freed) whenever it drains, which it does before the clock advances.
  std::vector<Key> lane_;
  std::size_t lane_head_ = 0;
  std::unordered_set<void*> detached_;

  std::map<std::uint64_t, util::SmallFn<void()>> audit_hooks_;  // ordered: determinism
  std::uint64_t next_audit_hook_id_ = 0;
  std::uint64_t audit_interval_ = 1024;
  std::uint64_t events_since_audit_ = 0;
  util::SmallFn<void(double, std::uint64_t)> trace_hook_;
};

template <class Stop>
std::uint64_t Simulation::run_until(Stop stop) {
  // Checkpoint cadence: level 1 audits every `audit_interval_` events,
  // level 2 (expensive audits enabled) 8x as often.
  const int level = util::audit_level();
  const std::uint64_t interval =
      level >= 2 ? std::max<std::uint64_t>(1, audit_interval_ / 8) : audit_interval_;
  std::uint64_t n = 0;
  while (!empty() && !stop()) {
    step();
    ++n;
    if (level >= 1 && !audit_hooks_.empty() && ++events_since_audit_ >= interval) {
      events_since_audit_ = 0;
      audit_now();
    }
  }
  if (level >= 1 && !audit_hooks_.empty() && n > 0) {
    events_since_audit_ = 0;
    audit_now();  // final checkpoint
  }
  return n;
}

}  // namespace chase::sim
