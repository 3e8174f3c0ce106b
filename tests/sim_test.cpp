#include <gtest/gtest.h>

#include <array>
#include <cstdint>
#include <functional>
#include <memory>
#include <utility>
#include <vector>

#include "sim/event.hpp"
#include "sim/simulation.hpp"

namespace cs = chase::sim;

TEST(Simulation, RunsEventsInTimeOrder) {
  cs::Simulation sim;
  std::vector<int> order;
  sim.schedule(3.0, [&] { order.push_back(3); });
  sim.schedule(1.0, [&] { order.push_back(1); });
  sim.schedule(2.0, [&] { order.push_back(2); });
  sim.run();
  EXPECT_EQ(order, (std::vector<int>{1, 2, 3}));
  EXPECT_DOUBLE_EQ(sim.now(), 3.0);
}

TEST(Simulation, FifoAtSameTimestamp) {
  cs::Simulation sim;
  std::vector<int> order;
  for (int i = 0; i < 10; ++i) {
    sim.schedule(1.0, [&order, i] { order.push_back(i); });
  }
  sim.run();
  for (int i = 0; i < 10; ++i) EXPECT_EQ(order[i], i);
}

TEST(Simulation, RunUntilStopsEarly) {
  cs::Simulation sim;
  int fired = 0;
  sim.schedule(1.0, [&] { fired++; });
  sim.schedule(5.0, [&] { fired++; });
  sim.run(2.0);
  EXPECT_EQ(fired, 1);
  EXPECT_DOUBLE_EQ(sim.now(), 2.0);
  sim.run();
  EXPECT_EQ(fired, 2);
}

TEST(Simulation, NestedScheduling) {
  cs::Simulation sim;
  double inner_time = -1;
  sim.schedule(1.0, [&] { sim.schedule(2.0, [&] { inner_time = sim.now(); }); });
  sim.run();
  EXPECT_DOUBLE_EQ(inner_time, 3.0);
}

TEST(Simulation, EventsProcessedCount) {
  cs::Simulation sim;
  for (int i = 0; i < 7; ++i) sim.schedule(i, [] {});
  sim.run();
  EXPECT_EQ(sim.events_processed(), 7u);
}

// --- event queue: same-instant lane + key heap ------------------------------
//
// Events due at now() go to a FIFO lane, the rest to a heap of (time, seq)
// keys; these pin that the merged pop order is still the strict (time, seq)
// order a single heap gives.

TEST(EventQueue, LaneAndHeapInterleaveInTimeSeqOrder) {
  // At 1e17 the spacing of doubles is 16, so a positive delay of 1.0 rounds
  // to now + 1.0 == now and must take the lane like a zero delay.
  constexpr double kBig = 1e17;
  static_assert(kBig + 1.0 == kBig);
  cs::Simulation sim;
  std::vector<std::pair<double, std::uint64_t>> trace;
  sim.set_trace_hook([&](double t, std::uint64_t seq) { trace.emplace_back(t, seq); });
  std::vector<char> order;
  sim.schedule(kBig, [&] {
    order.push_back('A');                                  // heap, seq 0
    sim.schedule(1.0, [&] { order.push_back('C'); });      // lane, seq 2
    sim.schedule(0.0, [&] { order.push_back('D'); });      // lane, seq 3
    sim.schedule(64.0, [&] { order.push_back('E'); });     // heap, seq 4
    sim.check_invariants();
  });
  sim.schedule(kBig, [&] { order.push_back('B'); });       // heap, seq 1
  sim.run();
  // B sits in the heap at the same instant with a smaller seq than C and D.
  EXPECT_EQ(order, (std::vector<char>{'A', 'B', 'C', 'D', 'E'}));
  ASSERT_EQ(trace.size(), 5u);
  EXPECT_EQ(trace[2], (std::pair<double, std::uint64_t>{kBig, 2}));
  EXPECT_EQ(trace[4], (std::pair<double, std::uint64_t>{kBig + 64.0, 4}));
}

TEST(EventQueue, RandomTreesDispatchInStrictTimeSeqOrder) {
  // Seeded random spawning trees mixing zero delays, delays that round to
  // zero at a large clock, and real delays, plus bursts that grow and wrap
  // the lane ring. Dispatch must be strictly increasing in (time, seq) and
  // cover every scheduled event: then each pop was the queued minimum.
  for (std::uint64_t seed = 1; seed <= 20; ++seed) {
    cs::Simulation sim;
    std::uint64_t state = seed * 0x9E3779B97F4A7C15ull;
    auto next = [&state] {
      state ^= state << 13;
      state ^= state >> 7;
      state ^= state << 17;
      return state;
    };
    std::vector<std::pair<double, std::uint64_t>> trace;
    sim.set_trace_hook([&](double t, std::uint64_t seq) { trace.emplace_back(t, seq); });
    std::uint64_t scheduled = 0;
    int budget = 6000;
    const double delays[] = {0.0, 0.0, 0.0, 1.0, 2.5, 8.0, 1e-300, 1e17};
    std::function<void()> body = [&] {
      if (next() % 64 == 0) {
        for (int i = 0; i < 1500 && budget > 0; ++i, --budget, ++scheduled) {
          sim.schedule(0.0, [] {});
        }
      }
      const int children = static_cast<int>(next() % 4);
      for (int i = 0; i < children && budget > 0; ++i, --budget, ++scheduled) {
        sim.schedule(delays[next() % 8], [&] { body(); });
      }
      if (next() % 256 == 0) sim.check_invariants();
    };
    for (int i = 0; i < 8; ++i, ++scheduled) sim.schedule(delays[next() % 8], [&] { body(); });
    sim.run();
    ASSERT_EQ(trace.size(), scheduled) << "seed " << seed;
    for (std::size_t i = 1; i < trace.size(); ++i) {
      ASSERT_LT(trace[i - 1], trace[i]) << "seed " << seed << " at dispatch " << i;
    }
    EXPECT_TRUE(sim.empty());
    sim.check_invariants();
  }
}

TEST(EventQueue, LaneStaysFifoWhileNeverDraining) {
  // 1000 same-instant events, each scheduling one successor until 20000
  // have run: the lane never drains, so it must reclaim its dispatched
  // front rather than grow without bound, and keep FIFO order throughout.
  cs::Simulation sim;
  std::vector<int> order;
  int next_id = 0;
  std::function<void(int)> hop = [&](int id) {
    order.push_back(id);
    if (next_id < 20000) {
      const int child = next_id++;
      sim.schedule(0.0, [&hop, child] { hop(child); });
    }
    if (id % 997 == 0) sim.check_invariants();
  };
  sim.schedule(1.0, [&] {
    for (int i = 0; i < 1000; ++i) {
      const int id = next_id++;
      sim.schedule(0.0, [&hop, id] { hop(id); });
    }
  });
  sim.run();
  ASSERT_EQ(order.size(), 20000u);
  for (int i = 0; i < 20000; ++i) ASSERT_EQ(order[static_cast<std::size_t>(i)], i);
  EXPECT_DOUBLE_EQ(sim.now(), 1.0);
}

TEST(EventQueue, RunUntilDrainsLaneEntriesAtTheBoundary) {
  cs::Simulation sim;
  std::vector<int> order;
  sim.schedule(5.0, [&] {
    order.push_back(0);
    sim.schedule(0.0, [&] {
      order.push_back(1);
      sim.schedule(0.0, [&] { order.push_back(2); });  // lane, still at 5
    });
    sim.schedule(1e-9, [&] { order.push_back(3); });   // heap, past 5
  });
  EXPECT_EQ(sim.run(5.0), 3u);  // lane work exactly at `until` runs
  EXPECT_EQ(order, (std::vector<int>{0, 1, 2}));
  EXPECT_DOUBLE_EQ(sim.now(), 5.0);
  EXPECT_FALSE(sim.empty());
  sim.run(4.0);  // an `until` in the past neither runs work nor rewinds
  EXPECT_DOUBLE_EQ(sim.now(), 5.0);
  EXPECT_EQ(order.size(), 3u);
  sim.run();
  EXPECT_EQ(order, (std::vector<int>{0, 1, 2, 3}));
}

TEST(EventQueue, StopPredicateLeavesLaneWorkForTheNextRun) {
  cs::Simulation sim;
  bool stop = false;
  std::vector<int> order;
  sim.schedule(2.0, [&] {
    for (int i = 0; i < 4; ++i) {
      sim.schedule(0.0, [&, i] {
        order.push_back(i);
        stop = i == 1;
      });
    }
  });
  sim.run_until([&] { return stop; });
  EXPECT_EQ(order, (std::vector<int>{0, 1}));
  sim.check_invariants();
  sim.run(2.0);
  EXPECT_EQ(order, (std::vector<int>{0, 1, 2, 3}));
  EXPECT_TRUE(sim.empty());
}

TEST(EventQueue, TeardownDestroysPendingLaneAndHeapCallbacks) {
  auto token = std::make_shared<int>(0);
  {
    cs::Simulation sim;
    sim.schedule(1.0, [&sim, token] {
      sim.schedule(0.0, [token] {});  // lane
      sim.schedule(0.0, [token, pad = std::array<char, 128>{}] { (void)pad; });  // lane, pooled
      sim.schedule(3.0, [token] {});  // heap
      sim.schedule(4.0, [token, pad = std::array<char, 128>{}] { (void)pad; });  // heap, pooled
    });
    sim.schedule(9.0, [token] {});
    ASSERT_TRUE(sim.step());
    EXPECT_EQ(token.use_count(), 6);  // five pending callbacks hold it
    sim.check_invariants();
  }
  EXPECT_EQ(token.use_count(), 1);
}

TEST(EventQueue, SlabSlotsAreRecycled) {
  cs::Simulation sim;
  int fired = 0;
  for (int round = 0; round < 3; ++round) {
    for (int i = 0; i < 3000; ++i) sim.schedule(i % 7, [&] { ++fired; });
    sim.run();
    sim.check_invariants();
  }
  EXPECT_EQ(fired, 9000);
}

namespace {

cs::Task sleeper(cs::Simulation& sim, double dt, double* woke_at) {
  co_await sim.sleep(dt);
  *woke_at = sim.now();
}

cs::Task parent_task(cs::Simulation& sim, std::vector<int>* log) {
  log->push_back(1);
  co_await sim.sleep(1.0);
  log->push_back(2);
  double t = 0;
  co_await sleeper(sim, 2.0, &t);  // await a child coroutine
  log->push_back(3);
  EXPECT_DOUBLE_EQ(t, 3.0);
}

}  // namespace

TEST(Task, SleepAdvancesClock) {
  cs::Simulation sim;
  double woke = -1;
  sim.spawn(sleeper(sim, 5.0, &woke));
  sim.run();
  EXPECT_DOUBLE_EQ(woke, 5.0);
}

TEST(Task, AwaitChildTask) {
  cs::Simulation sim;
  std::vector<int> log;
  sim.spawn(parent_task(sim, &log));
  sim.run();
  EXPECT_EQ(log, (std::vector<int>{1, 2, 3}));
  EXPECT_DOUBLE_EQ(sim.now(), 3.0);
}

TEST(Task, ZeroDelaySleepDoesNotSuspendForever) {
  cs::Simulation sim;
  double woke = -1;
  sim.spawn(sleeper(sim, 0.0, &woke));
  sim.run();
  EXPECT_DOUBLE_EQ(woke, 0.0);
}

TEST(Task, ManyConcurrentProcesses) {
  cs::Simulation sim;
  static int finished;
  finished = 0;
  auto proc = [](cs::Simulation& s, double dt) -> cs::Task {
    co_await s.sleep(dt);
    finished++;
  };
  for (int i = 0; i < 1000; ++i) sim.spawn(proc(sim, 1.0 + i * 0.001));
  sim.run();
  EXPECT_EQ(finished, 1000);
}

TEST(Task, UnfinishedTaskCleanedUpAtTeardown) {
  // A process suspended forever must be destroyed with the simulation
  // without leaking or crashing (ASAN would catch both).
  auto forever = [](cs::Simulation& s) -> cs::Task {
    co_await s.sleep(1e18);
  };
  cs::Simulation sim;
  sim.spawn(forever(sim));
  sim.run(10.0);
}

TEST(Event, TriggerWakesAllWaiters) {
  cs::Simulation sim;
  auto ev = cs::make_event();
  static int woken;
  woken = 0;
  auto waiter = [](cs::Simulation& s, cs::EventPtr e) -> cs::Task {
    co_await e->wait(s);
    woken++;
  };
  for (int i = 0; i < 5; ++i) sim.spawn(waiter(sim, ev));
  sim.schedule(2.0, [&] { ev->trigger(sim); });
  sim.run();
  EXPECT_EQ(woken, 5);
  EXPECT_TRUE(ev->fired());
}

TEST(Event, AwaitAlreadyFiredEventReturnsImmediately) {
  cs::Simulation sim;
  auto ev = cs::make_event();
  ev->trigger(sim);
  static double at;
  at = -1;
  auto waiter = [](cs::Simulation& s, cs::EventPtr e) -> cs::Task {
    co_await s.sleep(3.0);
    co_await e->wait(s);
    at = s.now();
  };
  sim.spawn(waiter(sim, ev));
  sim.run();
  EXPECT_DOUBLE_EQ(at, 3.0);
}

TEST(Event, DoubleTriggerIsIdempotent) {
  cs::Simulation sim;
  auto ev = cs::make_event();
  ev->trigger(sim);
  EXPECT_NO_THROW(ev->trigger(sim));
}

TEST(Event, WaitAll) {
  cs::Simulation sim;
  auto e1 = cs::make_event();
  auto e2 = cs::make_event();
  auto e3 = cs::make_event();
  static double done_at;
  done_at = -1;
  auto waiter = [](cs::Simulation& s, std::vector<cs::EventPtr> group) -> cs::Task {
    co_await cs::wait_all(s, std::move(group));
    done_at = s.now();
  };
  sim.spawn(waiter(sim, {e1, e2, e3}));
  sim.schedule(1.0, [&] { e2->trigger(sim); });
  sim.schedule(5.0, [&] { e1->trigger(sim); });
  sim.schedule(3.0, [&] { e3->trigger(sim); });
  sim.run();
  EXPECT_DOUBLE_EQ(done_at, 5.0);
}

TEST(Semaphore, LimitsConcurrency) {
  cs::Simulation sim;
  cs::Semaphore sem(2);
  static int active;
  static int peak;
  active = peak = 0;
  auto worker = [](cs::Simulation& s, cs::Semaphore* sm) -> cs::Task {
    co_await sm->acquire();
    active++;
    peak = std::max(peak, active);
    co_await s.sleep(1.0);
    active--;
    sm->release(s);
  };
  for (int i = 0; i < 10; ++i) sim.spawn(worker(sim, &sem));
  sim.run();
  EXPECT_EQ(peak, 2);
  EXPECT_EQ(active, 0);
  // 10 jobs, 2 at a time, 1s each -> 5s.
  EXPECT_DOUBLE_EQ(sim.now(), 5.0);
}

TEST(Semaphore, FifoHandoff) {
  cs::Simulation sim;
  cs::Semaphore sem(1);
  static std::vector<int> order;
  order.clear();
  auto worker = [](cs::Simulation& s, cs::Semaphore* sm, int id) -> cs::Task {
    co_await sm->acquire();
    order.push_back(id);
    co_await s.sleep(1.0);
    sm->release(s);
  };
  for (int i = 0; i < 4; ++i) sim.spawn(worker(sim, &sem, i));
  sim.run();
  EXPECT_EQ(order, (std::vector<int>{0, 1, 2, 3}));
}

TEST(Latch, FiresAtZero) {
  cs::Simulation sim;
  auto done = cs::make_event();
  cs::Latch latch(3, done);
  sim.schedule(1.0, [&] { latch.count_down(sim); });
  sim.schedule(2.0, [&] { latch.count_down(sim); });
  sim.run();
  EXPECT_FALSE(done->fired());
  sim.schedule(0.0, [&] { latch.count_down(sim); });
  sim.run();
  EXPECT_TRUE(done->fired());
}
