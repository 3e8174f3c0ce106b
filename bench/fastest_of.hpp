#pragma once
/// \file fastest_of.hpp
/// Best-of-N timing for the `--json` speedometer benches. One sample of a
/// 30-50 ms rung is hostage to any slow spell of the host, so a rung's
/// reported wall time is the fastest of `reps` repetitions: what the code
/// can do, not what the machine was doing. Every repetition is the same
/// seeded workload, so `same(first, r)` must hold for each of them — a
/// mismatch aborts, because a rung that does not replay has no baseline.

#include <utility>

#include "util/check.hpp"

namespace chase::bench {

template <class Run, class Same>
auto fastest_of(int reps, Run run, Same same) {
  auto best = run();
  const auto first = best;
  for (int i = 1; i < reps; ++i) {
    auto r = run();
    CHASE_ASSERT(same(first, r), "bench repetitions diverged: the rung is not deterministic");
    if (r.wall_s < best.wall_s) best = std::move(r);
  }
  return best;
}

}  // namespace chase::bench
