// Paired A/B timing for in-process ratio verdicts ("the compiled plan is
// at least 2x the reference").
//
// Timing each side in one wall-clock window lets a busy neighbour or a
// descheduled thread move the ratio by +-20 % on a shared host. ab_compare
// instead alternates short windows of A and B, times each on the calling
// thread's CPU clock (CLOCK_THREAD_CPUTIME_ID) and gates on the median of
// the per-window ratios. Thread CPU time leaves out descheduled time,
// steal included. It still counts slowdowns from neighbours on the same
// caches and memory bus, and alternating the sides cancels slow drift.
// The wall-clock ratio is reported beside it as a gauge only.
#pragma once

#include <cstddef>
#include <functional>

namespace mandipass::common {

/// Result of ab_compare. Ratios are A over B: a ratio of 2 means A took
/// twice B's time.
struct AbRatio {
  double cpu_ratio = 0.0;   ///< median over windows of cpu(A) / cpu(B); the gate
  double wall_ratio = 0.0;  ///< median over windows of wall(A) / wall(B); a gauge
  double a_cpu_s = 0.0;     ///< median CPU seconds of one A window
  double b_cpu_s = 0.0;     ///< median CPU seconds of one B window
  std::size_t windows = 0;
};

/// Runs `windows` rounds. Round w calls a(w) and b(w) once each, A first
/// in even rounds and B first in odd ones, and times each call on the
/// calling thread's CPU clock and on the wall clock. Each callable must do
/// all of its work on the calling thread (a one-lane pool runs inline),
/// or the CPU clock misses it. Passing w lets a caller spread a fixed
/// amount of work over the windows, so its counters do not depend on
/// timing. Precondition: windows > 0.
AbRatio ab_compare(std::size_t windows, const std::function<void(std::size_t)>& a,
                   const std::function<void(std::size_t)>& b);

}  // namespace mandipass::common
