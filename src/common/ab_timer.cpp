#include "common/ab_timer.h"

#include <time.h>

#include <algorithm>
#include <chrono>
#include <vector>

#include "common/error.h"

namespace mandipass::common {
namespace {

struct Sample {
  double cpu_s = 0.0;
  double wall_s = 0.0;
};

double thread_cpu_seconds() {
  timespec ts{};
  clock_gettime(CLOCK_THREAD_CPUTIME_ID, &ts);
  return static_cast<double>(ts.tv_sec) + static_cast<double>(ts.tv_nsec) * 1e-9;
}

Sample time_once(const std::function<void(std::size_t)>& f, std::size_t window) {
  const auto wall0 = std::chrono::steady_clock::now();
  const double cpu0 = thread_cpu_seconds();
  f(window);
  const double cpu1 = thread_cpu_seconds();
  const auto wall1 = std::chrono::steady_clock::now();
  return {cpu1 - cpu0, std::chrono::duration<double>(wall1 - wall0).count()};
}

double median(std::vector<double> v) {
  std::sort(v.begin(), v.end());
  const std::size_t n = v.size();
  return n % 2 == 1 ? v[n / 2] : 0.5 * (v[n / 2 - 1] + v[n / 2]);
}

double ratio(double a, double b) { return b > 0.0 ? a / b : 0.0; }

}  // namespace

AbRatio ab_compare(std::size_t windows, const std::function<void(std::size_t)>& a,
                   const std::function<void(std::size_t)>& b) {
  MANDIPASS_EXPECTS(windows > 0);
  std::vector<double> cpu_ratios;
  std::vector<double> wall_ratios;
  std::vector<double> a_cpu;
  std::vector<double> b_cpu;
  for (std::size_t w = 0; w < windows; ++w) {
    Sample sa;
    Sample sb;
    if (w % 2 == 0) {
      sa = time_once(a, w);
      sb = time_once(b, w);
    } else {
      sb = time_once(b, w);
      sa = time_once(a, w);
    }
    cpu_ratios.push_back(ratio(sa.cpu_s, sb.cpu_s));
    wall_ratios.push_back(ratio(sa.wall_s, sb.wall_s));
    a_cpu.push_back(sa.cpu_s);
    b_cpu.push_back(sb.cpu_s);
  }
  AbRatio r;
  r.cpu_ratio = median(cpu_ratios);
  r.wall_ratio = median(wall_ratios);
  r.a_cpu_s = median(a_cpu);
  r.b_cpu_s = median(b_cpu);
  r.windows = windows;
  return r;
}

}  // namespace mandipass::common
