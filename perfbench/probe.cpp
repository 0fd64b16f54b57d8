#include "probe.hpp"

#include <time.h>

#include <cmath>
#include <cstdio>
#include <cstdlib>

namespace perfbench {

namespace {

double thread_cpu_seconds() {
  timespec ts{};
  clock_gettime(CLOCK_THREAD_CPUTIME_ID, &ts);
  return static_cast<double>(ts.tv_sec) +
         1e-9 * static_cast<double>(ts.tv_nsec);
}

}  // namespace

ProbeResult run_probe() {
  constexpr int kRounds = 50000;
  const double t0 = thread_cpu_seconds();
  double sum = 0.0;
  char buf[64];
  for (int i = 0; i < kRounds; ++i) {
    // A report-like field pair, rendered and read back.
    const double x = 0.5 + 1e-3 * i;
    const int n = std::snprintf(buf, sizeof buf, "%.6g,%.17g", x,
                                std::sqrt(static_cast<double>(i)));
    char* end = nullptr;
    const double a = std::strtod(buf, &end);
    const double b = std::strtod(end + 1, nullptr);
    sum += a + b + n;
  }
  return {thread_cpu_seconds() - t0, sum};
}

}  // namespace perfbench
