// Timing helpers and within-run gates shared by the gated benches
// (regress, random_access, service_throughput).  Every gate compares
// numbers measured in the same run — never a wall clock against another
// run's — so it reads the same on any box.
#pragma once

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <functional>
#include <limits>
#include <string>
#include <utility>
#include <vector>

namespace fz::bench {

/// Best wall time of `iters` calls of fn, in seconds.
inline double min_seconds(int iters, const std::function<void()>& fn) {
  double best = std::numeric_limits<double>::infinity();
  for (int i = 0; i < iters; ++i) {
    const auto t0 = std::chrono::steady_clock::now();
    fn();
    const auto t1 = std::chrono::steady_clock::now();
    best = std::min(best, std::chrono::duration<double>(t1 - t0).count());
  }
  return best;
}

inline double gbps(size_t bytes, double secs) {
  return static_cast<double>(bytes) / secs / 1e9;
}

/// printf into a std::string, for gate details.
template <typename... Args>
std::string format(const char* fmt, Args... args) {
  char buf[256];
  std::snprintf(buf, sizeof(buf), fmt, args...);
  return buf;
}

/// Prints one "gate NAME ok|FAILED detail" line per check; exit_code()
/// is 1, after naming every failed gate on stderr, when any check failed.
class Gates {
 public:
  explicit Gates(std::string bench) : bench_(std::move(bench)) {}

  void check(const std::string& name, bool pass, const std::string& detail) {
    std::printf("gate %-20s %-6s %s\n", name.c_str(), pass ? "ok" : "FAILED",
                detail.c_str());
    if (!pass) failed_.push_back(name);
  }

  /// A ratio gate: passes when `ratio >= floor`.
  void at_least(const std::string& name, const std::string& what,
                double ratio, double floor) {
    check(name, ratio >= floor,
          format("%s %.2fx, need >= %.2fx", what.c_str(), ratio, floor));
  }

  /// A ratio gate: passes when `ratio <= ceiling`.
  void at_most(const std::string& name, const std::string& what, double ratio,
               double ceiling) {
    check(name, ratio <= ceiling,
          format("%s %.2fx, need <= %.2fx", what.c_str(), ratio, ceiling));
  }

  int exit_code() const {
    std::fflush(stdout);
    if (failed_.empty()) return 0;
    std::string names;
    for (const std::string& n : failed_) names += " " + n;
    std::fprintf(stderr, "%s: %zu gate(s) failed:%s\n", bench_.c_str(),
                 failed_.size(), names.c_str());
    return 1;
  }

 private:
  std::string bench_;
  std::vector<std::string> failed_;
};

}  // namespace fz::bench
