// Timing and memory probes shared by the bench harnesses.
#pragma once

#include <chrono>
#include <cstddef>
#include <fstream>
#include <sstream>
#include <string>

namespace pga::bench {

inline double seconds_since(std::chrono::steady_clock::time_point start) {
  return std::chrono::duration<double>(std::chrono::steady_clock::now() - start)
      .count();
}

/// Peak resident set size (VmHWM) in bytes; 0 if /proc is unavailable.
/// Process-wide high-water mark: run points smallest-first.
inline std::size_t peak_rss_bytes() {
  std::ifstream status("/proc/self/status");
  std::string line;
  while (std::getline(status, line)) {
    if (line.rfind("VmHWM:", 0) == 0) {
      std::istringstream is(line.substr(6));
      std::size_t kb = 0;
      is >> kb;
      return kb * 1024;
    }
  }
  return 0;
}

}  // namespace pga::bench
