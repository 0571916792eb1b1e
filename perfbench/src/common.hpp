// Shared pieces of the benchmark binary: options, the result document,
// statistics helpers and the repetition loop.
#pragma once

#include <sched.h>

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdint>
#include <fstream>
#include <map>
#include <ostream>
#include <string>
#include <vector>

#include "lesslog/util/stats.hpp"
#include "trace.hpp"

namespace perfbench {

using Clock = std::chrono::steady_clock;
using lesslog::util::percentile;  // q in [0, 100], interpolated

[[nodiscard]] inline double since(Clock::time_point t0) {
  return std::chrono::duration<double>(Clock::now() - t0).count();
}

struct Options {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  std::string cli;      ///< path to lesslog_cli (wire_loopback)
  std::string scratch;  ///< directory for child logs and stats files
};

/// Everything one run reports. `e2e` holds the end-to-end metrics, `layer`
/// the per-layer ones, `det` the counts that must repeat exactly for a
/// given seed (traced vs untraced), `info` the provenance strings.
struct Result {
  bool correct = true;
  std::int64_t attempted = 0;
  std::int64_t failed = 0;
  std::vector<std::string> problems;
  std::map<std::string, double> e2e;
  std::map<std::string, double> layer;
  std::map<std::string, double> det;
  std::map<std::string, std::string> info;

  /// Records an output check; a failing check makes the run incorrect.
  void check(bool ok, const std::string& what) {
    if (!ok) {
      correct = false;
      problems.push_back(what);
    }
  }
};

[[nodiscard]] inline std::uint64_t mix(std::uint64_t a, std::uint64_t b) {
  std::uint64_t z = a * 0x9E3779B97F4A7C15ULL + b + 0x632BE59BD9B4E019ULL;
  z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9ULL;
  z = (z ^ (z >> 27)) * 0x94D049BB133111EBULL;
  return z ^ (z >> 31);
}

/// Peak resident memory (VmHWM) in MB of the process whose
/// /proc/<pid>/status is `status`; 0 when unreadable. Unlike getrusage's
/// ru_maxrss, which survives fork and exec and so reports the parent's
/// peak when that is larger, VmHWM belongs to the address space the
/// process has since its exec.
[[nodiscard]] inline double peak_rss_mb(const std::string& status) {
  std::ifstream in(status);
  std::string key;
  double kb = 0.0;
  while (in >> key) {
    if (key == "VmHWM:") {
      in >> kb;
      break;
    }
  }
  return kb / 1024.0;
}

[[nodiscard]] inline double peak_rss_mb_self() {
  return peak_rss_mb("/proc/self/status");
}

/// Wall times of the segments of each repetition, recorded in the same
/// order every time, so segment k is the same work in every repetition
/// (one paper cell, one 10 ms slice, one drain). The run's time is the
/// sum over segments of each segment's fastest repetition: co-tenant
/// slowdowns on a shared box come in windows of seconds and only ever add
/// time, so a segment's minimum is its cost with the least interference.
class Segments {
 public:
  void start_rep() { reps_.emplace_back(); }
  void add(double seconds) { reps_.back().push_back(seconds); }
  void add_since(Clock::time_point t0) { add(since(t0)); }

  /// Sum over segments of the minimum over repetitions.
  [[nodiscard]] double best_sum() const {
    if (reps_.empty()) return 0.0;
    double sum = 0.0;
    for (std::size_t k = 0; k < reps_.front().size(); ++k) {
      double best = reps_.front()[k];
      for (const std::vector<double>& r : reps_) {
        if (k < r.size()) best = std::min(best, r[k]);
      }
      sum += best;
    }
    return sum;
  }

  /// Median over repetitions of the repetition's total.
  [[nodiscard]] double median_total() const {
    std::vector<double> totals;
    for (const std::vector<double>& r : reps_) {
      double t = 0.0;
      for (const double d : r) t += d;
      totals.push_back(t);
    }
    return percentile(totals, 50.0);
  }

 private:
  std::vector<std::vector<double>> reps_;
};

/// Moves the calling thread to a different CPU for each repetition of a
/// single-threaded workload, cycling through the CPUs the process may use.
/// On a shared box each virtual CPU has slow periods of its own (a busy
/// co-tenant on the same core) lasting seconds; a run that stays on one
/// CPU can spend all of its repetitions in one, while a run that visits
/// every CPU gives each segment a repetition on a quiet one.
class CpuRotation {
 public:
  CpuRotation() {
    cpu_set_t set;
    CPU_ZERO(&set);
    if (sched_getaffinity(0, sizeof set, &set) != 0) return;
    for (int c = 0; c < CPU_SETSIZE; ++c) {
      if (CPU_ISSET(c, &set)) cpus_.push_back(c);
    }
  }

  void pin(int rep) const {
    if (cpus_.size() < 2) return;
    cpu_set_t set;
    CPU_ZERO(&set);
    CPU_SET(cpus_[static_cast<std::size_t>(rep) % cpus_.size()], &set);
    (void)sched_setaffinity(0, sizeof set, &set);
  }

 private:
  std::vector<int> cpus_;
};

/// Runs `rep(i)` at least `min_reps` times and then for as long as one
/// more repetition is expected to fit inside `seconds`. Returns the count.
template <class F>
int repeat_for(double seconds, int min_reps, F&& rep) {
  const Clock::time_point t0 = Clock::now();
  int n = 0;
  while (n < min_reps ||
         since(t0) * static_cast<double>(n + 1) / static_cast<double>(n) <=
             seconds) {
    rep(n);
    ++n;
  }
  return n;
}

inline void write_json_string(std::ostream& out, const std::string& s) {
  out << '"';
  for (const char c : s) {
    if (c == '"' || c == '\\') {
      out << '\\' << c;
    } else if (static_cast<unsigned char>(c) < 0x20) {
      out << ' ';
    } else {
      out << c;
    }
  }
  out << '"';
}

inline void write_json_map(std::ostream& out,
                           const std::map<std::string, double>& m) {
  out << '{';
  bool first = true;
  for (const auto& [k, v] : m) {
    if (!first) out << ',';
    first = false;
    write_json_string(out, k);
    out << ':';
    if (std::isfinite(v)) {
      out << v;
    } else {
      out << "null";
    }
  }
  out << '}';
}

/// The single result line run.py reads.
inline void write_result(std::ostream& out, const std::string& workload,
                         const Result& r) {
  out.precision(10);
  out << "{\"workload\":";
  write_json_string(out, workload);
  out << ",\"correct\":" << (r.correct ? "true" : "false")
      << ",\"attempted\":" << r.attempted << ",\"failed\":" << r.failed
      << ",\"problems\":[";
  for (std::size_t i = 0; i < r.problems.size(); ++i) {
    if (i > 0) out << ',';
    write_json_string(out, r.problems[i]);
  }
  out << "],\"e2e\":";
  write_json_map(out, r.e2e);
  out << ",\"layer\":";
  write_json_map(out, r.layer);
  out << ",\"det\":";
  write_json_map(out, r.det);
  out << ",\"info\":{";
  bool first = true;
  for (const auto& [k, v] : r.info) {
    if (!first) out << ',';
    first = false;
    write_json_string(out, k);
    out << ':';
    write_json_string(out, v);
  }
  out << "}}\n";
}

Result run_paper_fig8(const Options& o);
Result run_swarm_get(const Options& o);
Result run_swarm_churn(const Options& o);
Result run_wire_loopback(const Options& o);

}  // namespace perfbench
