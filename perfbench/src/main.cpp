// lesslog_perfbench — runs one benchmark workload and prints one JSON
// result line (see perfbench/README.md; perfbench/run.py wraps it).
//
//   lesslog_perfbench --workload paper_fig8|swarm_get|swarm_churn|wire_loopback
//                     --seed N --seconds S [--trace 0|1]
//                     [--trace-out spans.jsonl] [--cli path/to/lesslog_cli]
//                     [--scratch dir]
//
// Exit status: 0 when the run completed (its checks may still have
// failed: see "correct"), 2 on bad arguments or an internal error.
#include <unistd.h>

#include <cstdlib>
#include <fstream>
#include <iostream>
#include <string>
#include <thread>

#include "common.hpp"

namespace {

using namespace perfbench;

std::string load_average() {
  std::ifstream in("/proc/loadavg");
  std::string first;
  in >> first;
  return first.empty() ? "unknown" : first;
}

void usage() {
  std::cerr << "usage: lesslog_perfbench --workload "
               "paper_fig8|swarm_get|swarm_churn|wire_loopback --seed N "
               "--seconds S [--trace 0|1] [--trace-out path] [--cli path] "
               "[--scratch dir]\n";
}

}  // namespace

int main(int argc, char** argv) {
  Options o;
  std::string trace_out;
  try {
    for (int i = 1; i < argc; ++i) {
      const std::string key = argv[i];
      if (i + 1 >= argc) throw std::invalid_argument("missing value: " + key);
      const std::string value = argv[++i];
      if (key == "--workload") {
        o.workload = value;
      } else if (key == "--seed") {
        o.seed = std::stoull(value);
      } else if (key == "--seconds") {
        o.seconds = std::stod(value);
      } else if (key == "--trace") {
        o.trace = value == "1";
      } else if (key == "--trace-out") {
        trace_out = value;
      } else if (key == "--cli") {
        o.cli = value;
      } else if (key == "--scratch") {
        o.scratch = value;
      } else {
        throw std::invalid_argument("unknown flag: " + key);
      }
    }
    if (o.seconds <= 0.0) throw std::invalid_argument("--seconds must be > 0");
  } catch (const std::exception& e) {
    std::cerr << "error: " << e.what() << "\n";
    usage();
    return 2;
  }
  if (o.scratch.empty()) o.scratch = ".";

  Result (*run)(const Options&) = nullptr;
  if (o.workload == "paper_fig8") run = run_paper_fig8;
  if (o.workload == "swarm_get") run = run_swarm_get;
  if (o.workload == "swarm_churn") run = run_swarm_churn;
  if (o.workload == "wire_loopback") run = run_wire_loopback;
  if (run == nullptr) {
    usage();
    return 2;
  }

  const std::string loadavg = load_average();
  if (o.trace) tracer().enable();
  Result res;
  try {
    res = run(o);
  } catch (const std::exception& e) {
    std::cerr << "error: " << o.workload << ": " << e.what() << "\n";
    return 2;
  }

  res.info["nproc"] = std::to_string(std::thread::hardware_concurrency());
  res.info["loadavg_start"] = loadavg;
  res.info["build_type"] = PERFBENCH_BUILD_TYPE;
#ifdef LESSLOG_NO_METRICS
  res.info["lesslog_no_metrics"] = "ON";
#else
  res.info["lesslog_no_metrics"] = "OFF";
#endif
  res.info["seed"] = std::to_string(o.seed);
  res.info["seconds"] = std::to_string(o.seconds);
  if (!res.info.contains("shards")) res.info["shards"] = "1";
  if (o.trace) {
    res.layer["trace.spans"] = static_cast<double>(tracer().size());
    if (!trace_out.empty() && !tracer().write(trace_out)) {
      res.check(false, "cannot write the trace to " + trace_out);
    }
  }
  write_result(std::cout, o.workload, res);
  return 0;
}
