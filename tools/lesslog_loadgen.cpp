// lesslog_loadgen — drive real GET traffic at a set of `lesslog_cli
// serve` processes over the socket transport (docs/TRANSPORT.md).
//
//   lesslog_loadgen --hosts 'serve:0-31:127.0.0.1:4701;
//                            serve:32-62:127.0.0.1:4702;
//                            client:63:127.0.0.1:4703'
//                   --self 2 [--m 6] [--b 2] [--files 32] [--rate 200]
//                   [--duration 2] [--timeout 0.25] [--retries 2]
//                   [--seed 1] [--setup-timeout 20] [--stats-out path]
//
// Phase 1 places `--files` files on the holders the paper's placement
// rule resolves; phase 2 issues fixed-rate GETs against uniformly random
// files through the unmodified proto::Client reliability stack and
// reports exact end-to-end p50/p99. Exit status is 0 iff every insert
// was acked and every GET came back ok — the transport_smoke gate.
#include <fstream>
#include <iostream>
#include <string>

#include "flags.hpp"
#include "lesslog/net/loadgen.hpp"

namespace {

using namespace lesslog;
using tools::Flags;

}  // namespace

int main(int argc, char** argv) {
  try {
    const Flags flags(argc, argv, 1);
    net::LoadGenConfig cfg;
    cfg.hosts = net::HostMap::parse(flags.get("hosts", std::string()));
    cfg.self = static_cast<std::size_t>(flags.get("self", 0));
    cfg.m = flags.get("m", 6);
    cfg.b = flags.get("b", 2);
    cfg.seed = static_cast<std::uint64_t>(flags.get("seed", 1));
    cfg.files = flags.get("files", 32);
    cfg.rate = flags.get("rate", 200.0);
    cfg.duration = flags.get("duration", 2.0);
    cfg.setup_timeout = flags.get("setup-timeout", 20.0);
    cfg.client.timeout = flags.get("timeout", 0.25);
    cfg.client.max_retries = flags.get("retries", 2);

    net::LoadGen gen(std::move(cfg));
    const net::LoadGenReport report = gen.run();

    gen.write_stats(std::cout, report);
    if (flags.has("stats-out")) {
      const std::string path = flags.get("stats-out", std::string());
      std::ofstream out(path);
      if (!out) throw std::runtime_error("cannot write " + path);
      gen.write_stats(out, report);
    }
    std::cout << (report.all_ok() ? "loadgen: OK" : "loadgen: FAILED")
              << " (" << report.gets_ok << "/" << report.gets_issued
              << " gets ok, p50 " << report.p50() * 1e3 << " ms, p99 "
              << report.p99() * 1e3 << " ms)\n";
    return report.all_ok() ? 0 : 1;
  } catch (const std::exception& e) {
    std::cerr << "error: " << e.what() << "\n";
    return 2;
  }
}
