// End-to-end over real sockets, in one process: two ServeHosts covering
// the PID space plus a LoadGen client, wired over loopback with
// ephemeral ports. The unmodified proto::Peer/Client stack serves the
// traffic; the gate is the transport_smoke contract — every insert
// acked, every GET ok, zero decode drops.
#include <gtest/gtest.h>

#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "lesslog/net/loadgen.hpp"
#include "lesslog/net/serve.hpp"

namespace lesslog::net {
namespace {

HostMap ephemeral_map() {
  HostMap map;
  map.add(HostEntry{0, 31, "127.0.0.1", 0, false});
  map.add(HostEntry{32, 62, "127.0.0.1", 0, false});
  map.add(HostEntry{63, 63, "127.0.0.1", 0, true});
  return map;
}

TEST(ServeLoadGen, LoopbackRoundTripServesEveryGet) {
  ServeConfig sc0;
  sc0.m = 6;
  sc0.b = 2;
  sc0.hosts = ephemeral_map();
  sc0.self = 0;
  ServeConfig sc1 = sc0;
  sc1.self = 1;
  LoadGenConfig lc;
  lc.m = 6;
  lc.b = 2;
  lc.hosts = ephemeral_map();
  lc.self = 2;
  lc.files = 12;
  lc.rate = 400.0;
  lc.duration = 0.5;
  lc.setup_timeout = 20.0;

  ServeHost s0(std::move(sc0));
  ServeHost s1(std::move(sc1));
  LoadGen lg(std::move(lc));

  // Port-0 flow: bind everyone, read the real ports, cross-patch, and
  // only then let the retry ladders connect the full mesh.
  s0.start();
  s1.start();
  lg.start();
  const std::uint16_t ports[3] = {s0.transport().listen_port(),
                                  s1.transport().listen_port(),
                                  lg.transport().listen_port()};
  for (std::size_t i = 0; i < 3; ++i) {
    s0.transport().set_peer_port(i, ports[i]);
    s1.transport().set_peer_port(i, ports[i]);
    lg.transport().set_peer_port(i, ports[i]);
  }

  std::thread t0([&] { s0.run(); });
  std::thread t1([&] { s1.run(); });
  const LoadGenReport report = lg.run();
  s0.stop();
  s1.stop();
  t0.join();
  t1.join();

  EXPECT_EQ(report.files_inserted, report.files_requested);
  EXPECT_GT(report.gets_issued, 0);
  EXPECT_EQ(report.gets_ok, report.gets_issued);
  EXPECT_EQ(report.gets_failed, 0);
  EXPECT_TRUE(report.all_ok());
  EXPECT_EQ(report.latencies.size(),
            static_cast<std::size_t>(report.gets_ok));
  EXPECT_GT(report.p50(), 0.0);
  EXPECT_LE(report.p50(), report.p99());

  // Every socket byte decoded: zero counted decode drops anywhere.
  EXPECT_EQ(s0.network().corrupted(), 0);
  EXPECT_EQ(s1.network().corrupted(), 0);
  EXPECT_EQ(lg.network().corrupted(), 0);
  // Real traffic actually crossed the wire in both directions.
  EXPECT_GT(s0.transport().stats().frames_in, 0);
  EXPECT_GT(s1.transport().stats().frames_in, 0);
  EXPECT_GT(lg.transport().stats().frames_in, 0);
  EXPECT_EQ(s0.transport().stats().overflow_dropped, 0);
  EXPECT_EQ(s1.transport().stats().overflow_dropped, 0);
  EXPECT_EQ(lg.transport().stats().overflow_dropped, 0);
}

TEST(LoadGenReport, PercentilesUseThePercentScale) {
  // 1..100 ms: linear interpolation between closest ranks puts p50 at
  // 50.5 ms and p99 at 99.01 ms (not the 0.5th/0.99th percentiles).
  LoadGenReport report;
  for (int ms = 1; ms <= 100; ++ms) {
    report.latencies.push_back(static_cast<double>(ms) / 1000.0);
  }
  EXPECT_NEAR(report.p50(), 0.0505, 1e-12);
  EXPECT_NEAR(report.p99(), 0.09901, 1e-12);
  EXPECT_EQ(LoadGenReport{}.p50(), 0.0);
  EXPECT_EQ(LoadGenReport{}.p99(), 0.0);
}

/// The keys of one `key=value` stats line, in order.
std::vector<std::string> stats_keys(const std::string& line) {
  std::vector<std::string> keys;
  std::istringstream in(line);
  std::string kv;
  while (in >> kv) keys.push_back(kv.substr(0, kv.find('=')));
  return keys;
}

// Both stats lines are parsed by key (the transport_smoke gate and the
// wire_loopback perf harness); their key sets are part of the interface.
TEST(ServeHostStats, KeySetIsPinned) {
  ServeConfig cfg;
  cfg.m = 6;
  cfg.b = 2;
  cfg.hosts = ephemeral_map();
  cfg.self = 1;
  const ServeHost host(std::move(cfg));
  std::ostringstream out;
  host.write_stats(out);
  const std::string line = out.str();
  ASSERT_FALSE(line.empty());
  EXPECT_EQ(line.back(), '\n');
  EXPECT_EQ(stats_keys(line),
            (std::vector<std::string>{
                "decode_drops", "delivered", "undeliverable", "frames_in",
                "frames_out", "bytes_in", "bytes_out", "overflow_dropped",
                "unroutable_dropped", "accepts", "connects", "reconnects",
                "disconnects", "served"}));
  EXPECT_NE(line.find("decode_drops=0 "), std::string::npos);
  EXPECT_NE(line.find("served=0\n"), std::string::npos);
}

TEST(LoadGenStats, KeySetIsPinned) {
  LoadGenConfig cfg;
  cfg.m = 6;
  cfg.b = 2;
  cfg.hosts = ephemeral_map();
  cfg.self = 2;
  const LoadGen gen(std::move(cfg));
  LoadGenReport report;
  report.files_requested = 4;
  report.files_inserted = 3;
  std::ostringstream out;
  gen.write_stats(out, report);
  const std::string line = out.str();
  ASSERT_FALSE(line.empty());
  EXPECT_EQ(line.back(), '\n');
  EXPECT_EQ(stats_keys(line),
            (std::vector<std::string>{
                "files_inserted", "gets_issued", "gets_ok", "gets_failed",
                "p50_ms", "p99_ms", "decode_drops", "delivered",
                "frames_in", "frames_out", "overflow_dropped",
                "unroutable_dropped", "reconnects", "faults"}));
  EXPECT_NE(line.find("files_inserted=3/4 "), std::string::npos);
  EXPECT_NE(line.find("gets_failed=0 "), std::string::npos);
}

TEST(ServeConfigValidation, RejectsNonsense) {
  ServeConfig cfg;
  cfg.hosts = ephemeral_map();
  cfg.self = 2;  // client entry: not servable
  EXPECT_THROW(cfg.validate(), std::invalid_argument);
  cfg.self = 9;
  EXPECT_THROW(cfg.validate(), std::invalid_argument);
  cfg.self = 0;
  cfg.m = 5;  // hi=63 exceeds 2^5
  EXPECT_THROW(cfg.validate(), std::invalid_argument);
  cfg.m = 6;
  cfg.b = 6;
  EXPECT_THROW(cfg.validate(), std::invalid_argument);
  cfg.b = 2;
  EXPECT_NO_THROW(cfg.validate());
}

TEST(LoadGenConfigValidation, RejectsNonsense) {
  LoadGenConfig cfg;
  cfg.hosts = ephemeral_map();
  cfg.self = 0;  // serve entry: not a client
  EXPECT_THROW(cfg.validate(), std::invalid_argument);
  cfg.self = 2;
  cfg.files = 0;
  EXPECT_THROW(cfg.validate(), std::invalid_argument);
  cfg.files = 8;
  cfg.rate = 0.0;
  EXPECT_THROW(cfg.validate(), std::invalid_argument);
  cfg.rate = 100.0;
  cfg.duration = -1.0;
  EXPECT_THROW(cfg.validate(), std::invalid_argument);
  cfg.duration = 1.0;
  EXPECT_NO_THROW(cfg.validate());
}

}  // namespace
}  // namespace lesslog::net
