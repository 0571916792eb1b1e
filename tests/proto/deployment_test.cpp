// Contract of the deployment constructor: ShardedSwarm(cfg, live, local)
// takes ground-truth liveness as given and builds peers and clients for
// the local PID range only. The wire roles (net::Host) run on it; the
// simulator constructor delegates to it with live = local = [0, nodes).
#include <gtest/gtest.h>

#include "lesslog/proto/sharded_swarm.hpp"

namespace lesslog::proto {
namespace {

using core::FileId;
using core::Pid;

ShardedSwarm::Config small(std::uint32_t nodes) {
  ShardedSwarm::Config cfg;
  cfg.m = 6;
  cfg.b = 2;
  cfg.nodes = nodes;
  cfg.seed = 5;
  cfg.net.base_latency = 0.001;
  cfg.net.jitter = 0.0005;
  return cfg;
}

/// PIDs [0, 63) live, PID 63 dead — a loadgen's client entry.
util::StatusWord serve_word() { return util::StatusWord(6, 63u); }

TEST(ShardedSwarmDeployment, DeadClientPidStillGetsItsLocalPeer) {
  const util::StatusWord live = serve_word();
  ShardedSwarm swarm(small(0), live, ShardedSwarm::PidRange{63, 64});
  EXPECT_EQ(swarm.status(), live);
  EXPECT_FALSE(swarm.status().is_live(63));
  ASSERT_TRUE(swarm.has_peer(Pid{63}));
  EXPECT_EQ(swarm.peer(Pid{63}).status(), live);
  EXPECT_EQ(swarm.client(Pid{63}).faults(), 0);
  for (std::uint32_t p = 0; p < 63; ++p) {
    EXPECT_FALSE(swarm.has_peer(Pid{p})) << p;
  }
  // The aggregates skip the PIDs this deployment does not hold.
  EXPECT_EQ(swarm.total_faults(), 0);
  EXPECT_TRUE(swarm.all_latencies().empty());
  EXPECT_EQ(swarm.reliability_ledger().issued, 0);
}

TEST(ShardedSwarmDeployment, BuildsPeersOnlyForTheLocalRange) {
  const util::StatusWord live = serve_word();
  ShardedSwarm swarm(small(0), live, ShardedSwarm::PidRange{0, 32});
  EXPECT_EQ(swarm.status(), live);
  for (std::uint32_t p = 0; p < 64; ++p) {
    EXPECT_EQ(swarm.has_peer(Pid{p}), p < 32) << p;
  }
  EXPECT_EQ(swarm.peer(Pid{31}).status(), live);
}

TEST(ShardedSwarmDeployment, SimulatorConstructorIsTheFullLocalDeployment) {
  // Same config, once through each constructor: identical traffic.
  ShardedSwarm a(small(40));
  ShardedSwarm b(small(40), util::StatusWord(6, 40u),
                 ShardedSwarm::PidRange{0, 40});
  EXPECT_EQ(a.status(), b.status());
  for (ShardedSwarm* s : {&a, &b}) {
    for (std::uint64_t k = 1; k <= 12; ++k) {
      s->insert_named(k, Pid{static_cast<std::uint32_t>(k % 40)});
    }
    s->settle();
    for (std::uint64_t k = 1; k <= 12; ++k) {
      const FileId f{k};
      const auto at = Pid{static_cast<std::uint32_t>((3 * k) % 40)};
      s->get(f, s->peer(at).target_of(f), at);
    }
    s->settle();
  }
  EXPECT_EQ(a.messages_sent(), b.messages_sent());
  EXPECT_EQ(a.delivered(), b.delivered());
  EXPECT_EQ(a.all_latencies(), b.all_latencies());
  EXPECT_EQ(a.total_faults(), 0);
}

TEST(ShardedSwarmDeployment, RejectsAMismatchedWordOrRange) {
  EXPECT_THROW(ShardedSwarm(small(0), util::StatusWord(5, 32u),
                            ShardedSwarm::PidRange{0, 32}),
               std::invalid_argument);
  EXPECT_THROW(ShardedSwarm(small(0), serve_word(),
                            ShardedSwarm::PidRange{0, 65}),
               std::invalid_argument);
  EXPECT_THROW(ShardedSwarm(small(0), serve_word(),
                            ShardedSwarm::PidRange{9, 8}),
               std::invalid_argument);
}

}  // namespace
}  // namespace lesslog::proto
