// Differential testing of the two protocol altitudes: the direct-call
// core::System and the datagram-level proto::ShardedSwarm must agree on holder
// placement, routing outcomes, and availability across identical operation
// sequences (ψ-named files, lossless network).
#include <gtest/gtest.h>

#include <set>
#include <type_traits>

#include "lesslog/core/system.hpp"
#include "lesslog/proto/sharded_swarm.hpp"
#include "lesslog/util/hashing.hpp"
#include "lesslog/util/rng.hpp"

namespace lesslog {
namespace {

using core::FileId;
using core::Pid;

// gtest names each case by dumping the parameter's bytes, so the struct
// must have no padding (padding bytes hold leftover memory, and the case
// names would change from run to run). `nodes` and `ops` are 64-bit for
// that reason alone.
struct DiffCase {
  int m;
  int b;
  std::uint64_t nodes;
  std::uint64_t seed;
  std::int64_t ops;
};
static_assert(std::has_unique_object_representations_v<DiffCase>);

class SystemSwarmDifferential : public ::testing::TestWithParam<DiffCase> {};

TEST_P(SystemSwarmDifferential, IdenticalOperationSequencesConverge) {
  const auto [m, b, wide_nodes, seed, ops] = GetParam();
  const auto nodes = static_cast<std::uint32_t>(wide_nodes);

  core::System sys({.m = m, .b = b, .seed = seed});
  sys.bootstrap(nodes);

  proto::ShardedSwarm::Config scfg;
  scfg.m = m;
  scfg.b = b;
  scfg.nodes = nodes;
  scfg.seed = seed;
  scfg.net.base_latency = 0.001;
  scfg.net.jitter = 0.0;
  proto::ShardedSwarm swarm(scfg);

  std::vector<FileId> files;
  util::Rng rng(seed * 31 + 7);

  const auto random_live = [&]() -> Pid {
    const std::vector<std::uint32_t> live = sys.status().live_pids();
    return Pid{live[rng.bounded(live.size())]};
  };

  for (int op = 0; op < ops; ++op) {
    switch (rng.bounded(4)) {
      case 0: {  // insert a ψ-named file in both worlds
        const std::uint64_t key = seed * 1000 + static_cast<std::uint64_t>(op);
        files.push_back(sys.insert_key(key));
        // System's insert_key mixes the key; mirror the exact id/target.
        const FileId f = files.back();
        swarm.insert(f, sys.target_of(f), random_live());
        swarm.settle();
        break;
      }
      case 1: {  // graceful leave
        if (sys.live_count() > 4) {
          const Pid victim = random_live();
          sys.leave(victim);
          swarm.depart(victim);
          swarm.settle();
        }
        break;
      }
      case 2: {  // rejoin the lowest dead PID
        if (sys.live_count() < nodes) {
          const Pid joined = sys.join();
          swarm.join(joined);
          swarm.settle();
        }
        break;
      }
      case 3: {  // probe availability from a random node
        if (!files.empty()) {
          const FileId f = files[rng.bounded(files.size())];
          const Pid at = random_live();
          const auto expected = sys.get(f, at);
          proto::GetResult got;
          swarm.get(f, sys.target_of(f), at,
                    [&](const proto::GetResult& r) { got = r; });
          swarm.settle();
          EXPECT_EQ(got.ok, expected.ok()) << "file " << f.key();
          if (expected.ok()) {
            EXPECT_EQ(got.hops, expected.route.hops());
          }
        }
        break;
      }
    }
  }

  // Liveness views agree.
  EXPECT_EQ(swarm.status(), sys.status());

  // Authoritative placement agrees: for each file, the per-subtree
  // holders carry inserted copies in both worlds.
  for (const FileId f : files) {
    const core::LookupTree tree(m, sys.target_of(f));
    const core::SubtreeView view(tree, b);
    for (const Pid holder : view.insertion_targets(sys.status())) {
      const auto sys_info = sys.node(holder).store().info(f);
      const auto swarm_info = swarm.peer(holder).store().info(f);
      ASSERT_TRUE(sys_info.has_value())
          << "System missing holder copy, file " << f.key();
      ASSERT_TRUE(swarm_info.has_value())
          << "Swarm missing holder copy, file " << f.key();
      EXPECT_EQ(sys_info->kind, core::CopyKind::kInserted);
      EXPECT_EQ(swarm_info->kind, core::CopyKind::kInserted);
    }
  }
}

INSTANTIATE_TEST_SUITE_P(
    Cases, SystemSwarmDifferential,
    ::testing::Values(DiffCase{4, 0, 16, 1, 40},
                      DiffCase{5, 0, 32, 2, 60},
                      DiffCase{5, 1, 32, 3, 60},
                      DiffCase{6, 0, 64, 4, 80},
                      DiffCase{6, 2, 64, 5, 80}));

}  // namespace
}  // namespace lesslog
