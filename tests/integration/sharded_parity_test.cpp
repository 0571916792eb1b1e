// Feature parity: ShardedSwarm carries the replicate() helper, the
// closed-loop auto-replication controller, and metrics sampling.
// Pinned properties:
//   1. at S = 1 each of the three reproduces the single-engine
//      deployment's golden pins (same RNG stream, same event order, same
//      sampled series);
//   2. at S ∈ {2, 4, 8} a run with the controller and sampler enabled is
//      bit-reproducible across repeated runs (fresh thread pools).
#include <gtest/gtest.h>

#include <vector>

#include "golden_pin.hpp"
#include "lesslog/proto/sharded_swarm.hpp"

namespace lesslog::proto {
namespace {

constexpr int kM = 8;
constexpr std::uint32_t kNodes = 64;

ShardedSwarm::Config sharded_cfg(std::uint64_t seed, std::size_t shards) {
  ShardedSwarm::Config cfg;
  cfg.m = kM;
  cfg.b = 1;
  cfg.nodes = kNodes;
  cfg.seed = seed;
  cfg.shards = shards;
  return cfg;
}

TEST(ShardedParity, ReplicateMatchesSerialAtOneShard) {
  // replicate() draws placement randomness from the overloaded holder's
  // home engine; at S = 1 that is the one engine's stream, so the chosen
  // stand-ins are pinned exactly, replica chain and all.
  ShardedSwarm swarm(sharded_cfg(13, 1));
  golden::expect_no_forward_hook(swarm);
  std::vector<std::uint32_t> placed;
  const core::FileId f = swarm.insert_named(0x507F11E, core::Pid{1});
  const core::Pid target = swarm.peer(core::Pid{1}).target_of(f);
  swarm.settle();
  std::vector<std::uint32_t> copies{target.value()};
  for (int step = 0; step < 5; ++step) {
    const auto r = swarm.replicate(
        f, target, core::Pid{copies.back()}, [&copies](core::Pid p) {
          for (const std::uint32_t c : copies) {
            if (c == p.value()) return true;
          }
          return false;
        });
    swarm.settle();
    if (!r.has_value()) break;
    copies.push_back(r->value());
    placed.push_back(r->value());
  }
  EXPECT_EQ(placed, (std::vector<std::uint32_t>{9u, 13u, 5u, 21u, 53u}));
  golden::expect_pin(golden::pin_of(swarm),
                     {0u, golden::kFnvBasis,
                      9, 387, 9, 0, 0, 0,
                      {0, 0, 0, 0, 0, 0, 0, 0, 0},
                      0x365f3a257c6c7c8aULL, 0x77abf7b53e46e4b2ULL});
}

TEST(ShardedParity, ControllerMatchesSerialAtOneShard) {
  // Saturates one ψ target with direct GETs, then lets the closed loop
  // run three windows. Deterministic load (no engine-RNG draws).
  ShardedSwarm swarm(sharded_cfg(29, 1));
  golden::expect_no_forward_hook(swarm);
  const core::FileId f = swarm.insert_named(0xB007, core::Pid{0});
  const core::Pid target = swarm.peer(core::Pid{0}).target_of(f);
  swarm.settle();
  for (int i = 0; i < 300; ++i) {
    swarm.get(f, target, core::Pid{static_cast<std::uint32_t>(i) % kNodes});
  }
  swarm.settle();
  swarm.enable_auto_replication(/*capacity=*/50.0, /*window=*/1.0,
                                /*stop_at=*/swarm.engine(0).now() + 3.5);
  swarm.run_until(swarm.engine(0).now() + 4.0);
  swarm.settle();

  EXPECT_EQ(swarm.auto_replicas(), 2);
  EXPECT_EQ(swarm.auto_removals(), 0);
  golden::expect_pin(golden::pin_of(swarm),
                     {300u, 0x3cfbf7260f636035ULL,
                      590, 25370, 590, 0, 0, 0,
                      {300, 300, 0, 0, 0, 0, 0, 0, 0},
                      0x5d496b40877cbfc7ULL, 0x77abf7b53e46e4b2ULL});
}

TEST(ShardedParity, SampledSeriesMatchesSerialAtOneShard) {
  ShardedSwarm swarm(sharded_cfg(31, 1));
  golden::expect_no_forward_hook(swarm);
  const core::FileId f = swarm.insert_named(0x5A17, core::Pid{2});
  const core::Pid target = swarm.peer(core::Pid{2}).target_of(f);
  swarm.settle();
  swarm.enable_metrics_sampling(/*interval=*/0.25, /*stop_at=*/2.0);
  for (int i = 0; i < 64; ++i) {
    swarm.get(f, target,
              core::Pid{static_cast<std::uint32_t>(i * 5) % kNodes});
  }
  swarm.settle();

  // Every sample's capture time, and (metrics builds) every sample's
  // counters and gauges, chained in sample order.
  const obs::TimeSeries& series = swarm.metrics_series();
  std::vector<double> times;
  std::uint64_t counters = golden::kFnvBasis;
  std::uint64_t gauges = golden::kFnvBasis;
  for (const obs::Snapshot& sample : series.samples) {
    times.push_back(sample.time);
    counters =
        golden::fnv_u64(counters, golden::hash_counters(sample.counters));
    gauges = golden::fnv_u64(gauges, golden::hash_gauges(sample.gauges));
  }
  EXPECT_EQ(series.size(), 7u);
  EXPECT_EQ(golden::hash_doubles(times), 0x0fd42ae913bd2a5dULL);
#if LESSLOG_METRICS_ENABLED
  EXPECT_EQ(counters, 0x4d9b0b1af9e47694ULL);
  EXPECT_EQ(gauges, 0x30e46edf25f9fb5fULL);
#endif
  golden::expect_pin(golden::pin_of(swarm),
                     {64u, 0x7b35a761b7f5e9efULL,
                      128, 5504, 128, 0, 0, 0,
                      {64, 64, 0, 0, 0, 0, 0, 0, 0},
                      0xbdb4237094026d4eULL, 0x7de97e1d7d3befa2ULL});
}

TEST(ShardedParity, ControllerAndSamplerRepeatExactlyAcrossShardCounts) {
  const auto run_once = [](std::size_t shards) {
    ShardedSwarm swarm(sharded_cfg(77, shards));
    const core::FileId f = swarm.insert_named(0xB007, core::Pid{0});
    const core::Pid target = swarm.peer(core::Pid{0}).target_of(f);
    swarm.settle();
    swarm.enable_metrics_sampling(/*interval=*/0.5,
                                  swarm.engine(0).now() + 4.0);
    for (int i = 0; i < 300; ++i) {
      swarm.get(f, target,
                core::Pid{static_cast<std::uint32_t>(i) % kNodes});
    }
    swarm.settle();
    swarm.enable_auto_replication(/*capacity=*/50.0, /*window=*/1.0,
                                  swarm.engine(0).now() + 3.5);
    swarm.run_until(swarm.engine(0).now() + 4.0);
    swarm.settle();

    struct Fingerprint {
      std::int64_t replicas;
      std::int64_t removals;
      std::int64_t sent;
      std::vector<double> latencies;
      std::vector<std::pair<std::string, std::uint64_t>> counters;
      bool operator==(const Fingerprint&) const = default;
    };
    Fingerprint fp;
    fp.replicas = swarm.auto_replicas();
    fp.removals = swarm.auto_removals();
    fp.sent = swarm.messages_sent();
    fp.latencies = swarm.all_latencies();
    fp.counters = swarm.metrics_snapshot().counters;
    return fp;
  };

  for (const std::size_t shards :
       {std::size_t{2}, std::size_t{4}, std::size_t{8}}) {
    EXPECT_TRUE(run_once(shards) == run_once(shards)) << "S = " << shards;
  }
}

}  // namespace
}  // namespace lesslog::proto
