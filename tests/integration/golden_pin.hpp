// Golden pins for single-shard swarm runs.
//
// A pin is a compact fingerprint of a finished run: a 64-bit hash of every
// client latency's bit pattern, the swarm-wide network counters, the
// merged reliability ledger, and hashes of the metric counters and gauges.
// The pinned values were recorded from the single-engine deployment the
// S = 1 ShardedSwarm replaced (same seeds, same scenarios), so a pin
// failing means the S = 1 event order, RNG stream or accounting moved.
//
// Metric hashes are compared only when metrics are compiled in: under
// LESSLOG_NO_METRICS every cell stays at zero.
#pragma once

#include <gtest/gtest.h>

#include <bit>
#include <cstdint>
#include <string_view>
#include <vector>

#include "lesslog/obs/metrics.hpp"
#include "lesslog/proto/sharded_swarm.hpp"

namespace lesslog::proto::golden {

/// FNV-1a 64 over raw bytes, chained through `h`.
inline std::uint64_t fnv(std::uint64_t h, const void* data, std::size_t n) {
  const auto* p = static_cast<const unsigned char*>(data);
  for (std::size_t i = 0; i < n; ++i) {
    h ^= p[i];
    h *= 0x100000001b3ULL;
  }
  return h;
}

inline constexpr std::uint64_t kFnvBasis = 0xcbf29ce484222325ULL;

inline std::uint64_t fnv_u64(std::uint64_t h, std::uint64_t v) {
  return fnv(h, &v, sizeof v);
}

inline std::uint64_t fnv_str(std::uint64_t h, std::string_view s) {
  return fnv(h, s.data(), s.size());
}

/// Hash of the doubles' bit patterns, in order.
inline std::uint64_t hash_doubles(const std::vector<double>& values) {
  std::uint64_t h = kFnvBasis;
  for (const double v : values) h = fnv_u64(h, std::bit_cast<std::uint64_t>(v));
  return h;
}

/// Hash of (name, value) pairs, in registration order.
inline std::uint64_t hash_counters(
    const std::vector<std::pair<std::string, std::uint64_t>>& cells) {
  std::uint64_t h = kFnvBasis;
  for (const auto& [name, value] : cells) {
    h = fnv_u64(fnv_str(h, name), value);
  }
  return h;
}

inline std::uint64_t hash_gauges(
    const std::vector<std::pair<std::string, double>>& cells) {
  std::uint64_t h = kFnvBasis;
  for (const auto& [name, value] : cells) {
    h = fnv_u64(fnv_str(h, name), std::bit_cast<std::uint64_t>(value));
  }
  return h;
}

struct Pin {
  std::size_t latency_count = 0;
  std::uint64_t latency_hash = 0;
  std::int64_t sent = 0;
  std::int64_t bytes = 0;
  std::int64_t delivered = 0;
  std::int64_t undeliverable = 0;
  std::int64_t dropped = 0;
  std::int64_t corrupted = 0;
  ReliabilityLedger ledger;
  std::uint64_t counters_hash = 0;  ///< metrics builds only
  std::uint64_t gauges_hash = 0;    ///< metrics builds only
};

/// Fingerprints a settled `swarm`.
inline Pin pin_of(const ShardedSwarm& swarm) {
  Pin pin;
  const std::vector<double> lat = swarm.all_latencies();
  pin.latency_count = lat.size();
  pin.latency_hash = hash_doubles(lat);
  pin.sent = swarm.messages_sent();
  pin.bytes = swarm.bytes_sent();
  pin.delivered = swarm.delivered();
  pin.undeliverable = swarm.undeliverable();
  pin.dropped = swarm.dropped();
  pin.corrupted = swarm.corrupted();
  pin.ledger = swarm.reliability_ledger();
  const obs::Snapshot snap = swarm.metrics_snapshot();
  pin.counters_hash = hash_counters(snap.counters);
  pin.gauges_hash = hash_gauges(snap.gauges);
  return pin;
}

inline void expect_pin(const Pin& got, const Pin& want) {
  EXPECT_EQ(got.latency_count, want.latency_count);
  EXPECT_EQ(got.latency_hash, want.latency_hash);
  EXPECT_EQ(got.sent, want.sent);
  EXPECT_EQ(got.bytes, want.bytes);
  EXPECT_EQ(got.delivered, want.delivered);
  EXPECT_EQ(got.undeliverable, want.undeliverable);
  EXPECT_EQ(got.dropped, want.dropped);
  EXPECT_EQ(got.corrupted, want.corrupted);
  EXPECT_EQ(got.ledger, want.ledger);
#if LESSLOG_METRICS_ENABLED
  EXPECT_EQ(got.counters_hash, want.counters_hash);
  EXPECT_EQ(got.gauges_hash, want.gauges_hash);
#endif
}

/// S = 1 is the single-engine deployment: no shard ever forwards.
inline void expect_no_forward_hook(ShardedSwarm& swarm) {
  ASSERT_EQ(swarm.shards(), 1u);
  EXPECT_FALSE(swarm.network(0).forwarding());
}

}  // namespace lesslog::proto::golden
