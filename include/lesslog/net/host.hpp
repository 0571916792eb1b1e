// Host: the part of a wire process that both roles (ServeHost, LoadGen)
// share. It owns one S = 1 proto::ShardedSwarm built by the deployment
// constructor — ground truth "serve-entry PIDs live, client PIDs dead",
// peers and clients for this entry's PIDs only, a zero-latency lossless
// network — plus the socket Transport, the splice between them, and the
// wall-clock pump. The splice: the forward hook on network(0) writes
// every datagram for a non-local PID to the wire, and inbound frames
// enter Network::deliver_at stamped with the wall-clock arrival time.
// Simulated and wall seconds coincide, so peer and client timers work
// unmodified. docs/TRANSPORT.md walks through a serve process.
#pragma once

#include <chrono>
#include <string_view>

#include "lesslog/net/transport.hpp"
#include "lesslog/proto/sharded_swarm.hpp"

namespace lesslog::net {

class Host {
 public:
  /// The config checks every role shares: a valid host map, m in
  /// [1, 30], b in [0, m), `self` indexing an entry, and every entry
  /// inside the 2^m ID space. Throws std::invalid_argument whose message
  /// starts with `role`.
  static void validate(std::string_view role, int m, int b,
                       const HostMap& hosts, std::size_t self);

  /// `swarm` supplies m, b, seed and the peer/client knobs; Host forces
  /// one shard and a zero-latency, lossless network. The config must
  /// already have passed validate().
  Host(proto::ShardedSwarm::Config swarm, const HostMap& hosts,
       std::size_t self, const TransportConfig& transport);
  // The splice hooks capture `this`; the object is pinned.
  Host(const Host&) = delete;
  Host& operator=(const Host&) = delete;

  /// Installs the splice, binds the listener, starts outgoing connects,
  /// and restarts the wall clock. Idempotent.
  void start();

  /// Wall seconds since start() (or construction).
  [[nodiscard]] double elapsed() const;

  /// Runs every engine event that is due by the wall clock.
  void run_due() { engine().run_before(elapsed()); }

  /// One pump iteration: run_due(), then block in epoll until socket
  /// activity, the next engine timer, or `max_wait_ms`.
  int step(int max_wait_ms);

  /// This process's PIDs: its host-map entry's range.
  [[nodiscard]] proto::ShardedSwarm::PidRange local() const noexcept {
    return local_;
  }

  [[nodiscard]] proto::ShardedSwarm& swarm() noexcept { return swarm_; }
  [[nodiscard]] const proto::ShardedSwarm& swarm() const noexcept {
    return swarm_;
  }
  [[nodiscard]] Transport& transport() noexcept { return transport_; }
  [[nodiscard]] const Transport& transport() const noexcept {
    return transport_;
  }
  [[nodiscard]] proto::Network& network() noexcept {
    return swarm_.network(0);
  }
  [[nodiscard]] sim::Engine& engine() noexcept { return swarm_.engine(0); }

 private:
  proto::ShardedSwarm::PidRange local_;
  proto::ShardedSwarm swarm_;
  Transport transport_;
  std::chrono::steady_clock::time_point t0_;
  bool started_ = false;
};

}  // namespace lesslog::net
