// ServeHost: one real process embodying one host-map entry's PID range,
// running the unmodified proto::Peer stack over the socket transport.
//
// Everything but the serve loop lives in net::Host (host.hpp): the S = 1
// proto::ShardedSwarm built for this entry's PIDs, the Transport, the
// forward-hook/frame-handler splice, and the wall-clock pump. ServeHost
// adds the serve-role check, the run-until-duration loop, and its stats
// line.
#pragma once

#include <atomic>
#include <ostream>

#include "lesslog/net/host.hpp"

namespace lesslog::net {

struct ServeConfig {
  int m = 6;             ///< ID-space bits
  int b = 2;             ///< fault bits (2^b holders per file)
  std::size_t self = 0;  ///< this process's host-map entry (serve role)
  HostMap hosts;
  std::uint64_t seed = 1;
  double duration = 0.0;  ///< wall seconds to serve; 0 = until stop()
  proto::PeerConfig peer;
  TransportConfig transport;

  /// Throws std::invalid_argument on nonsense (self out of range or not
  /// a serve entry, PIDs outside the ID space, bad m/b).
  void validate() const;
};

class ServeHost {
 public:
  explicit ServeHost(ServeConfig cfg);

  /// Binds the listener, starts outgoing connects, installs the splice.
  /// Idempotent.
  void start() { host_.start(); }

  /// Wall-clock pump until the configured duration elapses (or stop()).
  void run();

  void stop() noexcept { stopped_ = true; }

  [[nodiscard]] Transport& transport() noexcept { return host_.transport(); }
  [[nodiscard]] proto::Network& network() noexcept { return host_.network(); }
  [[nodiscard]] const ServeConfig& config() const noexcept { return cfg_; }

  /// One-line key=value stats (decode drops, frames, queue overflow) —
  /// what the transport_smoke gate parses.
  void write_stats(std::ostream& out) const;

 private:
  ServeConfig cfg_;
  Host host_;
  /// Atomic so a controlling thread can stop() a run()-ing host.
  std::atomic<bool> stopped_ = false;
};

}  // namespace lesslog::net
