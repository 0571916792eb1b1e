#include "lesslog/net/serve.hpp"

#include <stdexcept>

namespace lesslog::net {

namespace {

/// Validates first, so a bad config throws before anything is built.
proto::ShardedSwarm::Config swarm_config(const ServeConfig& cfg) {
  cfg.validate();
  proto::ShardedSwarm::Config swarm;
  swarm.m = cfg.m;
  swarm.b = cfg.b;
  swarm.seed = cfg.seed;
  swarm.peer = cfg.peer;
  return swarm;
}

}  // namespace

void ServeConfig::validate() const {
  Host::validate("serve", m, b, hosts, self);
  if (hosts.entry(self).client) {
    throw std::invalid_argument("serve: self entry has client role");
  }
}

ServeHost::ServeHost(ServeConfig cfg)
    : cfg_(std::move(cfg)),
      host_(swarm_config(cfg_), cfg_.hosts, cfg_.self, cfg_.transport) {}

void ServeHost::run() {
  host_.start();
  while (!stopped_ &&
         (cfg_.duration <= 0.0 || host_.elapsed() < cfg_.duration)) {
    host_.step(50);
  }
  // Drain whatever became due while the loop condition flipped.
  host_.run_due();
}

void ServeHost::write_stats(std::ostream& out) const {
  const TransportStats& t = host_.transport().stats();
  const proto::ShardedSwarm& swarm = host_.swarm();
  std::int64_t served = 0;
  for (std::uint32_t p = host_.local().lo; p < host_.local().hi; ++p) {
    served += swarm.peer(core::Pid{p}).served();
  }
  out << "decode_drops=" << swarm.corrupted()
      << " delivered=" << swarm.delivered()
      << " undeliverable=" << swarm.undeliverable()
      << " frames_in=" << t.frames_in << " frames_out=" << t.frames_out
      << " bytes_in=" << t.bytes_in << " bytes_out=" << t.bytes_out
      << " overflow_dropped=" << t.overflow_dropped
      << " unroutable_dropped=" << t.unroutable_dropped
      << " accepts=" << t.accepts << " connects=" << t.connects
      << " reconnects=" << t.reconnects
      << " disconnects=" << t.disconnects << " served=" << served << "\n";
}

}  // namespace lesslog::net
