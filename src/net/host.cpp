#include "lesslog/net/host.hpp"

#include <algorithm>
#include <stdexcept>
#include <string>

#include "lesslog/util/bits.hpp"

namespace lesslog::net {

namespace {

/// One shard on a zero-latency, lossless network: the wire itself is the
/// latency now. Local (same-process) deliveries schedule at now() and
/// execute on the next pump tick.
proto::ShardedSwarm::Config wire_config(proto::ShardedSwarm::Config cfg) {
  cfg.shards = 1;
  cfg.net.base_latency = 0.0;
  cfg.net.jitter = 0.0;
  cfg.net.drop_probability = 0.0;
  cfg.net.link_stagger = 0.0;
  return cfg;
}

/// Ground-truth liveness: every serve-entry PID up, every client PID down.
util::StatusWord serve_liveness(int m, const HostMap& hosts) {
  util::StatusWord live(m);
  for (std::size_t i = 0; i < hosts.size(); ++i) {
    const HostEntry& e = hosts.entry(i);
    if (e.client) continue;
    for (std::uint32_t p = e.lo; p <= e.hi; ++p) live.set_live(p);
  }
  return live;
}

}  // namespace

void Host::validate(std::string_view role, int m, int b,
                    const HostMap& hosts, std::size_t self) {
  const std::string who(role);
  hosts.validate();
  if (m < 1 || m > 30) {
    throw std::invalid_argument(who + ": m must be in [1, 30]");
  }
  if (b < 0 || b >= m) {
    throw std::invalid_argument(who + ": b must be in [0, m)");
  }
  if (self >= hosts.size()) {
    throw std::invalid_argument(who + ": self index out of range");
  }
  const std::uint32_t space = util::space_size(m);
  for (std::size_t i = 0; i < hosts.size(); ++i) {
    if (hosts.entry(i).hi >= space) {
      throw std::invalid_argument(who + ": host map entry " +
                                  std::to_string(i) +
                                  " exceeds the 2^m ID space");
    }
  }
}

Host::Host(proto::ShardedSwarm::Config swarm, const HostMap& hosts,
           std::size_t self, const TransportConfig& transport)
    : local_{hosts.entry(self).lo, hosts.entry(self).hi + 1},
      swarm_(wire_config(swarm), serve_liveness(swarm.m, hosts), local_),
      transport_(hosts, self, transport),
      t0_(std::chrono::steady_clock::now()) {}

void Host::start() {
  if (started_) return;
  started_ = true;
  // Outbound splice: local destinations fall through to the engine
  // (return false); remote ones are written to the wire. The simulated
  // arrival time is discarded — real wire latency replaces it.
  network().set_forward(
      [this](core::Pid to, double, const proto::WireBuffer& wire) {
        if (to.value() >= local_.lo && to.value() < local_.hi) return false;
        (void)transport_.send(to, wire);  // best-effort; drops counted
        return true;
      });
  // Inbound splice: frames enter the Network's decode/dispatch funnel
  // stamped with the wall clock at arrival — not engine().now(), which is
  // the run_before bound from *before* the epoll wait and would
  // timestamp every frame in the past, zeroing measured latencies. A
  // decode reject is a counted corrupted drop, exactly as under
  // simulated fault injection.
  transport_.set_frame_handler([this](const proto::WireBuffer& wire) {
    network().deliver_at(elapsed(), wire);
  });
  transport_.bind();
  transport_.connect_all();
  t0_ = std::chrono::steady_clock::now();
}

double Host::elapsed() const {
  return std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                       t0_)
      .count();
}

int Host::step(int max_wait_ms) {
  run_due();
  // Sleep in epoll until socket activity or the next engine timer.
  double wait_s = static_cast<double>(max_wait_ms) / 1000.0;
  sim::Engine& eng = engine();
  if (!eng.queue().empty()) {
    wait_s = std::clamp(eng.queue().next_time() - elapsed(), 0.0, wait_s);
  }
  return transport_.poll(static_cast<int>(wait_s * 1000.0));
}

}  // namespace lesslog::net
