#include "lesslog/net/loadgen.hpp"

#include <stdexcept>

#include "lesslog/core/fault_tolerant.hpp"
#include "lesslog/core/lookup_tree.hpp"
#include "lesslog/util/stats.hpp"

namespace lesslog::net {

namespace {

/// Validates first, so a bad config throws before anything is built.
proto::ShardedSwarm::Config swarm_config(const LoadGenConfig& cfg) {
  cfg.validate();
  proto::ShardedSwarm::Config swarm;
  swarm.m = cfg.m;
  swarm.b = cfg.b;
  swarm.seed = cfg.seed;
  swarm.client = cfg.client;
  return swarm;
}

}  // namespace

void LoadGenConfig::validate() const {
  Host::validate("loadgen", m, b, hosts, self);
  if (!hosts.entry(self).client) {
    throw std::invalid_argument("loadgen: self entry must have client role");
  }
  if (files < 1) throw std::invalid_argument("loadgen: files must be >= 1");
  if (rate <= 0.0) throw std::invalid_argument("loadgen: rate must be > 0");
  if (duration <= 0.0) {
    throw std::invalid_argument("loadgen: duration must be > 0");
  }
  if (setup_timeout <= 0.0 || drain_timeout <= 0.0) {
    throw std::invalid_argument("loadgen: timeouts must be > 0");
  }
}

// util::percentile takes q in [0, 100].
double LoadGenReport::p50() const {
  return latencies.empty() ? 0.0 : util::percentile(latencies, 50.0);
}

double LoadGenReport::p99() const {
  return latencies.empty() ? 0.0 : util::percentile(latencies, 99.0);
}

LoadGen::LoadGen(LoadGenConfig cfg)
    : cfg_(std::move(cfg)),
      host_(swarm_config(cfg_), cfg_.hosts, cfg_.self, cfg_.transport) {}

bool LoadGen::pump_until(const std::function<bool()>& done,
                         double deadline) {
  while (!done() && host_.elapsed() < deadline) {
    host_.step(20);
  }
  host_.run_due();
  return done();
}

LoadGenReport LoadGen::run() {
  start();
  proto::Peer& peer = host_.swarm().peer(self_pid());
  proto::Client& client = host_.swarm().client(self_pid());
  sim::Engine& engine = host_.engine();

  LoadGenReport report;
  report.files_requested = cfg_.files;

  // Wait for the mesh before placing files: the first inserts otherwise
  // race the connect handshakes and burn retry budget for nothing.
  pump_until([this] { return host_.transport().fully_connected(); },
             cfg_.setup_timeout / 2.0);

  // --- Phase 1: place the catalog. One insert per (file, holder) pair,
  // holders resolved exactly as ShardedSwarm::insert resolves them; failed
  // inserts re-issue until the setup deadline.
  struct InsertTask {
    core::FileId file{0};
    core::Pid target{0};
    core::Pid holder{0};
    int file_index = 0;
    bool acked = false;
  };
  std::vector<InsertTask> tasks;
  std::vector<int> holders_left(static_cast<std::size_t>(cfg_.files), 0);
  for (int i = 0; i < cfg_.files; ++i) {
    const core::FileId file{static_cast<std::uint64_t>(i) + 1};
    const core::Pid r = peer.target_of(file);
    const core::LookupTree tree(cfg_.m, r);
    const core::SubtreeView view(tree, cfg_.b);
    for (const core::Pid holder : view.insertion_targets(peer.status())) {
      tasks.push_back(InsertTask{file, r, holder, i, false});
      ++holders_left[static_cast<std::size_t>(i)];
    }
  }

  const double setup_deadline = cfg_.setup_timeout;
  std::function<void(std::size_t)> issue = [&](std::size_t idx) {
    client.insert(
        tasks[idx].file, tasks[idx].target, tasks[idx].holder,
        [&, idx](bool ok) {
          if (ok) {
            if (!tasks[idx].acked) {
              tasks[idx].acked = true;
              const auto f = static_cast<std::size_t>(tasks[idx].file_index);
              if (--holders_left[f] == 0) ++report.files_inserted;
            }
          } else if (host_.elapsed() < setup_deadline) {
            issue(idx);  // ack lost or holder slow: re-place this replica
          }
        });
  };
  for (std::size_t idx = 0; idx < tasks.size(); ++idx) issue(idx);
  pump_until(
      [&] { return report.files_inserted == report.files_requested; },
      setup_deadline);

  // --- Phase 2: fixed-rate GETs against uniformly random files,
  // scheduled upfront on the engine at exact 1/rate spacing. The engine
  // is pumped against the wall clock, so issue times are wall times.
  const auto total =
      static_cast<std::int64_t>(cfg_.rate * cfg_.duration);
  const double t_start = host_.elapsed() + 0.05;
  std::int64_t completed = 0;
  for (std::int64_t k = 0; k < total; ++k) {
    const double when =
        t_start + static_cast<double>(k) / cfg_.rate;
    engine.at(when, [&] {
      const std::uint64_t pick =
          engine.rng().bounded(static_cast<std::uint64_t>(cfg_.files));
      const core::FileId file{pick + 1};
      ++report.gets_issued;
      client.get(file, peer.target_of(file),
                 [&](const proto::GetResult& res) {
                   ++completed;
                   if (res.ok) {
                     ++report.gets_ok;
                     report.latencies.push_back(res.latency);
                   } else {
                     ++report.gets_failed;
                   }
                 });
    });
  }
  const double drain_deadline =
      t_start + cfg_.duration + cfg_.drain_timeout;
  pump_until(
      [&] {
        return report.gets_issued == total && completed == total;
      },
      drain_deadline);

  // Anything still pending at the drain deadline is a fault we would
  // otherwise never hear about; account it so all_ok() stays honest.
  report.gets_failed += report.gets_issued - completed;
  return report;
}

void LoadGen::write_stats(std::ostream& out,
                          const LoadGenReport& report) const {
  const TransportStats& t = host_.transport().stats();
  out << "files_inserted=" << report.files_inserted << "/"
      << report.files_requested << " gets_issued=" << report.gets_issued
      << " gets_ok=" << report.gets_ok
      << " gets_failed=" << report.gets_failed << " p50_ms="
      << report.p50() * 1e3 << " p99_ms=" << report.p99() * 1e3
      << " decode_drops=" << host_.swarm().corrupted()
      << " delivered=" << host_.swarm().delivered()
      << " frames_in=" << t.frames_in << " frames_out=" << t.frames_out
      << " overflow_dropped=" << t.overflow_dropped
      << " unroutable_dropped=" << t.unroutable_dropped
      << " reconnects=" << t.reconnects << " faults=" << client().faults()
      << "\n";
}

}  // namespace lesslog::net
