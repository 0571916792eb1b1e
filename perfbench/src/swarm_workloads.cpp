// swarm_get and swarm_churn — packet-level workloads on proto::ShardedSwarm.
//
// swarm_get: 2^18 peers on 4 shards (1 below four cores), a 1,024-file catalog,
// and an open loop of uniform GETs at 100k simulated GET/s for 2.5
// simulated seconds. Each 10 ms slice of GETs is issued, then the swarm
// runs to the slice end, so the shard barriers of a steady arrival
// stream are part of the measurement.
//
// swarm_churn: one shard (the serial path), b = 2, the default network
// jitter and psi-named files. GETs (80% to the hot 20% of files) mix with
// updates (one per 40 GETs), one crash and one restart per epoch, and the
// auto-replication controller. Every epoch ends with a drain and a
// freshness sweep that GETs every file and counts any reply older than the
// last version issued for it as a stale read (`fresh_frac`).
#include <memory>
#include <thread>

#include "common.hpp"
#include "lesslog/proto/sharded_swarm.hpp"
#include "lesslog/util/bits.hpp"
#include "lesslog/util/rng.hpp"

namespace perfbench {

namespace {

using lesslog::core::FileId;
using lesslog::core::Pid;

std::uint64_t counter(const lesslog::obs::Snapshot& snap,
                      std::string_view name) {
  const std::uint64_t* v = snap.counter(name);
  return v == nullptr ? 0 : *v;
}

void add_sim_latency(Result& res, const std::vector<double>& lat) {
  res.layer["sim_p50_ms"] = percentile(lat, 50.0) * 1e3;
  res.layer["sim_p99_ms"] = percentile(lat, 99.0) * 1e3;
  res.layer["sim_p999_ms"] = percentile(lat, 99.9) * 1e3;
  res.det["sim_p50_ms"] = res.layer["sim_p50_ms"];
  res.det["sim_p99_ms"] = res.layer["sim_p99_ms"];
}

}  // namespace

Result run_swarm_get(const Options& o) {
  using namespace lesslog;
  constexpr int kM = 18;
  constexpr int kFiles = 1024;
  constexpr double kRate = 100000.0;   // simulated GET/s
  constexpr double kSimSeconds = 2.5;
  constexpr double kSlice = 0.010;
  constexpr int kSlices = static_cast<int>(kSimSeconds / kSlice + 0.5);
  constexpr int kPerSlice = static_cast<int>(kRate * kSlice + 0.5);
  constexpr int kExtraSetups = 3;  // set-up-only repetitions
  // S = 4 where four cores exist, else 1; never 2, whose wall time
  // spread most between runs (see perfbench/README.md).
  const std::size_t shards =
      std::thread::hardware_concurrency() >= 4 ? 4 : 1;

  proto::ShardedSwarm::Config cfg;
  cfg.m = kM;
  cfg.b = 0;
  cfg.nodes = util::space_size(kM);
  cfg.seed = o.seed;
  cfg.shards = shards;
  cfg.net.base_latency = 0.010;
  cfg.net.jitter = 0.0;
  cfg.net.drop_probability = 0.0;
  cfg.client.timeout = 0.25;  // longest path (m + 2) * 10 ms: no retries

  Result res;
  std::vector<double> deploys, catalogs, setups, drains;
  Segments run;  // one segment per slice, then the drain
  double events = 0.0, msgs = 0.0, bytes = 0.0, cross = 0.0;
  std::int64_t issued = 0, ok = 0;
  std::vector<double> latencies;

  // Deployment plus catalog; the GET stream continues from `rng`.
  const auto set_up = [&](util::Rng& rng) {
    Clock::time_point t0 = Clock::now();
    std::unique_ptr<proto::ShardedSwarm> swarm;
    {
      const Scope span("proto.deploy");
      swarm = std::make_unique<proto::ShardedSwarm>(cfg);
    }
    deploys.push_back(since(t0));
    t0 = Clock::now();
    std::vector<std::pair<FileId, Pid>> files;
    {
      const Scope span("proto.catalog");
      for (int i = 0; i < kFiles; ++i) {
        const FileId f{std::uint64_t{0x5EED0000} +
                       static_cast<std::uint64_t>(i)};
        const Pid target{static_cast<std::uint32_t>(rng.bounded(cfg.nodes))};
        files.emplace_back(f, target);
        swarm->insert(f, target, Pid{0});
      }
      (void)swarm->settle();
    }
    catalogs.push_back(since(t0));
    setups.push_back(deploys.back() + catalogs.back());
    return std::make_pair(std::move(swarm), std::move(files));
  };
  for (int i = 0; i < kExtraSetups; ++i) {
    util::Rng rng(mix(o.seed, 0x6E7));
    (void)set_up(rng);
  }

  const int reps = repeat_for(o.seconds, 2, [&](int rep) {
    const auto rid = static_cast<std::uint64_t>(rep + 1);
    util::Rng rng(mix(o.seed, 0x6E7));
    auto [swarm, files] = set_up(rng);

    const double base = swarm->engine(0).now();
    const std::int64_t msgs0 = swarm->messages_sent();
    const std::int64_t bytes0 = swarm->bytes_sent();
    std::int64_t rep_events = 0;
    run.start_rep();
    for (int k = 0; k < kSlices; ++k) {
      const Clock::time_point ts = Clock::now();
      {
        const Scope span("proto.get_issue", static_cast<std::uint64_t>(k + 1));
        for (int j = 0; j < kPerSlice; ++j) {
          const auto& [f, target] = files[rng.bounded(files.size())];
          const Pid at{static_cast<std::uint32_t>(rng.bounded(cfg.nodes))};
          swarm->get(f, target, at);
        }
      }
      {
        const Scope span("sim.slice", static_cast<std::uint64_t>(k + 1));
        rep_events += swarm->run_until(base + kSlice * (k + 1));
      }
      run.add_since(ts);
    }
    const Clock::time_point td = Clock::now();
    {
      const Scope span("sim.drain", rid);
      rep_events += swarm->settle();
    }
    drains.push_back(since(td));
    run.add_since(td);

    const proto::ReliabilityLedger ledger = swarm->reliability_ledger();
    const auto rep_msgs = static_cast<double>(swarm->messages_sent() - msgs0);
    const auto rep_bytes = static_cast<double>(swarm->bytes_sent() - bytes0);
    if (rep == 0) {
      events = static_cast<double>(rep_events);
      msgs = rep_msgs;
      bytes = rep_bytes;
      cross = swarm->cross_shard_fraction();
      latencies = swarm->all_latencies();
    } else {
      res.check(static_cast<double>(rep_events) == events &&
                    rep_msgs == msgs,
                "swarm_get: repetitions of the same inputs disagree");
    }
    issued += ledger.issued;
    ok += ledger.ok;
    res.check(ledger.issued == static_cast<std::int64_t>(kSlices) * kPerSlice,
              "swarm_get: GETs issued != GETs scheduled");
    res.check(ledger.ok == ledger.issued, "swarm_get: a GET was not ok");
  });

  const double gets = static_cast<double>(kSlices) * kPerSlice;
  res.attempted = issued;
  res.failed = issued - ok;
  res.e2e["setup_s"] = percentile(setups, 50.0);
  res.e2e["run_s"] = run.best_sum();
  res.layer["run_median_s"] = run.median_total();
  res.e2e["ok_frac"] = static_cast<double>(ok) / static_cast<double>(issued);
  res.e2e["fresh_frac"] = 1.0;  // no updates: every read is the newest
  res.e2e["peak_rss_mb"] = peak_rss_mb_self();
  res.e2e["msgs_per_op"] = msgs / gets;
  res.e2e["copies"] = static_cast<double>(kFiles) * (1 << cfg.b);

  res.det["events"] = events;
  res.det["messages"] = msgs;
  add_sim_latency(res, latencies);

  res.layer["proto.deploy_s"] = percentile(deploys, 50.0);
  res.layer["proto.catalog_s"] = percentile(catalogs, 50.0);
  res.layer["sim.events_per_op"] = events / gets;
  res.layer["sim.cross_shard_frac"] = cross;
  res.layer["sim.drain_ms"] = percentile(drains, 50.0) * 1e3;
  res.layer["proto.bytes_per_op"] = bytes / gets;
  if (o.trace) {
    const double issue = tracer().total("proto.get_issue");
    const std::vector<double> slices = tracer().durations("sim.slice");
    const double sim_busy = tracer().total("sim.slice") +
                            tracer().total("sim.drain");
    res.layer["proto.get_issue_ns"] = issue / (gets * reps) * 1e9;
    res.layer["sim.run_ns_per_event"] = sim_busy / (events * reps) * 1e9;
    res.layer["sim.slice_ms_p50"] = percentile(slices, 50.0) * 1e3;
    res.layer["sim.slice_ms_p99"] = percentile(slices, 99.0) * 1e3;
  }
  res.info["shards"] = std::to_string(shards);
  res.info["reps"] = std::to_string(reps);
  return res;
}

Result run_swarm_churn(const Options& o) {
  using namespace lesslog;
  constexpr int kM = 14;
  constexpr int kB = 2;
  constexpr int kFiles = 256;
  constexpr int kEpochs = 4;
  constexpr double kEpoch = 1.0;   // simulated seconds of traffic
  constexpr double kDrain = 1.0;   // no new operations
  constexpr double kSweep = 1.0;   // freshness sweep window
  constexpr double kSlice = 0.010;
  constexpr double kRate = 30000.0;  // simulated GET/s
  constexpr int kUpdateEvery = 40;   // one update per this many GETs
  constexpr int kSlicesPerEpoch = static_cast<int>(kEpoch / kSlice + 0.5);
  constexpr int kPerSlice = static_cast<int>(kRate * kSlice + 0.5);
  constexpr double kPeriod = kEpoch + kDrain + kSweep;
  constexpr int kExtraSetups = 8;  // set-up-only repetitions

  proto::ShardedSwarm::Config cfg;
  cfg.m = kM;
  cfg.b = kB;
  cfg.nodes = util::space_size(kM);
  cfg.seed = o.seed;
  cfg.shards = 1;

  Result res;
  std::vector<double> deploys, catalogs, setups, drains, crashes, restarts;
  Segments run;
  std::map<std::string, double> first;  // counts of repetition 0
  std::vector<double> latencies;
  std::int64_t issued = 0, failed = 0;

  const auto set_up = [&] {
    Clock::time_point t0 = Clock::now();
    std::unique_ptr<proto::ShardedSwarm> swarm;
    {
      const Scope span("proto.deploy");
      swarm = std::make_unique<proto::ShardedSwarm>(cfg);
    }
    deploys.push_back(since(t0));
    t0 = Clock::now();
    std::vector<std::pair<FileId, Pid>> files;
    {
      const Scope span("proto.catalog");
      for (int i = 0; i < kFiles; ++i) {
        const std::uint64_t key =
            mix(o.seed, std::uint64_t{0xF11E0000} +
                            static_cast<std::uint64_t>(i)) |
            1;
        const FileId f = swarm->insert_named(key, Pid{0});
        files.emplace_back(f, swarm->peer(Pid{0}).target_of(f));
      }
      (void)swarm->settle();
    }
    catalogs.push_back(since(t0));
    setups.push_back(deploys.back() + catalogs.back());
    return std::make_pair(std::move(swarm), std::move(files));
  };
  for (int i = 0; i < kExtraSetups; ++i) (void)set_up();

  const CpuRotation cpus;  // S = 1: one thread
  const int reps = repeat_for(o.seconds, 2, [&](int rep) {
    cpus.pin(rep);
    const auto rid = static_cast<std::uint64_t>(rep + 1);
    util::Rng rng(mix(o.seed, 0xC4A1));
    auto [swarm, files] = set_up();

    const auto live_peer = [&] {
      for (;;) {
        const auto p = static_cast<std::uint32_t>(rng.bounded(cfg.nodes));
        if (swarm->status().is_live(p)) return Pid{p};
      }
    };
    // 80% of picks go to the hot first fifth of the catalog.
    const auto pick_file = [&]() -> std::size_t {
      const std::uint64_t hot = kFiles / 5;
      return rng.bernoulli(0.8) ? rng.bounded(hot)
                                : hot + rng.bounded(kFiles - hot);
    };

    std::vector<std::uint64_t> last_version(kFiles, 0);
    const double base = swarm->engine(0).now();
    swarm->enable_auto_replication(100.0, 1.0, base + kEpochs * kPeriod,
                                   10.0);
    const std::int64_t msgs0 = swarm->messages_sent();
    const std::int64_t bytes0 = swarm->bytes_sent();
    const obs::Snapshot snap0 = swarm->metrics_snapshot();
    std::int64_t rep_events = 0, updates = 0, churn_ops = 0;
    std::int64_t sweep_sent = 0, sweep_done = 0, stale = 0, sweep_bad = 0;
    std::optional<Pid> down;

    // Segments: restart, crash, each slice, drain, sweep; a final drain.
    run.start_rep();
    for (int e = 0; e < kEpochs; ++e) {
      const double t = base + kPeriod * e;
      if (down.has_value()) {
        const Clock::time_point tc = Clock::now();
        {
          const Scope span("proto.restart", rid);
          swarm->restart(*down);
        }
        restarts.push_back(since(tc));
        run.add(restarts.back());
        ++churn_ops;
      }
      {
        Pid victim = live_peer();
        while (victim == Pid{0}) victim = live_peer();
        const Clock::time_point tc = Clock::now();
        {
          const Scope span("proto.crash", rid);
          swarm->crash(victim);
        }
        crashes.push_back(since(tc));
        run.add(crashes.back());
        down = victim;
        ++churn_ops;
      }
      for (int k = 0; k < kSlicesPerEpoch; ++k) {
        const Clock::time_point ts = Clock::now();
        {
          const Scope span("proto.get_issue",
                           static_cast<std::uint64_t>(k + 1));
          for (int j = 0; j < kPerSlice; ++j) {
            const auto& [f, r] = files[pick_file()];
            swarm->get(f, r, live_peer());
            if ((j + 1) % kUpdateEvery != 0) continue;
            const std::size_t u = pick_file();
            const Pid issuer = live_peer();
            const Scope upd("proto.update_issue");
            swarm->update(files[u].first, files[u].second, ++last_version[u],
                          issuer);
            ++updates;
          }
        }
        {
          const Scope span("sim.slice", static_cast<std::uint64_t>(k + 1));
          rep_events += swarm->run_until(t + kSlice * (k + 1));
        }
        run.add_since(ts);
      }
      {
        const Clock::time_point td = Clock::now();
        const Scope span("sim.drain", rid);
        rep_events += swarm->run_until(t + kEpoch + kDrain);
        drains.push_back(since(td));
        run.add(drains.back());
      }
      {
        const Clock::time_point ts = Clock::now();
        const Scope span("proto.sweep", rid);
        for (std::size_t i = 0; i < files.size(); ++i) {
          const std::uint64_t expect = last_version[i];
          ++sweep_sent;
          swarm->get(files[i].first, files[i].second, live_peer(),
                     [&, expect](const proto::GetResult& g) {
                       ++sweep_done;
                       if (!g.ok) {
                         ++sweep_bad;
                       } else if (g.version < expect) {
                         ++stale;
                       }
                     });
        }
        rep_events += swarm->run_until(t + kPeriod);
        run.add_since(ts);
      }
    }
    {
      const Clock::time_point ts = Clock::now();
      const Scope span("sim.drain", rid);
      rep_events += swarm->settle();
      run.add_since(ts);
    }

    const proto::ReliabilityLedger ledger = swarm->reliability_ledger();
    const obs::Snapshot snap = swarm->metrics_snapshot();
    const auto delta = [&](std::string_view name) {
      return static_cast<double>(counter(snap, name) - counter(snap0, name));
    };
    res.check(ledger.issued == ledger.ok + ledger.faults,
              "swarm_churn: GET ledger does not reconcile");
    res.check(sweep_done == sweep_sent,
              "swarm_churn: a freshness-sweep GET never completed");
    // A sweep GET that failed is already a ledger fault. A stale one is an
    // ok GET that returned an older version than the last update: it is
    // counted in `fresh_frac` and `proto.stale_reads`, not as a failure.
    issued += ledger.issued;
    failed += ledger.faults;

    std::map<std::string, double> counts;
    counts["events"] = static_cast<double>(rep_events);
    counts["messages"] = static_cast<double>(swarm->messages_sent() - msgs0);
    counts["bytes"] = static_cast<double>(swarm->bytes_sent() - bytes0);
    counts["gets"] = static_cast<double>(ledger.issued);
    counts["gets_ok"] = static_cast<double>(ledger.ok);
    counts["updates"] = static_cast<double>(updates);
    counts["churn_ops"] = static_cast<double>(churn_ops);
    counts["stale_reads"] = static_cast<double>(stale);
    counts["sweep_gets"] = static_cast<double>(sweep_sent);
    counts["sweep_failed"] = static_cast<double>(sweep_bad);
    counts["auto_replicas"] = static_cast<double>(swarm->auto_replicas());
    counts["auto_removals"] = static_cast<double>(swarm->auto_removals());
    counts["update_msgs"] = delta("msgs_out.UPDATE");
    counts["status_msgs"] = delta("msgs_out.STATUS");
    counts["repair_pushes"] = delta("peer.repair_pushes");
    counts["retries"] = delta("client.retries");
    counts["timeouts"] = delta("client.timeouts");
    counts["faults"] = static_cast<double>(ledger.faults);
    if (rep == 0) {
      first = counts;
      latencies = swarm->all_latencies();
    } else {
      res.check(counts == first,
                "swarm_churn: repetitions of the same inputs disagree");
    }
  });

  const double ops = first["gets"] + first["updates"];
  const double copies = kFiles * (1 << kB) + first["auto_replicas"];
  res.attempted = issued;
  res.failed = failed;
  res.e2e["setup_s"] = percentile(setups, 50.0);
  res.e2e["run_s"] = run.best_sum();
  res.layer["run_median_s"] = run.median_total();
  res.e2e["ok_frac"] = first["gets_ok"] / first["gets"];
  res.e2e["fresh_frac"] = 1.0 - first["stale_reads"] / first["sweep_gets"];
  res.e2e["peak_rss_mb"] = peak_rss_mb_self();
  res.e2e["msgs_per_op"] = first["messages"] / ops;
  res.e2e["copies"] = copies;

  for (const char* name : {"events", "messages", "gets_ok", "stale_reads",
                           "auto_replicas", "updates"}) {
    res.det[name] = first[name];
  }
  res.det["copies"] = copies;
  add_sim_latency(res, latencies);

  res.layer["proto.deploy_s"] = percentile(deploys, 50.0);
  res.layer["proto.catalog_s"] = percentile(catalogs, 50.0);
  res.layer["proto.crash_ms"] = percentile(crashes, 50.0) * 1e3;
  res.layer["proto.restart_ms"] = percentile(restarts, 50.0) * 1e3;
  res.layer["sim.drain_ms"] = percentile(drains, 50.0) * 1e3;
  res.layer["sim.events_per_op"] = first["events"] / ops;
  res.layer["proto.bytes_per_op"] = first["bytes"] / ops;
  res.layer["proto.update_msgs_per_update"] =
      first["update_msgs"] / first["updates"];
  res.layer["proto.status_msgs_per_churn"] =
      first["status_msgs"] / first["churn_ops"];
  res.layer["proto.repair_pushes"] = first["repair_pushes"];
  res.layer["proto.auto_replicas"] = first["auto_replicas"];
  res.layer["proto.auto_removals"] = first["auto_removals"];
  res.layer["proto.retries"] = first["retries"];
  res.layer["proto.timeouts"] = first["timeouts"];
  res.layer["proto.faults"] = first["faults"];
  res.layer["proto.stale_reads"] = first["stale_reads"];
  if (o.trace) {
    const double r = reps;
    const double sim_busy =
        tracer().total("sim.slice") + tracer().total("sim.drain");
    res.layer["proto.get_issue_ns"] =
        (tracer().total("proto.get_issue") -
         tracer().total("proto.update_issue")) /
        (kEpochs * kSlicesPerEpoch * kPerSlice * r) * 1e9;
    res.layer["proto.update_issue_ns"] =
        tracer().total("proto.update_issue") / (first["updates"] * r) * 1e9;
    res.layer["sim.run_ns_per_event"] =
        sim_busy / (first["events"] * r) * 1e9;
  }
  res.info["shards"] = "1";
  res.info["reps"] = std::to_string(reps);
  return res;
}

}  // namespace perfbench
