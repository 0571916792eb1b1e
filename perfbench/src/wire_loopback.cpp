// wire_loopback — the real socket transport end to end: two
// `lesslog_cli serve` processes (PIDs 0-511 and 512-1022) and an
// in-process net::LoadGen at PID 1023, m = 10, b = 2, 1,024 files on
// loopback TCP.
//
// Three deployments run back to back, each on freshly picked free ports:
//   F   the fixed-rate phase, 50k GET/s for a quarter of --seconds (also
//       the ladder's first step);
//   L1  ladder steps 75k, 100k, 125k GET/s;
//   L2  ladder steps 150k, 175k, 200k GET/s.
// Each deployment is set up the same way (bind PID 1023, spawn, connect,
// place the catalog with a set-up LoadGen); each phase or step then runs
// its own LoadGen, which re-binds PID 1023's port. A serve process exits
// on its own when its --duration ends; that duration is a budget sized
// before spawning, so the next deployment starts while the previous one's
// serves idle out, and all of them are reaped at the end. Every child is
// killed and reaped on every exit path, and dies with the benchmark.
#include <fcntl.h>
#include <malloc.h>
#include <netinet/in.h>
#include <signal.h>
#include <sys/prctl.h>
#include <sys/socket.h>
#include <sys/wait.h>
#include <time.h>
#include <unistd.h>

#include <array>
#include <fstream>
#include <memory>
#include <sstream>
#include <stdexcept>

#include "common.hpp"
#include "lesslog/net/loadgen.hpp"

namespace perfbench {

namespace {

constexpr int kM = 10;
constexpr int kB = 2;
constexpr int kFiles = 1024;
constexpr double kLatencyLimit = 0.001;  // seconds, for max_rate
constexpr double kConnectBudget = 0.5;   // seconds, per LoadGen connect
constexpr double kCatalogBudget = 1.0;   // seconds, per catalog placement
constexpr double kDrainBudget = 1.0;     // seconds after a GET schedule
constexpr double kLeadIn = 0.05;         // LoadGen's schedule lead-in
constexpr int kSetupAttempts = 3;

/// Three distinct free loopback ports (held open together, then closed).
std::array<std::uint16_t, 3> free_ports() {
  std::array<int, 3> fds{-1, -1, -1};
  std::array<std::uint16_t, 3> ports{};
  for (std::size_t i = 0; i < fds.size(); ++i) {
    fds[i] = ::socket(AF_INET, SOCK_STREAM | SOCK_CLOEXEC, 0);
    sockaddr_in addr{};
    addr.sin_family = AF_INET;
    addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
    addr.sin_port = 0;
    socklen_t len = sizeof addr;
    if (fds[i] < 0 ||
        ::bind(fds[i], reinterpret_cast<sockaddr*>(&addr), sizeof addr) != 0 ||
        ::getsockname(fds[i], reinterpret_cast<sockaddr*>(&addr), &len) != 0) {
      for (const int fd : fds) {
        if (fd >= 0) ::close(fd);
      }
      throw std::runtime_error("wire: cannot reserve a loopback port");
    }
    ports[i] = ntohs(addr.sin_port);
  }
  for (const int fd : fds) ::close(fd);
  return ports;
}

/// utime + stime of a live child, from /proc/<pid>/stat, in seconds.
double proc_cpu_s(pid_t pid) {
  std::ifstream in("/proc/" + std::to_string(pid) + "/stat");
  std::string line;
  if (!std::getline(in, line)) return 0.0;
  const std::size_t close = line.rfind(')');
  if (close == std::string::npos || close + 2 > line.size()) return 0.0;
  std::istringstream fields(line.substr(close + 2));
  std::string f;
  double ticks = 0.0;
  // Fields after "(comm)" start at field 3; utime and stime are 14 and 15.
  for (int i = 3; i <= 15 && fields >> f; ++i) {
    if (i >= 14) ticks += std::stod(f);
  }
  return ticks / static_cast<double>(sysconf(_SC_CLK_TCK));
}

/// Restarts this process's peak-RSS watermark (VmHWM) from the current
/// RSS, after returning free heap pages to the system.
void reset_peak_rss() {
  malloc_trim(0);
  std::ofstream("/proc/self/clear_refs") << "5";
}

double process_cpu_s() {
  timespec ts{};
  clock_gettime(CLOCK_PROCESS_CPUTIME_ID, &ts);
  return static_cast<double>(ts.tv_sec) +
         static_cast<double>(ts.tv_nsec) * 1e-9;
}

/// The serve's `key=value` stats line.
std::map<std::string, double> read_stats(const std::string& path) {
  std::map<std::string, double> out;
  std::ifstream in(path);
  std::string kv;
  while (in >> kv) {
    const std::size_t eq = kv.find('=');
    if (eq == std::string::npos) continue;
    try {
      out[kv.substr(0, eq)] = std::stod(kv.substr(eq + 1));
    } catch (const std::exception&) {
      // Not a number (e.g. "a/b"): not a counter we read.
    }
  }
  return out;
}

/// One `lesslog_cli serve` child.
struct Serve {
  pid_t pid = -1;
  std::string stats_path;
  int exit_code = -1;  ///< -1 until reaped; 128+signal when killed
  double maxrss_mb = 0.0;  ///< VmHWM, sampled while the serve still runs
  [[nodiscard]] bool reaped() const { return pid < 0 || exit_code >= 0; }
};

/// The two serve processes of one deployment. Kills and reaps on
/// destruction, so no exit path leaves a child behind.
class ServePair {
 public:
  ServePair() = default;
  ServePair(const ServePair&) = delete;
  ServePair& operator=(const ServePair&) = delete;
  ~ServePair() { kill_all(); }

  void spawn(const Options& o, const std::string& hosts, std::uint64_t seed,
             double duration, const std::string& tag) {
    for (std::size_t i = 0; i < serves_.size(); ++i) {
      Serve& s = serves_[i];
      const std::string stem =
          o.scratch + "/" + tag + "-serve" + std::to_string(i);
      s.stats_path = stem + ".stats";
      const std::string log_path = stem + ".log";
      const std::vector<std::string> args = {
          o.cli,        "serve",       "--hosts",  hosts,
          "--self",     std::to_string(i),         "--m",
          std::to_string(kM),          "--b",      std::to_string(kB),
          "--seed",     std::to_string(seed),      "--duration",
          std::to_string(duration),    "--stats-out", s.stats_path};
      std::vector<char*> argv;
      for (const std::string& a : args) {
        argv.push_back(const_cast<char*>(a.c_str()));
      }
      argv.push_back(nullptr);
      const pid_t parent = getpid();
      const pid_t pid = fork();
      if (pid < 0) throw std::runtime_error("wire: fork failed");
      if (pid == 0) {
        // Die with the benchmark, whatever ends it.
        prctl(PR_SET_PDEATHSIG, SIGKILL);
        if (getppid() != parent) _exit(127);
        const int fd = ::open(log_path.c_str(),
                              O_WRONLY | O_CREAT | O_TRUNC | O_CLOEXEC, 0644);
        if (fd >= 0) {
          dup2(fd, STDOUT_FILENO);
          dup2(fd, STDERR_FILENO);
        }
        execv(argv[0], argv.data());
        _exit(127);
      }
      s.pid = pid;
    }
  }

  /// Non-blocking reap; true when some serve has exited.
  bool any_exited() {
    bool exited = false;
    for (Serve& s : serves_) {
      reap(s, WNOHANG);
      exited = exited || (s.pid >= 0 && s.exit_code >= 0);
    }
    return exited;
  }

  /// Waits until both serves exit on their own or `deadline` passes.
  bool wait_exit(Clock::time_point deadline) {
    while (Clock::now() < deadline) {
      (void)any_exited();
      if (serves_[0].reaped() && serves_[1].reaped()) return true;
      usleep(2000);
    }
    return false;
  }

  /// Records each running serve's peak resident memory.
  void sample_peak_rss() {
    for (Serve& s : serves_) {
      if (!s.reaped()) {
        s.maxrss_mb =
            peak_rss_mb("/proc/" + std::to_string(s.pid) + "/status");
      }
    }
  }

  void kill_all() {
    for (Serve& s : serves_) {
      if (!s.reaped()) {
        ::kill(s.pid, SIGKILL);
        reap(s, 0);
      }
    }
  }

  [[nodiscard]] const std::array<Serve, 2>& serves() const { return serves_; }
  [[nodiscard]] std::array<double, 2> cpu() const {
    return {proc_cpu_s(serves_[0].pid), proc_cpu_s(serves_[1].pid)};
  }

 private:
  static void reap(Serve& s, int flags) {
    if (s.reaped()) return;
    int status = 0;
    if (waitpid(s.pid, &status, flags) != s.pid) return;
    s.exit_code =
        WIFEXITED(status) ? WEXITSTATUS(status) : 128 + WTERMSIG(status);
  }

  std::array<Serve, 2> serves_{};
};

struct PhaseSpec {
  double rate = 0.0;
  double duration = 0.0;
};

struct PhaseOut {
  PhaseSpec spec;
  lesslog::net::LoadGenReport report;
  double wall = 0.0;  ///< LoadGen::run(): catalog refresh + schedule + drain
  double gen_cpu = 0.0;
  std::array<double, 2> serve_cpu{};
  lesslog::net::TransportStats transport;
  std::int64_t decode_drops = 0;
  double retries = 0.0;
  double timeouts = 0.0;
};

struct Deployment {
  std::string tag;
  std::unique_ptr<ServePair> serves;
  Clock::time_point deadline;  ///< serves must have exited by then
  double connect_s = 0.0;
  double catalog_s = 0.0;
  double setup_s = 0.0;
  int attempts = 0;
  bool setup_ok = false;
  std::string setup_error;  ///< why the last failed attempt failed
  std::vector<PhaseOut> phases;
  std::array<std::map<std::string, double>, 2> stats;
};

lesslog::net::LoadGenConfig gen_config(const std::string& hosts,
                                       std::uint64_t seed, double rate,
                                       double duration) {
  lesslog::net::LoadGenConfig cfg;
  cfg.m = kM;
  cfg.b = kB;
  cfg.hosts = lesslog::net::HostMap::parse(hosts);
  cfg.self = 2;
  cfg.seed = seed;
  cfg.files = kFiles;
  cfg.rate = rate;
  cfg.duration = duration;
  cfg.setup_timeout = kConnectBudget + kCatalogBudget;
  cfg.drain_timeout = kDrainBudget;
  return cfg;
}

/// Polls a started LoadGen's transport until its outgoing links are up, a
/// serve dies, or the budget runs out.
bool connect(lesslog::net::LoadGen& gen, ServePair& serves) {
  const Clock::time_point t0 = Clock::now();
  while (!gen.transport().fully_connected()) {
    if (serves.any_exited() || since(t0) > kConnectBudget) return false;
    (void)gen.transport().poll(1);
  }
  return true;
}

/// Sets a deployment up: bind PID 1023, spawn the serves, connect, place
/// the catalog. A port collision or any other failure reaps the serves
/// and retries on new ports, up to kSetupAttempts times.
bool set_up(const Options& o, std::uint64_t seed, double budget,
            Deployment& d, std::string& hosts) {
  using namespace lesslog;
  for (d.attempts = 1; d.attempts <= kSetupAttempts; ++d.attempts) {
    const Scope span("net.setup");
    const std::array<std::uint16_t, 3> ports = free_ports();
    hosts = "serve:0-511:127.0.0.1:" + std::to_string(ports[0]) +
            ";serve:512-1022:127.0.0.1:" + std::to_string(ports[1]) +
            ";client:1023:127.0.0.1:" + std::to_string(ports[2]);
    d.serves = std::make_unique<ServePair>();
    const Clock::time_point t0 = Clock::now();
    d.deadline = t0 + std::chrono::duration_cast<Clock::duration>(
                          std::chrono::duration<double>(budget + 3.0));
    try {
      // The set-up LoadGen binds first, so the serves' first connect
      // toward PID 1023 succeeds. One GET follows the catalog: a LoadGen
      // needs a non-empty schedule.
      net::LoadGen gen(gen_config(hosts, seed, 1000.0, 0.001));
      bool ok = false;
      {
        const Scope c("net.connect");
        gen.start();
        d.serves->spawn(o, hosts, seed, budget,
                        d.tag + "-a" + std::to_string(d.attempts));
        ok = connect(gen, *d.serves);
      }
      d.connect_s = since(t0);
      if (!ok) {
        d.setup_error = "connect timed out or a serve exited";
      } else {
        const Scope c("net.catalog");
        const Clock::time_point tc = Clock::now();
        const net::LoadGenReport r = gen.run();
        d.catalog_s = since(tc) - kLeadIn;
        ok = r.all_ok() && !d.serves->any_exited();
        d.setup_error = "catalog incomplete or a serve exited";
      }
      d.setup_s = since(t0) - kLeadIn;
      if (ok) return true;
    } catch (const std::exception& e) {
      // A bind failure (the port was taken between reservation and bind)
      // lands here: a set-up failure like the others.
      d.setup_error = e.what();
    }
    d.serves->kill_all();
  }
  return false;
}

/// One deployment: set up, then run every phase on its own LoadGen. On
/// the fixed-rate deployment (`gating`) a LoadGen that cannot reconnect or
/// refresh the catalog fails the run; on a ladder deployment it only fails
/// that step (overload steps leave the serves busy draining).
Deployment deploy(const Options& o, std::uint64_t seed, const std::string& tag,
                  const std::vector<PhaseSpec>& phases, bool gating,
                  Result& res) {
  using namespace lesslog;
  double budget = kConnectBudget + kCatalogBudget;
  for (const PhaseSpec& p : phases) {
    budget += kConnectBudget + kCatalogBudget + kLeadIn + p.duration +
              kDrainBudget;
  }
  Deployment d;
  d.tag = tag;
  std::string hosts;
  d.setup_ok = set_up(o, seed, budget, d, hosts);
  res.check(d.setup_ok, "wire_loopback: deployment " + tag +
                            " could not be set up: " + d.setup_error);
  if (!d.setup_ok) return d;

  for (const PhaseSpec& spec : phases) {
    const Scope span("net.phase", static_cast<std::uint64_t>(spec.rate));
    PhaseOut out;
    out.spec = spec;
    net::LoadGen gen(gen_config(
        hosts, seed + static_cast<std::uint64_t>(spec.rate), spec.rate,
        spec.duration));
    gen.start();
    if (!connect(gen, *d.serves)) {
      if (gating) res.check(false, "wire_loopback: LoadGen could not connect");
      d.phases.push_back(std::move(out));  // an empty, failed step
      break;
    }
    const std::array<double, 2> cpu0 = d.serves->cpu();
    const double gen0 = process_cpu_s();
    const Clock::time_point t0 = Clock::now();
    out.report = gen.run();
    out.wall = since(t0);
    out.gen_cpu = process_cpu_s() - gen0;
    const std::array<double, 2> cpu1 = d.serves->cpu();
    out.serve_cpu = {cpu1[0] - cpu0[0], cpu1[1] - cpu0[1]};
    out.transport = gen.transport().stats();
    out.decode_drops = gen.network().corrupted();
    const obs::Snapshot snap = gen.registry().snapshot();
    const std::uint64_t* retries = snap.counter("client.retries");
    const std::uint64_t* timeouts = snap.counter("client.timeouts");
    out.retries = retries == nullptr ? 0.0 : static_cast<double>(*retries);
    out.timeouts = timeouts == nullptr ? 0.0 : static_cast<double>(*timeouts);
    const net::LoadGenReport& r = out.report;
    res.check(r.gets_issued == r.gets_ok + r.gets_failed,
              "wire_loopback: issued != ok + failed");
    if (gating) {
      res.check(r.files_inserted == r.files_requested,
                "wire_loopback: catalog refresh incomplete");
    }
    d.phases.push_back(std::move(out));
  }
  d.serves->sample_peak_rss();
  return d;
}

/// Waits for a deployment's serves to exit on their own, then reads their
/// stats files.
void finish(Deployment& d, Result& res) {
  if (d.serves == nullptr) return;
  const bool exited = d.serves->wait_exit(d.deadline);
  d.serves->kill_all();
  res.check(exited, "wire_loopback: " + d.tag + " serves did not exit");
  for (std::size_t i = 0; i < 2; ++i) {
    const Serve& s = d.serves->serves()[i];
    res.check(s.exit_code == 0, "wire_loopback: " + d.tag + " serve " +
                                    std::to_string(i) + " exited " +
                                    std::to_string(s.exit_code));
    d.stats[i] = read_stats(s.stats_path);
  }
}

struct StepVerdict {
  double p99 = 0.0;
  double ok_frac = 0.0;
  bool pass = false;
};

StepVerdict judge(const PhaseOut& p) {
  const lesslog::net::LoadGenReport& r = p.report;
  StepVerdict v;
  v.p99 = percentile(r.latencies, 99.0);
  v.ok_frac = r.gets_issued > 0 ? static_cast<double>(r.gets_ok) /
                                      static_cast<double>(r.gets_issued)
                                : 0.0;
  // A growing backlog shows in the latest completions first: the last
  // tenth must meet the limit too.
  const std::size_t n = r.latencies.size();
  const std::vector<double> tail(
      r.latencies.begin() + static_cast<std::ptrdiff_t>(n - n / 10),
      r.latencies.end());
  v.pass = r.files_inserted == r.files_requested && v.ok_frac >= 0.999 &&
           v.p99 <= kLatencyLimit &&
           percentile(tail, 99.0) <= kLatencyLimit;
  return v;
}

double stat(const std::map<std::string, double>& st, const char* key) {
  const auto it = st.find(key);
  return it == st.end() ? 0.0 : it->second;
}

}  // namespace

Result run_wire_loopback(const Options& o) {
  Result res;
  if (o.cli.empty()) throw std::invalid_argument("wire_loopback needs --cli");
  const double fixed_s = std::max(1.0, 0.25 * o.seconds);
  const double step_s = std::max(0.25, 0.025 * o.seconds);
  // The fixed-rate deployment goes first, so no overloaded serve from a
  // ladder step is still draining beside it.
  const std::vector<std::pair<std::string, std::vector<PhaseSpec>>> plan = {
      {"F", {{50000.0, fixed_s}}},
      {"L1", {{75000.0, step_s}, {100000.0, step_s}, {125000.0, step_s}}},
      {"L2", {{150000.0, step_s}, {175000.0, step_s}, {200000.0, step_s}}}};

  std::vector<Deployment> deps;
  deps.reserve(plan.size());
  double peak = 0.0;  // over the fixed-rate deployment's processes
  for (std::size_t i = 0; i < plan.size(); ++i) {
    const bool fixed_rate = i == 0;
    if (fixed_rate) reset_peak_rss();
    // `lesslog_cli serve --seed` takes an int.
    const std::uint64_t seed = mix(o.seed, i) % 1000000007ULL;
    deps.push_back(
        deploy(o, seed, plan[i].first, plan[i].second, fixed_rate, res));
    if (fixed_rate) peak = peak_rss_mb_self();
    if (!deps.back().setup_ok) break;
  }
  for (Deployment& d : deps) finish(d, res);
  if (deps.size() < plan.size() || deps.front().phases.empty()) return res;

  // --- The fixed-rate phase: end-to-end numbers and output checks.
  const Deployment& f = deps.front();
  const PhaseOut& fixed = f.phases.front();
  const lesslog::net::LoadGenReport& fr = fixed.report;
  double overflow = static_cast<double>(fixed.transport.overflow_dropped);
  double unroutable = static_cast<double>(fixed.transport.unroutable_dropped);
  double decode = static_cast<double>(fixed.decode_drops);
  double frames = static_cast<double>(fixed.transport.frames_out);
  for (const auto& st : f.stats) {
    overflow += stat(st, "overflow_dropped");
    unroutable += stat(st, "unroutable_dropped");
    decode += stat(st, "decode_drops");
    frames += stat(st, "frames_out");
  }
  for (const Serve& s : f.serves->serves()) {
    peak = std::max(peak, s.maxrss_mb);
  }
  double reconnects = 0.0;
  for (const Deployment& d : deps) {
    for (std::size_t i = 0; i < 2; ++i) {
      reconnects += stat(d.stats[i], "reconnects");
    }
    for (const PhaseOut& p : d.phases) {
      reconnects += static_cast<double>(p.transport.reconnects);
    }
  }
  res.check(fr.all_ok(), "wire_loopback: a GET at the fixed rate failed");
  res.check(overflow == 0.0 && unroutable == 0.0 && decode == 0.0,
            "wire_loopback: drops at the fixed rate");
  res.attempted = fr.gets_issued;
  res.failed = fr.gets_failed;

  std::vector<double> setups, connects, catalogs;
  for (const Deployment& d : deps) {
    setups.push_back(d.setup_s);
    connects.push_back(d.connect_s);
    catalogs.push_back(d.catalog_s);
  }
  const auto gets = static_cast<double>(fr.gets_issued);
  res.e2e["setup_s"] = percentile(setups, 50.0);
  res.e2e["run_s"] = fixed.wall;
  res.e2e["ok_frac"] = static_cast<double>(fr.gets_ok) / gets;
  res.e2e["fresh_frac"] = 1.0;  // no updates: every read is the newest
  res.e2e["peak_rss_mb"] = peak;
  res.e2e["msgs_per_op"] = frames / gets;
  res.e2e["copies"] = static_cast<double>(fr.files_inserted) * (1 << kB);
  res.det["copies"] = res.e2e["copies"];

  // --- Per-layer numbers.
  res.layer["lat_p50_ms"] = percentile(fr.latencies, 50.0) * 1e3;
  res.layer["lat_p99_ms"] = percentile(fr.latencies, 99.0) * 1e3;
  res.layer["lat_p999_ms"] = percentile(fr.latencies, 99.9) * 1e3;
  res.layer["net.connect_s"] = percentile(connects, 50.0);
  res.layer["net.catalog_s"] = percentile(catalogs, 50.0);
  res.layer["net.serve_busy_frac"] =
      std::max(fixed.serve_cpu[0], fixed.serve_cpu[1]) / fixed.wall;
  res.layer["net.serve_cpu_us_per_get"] =
      (fixed.serve_cpu[0] + fixed.serve_cpu[1]) / gets * 1e6;
  res.layer["net.frames_per_get"] = frames / gets;
  res.layer["net.loadgen_busy_frac"] = fixed.gen_cpu / fixed.wall;
  res.layer["net.loadgen_cpu_us_per_get"] = fixed.gen_cpu / gets * 1e6;
  // How far the phase overran its schedule, net of the catalog refresh
  // (estimated by this deployment's set-up catalog time).
  res.layer["net.gen_lag_ms"] =
      (fixed.wall - kLeadIn - fixed.spec.duration - f.catalog_s) * 1e3;
  res.layer["net.overflow_dropped"] = overflow;
  res.layer["net.unroutable_dropped"] = unroutable;
  res.layer["net.decode_drops"] = decode;
  res.layer["net.reconnects"] = reconnects;
  res.layer["proto.retries"] = fixed.retries;
  res.layer["proto.timeouts"] = fixed.timeouts;
  res.layer["proto.faults"] = static_cast<double>(fr.gets_failed);

  // --- The ladder: F's 50k is its first step, then L1 and L2 in order.
  std::vector<const PhaseOut*> ladder;
  for (const Deployment& d : deps) {
    for (const PhaseOut& p : d.phases) ladder.push_back(&p);
  }
  double max_rate = 0.0;
  bool climbing = true;
  for (const PhaseOut* p : ladder) {
    const StepVerdict v = judge(*p);
    const std::string tag =
        "r" + std::to_string(static_cast<long long>(p->spec.rate));
    res.layer["net.p99_ms." + tag] = v.p99 * 1e3;
    res.layer["net.ok_frac." + tag] = v.ok_frac;
    climbing = climbing && v.pass;
    if (climbing) max_rate = p->spec.rate;
  }
  res.layer["max_rate"] = max_rate;
  std::string attempts;
  for (const Deployment& d : deps) {
    attempts += d.tag + ":" + std::to_string(d.attempts) + " ";
  }
  res.info["setup_attempts"] = attempts;
  return res;
}

}  // namespace perfbench
