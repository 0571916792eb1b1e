// In-memory span recorder for the benchmark's traced mode.
//
// A span is (name, start, end, parent, request id). Spans are recorded
// only around the benchmark's own calls into the library — the layer
// boundaries it can see from outside — and are kept in memory until the
// run ends, then written as JSON lines. With tracing off every call is a
// branch on a bool and nothing is stored.
#pragma once

#include <chrono>
#include <cstdint>
#include <fstream>
#include <string>
#include <string_view>
#include <vector>

namespace perfbench {

class Tracer {
 public:
  struct Span {
    const char* name;  ///< static string: "<layer>.<what>"
    double start;      ///< seconds since enable()
    double end;
    std::int32_t parent;  ///< index into spans, -1 at top level
    std::uint64_t rid;    ///< request id (inherited from the parent)
  };

  void enable() {
    on_ = true;
    t0_ = std::chrono::steady_clock::now();
    spans_.reserve(std::size_t{1} << 16);
  }
  [[nodiscard]] bool on() const noexcept { return on_; }

  std::int32_t begin(const char* name, std::uint64_t rid) {
    if (!on_) return -1;
    const std::int32_t parent = stack_.empty() ? -1 : stack_.back();
    if (rid == 0 && parent >= 0) {
      rid = spans_[static_cast<std::size_t>(parent)].rid;
    }
    spans_.push_back(Span{name, now(), 0.0, parent, rid});
    const auto id = static_cast<std::int32_t>(spans_.size() - 1);
    stack_.push_back(id);
    return id;
  }

  void end(std::int32_t id) {
    if (id < 0) return;
    spans_[static_cast<std::size_t>(id)].end = now();
    stack_.pop_back();
  }

  /// Durations (seconds) of every span with this name, in start order.
  [[nodiscard]] std::vector<double> durations(std::string_view name) const {
    std::vector<double> out;
    for (const Span& s : spans_) {
      if (name == s.name) out.push_back(s.end - s.start);
    }
    return out;
  }

  [[nodiscard]] double total(std::string_view name) const {
    double sum = 0.0;
    for (const double d : durations(name)) sum += d;
    return sum;
  }

  [[nodiscard]] std::size_t size() const noexcept { return spans_.size(); }

  /// One JSON object per line: {"name","start","end","parent","rid"}.
  bool write(const std::string& path) const {
    std::ofstream out(path);
    if (!out) return false;
    out.precision(9);
    for (const Span& s : spans_) {
      out << "{\"name\":\"" << s.name << "\",\"start\":" << s.start
          << ",\"end\":" << s.end << ",\"parent\":" << s.parent
          << ",\"rid\":" << s.rid << "}\n";
    }
    return static_cast<bool>(out);
  }

 private:
  [[nodiscard]] double now() const {
    return std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                         t0_)
        .count();
  }

  bool on_ = false;
  std::chrono::steady_clock::time_point t0_;
  std::vector<Span> spans_;
  std::vector<std::int32_t> stack_;
};

/// The process-wide recorder (the benchmark is single-threaded at every
/// span boundary; shard worker threads never touch it).
inline Tracer& tracer() {
  static Tracer t;
  return t;
}

/// RAII span around one call.
class Scope {
 public:
  explicit Scope(const char* name, std::uint64_t rid = 0)
      : id_(tracer().begin(name, rid)) {}
  ~Scope() { tracer().end(id_); }
  Scope(const Scope&) = delete;
  Scope& operator=(const Scope&) = delete;

 private:
  std::int32_t id_;
};

}  // namespace perfbench
