// Message tracing: records every datagram a network's peers receive, with
// timestamps, as structured records — filterable, printable, and
// JSONL-exportable. The protocol_trace example renders with it; tests use
// it to assert exact message sequences.
//
// Trace is an obs::DeliverySink: it registers with one proto::Network (the
// single delivery funnel of its peers), so peers that join after
// construction are recorded automatically — there is nothing to re-arm
// and no handler wrapping involved. A single-shard ShardedSwarm has one
// network, `swarm.network(0)`, which sees every delivery.
#pragma once

#include <iosfwd>
#include <string>
#include <vector>

#include "lesslog/obs/sink.hpp"
#include "lesslog/proto/network.hpp"

namespace lesslog::proto {

struct TraceRecord {
  double time = 0.0;  ///< delivery time (simulated seconds)
  Message message;
};

class Trace final : public obs::DeliverySink {
 public:
  /// Starts recording every delivery on `network`. Destroy the Trace
  /// before the network (it unregisters itself from the sink list) —
  /// declaring it after the swarm that owns the network does exactly that.
  explicit Trace(Network& network);
  ~Trace() override;

  Trace(const Trace&) = delete;
  Trace& operator=(const Trace&) = delete;

  /// DeliverySink: appends one record per delivered datagram.
  void on_deliver(double time, const Message& m) override;

  [[nodiscard]] const std::vector<TraceRecord>& records() const noexcept {
    return records_;
  }
  [[nodiscard]] std::size_t size() const noexcept { return records_.size(); }
  void clear() noexcept { records_.clear(); }

  /// Records of one type, in order.
  [[nodiscard]] std::vector<TraceRecord> of_type(MsgType t) const;

  /// Count of records of one type.
  [[nodiscard]] std::size_t count(MsgType t) const;

  /// Human-readable line per record ("t=0.010s GET P(8) -> P(0) ...").
  [[nodiscard]] std::string render() const;

  /// One JSON object per line (numeric fields; type as string tag).
  void write_jsonl(std::ostream& out) const;

 private:
  Network* network_;
  std::vector<TraceRecord> records_;
};

}  // namespace lesslog::proto
