// A Chord-style lookup substrate (Stoica et al., SIGCOMM 2001) — the
// related-work comparator the paper cites for O(log N) lookup. Used by the
// lookup-hops ablation to put LessLog's binomial-tree path lengths next to
// consistent-hashing finger-table routing on the same node populations.
//
// This is the classic static Chord: an identifier ring of size 2^m, each
// live node with an m-entry finger table (finger[i] = successor(n + 2^i)),
// greedy closest-preceding-finger routing. No stabilization protocol — the
// ablation rebuilds tables per membership snapshot, which matches how the
// LessLog status word is also assumed globally fresh.
#pragma once

#include <cstdint>
#include <optional>
#include <vector>

#include "lesslog/util/liveness_view.hpp"
#include "lesslog/util/status_word.hpp"

namespace lesslog::baseline {

class ChordRing {
 public:
  /// Builds finger tables for every live node in `view` on a 2^m ring.
  /// The view is only read during construction; the ring keeps its own
  /// sorted copy of the live set (tables are per-snapshot, matching the
  /// globally fresh membership LessLog assumes).
  explicit ChordRing(const util::LivenessView& view);

  [[nodiscard]] int width() const noexcept { return m_; }

  /// First live node at or clockwise after `id` (wrapping). The node
  /// responsible for key `id`.
  [[nodiscard]] std::uint32_t successor(std::uint32_t id) const;

  /// Greedy finger routing from `from` toward the node responsible for
  /// `key`; returns the hop count (0 when `from` is already responsible).
  [[nodiscard]] int lookup_hops(std::uint32_t from, std::uint32_t key) const;

  /// Full route for diagnostics: the node sequence visited, ending at the
  /// responsible node.
  [[nodiscard]] std::vector<std::uint32_t> lookup_path(
      std::uint32_t from, std::uint32_t key) const;

 private:
  /// True iff x lies in the half-open clockwise interval (a, b].
  [[nodiscard]] static bool in_interval(std::uint32_t x, std::uint32_t a,
                                        std::uint32_t b,
                                        std::uint32_t ring) noexcept;

  [[nodiscard]] const std::vector<std::uint32_t>& fingers(
      std::uint32_t node) const;

  int m_;
  std::uint32_t ring_;
  std::vector<std::uint32_t> nodes_;  // sorted live ids
  /// finger_[i] belongs to nodes_[i]; finger_[i][j] = successor(n + 2^j).
  std::vector<std::vector<std::uint32_t>> finger_;
  std::vector<std::uint32_t> node_index_;  // id -> index into nodes_
};

}  // namespace lesslog::baseline
