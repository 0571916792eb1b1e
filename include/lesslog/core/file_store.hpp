// Per-node file storage.
//
// A node stores two categories of copies (the distinction drives the
// leave/fail protocols of Section 5):
//   * inserted files — original copies placed by (ADVANCED)INSERTFILE; the
//     node is the authoritative holder and must re-home them on departure;
//   * replicated files — copies pushed by REPLICATEFILE to absorb load;
//     they are discarded on departure and may be pruned by the
//     counter-based removal mechanism.
//
// Each copy carries a version (for update propagation) and replicas carry
// an access counter (for counter-based removal).
//
// Storage layout: copies live in a contiguous slab (std::vector) with a
// LIFO freelist of vacated slots, found through a flat open-addressing
// index mapping key -> slab slot. An insert is a slot reuse or push_back —
// no per-copy heap node — and a lookup is a multiply plus a short linear
// probe landing in contiguous memory. Enumeration (inserted_files(),
// replica_files(), pruning, counter resets) walks the slab in slot order,
// which is deterministic for a given operation history: insertion order,
// with erased slots reused most-recently-freed-first.
#pragma once

#include <cstdint>
#include <functional>
#include <optional>
#include <vector>

#include "lesslog/util/hashing.hpp"

namespace lesslog::core {

/// Opaque file identifier. Producers derive it from the file's unique name
/// (see FileId::from_name) or from a synthetic index.
class FileId {
 public:
  constexpr FileId() = default;
  constexpr explicit FileId(std::uint64_t key) noexcept : key_(key) {}

  [[nodiscard]] constexpr std::uint64_t key() const noexcept { return key_; }

  friend constexpr auto operator<=>(FileId, FileId) = default;

 private:
  std::uint64_t key_ = 0;
};

enum class CopyKind : std::uint8_t { kInserted, kReplica };

struct CopyInfo {
  CopyKind kind = CopyKind::kInserted;
  std::uint64_t version = 0;
  /// Requests served by this copy since the counter was last reset; only
  /// meaningful for replicas (the counter-based removal input).
  std::uint64_t access_count = 0;
  /// The stored bytes (may be empty when the deployment runs metadata-only
  /// experiments). See core/payload.hpp for content generation/integrity.
  std::vector<std::uint8_t> data;
};

class FileStore {
 public:
  FileStore() = default;
  // The slab holds values and the index holds slot numbers, so the
  // compiler-generated copy/move are correct as-is.
  FileStore(const FileStore&) = default;
  FileStore& operator=(const FileStore&) = default;
  FileStore(FileStore&&) noexcept = default;
  FileStore& operator=(FileStore&&) noexcept = default;
  ~FileStore() = default;

  [[nodiscard]] bool has(FileId f) const noexcept {
    return slot_of(f.key()) != kNoSlot;
  }

  [[nodiscard]] std::optional<CopyInfo> info(FileId f) const;

  /// Serves one get from the local copy: counts the access and returns the
  /// stored version, or nullopt when no copy is present. Equivalent to
  /// has() + record_access() + info()->version in a single lookup — the
  /// request hot path calls this once per served get.
  [[nodiscard]] std::optional<std::uint64_t> serve(FileId f);

  /// Stores an original copy. Overwrites any existing replica entry (a node
  /// can be promoted from replica-holder to authoritative holder when
  /// membership changes). A newer stored copy keeps its version and bytes.
  void put_inserted(FileId f, std::uint64_t version = 0,
                    std::vector<std::uint8_t> data = {});

  /// Stores a replica. No-op if an inserted copy is already present.
  void put_replica(FileId f, std::uint64_t version = 0,
                   std::vector<std::uint8_t> data = {});

  /// Borrow the stored bytes of f; nullptr when no copy is present. The
  /// pointer is invalidated by the next mutating call (the slab may move).
  [[nodiscard]] const std::vector<std::uint8_t>* payload(FileId f) const;

  /// Overwrites the stored bytes of f in place (test fault injection and
  /// payload-carrying updates). Returns false when no copy is present.
  bool set_payload(FileId f, std::vector<std::uint8_t> data);

  /// Removes any copy of f. Returns true if one existed.
  bool erase(FileId f);

  /// Applies an update: set the stored version to `version` (and replace
  /// the bytes, when provided) unless the stored copy is newer. Returns
  /// true if a copy was present.
  bool apply_update(FileId f, std::uint64_t version,
                    std::vector<std::uint8_t> data = {});

  /// Counts one served request against f's copy (counter-based removal).
  void record_access(FileId f);

  /// Restores an access counter (snapshot load). Returns false when no
  /// copy is present.
  bool set_access_count(FileId f, std::uint64_t count);

  /// Resets all access counters (start of a measurement window).
  void reset_access_counts() noexcept;

  /// Removes replicas whose access counter is strictly below `threshold`;
  /// inserted copies are never removed. Returns the ids pruned.
  std::vector<FileId> prune_cold_replicas(std::uint64_t threshold);

  [[nodiscard]] std::vector<FileId> inserted_files() const;
  [[nodiscard]] std::vector<FileId> replica_files() const;
  [[nodiscard]] std::size_t size() const noexcept { return size_; }

  /// Largest displacement of any occupied index slot from its home slot —
  /// the probe-clustering diagnostic. A well-mixed probe hash keeps this
  /// small at the 50% load ceiling; an unmixed hash over strided keys (the
  /// client's PID-striped request ids) collapses every key onto a handful
  /// of home slots and this grows linearly. Exposed for the clustering
  /// regression test and the micro benches.
  [[nodiscard]] std::size_t worst_probe_length() const noexcept;

 private:
  /// Sentinel for "index slot empty" / "no slab slot".
  static constexpr std::uint32_t kNoSlot = 0xFFFF'FFFFu;

  /// One slab cell: the stored copy plus its key. `occupied` is false for
  /// freelist cells awaiting reuse.
  struct Entry {
    FileId id;
    bool occupied = false;
    CopyInfo info;
  };

  /// One slot of the lookup index; empty when `slot` is kNoSlot.
  struct IndexSlot {
    std::uint64_t key = 0;
    std::uint32_t slot = kNoSlot;
  };

  /// Open-addressing probe hash: SplitMix64 avalanche of the key, masked
  /// to the power-of-two capacity. The mix matters: FileIds are minted as
  /// PID-striped sequential integers, and masking them unmixed would drop
  /// every key of one client onto the same home slot.
  [[nodiscard]] std::size_t home_slot(std::uint64_t key) const noexcept {
    return static_cast<std::size_t>(util::splitmix64_mix(key)) &
           (index_.size() - 1);
  }

  /// Slab slot holding f, or kNoSlot — the hot-path lookup: a multiply and
  /// a short linear probe over a flat array into a contiguous slab.
  [[nodiscard]] std::uint32_t slot_of(std::uint64_t key) const noexcept {
    if (index_.empty()) return kNoSlot;
    std::size_t i = home_slot(key);
    while (index_[i].slot != kNoSlot) {
      if (index_[i].key == key) return index_[i].slot;
      i = (i + 1) & (index_.size() - 1);
    }
    return kNoSlot;
  }

  [[nodiscard]] CopyInfo* lookup(FileId f) const noexcept {
    const std::uint32_t s = slot_of(f.key());
    if (s == kNoSlot) return nullptr;
    return const_cast<CopyInfo*>(&slab_[s].info);
  }

  /// Reserve a slab cell: most-recently-freed slot, else a fresh push_back.
  [[nodiscard]] std::uint32_t acquire_cell();

  void index_put(std::uint64_t key, std::uint32_t slot);
  void index_erase(std::uint64_t key) noexcept;
  void rebuild_index();
  void release_cell(std::uint32_t s) noexcept;

  /// Flat linear-probe index: key -> slab slot. Never iterated for
  /// enumeration; backward-shift deletion keeps probe chains tight.
  /// Declared first: the hot-path lookup (most often a miss against an
  /// empty or tiny store while a get forwards through) reads only this
  /// header, so it sits in the owning Peer's first cache lines.
  std::vector<IndexSlot> index_;
  /// The copy arena. Iterated in slot order by every enumeration.
  std::vector<Entry> slab_;
  /// Vacated slab slots, reused LIFO.
  std::vector<std::uint32_t> free_;
  std::size_t size_ = 0;
};

}  // namespace lesslog::core

template <>
struct std::hash<lesslog::core::FileId> {
  std::size_t operator()(lesslog::core::FileId f) const noexcept {
    return std::hash<std::uint64_t>{}(f.key());
  }
};
