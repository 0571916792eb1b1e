#include "lesslog/core/file_store.hpp"

#include <cassert>

namespace lesslog::core {

std::uint32_t FileStore::acquire_cell() {
  if (!free_.empty()) {
    const std::uint32_t s = free_.back();
    free_.pop_back();
    return s;
  }
  slab_.emplace_back();
  return static_cast<std::uint32_t>(slab_.size() - 1);
}

void FileStore::release_cell(std::uint32_t s) noexcept {
  Entry& e = slab_[s];
  e.occupied = false;
  e.info = CopyInfo{};  // drop the payload bytes now, not at reuse time
  free_.push_back(s);
}

void FileStore::index_put(std::uint64_t key, std::uint32_t slot) {
  // Grow at 50% load; per-node catalogs are small, so rebuilds are rare
  // and cheap.
  if (index_.empty() || (size_ + 1) * 2 > index_.size()) {
    rebuild_index();
  }
  std::size_t i = home_slot(key);
  while (index_[i].slot != kNoSlot) {
    if (index_[i].key == key) {
      index_[i].slot = slot;
      return;
    }
    i = (i + 1) & (index_.size() - 1);
  }
  index_[i] = IndexSlot{key, slot};
}

void FileStore::index_erase(std::uint64_t key) noexcept {
  assert(!index_.empty());
  const std::size_t mask = index_.size() - 1;
  std::size_t i = home_slot(key);
  while (index_[i].key != key || index_[i].slot == kNoSlot) {
    if (index_[i].slot == kNoSlot) return;  // not present
    i = (i + 1) & mask;
  }
  // Backward-shift deletion keeps probe chains tombstone-free: any entry
  // further down the cluster whose home slot lies at or before the hole
  // moves back into it.
  std::size_t hole = i;
  std::size_t j = i;
  for (;;) {
    j = (j + 1) & mask;
    if (index_[j].slot == kNoSlot) break;
    const std::size_t home = home_slot(index_[j].key);
    if (((j - home) & mask) >= ((j - hole) & mask)) {
      index_[hole] = index_[j];
      hole = j;
    }
  }
  index_[hole] = IndexSlot{};
}

void FileStore::rebuild_index() {
  std::size_t cap = 16;
  while (size_ * 2 >= cap) cap *= 2;
  index_.assign(cap, IndexSlot{});
  for (std::uint32_t s = 0; s < slab_.size(); ++s) {
    if (!slab_[s].occupied) continue;
    std::size_t i = home_slot(slab_[s].id.key());
    while (index_[i].slot != kNoSlot) i = (i + 1) & (cap - 1);
    index_[i] = IndexSlot{slab_[s].id.key(), s};
  }
}

std::size_t FileStore::worst_probe_length() const noexcept {
  std::size_t worst = 0;
  const std::size_t mask = index_.empty() ? 0 : index_.size() - 1;
  for (std::size_t i = 0; i < index_.size(); ++i) {
    if (index_[i].slot == kNoSlot) continue;
    const std::size_t displacement = (i - home_slot(index_[i].key)) & mask;
    if (displacement > worst) worst = displacement;
  }
  return worst;
}

std::optional<CopyInfo> FileStore::info(FileId f) const {
  const CopyInfo* c = lookup(f);
  if (c == nullptr) return std::nullopt;
  return *c;
}

std::optional<std::uint64_t> FileStore::serve(FileId f) {
  CopyInfo* c = lookup(f);
  if (c == nullptr) return std::nullopt;
  ++c->access_count;
  return c->version;
}

void FileStore::put_inserted(FileId f, std::uint64_t version,
                             std::vector<std::uint8_t> data) {
  if (CopyInfo* c = lookup(f)) {
    // Newest version wins: an older copy (a crash-era repair push) still
    // promotes the entry but keeps the stored version and bytes.
    if (version < c->version) {
      version = c->version;
      data = std::move(c->data);
    }
    *c = CopyInfo{CopyKind::kInserted, version, 0, std::move(data)};
    return;
  }
  const std::uint32_t s = acquire_cell();
  slab_[s].id = f;
  slab_[s].occupied = true;
  slab_[s].info = CopyInfo{CopyKind::kInserted, version, 0, std::move(data)};
  ++size_;
  index_put(f.key(), s);
}

void FileStore::put_replica(FileId f, std::uint64_t version,
                            std::vector<std::uint8_t> data) {
  if (lookup(f) != nullptr) return;
  const std::uint32_t s = acquire_cell();
  slab_[s].id = f;
  slab_[s].occupied = true;
  slab_[s].info = CopyInfo{CopyKind::kReplica, version, 0, std::move(data)};
  ++size_;
  index_put(f.key(), s);
}

const std::vector<std::uint8_t>* FileStore::payload(FileId f) const {
  const CopyInfo* c = lookup(f);
  return c == nullptr ? nullptr : &c->data;
}

bool FileStore::set_payload(FileId f, std::vector<std::uint8_t> data) {
  CopyInfo* c = lookup(f);
  if (c == nullptr) return false;
  c->data = std::move(data);
  return true;
}

bool FileStore::erase(FileId f) {
  const std::uint32_t s = slot_of(f.key());
  if (s == kNoSlot) return false;
  index_erase(f.key());
  release_cell(s);
  --size_;
  return true;
}

bool FileStore::apply_update(FileId f, std::uint64_t version,
                             std::vector<std::uint8_t> data) {
  CopyInfo* c = lookup(f);
  if (c == nullptr) return false;
  // Out of order: keep the newer copy (present, so the push continues).
  if (version < c->version) return true;
  c->version = version;
  if (!data.empty()) c->data = std::move(data);
  return true;
}

void FileStore::record_access(FileId f) {
  CopyInfo* c = lookup(f);
  if (c != nullptr) ++c->access_count;
}

bool FileStore::set_access_count(FileId f, std::uint64_t count) {
  CopyInfo* c = lookup(f);
  if (c == nullptr) return false;
  c->access_count = count;
  return true;
}

void FileStore::reset_access_counts() noexcept {
  for (Entry& e : slab_) {
    if (e.occupied) e.info.access_count = 0;
  }
}

std::vector<FileId> FileStore::prune_cold_replicas(std::uint64_t threshold) {
  std::vector<FileId> pruned;
  for (std::uint32_t s = 0; s < slab_.size(); ++s) {
    Entry& e = slab_[s];
    if (!e.occupied || e.info.kind != CopyKind::kReplica ||
        e.info.access_count >= threshold) {
      continue;
    }
    pruned.push_back(e.id);
    index_erase(e.id.key());
    release_cell(s);
    --size_;
  }
  return pruned;
}

std::vector<FileId> FileStore::inserted_files() const {
  std::vector<FileId> out;
  for (const Entry& e : slab_) {
    if (e.occupied && e.info.kind == CopyKind::kInserted) out.push_back(e.id);
  }
  return out;
}

std::vector<FileId> FileStore::replica_files() const {
  std::vector<FileId> out;
  for (const Entry& e : slab_) {
    if (e.occupied && e.info.kind == CopyKind::kReplica) out.push_back(e.id);
  }
  return out;
}

}  // namespace lesslog::core
