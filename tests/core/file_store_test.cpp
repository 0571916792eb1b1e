#include "lesslog/core/file_store.hpp"

#include <gtest/gtest.h>

#include <algorithm>

namespace lesslog::core {
namespace {

TEST(FileStore, StartsEmpty) {
  const FileStore store;
  EXPECT_EQ(store.size(), 0u);
  EXPECT_FALSE(store.has(FileId{1}));
  EXPECT_EQ(store.info(FileId{1}), std::nullopt);
}

TEST(FileStore, InsertedCopyBasics) {
  FileStore store;
  store.put_inserted(FileId{7}, 3);
  ASSERT_TRUE(store.has(FileId{7}));
  const CopyInfo info = store.info(FileId{7}).value();
  EXPECT_EQ(info.kind, CopyKind::kInserted);
  EXPECT_EQ(info.version, 3u);
  EXPECT_EQ(info.access_count, 0u);
}

TEST(FileStore, ReplicaDoesNotDowngradeInserted) {
  FileStore store;
  store.put_inserted(FileId{1});
  store.put_replica(FileId{1});
  EXPECT_EQ(store.info(FileId{1})->kind, CopyKind::kInserted);
}

TEST(FileStore, InsertedPromotesReplica) {
  FileStore store;
  store.put_replica(FileId{1});
  EXPECT_EQ(store.info(FileId{1})->kind, CopyKind::kReplica);
  store.put_inserted(FileId{1});
  EXPECT_EQ(store.info(FileId{1})->kind, CopyKind::kInserted);
}

TEST(FileStore, EraseReportsPresence) {
  FileStore store;
  store.put_replica(FileId{2});
  EXPECT_TRUE(store.erase(FileId{2}));
  EXPECT_FALSE(store.erase(FileId{2}));
  EXPECT_FALSE(store.has(FileId{2}));
}

TEST(FileStore, ApplyUpdateBumpsVersionOnlyIfPresent) {
  FileStore store;
  EXPECT_FALSE(store.apply_update(FileId{3}, 9));
  store.put_inserted(FileId{3}, 1);
  EXPECT_TRUE(store.apply_update(FileId{3}, 9));
  EXPECT_EQ(store.info(FileId{3})->version, 9u);
}

TEST(FileStore, ApplyUpdateNeverRollsBack) {
  FileStore store;
  store.put_inserted(FileId{3}, 1);
  EXPECT_TRUE(store.apply_update(FileId{3}, 5, {5}));
  // Out of order: the older update finds the copy but leaves it alone.
  EXPECT_TRUE(store.apply_update(FileId{3}, 4, {4}));
  EXPECT_EQ(store.info(FileId{3})->version, 5u);
  EXPECT_EQ(*store.payload(FileId{3}), std::vector<std::uint8_t>{5});
  // An equal version is idempotent.
  EXPECT_TRUE(store.apply_update(FileId{3}, 5, {5}));
  EXPECT_EQ(store.info(FileId{3})->version, 5u);
  EXPECT_EQ(*store.payload(FileId{3}), std::vector<std::uint8_t>{5});
}

TEST(FileStore, ReinsertOfOlderCopyKeepsNewerVersion) {
  FileStore store;
  store.put_replica(FileId{8}, 6, {6});
  store.put_inserted(FileId{8}, 2, {2});
  const CopyInfo info = store.info(FileId{8}).value();
  EXPECT_EQ(info.kind, CopyKind::kInserted);  // still promoted
  EXPECT_EQ(info.version, 6u);
  EXPECT_EQ(info.data, std::vector<std::uint8_t>{6});
  store.put_inserted(FileId{8}, 7, {7});
  EXPECT_EQ(store.info(FileId{8})->version, 7u);
}

TEST(FileStore, AccessCountingAndReset) {
  FileStore store;
  store.put_replica(FileId{4});
  store.record_access(FileId{4});
  store.record_access(FileId{4});
  store.record_access(FileId{99});  // absent: ignored
  EXPECT_EQ(store.info(FileId{4})->access_count, 2u);
  store.reset_access_counts();
  EXPECT_EQ(store.info(FileId{4})->access_count, 0u);
}

TEST(FileStore, PruneColdReplicasKeepsHotAndInserted) {
  FileStore store;
  store.put_inserted(FileId{1});   // never pruned
  store.put_replica(FileId{2});    // cold: 0 accesses
  store.put_replica(FileId{3});    // hot
  for (int i = 0; i < 5; ++i) store.record_access(FileId{3});
  const std::vector<FileId> pruned = store.prune_cold_replicas(3);
  EXPECT_EQ(pruned, std::vector<FileId>{FileId{2}});
  EXPECT_TRUE(store.has(FileId{1}));
  EXPECT_FALSE(store.has(FileId{2}));
  EXPECT_TRUE(store.has(FileId{3}));
}

TEST(FileStore, PruneThresholdIsStrict) {
  FileStore store;
  store.put_replica(FileId{5});
  store.record_access(FileId{5});
  // access_count == threshold survives (strictly-below rule).
  EXPECT_TRUE(store.prune_cold_replicas(1).empty());
  EXPECT_FALSE(store.prune_cold_replicas(2).empty());
}

TEST(FileStore, CategorizedListings) {
  FileStore store;
  store.put_inserted(FileId{1});
  store.put_inserted(FileId{2});
  store.put_replica(FileId{3});
  std::vector<FileId> ins = store.inserted_files();
  std::vector<FileId> rep = store.replica_files();
  std::sort(ins.begin(), ins.end());
  EXPECT_EQ(ins, (std::vector<FileId>{FileId{1}, FileId{2}}));
  EXPECT_EQ(rep, std::vector<FileId>{FileId{3}});
  EXPECT_EQ(store.size(), 3u);
}

TEST(FileId, OrderingAndHash) {
  EXPECT_LT(FileId{1}, FileId{2});
  EXPECT_EQ(FileId{5}, FileId{5});
  EXPECT_EQ(std::hash<FileId>{}(FileId{5}), std::hash<FileId>{}(FileId{5}));
}

TEST(FileStore, EnumerationFollowsSlabOrder) {
  // Slot order: insertion order, with erased slots reused LIFO. This is
  // the deterministic enumeration contract the shed/leave protocols see.
  FileStore store;
  store.put_inserted(FileId{10});  // slot 0
  store.put_replica(FileId{20});   // slot 1
  store.put_inserted(FileId{30});  // slot 2
  store.put_replica(FileId{40});   // slot 3
  EXPECT_EQ(store.inserted_files(),
            (std::vector<FileId>{FileId{10}, FileId{30}}));
  EXPECT_EQ(store.replica_files(),
            (std::vector<FileId>{FileId{20}, FileId{40}}));
  store.erase(FileId{20});         // frees slot 1
  store.put_replica(FileId{50});   // reuses slot 1
  EXPECT_EQ(store.replica_files(),
            (std::vector<FileId>{FileId{50}, FileId{40}}));
}

TEST(FileStore, CopyIsIndependentAndEqualShaped) {
  FileStore a;
  for (std::uint64_t k = 0; k < 100; ++k) {
    a.put_replica(FileId{k}, k, std::vector<std::uint8_t>(8, 0xAB));
  }
  a.erase(FileId{7});
  FileStore b = a;
  EXPECT_EQ(b.size(), a.size());
  EXPECT_EQ(b.replica_files(), a.replica_files());
  b.erase(FileId{3});
  EXPECT_TRUE(a.has(FileId{3}));
  EXPECT_FALSE(b.has(FileId{3}));
  EXPECT_EQ(*a.payload(FileId{4}), std::vector<std::uint8_t>(8, 0xAB));
}

TEST(FileStore, ChurnedStoreStaysConsistent) {
  // Interleave puts and erases so freelist reuse and index backward-shift
  // deletion both run, then cross-check against a reference map shape.
  FileStore store;
  std::vector<std::uint64_t> present;
  std::uint64_t next = 1;
  for (int round = 0; round < 50; ++round) {
    for (int i = 0; i < 7; ++i) {
      store.put_replica(FileId{next}, next);
      present.push_back(next);
      ++next;
    }
    for (int i = 0; i < 3; ++i) {
      const std::uint64_t victim = present[present.size() / 2];
      EXPECT_TRUE(store.erase(FileId{victim}));
      present.erase(present.begin() +
                    static_cast<std::ptrdiff_t>(present.size() / 2));
    }
  }
  EXPECT_EQ(store.size(), present.size());
  for (std::uint64_t k : present) {
    ASSERT_TRUE(store.has(FileId{k})) << k;
    EXPECT_EQ(store.info(FileId{k})->version, k);
  }
  EXPECT_FALSE(store.has(FileId{next}));
}

TEST(FileStore, ProbeHashResistsStridedKeyClustering) {
  // FileIds are minted PID-striped (pid << 32 | seq), so unmixed keys all
  // share their low bits and an identity probe hash would collapse them
  // onto a handful of home slots, degrading lookups to linear scans. The
  // SplitMix64 probe hash must keep the worst probe chain short at the
  // 50% load ceiling.
  for (const std::uint64_t stride :
       {std::uint64_t{1} << 32, std::uint64_t{1} << 20, std::uint64_t{4096}}) {
    FileStore store;
    for (std::uint64_t i = 0; i < 2048; ++i) {
      store.put_replica(FileId{i * stride});
    }
    EXPECT_LE(store.worst_probe_length(), 24u) << "stride=" << stride;
  }
}

}  // namespace
}  // namespace lesslog::core
