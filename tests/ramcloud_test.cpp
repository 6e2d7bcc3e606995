// Unit tests for the RAMCloud-style cache cluster: placement, replication,
// access stats, vertical scaling, optimized migration, crash recovery.
#include <gtest/gtest.h>

#include <functional>
#include <string>
#include <vector>

#include "src/common/checksum.h"
#include "src/ramcloud/cluster.h"

namespace ofc::rc {
namespace {

ClusterOptions TestOptions() {
  ClusterOptions options;
  options.replication_factor = 2;
  options.default_capacity = MiB(256);
  return options;
}

class ClusterTest : public ::testing::Test {
 protected:
  ClusterTest() : cluster_(&loop_, 4, TestOptions(), Rng(7)) {}

  Status WriteSync(int client, const std::string& key, Bytes size,
                   ObjectClass cls = ObjectClass::kInput, bool dirty = false) {
    Status out = InternalError("unset");
    cluster_.Write(client, key, size, 1, cls, dirty, [&](Status s) { out = s; });
    loop_.Run();
    return out;
  }

  Result<ReadHit> ReadSync(int client, const std::string& key) {
    Result<ReadHit> out = InternalError("unset");
    cluster_.Read(client, key, [&](Result<ReadHit> r) { out = std::move(r); });
    loop_.Run();
    return out;
  }

  sim::EventLoop loop_;
  Cluster cluster_;
};

TEST_F(ClusterTest, WritePlacesMasterOnClientNode) {
  ASSERT_TRUE(WriteSync(2, "a", MiB(1)).ok());
  const auto master = cluster_.MasterOf("a");
  ASSERT_TRUE(master.has_value());
  EXPECT_EQ(*master, 2);
  EXPECT_EQ(cluster_.Used(2), MiB(1));
}

TEST_F(ClusterTest, WriteReplicatesToBackups) {
  ASSERT_TRUE(WriteSync(0, "a", MiB(2)).ok());
  const auto obj = cluster_.Inspect("a");
  ASSERT_TRUE(obj.ok());
  EXPECT_EQ(obj->backups.size(), 2u);
  for (const Replica& b : obj->backups) {
    EXPECT_NE(b.node, obj->master);
    EXPECT_EQ(cluster_.node_stats(b.node).disk_used, MiB(2));
  }
}

TEST_F(ClusterTest, RejectsOversizedObjects) {
  const Status status = WriteSync(0, "big", MiB(11));
  EXPECT_EQ(status.code(), StatusCode::kInvalidArgument);
  EXPECT_EQ(cluster_.metrics().CounterValue("ofc.ramcloud.write_rejects"), 1u);
}

TEST_F(ClusterTest, SpillsToOtherNodeWhenClientFull) {
  SimDuration d = 0;
  ASSERT_TRUE(cluster_.SetCapacity(1, MiB(1), &d).ok());
  ASSERT_TRUE(WriteSync(1, "a", MiB(5)).ok());
  const auto master = cluster_.MasterOf("a");
  ASSERT_TRUE(master.has_value());
  EXPECT_NE(*master, 1);
}

TEST_F(ClusterTest, RejectsWhenClusterFull) {
  for (int n = 0; n < 4; ++n) {
    ASSERT_TRUE(cluster_.SetCapacity(n, KiB(1)).ok());
  }
  const Status status = WriteSync(0, "a", MiB(1));
  EXPECT_EQ(status.code(), StatusCode::kResourceExhausted);
}

TEST_F(ClusterTest, ReadTracksAccessStats) {
  ASSERT_TRUE(WriteSync(0, "a", KiB(64)).ok());
  loop_.RunUntil(loop_.now() + Seconds(5));
  ASSERT_TRUE(ReadSync(0, "a").ok());
  ASSERT_TRUE(ReadSync(3, "a").ok());
  const auto obj = cluster_.Inspect("a");
  ASSERT_TRUE(obj.ok());
  EXPECT_EQ(obj->access_count, 2u);
  EXPECT_GE(obj->last_access, Seconds(5));  // Stamped when the read started.
  EXPECT_EQ(cluster_.metrics().CounterValue("ofc.ramcloud.read_hits_local"), 1u);
  EXPECT_EQ(cluster_.metrics().CounterValue("ofc.ramcloud.read_hits_remote"), 1u);
}

TEST_F(ClusterTest, LocalReadFasterThanRemote) {
  ASSERT_TRUE(WriteSync(0, "a", MiB(4)).ok());
  const SimTime t0 = loop_.now();
  ASSERT_TRUE(ReadSync(0, "a").ok());
  const SimDuration local = loop_.now() - t0;
  const SimTime t1 = loop_.now();
  ASSERT_TRUE(ReadSync(1, "a").ok());
  const SimDuration remote = loop_.now() - t1;
  EXPECT_LT(local, remote);
}

TEST_F(ClusterTest, MissReturnsNotFound) {
  const auto result = ReadSync(0, "nothing");
  EXPECT_EQ(result.status().code(), StatusCode::kNotFound);
  EXPECT_EQ(cluster_.metrics().CounterValue("ofc.ramcloud.read_misses"), 1u);
}

TEST_F(ClusterTest, UpdateReusesPlacement) {
  ASSERT_TRUE(WriteSync(2, "a", MiB(1)).ok());
  ASSERT_TRUE(WriteSync(0, "a", MiB(2)).ok());  // Update from another client.
  const auto obj = cluster_.Inspect("a");
  ASSERT_TRUE(obj.ok());
  EXPECT_EQ(obj->master, 2);  // Master unchanged.
  EXPECT_EQ(obj->size, MiB(2));
  EXPECT_EQ(cluster_.Used(2), MiB(2));
  EXPECT_EQ(cluster_.NumObjects(), 1u);
}

TEST_F(ClusterTest, RemoveReleasesMemoryAndDisk) {
  ASSERT_TRUE(WriteSync(0, "a", MiB(2)).ok());
  const auto obj = cluster_.Inspect("a");
  ASSERT_TRUE(cluster_.Remove("a").ok());
  EXPECT_EQ(cluster_.Used(0), 0);
  for (const Replica& b : obj->backups) {
    EXPECT_EQ(cluster_.node_stats(b.node).disk_used, 0);
  }
  EXPECT_FALSE(cluster_.Contains("a"));
  EXPECT_FALSE(cluster_.Remove("a").ok());
}

TEST_F(ClusterTest, SetCapacityBelowUsageFails) {
  ASSERT_TRUE(WriteSync(0, "a", MiB(5)).ok());
  const Status status = cluster_.SetCapacity(0, MiB(2));
  EXPECT_EQ(status.code(), StatusCode::kFailedPrecondition);
}

TEST_F(ClusterTest, MigrationPromotesBackupWithoutTransfer) {
  ASSERT_TRUE(WriteSync(0, "a", MiB(4)).ok());
  const auto before = cluster_.Inspect("a");
  ASSERT_TRUE(before.ok());
  const auto result = cluster_.MigrateMaster("a");
  ASSERT_TRUE(result.ok());
  EXPECT_EQ(result->old_master, 0);
  // The new master must be one of the previous backups.
  EXPECT_TRUE(std::ranges::find(before->backups, result->new_master, &Replica::node) !=
              before->backups.end());
  const auto after = cluster_.Inspect("a");
  ASSERT_TRUE(after.ok());
  EXPECT_EQ(after->master, result->new_master);
  // The old master keeps an on-disk copy: replication factor preserved.
  EXPECT_EQ(after->backups.size(), before->backups.size());
  EXPECT_TRUE(std::ranges::find(after->backups, 0, &Replica::node) != after->backups.end());
  EXPECT_EQ(cluster_.Used(0), 0);
  EXPECT_EQ(cluster_.Used(result->new_master), MiB(4));
  EXPECT_GT(result->duration, 0);
}

TEST_F(ClusterTest, MigrationDurationScalesWithSize) {
  ASSERT_TRUE(WriteSync(0, "small", MiB(1)).ok());
  ASSERT_TRUE(WriteSync(0, "large", MiB(8)).ok());
  const auto small = cluster_.MigrateMaster("small");
  const auto large = cluster_.MigrateMaster("large");
  ASSERT_TRUE(small.ok());
  ASSERT_TRUE(large.ok());
  EXPECT_LT(small->duration, large->duration);
  // §7.2.1 calibration: 8 MB migrates in roughly 0.18 ms.
  EXPECT_NEAR(static_cast<double>(large->duration), 180.0, 120.0);
}

TEST_F(ClusterTest, CrashRecoveryPromotesBackups) {
  ASSERT_TRUE(WriteSync(0, "a", MiB(2)).ok());
  ASSERT_TRUE(WriteSync(0, "b", MiB(3)).ok());
  const auto result = cluster_.CrashNode(0);
  EXPECT_EQ(result.objects_recovered, 2u);
  EXPECT_EQ(result.objects_lost, 0u);
  EXPECT_GT(result.duration, 0);
  for (const char* key : {"a", "b"}) {
    const auto obj = cluster_.Inspect(key);
    ASSERT_TRUE(obj.ok());
    EXPECT_NE(obj->master, 0);
    EXPECT_TRUE(cluster_.node_stats(obj->master).alive);
    // The promotion consumed one on-disk copy; the coordinator re-replicated
    // to restore the factor, on alive nodes distinct from the master.
    EXPECT_EQ(obj->backups.size(), 2u);
    for (const Replica& b : obj->backups) {
      EXPECT_NE(b.node, obj->master);
      EXPECT_NE(b.node, 0);
      EXPECT_TRUE(cluster_.node_stats(b.node).alive);
    }
  }
}

TEST_F(ClusterTest, CrashedBackupsAreReplaced) {
  ASSERT_TRUE(WriteSync(0, "a", MiB(2)).ok());
  const auto before = cluster_.Inspect("a");
  const int backup = before->backups.front().node;
  (void)cluster_.CrashNode(backup);
  const auto after = cluster_.Inspect("a");
  ASSERT_TRUE(after.ok());
  for (const Replica& b : after->backups) {
    EXPECT_NE(b.node, backup);
  }
  EXPECT_EQ(after->backups.size(), 2u);
}

TEST_F(ClusterTest, TotalUsedAndCapacityAggregate) {
  ASSERT_TRUE(WriteSync(0, "a", MiB(1)).ok());
  ASSERT_TRUE(WriteSync(1, "b", MiB(2)).ok());
  EXPECT_EQ(cluster_.TotalUsed(), MiB(3));
  EXPECT_EQ(cluster_.TotalCapacity(), 4 * MiB(256));
}

TEST_F(ClusterTest, KeysOnFiltersbyMaster) {
  ASSERT_TRUE(WriteSync(0, "a", MiB(1)).ok());
  ASSERT_TRUE(WriteSync(1, "b", MiB(1)).ok());
  ASSERT_TRUE(WriteSync(0, "c", MiB(1)).ok());
  EXPECT_EQ(cluster_.ObjectsOn(0).size(), 2u);
  EXPECT_EQ(cluster_.ObjectsOn(1).size(), 1u);
  EXPECT_EQ(cluster_.ObjectsOn(3).size(), 0u);
}

TEST_F(ClusterTest, LogFootprintTracksFragmentation) {
  // Live bytes and physical footprint diverge under churn; the cleaner inside
  // SetCapacity reconciles them.
  for (int i = 0; i < 8; ++i) {
    ASSERT_TRUE(WriteSync(0, "k" + std::to_string(i), MiB(3)).ok());
  }
  for (int i = 0; i < 8; i += 2) {
    ASSERT_TRUE(cluster_.Remove("k" + std::to_string(i)).ok());
  }
  EXPECT_EQ(cluster_.Used(0), MiB(12));  // 4 live objects.
  EXPECT_GT(cluster_.node_log(0).footprint(), cluster_.Used(0));
  // Shrinking to just above live size forces a cleaning pass.
  SimDuration duration = 0;
  ASSERT_TRUE(cluster_.SetCapacity(0, MiB(16), &duration).ok());
  EXPECT_LE(cluster_.node_log(0).footprint(), MiB(16));
  EXPECT_EQ(cluster_.Used(0), MiB(12));  // Live data intact.
  for (int i = 1; i < 8; i += 2) {
    EXPECT_TRUE(cluster_.Contains("k" + std::to_string(i)));
  }
}

TEST_F(ClusterTest, DirtyFlagAndMarkPersisted) {
  ASSERT_TRUE(WriteSync(0, "a", MiB(1), ObjectClass::kFinalOutput, /*dirty=*/true).ok());
  auto obj = cluster_.Inspect("a");
  ASSERT_TRUE(obj.ok());
  EXPECT_TRUE(obj->dirty);
  EXPECT_FALSE(obj->persisted);
  ASSERT_TRUE(cluster_.MarkPersisted("a").ok());
  obj = cluster_.Inspect("a");
  EXPECT_FALSE(obj->dirty);
  EXPECT_TRUE(obj->persisted);
}

// ---- Data integrity --------------------------------------------------------

TEST_F(ClusterTest, WriteStampsVerifiableChecksumOnEveryCopy) {
  ASSERT_TRUE(WriteSync(0, "a", MiB(2)).ok());
  const auto obj = cluster_.Inspect("a");
  ASSERT_TRUE(obj.ok());
  const Checksum expected = ExpectedChecksum("a", obj->size, obj->version);
  EXPECT_EQ(obj->checksum, expected);
  for (const Replica& backup : obj->backups) {
    EXPECT_EQ(backup.checksum, expected);
  }
}

TEST_F(ClusterTest, CorruptSegmentFlipsOnlyHealthyMasterCopies) {
  ASSERT_TRUE(WriteSync(0, "a", MiB(1)).ok());
  ASSERT_TRUE(WriteSync(0, "b", MiB(1)).ok());
  ASSERT_TRUE(WriteSync(1, "c", MiB(1)).ok());
  // Only the two objects mastered on node 0 are eligible, however many flips
  // were requested; a second storm finds nothing healthy left to damage.
  EXPECT_EQ(cluster_.CorruptSegment(0, 10), 2);
  EXPECT_EQ(cluster_.CorruptSegment(0, 10), 0);
  const auto obj = cluster_.Inspect("a");
  ASSERT_TRUE(obj.ok());
  EXPECT_NE(obj->checksum, ExpectedChecksum("a", obj->size, obj->version));
}

TEST_F(ClusterTest, SelfHealingReadRepairsCorruptMaster) {
  ASSERT_TRUE(WriteSync(0, "a", MiB(2)).ok());
  ASSERT_EQ(cluster_.CorruptSegment(0, 1), 1);
  const auto read = ReadSync(0, "a");
  ASSERT_TRUE(read.ok());
  EXPECT_EQ(read->size, MiB(2));
  // The served copy and the in-place repair both verify.
  const auto obj = cluster_.Inspect("a");
  ASSERT_TRUE(obj.ok());
  EXPECT_EQ(obj->checksum, ExpectedChecksum("a", obj->size, obj->version));
  EXPECT_EQ(cluster_.metrics().CounterValue("ofc.integrity.checksum_failures"), 1u);
  EXPECT_EQ(cluster_.metrics().CounterValue("ofc.integrity.repairs"), 1u);
  EXPECT_EQ(cluster_.metrics().CounterValue("ofc.integrity.read_data_loss"), 0u);
}

TEST_F(ClusterTest, ReadWithEveryCopyCorruptReportsDataLoss) {
  ASSERT_TRUE(WriteSync(0, "a", MiB(2)).ok());
  const auto before = cluster_.Inspect("a");
  ASSERT_TRUE(before.ok());
  ASSERT_EQ(cluster_.CorruptSegment(before->master, 1), 1);
  for (const Replica& backup : before->backups) {
    ASSERT_EQ(cluster_.CorruptReplica(backup.node, 1), 1);
  }
  const auto read = ReadSync(1, "a");
  ASSERT_FALSE(read.ok());
  EXPECT_EQ(read.status().code(), StatusCode::kDataLoss);
  // The unrecoverable entry is dropped so the next read misses to the RSDS.
  EXPECT_FALSE(cluster_.Contains("a"));
  EXPECT_EQ(cluster_.metrics().CounterValue("ofc.integrity.read_data_loss"), 1u);
}

TEST_F(ClusterTest, ScrubObjectRepairsDivergentBackup) {
  ASSERT_TRUE(WriteSync(0, "a", MiB(2)).ok());
  const auto before = cluster_.Inspect("a");
  ASSERT_TRUE(before.ok());
  const int sick = before->backups.front().node;
  ASSERT_EQ(cluster_.CorruptReplica(sick, 1), 1);

  const auto result = cluster_.ScrubObject("a");
  EXPECT_EQ(result.corrupt_copies, 1);
  ASSERT_EQ(result.corrupt_nodes.size(), 1u);
  EXPECT_EQ(result.corrupt_nodes.front(), sick);

  // Second pass is clean, and unknown keys are an empty no-op.
  EXPECT_EQ(cluster_.ScrubObject("a").corrupt_copies, 0);
  EXPECT_EQ(cluster_.ScrubObject("missing").corrupt_copies, 0);
  EXPECT_EQ(cluster_.metrics().CounterValue("ofc.integrity.repairs"), 1u);
}

// Pins every master and backup choice on a cluster whose nodes tie in free
// memory and in backup disk use, so ties are broken by std::sort's order over
// the candidate sequence: spills off a full client node, updates that keep
// their master, and the re-replication after a crash.
TEST_F(ClusterTest, PlacementBreaksTiesInCandidateOrder) {
  Cluster cluster(&loop_, 6, TestOptions(), Rng(7));
  ASSERT_TRUE(cluster.SetCapacity(0, KiB(1)).ok());  // Node 0 can master nothing.
  auto write = [&](int client, const std::string& key, Bytes size) {
    Status out = InternalError("unset");
    cluster.Write(client, key, size, 1, ObjectClass::kInput, false,
                  [&](Status s) { out = s; });
    loop_.Run();
    return out;
  };
  auto placements = [&] {
    std::string out;
    for (const std::string& key : cluster.KeysAfter("", 100)) {
      const auto obj = cluster.Inspect(key);
      out += key + ":" + std::to_string(obj->master) + "[";
      for (std::size_t i = 0; i < obj->backups.size(); ++i) {
        out += (i == 0 ? "" : ",") + std::to_string(obj->backups[i].node);
      }
      out += "] ";
    }
    return out;
  };
  for (int i = 0; i < 8; ++i) {
    ASSERT_TRUE(write(0, "s" + std::to_string(i), MiB(3)).ok());  // Spill.
  }
  ASSERT_TRUE(write(3, "t0", MiB(2)).ok());
  ASSERT_TRUE(write(5, "t1", MiB(2)).ok());
  ASSERT_TRUE(write(0, "s2", MiB(1)).ok());  // Update keeps its master.
  ASSERT_TRUE(write(2, "t2", MiB(2)).ok());
  EXPECT_EQ(placements(),
            "s0:1[0,2] s1:2[1,3] s2:3[5,4] s3:4[0,1] s4:5[2,3] s5:1[4,5] s6:1[0,2] s7:2[1,3] "
            "t0:3[4,5] t1:5[4,0] t2:2[5,4] ");
  (void)cluster.CrashNode(2);
  EXPECT_EQ(placements(),
            "s0:1[0,5] s1:3[1,4] s2:3[5,4] s3:4[0,1] s4:5[3,1] s5:1[4,5] s6:1[0,3] s7:1[3,0] "
            "t0:3[4,5] t1:5[4,0] t2:5[4,1] ");
}

TEST_F(ClusterTest, KeysAfterWalksCursorInKeyOrder) {
  for (const char* key : {"b", "d", "a", "c"}) {
    ASSERT_TRUE(WriteSync(0, key, MiB(1)).ok());
  }
  const auto first = cluster_.KeysAfter("", 2);
  ASSERT_EQ(first.size(), 2u);
  EXPECT_EQ(first[0], "a");
  EXPECT_EQ(first[1], "b");
  const auto rest = cluster_.KeysAfter(first.back(), 10);
  ASSERT_EQ(rest.size(), 2u);
  EXPECT_EQ(rest[0], "c");
  EXPECT_EQ(rest[1], "d");
  EXPECT_TRUE(cluster_.KeysAfter("d", 10).empty());
}

TEST_F(ClusterTest, QuarantineNodeDrainsWithoutDataLoss) {
  ASSERT_TRUE(WriteSync(1, "a", MiB(2)).ok());
  ASSERT_TRUE(WriteSync(1, "b", MiB(2)).ok());
  ASSERT_TRUE(WriteSync(0, "c", MiB(2)).ok());
  // Even with every master copy on the sick node corrupt, the drain restores
  // verified copies elsewhere — quarantine never loses data by itself.
  ASSERT_EQ(cluster_.CorruptSegment(1, 10), 2);

  const auto result = cluster_.QuarantineNode(1);
  EXPECT_EQ(result.objects_lost, 0u);
  EXPECT_FALSE(cluster_.Alive(1));
  EXPECT_EQ(cluster_.metrics().CounterValue("ofc.ramcloud.nodes_quarantined"), 1u);
  for (const char* key : {"a", "b", "c"}) {
    const auto obj = cluster_.Inspect(key);
    ASSERT_TRUE(obj.ok()) << key;
    EXPECT_NE(obj->master, 1);
    const Checksum expected = ExpectedChecksum(key, obj->size, obj->version);
    EXPECT_EQ(obj->checksum, expected) << key;
    for (const Replica& backup : obj->backups) {
      EXPECT_NE(backup.node, 1) << key;
      EXPECT_EQ(backup.checksum, expected) << key;
    }
  }
  // The drained node rejoins empty, like a restarted one.
  cluster_.RestartNode(1);
  EXPECT_TRUE(cluster_.Alive(1));
}

TEST_F(ClusterTest, QuarantineRefusesDeadAndLastAliveNodes) {
  ASSERT_TRUE(WriteSync(0, "a", MiB(1)).ok());
  (void)cluster_.CrashNode(3);
  EXPECT_EQ(cluster_.QuarantineNode(3).objects_recovered, 0u);  // Already down.
  (void)cluster_.CrashNode(2);
  (void)cluster_.CrashNode(1);
  ASSERT_EQ(cluster_.AliveNodes(), 1);
  const auto last = cluster_.QuarantineNode(0);
  EXPECT_EQ(last.objects_lost, 0u);
  EXPECT_TRUE(cluster_.Alive(0));  // Last alive node is never drained.
  EXPECT_EQ(cluster_.metrics().CounterValue("ofc.ramcloud.nodes_quarantined"), 0u);
}

TEST_F(ClusterTest, CrashRecoveryPrefersHealthyReplicaOverCorruptOne) {
  ASSERT_TRUE(WriteSync(0, "a", MiB(2)).ok());
  const auto before = cluster_.Inspect("a");
  ASSERT_TRUE(before.ok());
  // One backup copy is rotten when the master dies; recovery must promote a
  // verified copy — never the corrupt bits — into the new master.
  ASSERT_EQ(cluster_.CorruptReplica(before->backups.front().node, 1), 1);
  const auto result = cluster_.CrashNode(before->master);
  EXPECT_EQ(result.objects_recovered, 1u);
  EXPECT_EQ(result.objects_lost, 0u);

  const auto after = cluster_.Inspect("a");
  ASSERT_TRUE(after.ok());
  const Checksum expected = ExpectedChecksum("a", after->size, after->version);
  EXPECT_EQ(after->checksum, expected);
  // A corrupt copy may survive as a backup — recovery only verifies what it
  // loads; divergent replicas are the scrubber's to mop up.
  (void)cluster_.ScrubObject("a");
  const auto scrubbed = cluster_.Inspect("a");
  ASSERT_TRUE(scrubbed.ok());
  EXPECT_EQ(scrubbed->checksum, expected);
  for (const Replica& backup : scrubbed->backups) {
    EXPECT_EQ(backup.checksum, expected);
  }
}

TEST_F(ClusterTest, ChecksumsSurviveMigrationAndRestart) {
  ASSERT_TRUE(WriteSync(0, "a", MiB(4)).ok());
  ASSERT_TRUE(cluster_.MigrateMaster("a").ok());
  (void)cluster_.CrashNode(0);
  cluster_.RestartNode(0);
  const auto obj = cluster_.Inspect("a");
  ASSERT_TRUE(obj.ok());
  const Checksum expected = ExpectedChecksum("a", obj->size, obj->version);
  EXPECT_EQ(obj->checksum, expected);
  for (const Replica& backup : obj->backups) {
    EXPECT_EQ(backup.checksum, expected);
  }
}

TEST_F(ClusterTest, CompletionThatStartsTheNextReadReusesItsRecord) {
  ASSERT_TRUE(WriteSync(0, "first", KiB(1)).ok());
  ASSERT_TRUE(WriteSync(0, "third", KiB(3)).ok());
  const std::size_t records = cluster_.completion_records();
  // Each completion starts the next read, on keys of which every other one is
  // missing: every caller must see its own key's outcome.
  const std::vector<std::string> keys = {"first", "second", "third", "fourth"};
  std::vector<std::string> seen;
  std::function<void(std::size_t)> read_from = [&](std::size_t i) {
    cluster_.Read(0, keys[i], [&, i](Result<ReadHit> hit) {
      seen.push_back(hit.ok() ? keys[i] + " " + std::to_string(hit->size)
                              : hit.status().message());
      if (i + 1 < keys.size()) {
        read_from(i + 1);
      }
    });
  };
  read_from(0);
  loop_.Run();
  EXPECT_EQ(seen, (std::vector<std::string>{"first 1024", "cache miss: second", "third 3072",
                                            "cache miss: fourth"}));
  // The record goes back to the pool before its completion runs, so the
  // next read took it over: one read record served the whole chain.
  EXPECT_EQ(cluster_.completion_records(), records + 1);
}

}  // namespace
}  // namespace ofc::rc
