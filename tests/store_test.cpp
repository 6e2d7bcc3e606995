// Unit tests for the object store: versioning, shadow objects, webhooks,
// latency accounting.
#include <gtest/gtest.h>

#include <functional>
#include <string>
#include <vector>

#include "src/sim/event_loop.h"
#include "src/store/object_store.h"

namespace ofc::store {
namespace {

class StoreTest : public ::testing::Test {
 protected:
  StoreTest()
      : store_(&loop_, sim::LatencyModel{Millis(10), 100e6, 0.0}, Rng(1), "test",
               sim::LatencyModel{Millis(2), 0.0, 0.0}) {}

  sim::EventLoop loop_;
  ObjectStore store_;
};

TEST_F(StoreTest, PutThenGet) {
  Status put_status = InternalError("unset");
  store_.Put("c/a", KiB(100), {.kind = MediaKind::kImage}, [&](Status s) { put_status = s; });
  loop_.Run();
  EXPECT_TRUE(put_status.ok());

  Result<ObjectMetadata> meta = NotFoundError("unset");
  store_.Get("c/a", [&](Result<ObjectMetadata> m) { meta = std::move(m); });
  loop_.Run();
  ASSERT_TRUE(meta.ok());
  EXPECT_EQ(meta->size, KiB(100));
  const auto tags = store_.TagsOf("c/a");
  ASSERT_TRUE(tags.ok());
  EXPECT_EQ(tags->kind, MediaKind::kImage);
  EXPECT_FALSE(meta->IsShadow());
}

TEST_F(StoreTest, GetMissingReturnsNotFound) {
  Result<ObjectMetadata> meta = OkStatus().ok() ? Result<ObjectMetadata>(InternalError("u"))
                                                : Result<ObjectMetadata>(InternalError("u"));
  store_.Get("c/missing", [&](Result<ObjectMetadata> m) { meta = std::move(m); });
  loop_.Run();
  EXPECT_FALSE(meta.ok());
  EXPECT_EQ(meta.status().code(), StatusCode::kNotFound);
}

TEST_F(StoreTest, PutLatencyScalesWithSize) {
  SimTime small_done = 0;
  store_.Put("c/small", KiB(1), {}, [&](Status) { small_done = loop_.now(); });
  loop_.Run();
  sim::EventLoop loop2;
  ObjectStore store2(&loop2, sim::LatencyModel{Millis(10), 100e6, 0.0}, Rng(1), "t2");
  SimTime big_done = 0;
  store2.Put("c/big", MiB(50), {}, [&](Status) { big_done = loop2.now(); });
  loop2.Run();
  EXPECT_GT(big_done, small_done);
  // 50 MiB at 100 MB/s is ~524 ms of transfer plus 10 ms base.
  EXPECT_NEAR(static_cast<double>(big_done), 10'000 + 524'288, 2000);
}

TEST_F(StoreTest, ShadowLifecycle) {
  // Shadow write creates a placeholder version; FinalizePayload installs it.
  Result<ObjectMetadata> shadow = InternalError("unset");
  store_.PutShadow("c/obj", MiB(1), [&](Result<ObjectMetadata> m) { shadow = std::move(m); });
  loop_.Run();
  ASSERT_TRUE(shadow.ok());
  EXPECT_TRUE(shadow->IsShadow());
  EXPECT_EQ(shadow->pending_size, MiB(1));
  EXPECT_EQ(shadow->size, 0);

  Status fin = InternalError("unset");
  store_.FinalizePayload("c/obj", shadow->latest_version, MiB(1),
                         PayloadFingerprint("c/obj", MiB(1)), [&](Status s) { fin = s; });
  loop_.Run();
  EXPECT_TRUE(fin.ok());
  const auto meta = store_.Stat("c/obj");
  ASSERT_TRUE(meta.ok());
  EXPECT_FALSE(meta->IsShadow());
  EXPECT_EQ(meta->size, MiB(1));
}

TEST_F(StoreTest, FinalizeOutOfOrderAborts) {
  Result<ObjectMetadata> v1 = InternalError("unset");
  Result<ObjectMetadata> v2 = InternalError("unset");
  store_.PutShadow("c/obj", KiB(10), [&](Result<ObjectMetadata> m) { v1 = std::move(m); });
  loop_.Run();
  store_.PutShadow("c/obj", KiB(20), [&](Result<ObjectMetadata> m) { v2 = std::move(m); });
  loop_.Run();
  ASSERT_TRUE(v1.ok());
  ASSERT_TRUE(v2.ok());
  ASSERT_GT(v2->latest_version, v1->latest_version);

  // Newer version lands first...
  Status fin2 = InternalError("unset");
  store_.FinalizePayload("c/obj", v2->latest_version, KiB(20),
                         PayloadFingerprint("c/obj", KiB(20)), [&](Status s) { fin2 = s; });
  loop_.Run();
  EXPECT_TRUE(fin2.ok());
  // ...so the stale push must be rejected to preserve propagation order.
  Status fin1 = OkStatus();
  store_.FinalizePayload("c/obj", v1->latest_version, KiB(10),
                         PayloadFingerprint("c/obj", KiB(10)), [&](Status s) { fin1 = s; });
  loop_.Run();
  EXPECT_EQ(fin1.code(), StatusCode::kAborted);
  EXPECT_EQ(store_.Stat("c/obj")->size, KiB(20));
}

TEST_F(StoreTest, FinalizeUnknownKeyNotFound) {
  Status fin = OkStatus();
  store_.FinalizePayload("c/nothing", 1, KiB(1), PayloadFingerprint("c/nothing", KiB(1)),
                         [&](Status s) { fin = s; });
  loop_.Run();
  EXPECT_EQ(fin.code(), StatusCode::kNotFound);
}

TEST_F(StoreTest, DeleteRemovesObject) {
  store_.Seed("c/x", KiB(5), {});
  Status del = InternalError("unset");
  store_.Delete("c/x", [&](Status s) { del = s; });
  loop_.Run();
  EXPECT_TRUE(del.ok());
  EXPECT_FALSE(store_.Exists("c/x"));
}

TEST_F(StoreTest, ReadWebhookBlocksExternalRead) {
  store_.Seed("c/a", KiB(1), {});
  bool webhook_ran = false;
  ObjectStore::Resume saved_resume;
  store_.set_read_webhook([&](const std::string& key, ObjectStore::Resume resume) {
    EXPECT_EQ(key, "c/a");
    webhook_ran = true;
    saved_resume = std::move(resume);  // Hold the read until we allow it.
  });
  bool read_done = false;
  store_.ExternalRead("c/a", [&](Result<ObjectMetadata>) { read_done = true; });
  loop_.Run();
  EXPECT_TRUE(webhook_ran);
  EXPECT_FALSE(read_done);  // Still blocked on the webhook.
  saved_resume();
  loop_.Run();
  EXPECT_TRUE(read_done);
}

TEST_F(StoreTest, WriteWebhookRunsBeforeExternalWrite) {
  int order = 0;
  int webhook_at = 0;
  store_.set_write_webhook([&](const std::string&, ObjectStore::Resume resume) {
    webhook_at = ++order;
    resume();
  });
  store_.ExternalWrite("c/b", KiB(2), [&](Status) { ++order; });
  loop_.Run();
  EXPECT_EQ(webhook_at, 1);
  EXPECT_EQ(order, 2);
  EXPECT_TRUE(store_.Exists("c/b"));
}

TEST_F(StoreTest, StatsTrackOperations) {
  store_.Put("c/1", KiB(4), {}, [](Status) {});
  loop_.Run();
  store_.Get("c/1", [](Result<ObjectMetadata>) {});
  loop_.Run();
  EXPECT_EQ(store_.metrics().CounterTotal("ofc.store.writes"), 1u);
  EXPECT_EQ(store_.metrics().CounterTotal("ofc.store.reads"), 1u);
  const auto bytes = static_cast<std::uint64_t>(KiB(4));
  EXPECT_EQ(store_.metrics().CounterTotal("ofc.store.bytes_written"), bytes);
  EXPECT_EQ(store_.metrics().CounterTotal("ofc.store.bytes_read"), bytes);
}

TEST_F(StoreTest, SeedBypassesLatency) {
  store_.Seed("c/seeded", MiB(3), {.kind = MediaKind::kVideo});
  EXPECT_TRUE(store_.Exists("c/seeded"));
  EXPECT_EQ(store_.TotalBytes(), MiB(3));
  EXPECT_EQ(store_.NumObjects(), 1u);
}

TEST_F(StoreTest, FullWritesReplaceTagsAndPayloadPushesKeepThem) {
  const Tags image{.kind = MediaKind::kImage, .format = 1, .width = 1920, .height = 1080};
  const Tags audio{.kind = MediaKind::kAudio, .format = 3, .channels = 2, .duration_s = 183.25};
  const Tags video{
      .kind = MediaKind::kVideo, .format = 2, .width = 1280, .height = 720, .duration_s = 42.5};

  store_.Seed("c/seed", KiB(1), image);
  EXPECT_EQ(*store_.TagsOf("c/seed"), image);
  store_.Put("c/obj", KiB(4), audio, [](Status) {});
  loop_.Run();
  EXPECT_EQ(*store_.TagsOf("c/obj"), audio);

  // A shadow write and the persistor's payload push leave the tags alone; a
  // key that only has a shadow has none.
  Result<ObjectMetadata> shadow = InternalError("unset");
  store_.PutShadow("c/obj", KiB(8), [&](Result<ObjectMetadata> m) { shadow = std::move(m); });
  store_.PutShadow("c/new", KiB(8), [](Result<ObjectMetadata>) {});
  loop_.Run();
  ASSERT_TRUE(shadow.ok());
  EXPECT_EQ(*store_.TagsOf("c/obj"), audio);
  EXPECT_EQ(*store_.TagsOf("c/new"), Tags{});
  Status finalized = InternalError("unset");
  store_.FinalizePayload("c/obj", shadow->latest_version, KiB(8),
                         PayloadFingerprint("c/obj", KiB(8)), [&](Status s) { finalized = s; });
  loop_.Run();
  ASSERT_TRUE(finalized.ok());
  EXPECT_EQ(*store_.TagsOf("c/obj"), audio);

  // A conditional write replaces them when it lands, and leaves them when it
  // is refused.
  const ObjectVersion v1 = shadow->latest_version;
  Status landed = InternalError("unset");
  store_.PutIfVersion("c/obj", v1, KiB(8), video, PayloadFingerprint("c/obj", KiB(8)),
                      [&](Status s) { landed = s; });
  loop_.Run();
  ASSERT_TRUE(landed.ok());
  EXPECT_EQ(*store_.TagsOf("c/obj"), video);
  Status refused = InternalError("unset");
  store_.PutIfVersion("c/obj", v1, KiB(8), image, PayloadFingerprint("c/obj", KiB(8)),
                      [&](Status s) { refused = s; });
  loop_.Run();
  EXPECT_EQ(refused.code(), StatusCode::kAborted);
  EXPECT_EQ(*store_.TagsOf("c/obj"), video);

  // The proxy's fallback persistor (a fingerprinted PutIfVersion) and its
  // write-back (a Put) push no tags, so they leave none.
  const ObjectVersion v2 = store_.Stat("c/obj")->latest_version;
  store_.PutIfVersion("c/obj", v2, KiB(8), {}, PayloadFingerprint("c/obj", KiB(8)),
                      [&](Status s) { landed = s; });
  loop_.Run();
  ASSERT_TRUE(landed.ok());
  EXPECT_EQ(*store_.TagsOf("c/obj"), Tags{});
  store_.Put("c/seed", KiB(1), {}, [](Status) {});
  loop_.Run();
  EXPECT_EQ(*store_.TagsOf("c/seed"), Tags{});

  EXPECT_EQ(store_.TagsOf("c/missing").status().code(), StatusCode::kNotFound);
}

TEST_F(StoreTest, PutReplacesAndBumpsVersion) {
  store_.Put("c/v", KiB(1), {}, [](Status) {});
  loop_.Run();
  const auto v1 = store_.Stat("c/v")->latest_version;
  store_.Put("c/v", KiB(2), {}, [](Status) {});
  loop_.Run();
  const auto meta = store_.Stat("c/v");
  EXPECT_GT(meta->latest_version, v1);
  EXPECT_EQ(meta->size, KiB(2));
}

// ---- Data integrity --------------------------------------------------------

TEST_F(StoreTest, PutAndSeedStampVerifiableChecksums) {
  store_.Put("c/put", KiB(64), {}, [](Status) {});
  loop_.Run();
  store_.Seed("c/seed", MiB(1), {});
  for (const char* key : {"c/put", "c/seed"}) {
    const auto meta = store_.Stat(key);
    ASSERT_TRUE(meta.ok()) << key;
    EXPECT_EQ(meta->checksum, ExpectedChecksum(key, meta->size, meta->rsds_version))
        << key;
  }
}

TEST_F(StoreTest, RotFlipsOnlyHealthyObjects) {
  store_.Seed("c/a", KiB(1), {});
  store_.Seed("c/b", KiB(1), {});
  EXPECT_EQ(store_.Rot(10), 2);
  EXPECT_EQ(store_.Rot(10), 0);  // Nothing healthy left to damage.
  const auto meta = store_.Stat("c/a");
  ASSERT_TRUE(meta.ok());
  EXPECT_NE(meta->checksum, ExpectedChecksum("c/a", meta->size, meta->rsds_version));
}

TEST_F(StoreTest, GetSelfRepairsRottedObjectWithExtraLatency) {
  store_.Seed("c/a", MiB(4), {});
  ASSERT_EQ(store_.Rot(1), 1);

  Result<ObjectMetadata> rotted = InternalError("unset");
  SimTime rotted_done = 0;
  store_.Get("c/a", [&](Result<ObjectMetadata> m) {
    rotted = std::move(m);
    rotted_done = loop_.now();
  });
  loop_.Run();
  const SimTime rotted_cost = rotted_done;
  ASSERT_TRUE(rotted.ok());
  // The caller never sees the corrupt copy: the returned metadata verifies.
  EXPECT_EQ(rotted->checksum, ExpectedChecksum("c/a", rotted->size, rotted->rsds_version));
  EXPECT_EQ(store_.metrics().CounterTotal("ofc.integrity.store_checksum_failures"), 1u);
  EXPECT_EQ(store_.metrics().CounterTotal("ofc.integrity.store_repairs"), 1u);

  // A healthy read of the (now repaired) object is strictly cheaper than the
  // detect-and-repair read, which pays one extra payload read.
  const SimTime clean_start = loop_.now();
  SimTime clean_done = 0;
  store_.Get("c/a", [&](Result<ObjectMetadata>) { clean_done = loop_.now(); });
  loop_.Run();
  EXPECT_LT(clean_done - clean_start, rotted_cost);
  // No new failures.
  EXPECT_EQ(store_.metrics().CounterTotal("ofc.integrity.store_checksum_failures"), 1u);
}

TEST_F(StoreTest, ScrubKeyRepairsOnceAndIgnoresUnknownKeys) {
  store_.Seed("c/a", KiB(8), {});
  ASSERT_EQ(store_.Rot(1), 1);
  EXPECT_EQ(store_.ScrubKey("c/a"), 1);
  EXPECT_EQ(store_.ScrubKey("c/a"), 0);
  EXPECT_EQ(store_.ScrubKey("c/missing"), 0);
  const auto meta = store_.Stat("c/a");
  ASSERT_TRUE(meta.ok());
  EXPECT_EQ(meta->checksum, ExpectedChecksum("c/a", meta->size, meta->rsds_version));
  EXPECT_EQ(store_.metrics().CounterTotal("ofc.integrity.store_repairs"), 1u);
}

TEST_F(StoreTest, KeysAfterWalksCursorInKeyOrder) {
  for (const char* key : {"c/b", "c/d", "c/a", "c/c"}) {
    store_.Seed(key, KiB(1), {});
  }
  const auto first = store_.KeysAfter("", 2);
  ASSERT_EQ(first.size(), 2u);
  EXPECT_EQ(first[0], "c/a");
  EXPECT_EQ(first[1], "c/b");
  const auto rest = store_.KeysAfter(first.back(), 10);
  ASSERT_EQ(rest.size(), 2u);
  EXPECT_EQ(rest[0], "c/c");
  EXPECT_EQ(rest[1], "c/d");
  EXPECT_TRUE(store_.KeysAfter("c/d", 10).empty());
  EXPECT_TRUE(store_.KeysAfter("", 0).empty());
}

TEST_F(StoreTest, PutIfVersionRejectsCorruptFingerprint) {
  store_.Put("c/a", KiB(4), {}, [](Status) {});
  loop_.Run();
  const ObjectVersion v1 = store_.Stat("c/a")->latest_version;

  // A damaged payload is refused at the landing, before the CAS check.
  Status bad = InternalError("unset");
  store_.PutIfVersion("c/a", v1, KiB(8), {},
                      CorruptChecksum(PayloadFingerprint("c/a", KiB(8))),
                      [&](Status s) { bad = s; });
  loop_.Run();
  EXPECT_EQ(bad.code(), StatusCode::kDataLoss);
  EXPECT_EQ(store_.Stat("c/a")->latest_version, v1);
  EXPECT_EQ(store_.metrics().CounterTotal("ofc.integrity.store_checksum_failures"), 1u);

  // The healthy retry lands and stamps a verifiable checksum.
  Status good = InternalError("unset");
  store_.PutIfVersion("c/a", v1, KiB(8), {}, PayloadFingerprint("c/a", KiB(8)),
                      [&](Status s) { good = s; });
  loop_.Run();
  EXPECT_TRUE(good.ok());
  const auto meta = store_.Stat("c/a");
  EXPECT_EQ(meta->size, KiB(8));
  EXPECT_EQ(meta->checksum, ExpectedChecksum("c/a", meta->size, meta->rsds_version));
}

TEST_F(StoreTest, FinalizePayloadRejectsCorruptFingerprint) {
  Result<ObjectMetadata> shadow = InternalError("unset");
  store_.PutShadow("c/obj", MiB(1), [&](Result<ObjectMetadata> m) { shadow = std::move(m); });
  loop_.Run();
  ASSERT_TRUE(shadow.ok());

  Status bad = InternalError("unset");
  store_.FinalizePayload("c/obj", shadow->latest_version, MiB(1),
                         CorruptChecksum(PayloadFingerprint("c/obj", MiB(1))),
                         [&](Status s) { bad = s; });
  loop_.Run();
  EXPECT_EQ(bad.code(), StatusCode::kDataLoss);
  EXPECT_TRUE(store_.Stat("c/obj")->IsShadow());  // Placeholder untouched.

  Status good = InternalError("unset");
  store_.FinalizePayload("c/obj", shadow->latest_version, MiB(1),
                         PayloadFingerprint("c/obj", MiB(1)), [&](Status s) { good = s; });
  loop_.Run();
  EXPECT_TRUE(good.ok());
  const auto meta = store_.Stat("c/obj");
  EXPECT_FALSE(meta->IsShadow());
  EXPECT_EQ(meta->checksum, ExpectedChecksum("c/obj", meta->size, meta->rsds_version));
}

TEST_F(StoreTest, CompletionThatStartsTheNextOperationReusesItsRecord) {
  store_.Seed("c/first", KiB(1), {});
  store_.Seed("c/third", KiB(3), {});
  // Each completion starts the next read, on keys of which every other one is
  // missing: every caller must see its own key's outcome.
  const std::vector<std::string> keys = {"c/first", "c/second", "c/third", "c/fourth"};
  std::vector<std::string> seen;
  std::function<void(std::size_t)> read_from = [&](std::size_t i) {
    store_.Get(keys[i], [&, i](Result<ObjectMetadata> meta) {
      seen.push_back(meta.ok() ? keys[i] + " " + std::to_string(meta->size)
                               : meta.status().message());
      if (i + 1 < keys.size()) {
        read_from(i + 1);
      }
    });
  };
  read_from(0);
  loop_.Run();
  EXPECT_EQ(seen, (std::vector<std::string>{"c/first 1024", "get: c/second", "c/third 3072",
                                            "get: c/fourth"}));
  // The record goes back to the pool before its completion runs, so the
  // next read took it over: one record served the whole chain.
  EXPECT_EQ(store_.op_records(), 1u);
}

}  // namespace
}  // namespace ofc::store
