// Heap-allocation budgets of the data path, pinned per operation.
//
// Every invocation crosses the RSDS, the cache cluster, the proxy and the
// platform, and the simulator replays million-invocation traces, so what one
// operation allocates bounds how fast every figure can be reproduced. This
// binary replaces the global operator new/delete family with counting
// versions. Each test warms its component up with the same operations it then
// counts, runs 1,000 operations on distinct 26-character keys one at a time to
// completion, and checks the exact number of allocations they made.
//
// Sanitizer builds bring their own allocator and skip.
#include <gtest/gtest.h>

#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <functional>
#include <new>
#include <string>
#include <vector>

#include "src/common/checksum.h"
#include "src/core/proxy.h"
#include "src/faas/direct_data_service.h"
#include "src/faas/platform.h"
#include "src/ramcloud/cluster.h"
#include "src/sim/event_loop.h"
#include "src/store/object_store.h"

#if defined(__SANITIZE_ADDRESS__) || defined(__SANITIZE_THREAD__)
#define OFC_ALLOC_BUDGET_SANITIZED 1
#elif defined(__has_feature)
#if __has_feature(address_sanitizer) || __has_feature(thread_sanitizer)
#define OFC_ALLOC_BUDGET_SANITIZED 1
#endif
#endif

namespace {

std::uint64_t g_allocations = 0;

#ifndef OFC_ALLOC_BUDGET_SANITIZED
void* CountedAlloc(std::size_t size) {
  ++g_allocations;
  if (void* p = std::malloc(size == 0 ? 1 : size)) {
    return p;
  }
  throw std::bad_alloc();
}

void* CountedAlignedAlloc(std::size_t size, std::align_val_t align) {
  ++g_allocations;
  const auto alignment = static_cast<std::size_t>(align);
  // aligned_alloc wants a size that is a multiple of the alignment.
  const std::size_t rounded = (size + alignment - 1) / alignment * alignment;
  if (void* p = std::aligned_alloc(alignment, rounded == 0 ? alignment : rounded)) {
    return p;
  }
  throw std::bad_alloc();
}
#endif

}  // namespace

#ifndef OFC_ALLOC_BUDGET_SANITIZED
void* operator new(std::size_t size) { return CountedAlloc(size); }
void* operator new[](std::size_t size) { return CountedAlloc(size); }
void* operator new(std::size_t size, std::align_val_t align) {
  return CountedAlignedAlloc(size, align);
}
void* operator new[](std::size_t size, std::align_val_t align) {
  return CountedAlignedAlloc(size, align);
}
void* operator new(std::size_t size, const std::nothrow_t&) noexcept {
  try {
    return CountedAlloc(size);
  } catch (...) {
    return nullptr;
  }
}
void* operator new[](std::size_t size, const std::nothrow_t&) noexcept {
  try {
    return CountedAlloc(size);
  } catch (...) {
    return nullptr;
  }
}
void* operator new(std::size_t size, std::align_val_t align, const std::nothrow_t&) noexcept {
  try {
    return CountedAlignedAlloc(size, align);
  } catch (...) {
    return nullptr;
  }
}
void* operator new[](std::size_t size, std::align_val_t align, const std::nothrow_t&) noexcept {
  try {
    return CountedAlignedAlloc(size, align);
  } catch (...) {
    return nullptr;
  }
}
void operator delete(void* p) noexcept { std::free(p); }
void operator delete[](void* p) noexcept { std::free(p); }
void operator delete(void* p, std::size_t) noexcept { std::free(p); }
void operator delete[](void* p, std::size_t) noexcept { std::free(p); }
void operator delete(void* p, std::align_val_t) noexcept { std::free(p); }
void operator delete[](void* p, std::align_val_t) noexcept { std::free(p); }
void operator delete(void* p, std::size_t, std::align_val_t) noexcept { std::free(p); }
void operator delete[](void* p, std::size_t, std::align_val_t) noexcept { std::free(p); }
void operator delete(void* p, const std::nothrow_t&) noexcept { std::free(p); }
void operator delete[](void* p, const std::nothrow_t&) noexcept { std::free(p); }
void operator delete(void* p, std::align_val_t, const std::nothrow_t&) noexcept { std::free(p); }
void operator delete[](void* p, std::align_val_t, const std::nothrow_t&) noexcept {
  std::free(p);
}
#endif

namespace ofc {
namespace {

#ifdef OFC_ALLOC_BUDGET_SANITIZED
#define SKIP_UNDER_SANITIZERS() GTEST_SKIP() << "sanitizers replace the allocator"
#else
#define SKIP_UNDER_SANITIZERS() (void)0
#endif

// Operations counted per test; the warm-up runs as many again on other keys.
constexpr int kOps = 1000;
constexpr Bytes kObjectSize = KiB(1);

// Distinct keys of 26 characters each, too long for std::string's inline
// buffer, so a key copy that allocates shows up in the count.
std::vector<std::string> Keys(const char* prefix, int n) {
  std::vector<std::string> keys;
  keys.reserve(static_cast<std::size_t>(n));
  for (int i = 0; i < n; ++i) {
    char key[32];
    std::snprintf(key, sizeof(key), "%s%07d", prefix, i);
    keys.emplace_back(key);
  }
  EXPECT_EQ(keys.front().size(), 26u);
  return keys;
}

// Allocations made while `ops(first)` runs kOps operations from key `first`.
template <typename Ops>
std::uint64_t CountedAfterWarmUp(Ops&& ops) {
  ops(0);
  const std::uint64_t before = g_allocations;
  ops(kOps);
  return g_allocations - before;
}

class RsdsBudgetTest : public ::testing::Test {
 protected:
  RsdsBudgetTest() : store_(&loop_, store::StoreProfile::Swift(), Rng(3), "rsds") {
    for (const std::string& key : keys_) {
      store_.Seed(key, kObjectSize, {});
    }
  }

  sim::EventLoop loop_;
  store::ObjectStore store_;
  const std::vector<std::string> keys_ = Keys("data/alloc-budget/o", 2 * kOps);
};

TEST_F(RsdsBudgetTest, GetOfAnExistingKeyAllocatesNothing) {
  SKIP_UNDER_SANITIZERS();
  int found = 0;
  const std::uint64_t allocations = CountedAfterWarmUp([&](int first) {
    for (int i = first; i < first + kOps; ++i) {
      store_.Get(keys_[static_cast<std::size_t>(i)],
                 [&found](Result<store::ObjectMetadata> meta) { found += meta.ok(); });
      loop_.Run();
    }
  });
  EXPECT_EQ(found, 2 * kOps);
  EXPECT_EQ(allocations, 0u);
}

TEST_F(RsdsBudgetTest, ShadowWriteAndPayloadPushOfAnExistingKeyAllocateNothing) {
  SKIP_UNDER_SANITIZERS();
  int pushed = 0;
  const std::uint64_t allocations = CountedAfterWarmUp([&](int first) {
    for (int i = first; i < first + kOps; ++i) {
      const std::string& key = keys_[static_cast<std::size_t>(i)];
      store::ObjectVersion version = 0;
      store_.PutShadow(key, kObjectSize, [&version](Result<store::ObjectMetadata> meta) {
        version = meta.ok() ? meta->latest_version : 0;
      });
      loop_.Run();
      store_.FinalizePayload(key, version, kObjectSize, PayloadFingerprint(key, kObjectSize),
                             [&pushed](Status status) { pushed += status.ok(); });
      loop_.Run();
    }
  });
  EXPECT_EQ(pushed, 2 * kOps);
  EXPECT_EQ(allocations, 0u);
}

TEST_F(RsdsBudgetTest, ConditionalPutOfAnExistingKeyAllocatesNothing) {
  SKIP_UNDER_SANITIZERS();
  int written = 0;
  const std::uint64_t allocations = CountedAfterWarmUp([&](int first) {
    for (int i = first; i < first + kOps; ++i) {
      const std::string& key = keys_[static_cast<std::size_t>(i)];
      const Result<store::ObjectMetadata> current = store_.Stat(key);
      store_.PutIfVersion(key, current.ok() ? current->latest_version : 0, kObjectSize, {},
                          PayloadFingerprint(key, kObjectSize),
                          [&written](Status status) { written += status.ok(); });
      loop_.Run();
    }
  });
  EXPECT_EQ(written, 2 * kOps);
  EXPECT_EQ(allocations, 0u);
}

TEST_F(RsdsBudgetTest, PutOfANewKeyAllocatesOnlyTheStoredRecord) {
  SKIP_UNDER_SANITIZERS();
  const std::vector<std::string> fresh = Keys("data/alloc-budget/n", 2 * kOps);
  int written = 0;
  const std::uint64_t allocations = CountedAfterWarmUp([&](int first) {
    for (int i = first; i < first + kOps; ++i) {
      store_.Put(fresh[static_cast<std::size_t>(i)], kObjectSize, {},
                 [&written](Status status) { written += status.ok(); });
      loop_.Run();
    }
  });
  EXPECT_EQ(written, 2 * kOps);
  // Each object's key buffer in its pooled record, and a block of five
  // 96-byte records per five objects. The table's slot array doubles to
  // 128 KiB when it passes 3/4 full at the 3,073rd object; an array that
  // large is mapped, not taken from operator new (src/common/key_table.h).
  EXPECT_EQ(allocations, kOps + kOps / 5);
}

class ClusterBudgetTest : public ::testing::Test {
 protected:
  ClusterBudgetTest() : cluster_(&loop_, 4, rc::ClusterOptions{}, Rng(5)) {
    for (const std::string& key : keys_) {
      cluster_.Write(/*client_node=*/0, key, kObjectSize, /*version=*/1,
                     rc::ObjectClass::kInput, /*dirty=*/false, [](Status) {});
    }
    loop_.Run();
  }

  sim::EventLoop loop_;
  rc::Cluster cluster_;
  const std::vector<std::string> keys_ = Keys("data/alloc-budget/o", 2 * kOps);
};

TEST_F(ClusterBudgetTest, ReadHitAllocatesNothing) {
  SKIP_UNDER_SANITIZERS();
  int hits = 0;
  const std::uint64_t allocations = CountedAfterWarmUp([&](int first) {
    for (int i = first; i < first + kOps; ++i) {
      cluster_.Read(/*client_node=*/0, keys_[static_cast<std::size_t>(i)],
                    [&hits](Result<rc::ReadHit> hit) { hits += hit.ok(); });
      loop_.Run();
    }
  });
  EXPECT_EQ(hits, 2 * kOps);
  EXPECT_EQ(allocations, 0u);
}

TEST_F(ClusterBudgetTest, WriteUpdateAllocatesNothing) {
  SKIP_UNDER_SANITIZERS();
  int written = 0;
  const std::uint64_t allocations = CountedAfterWarmUp([&](int first) {
    for (int i = first; i < first + kOps; ++i) {
      cluster_.Write(/*client_node=*/0, keys_[static_cast<std::size_t>(i)], kObjectSize,
                     /*version=*/2, rc::ObjectClass::kInput, /*dirty=*/false,
                     [&written](Status status) { written += status.ok(); });
      loop_.Run();
    }
  });
  EXPECT_EQ(written, 2 * kOps);
  EXPECT_EQ(allocations, 0u);
}

TEST_F(ClusterBudgetTest, WriteOfANewKeyAllocatesItsKeyReplicaListAndLogEntry) {
  SKIP_UNDER_SANITIZERS();
  const std::vector<std::string> fresh = Keys("data/alloc-budget/n", 2 * kOps);
  int written = 0;
  const std::uint64_t allocations = CountedAfterWarmUp([&](int first) {
    for (int i = first; i < first + kOps; ++i) {
      cluster_.Write(/*client_node=*/0, fresh[static_cast<std::size_t>(i)], kObjectSize,
                     /*version=*/1, rc::ObjectClass::kInput, /*dirty=*/false,
                     [&written](Status status) { written += status.ok(); });
      loop_.Run();
    }
  });
  EXPECT_EQ(written, 2 * kOps);
  // Per object: its key buffer and its replica list in its pooled record, and
  // the master log's entry and index nodes. Besides: a block of four 128-byte
  // records per four objects and one growth of the pool's array of block
  // pointers. The table's slot array doubles to 128 KiB, which is mapped, not
  // taken from operator new.
  EXPECT_EQ(allocations, 4u * kOps + kOps / 4 + 1u);
}

TEST_F(ClusterBudgetTest, RemoveThenWriteOfANewKeyAllocatesNothing) {
  SKIP_UNDER_SANITIZERS();
  const std::vector<std::string> fresh = Keys("data/alloc-budget/n", 2 * kOps);
  int written = 0;
  const std::uint64_t allocations = CountedAfterWarmUp([&](int first) {
    for (int i = first; i < first + kOps; ++i) {
      ASSERT_TRUE(cluster_.Remove(keys_[static_cast<std::size_t>(i)]).ok());
      cluster_.Write(/*client_node=*/0, fresh[static_cast<std::size_t>(i)], kObjectSize,
                     /*version=*/1, rc::ObjectClass::kInput, /*dirty=*/false,
                     [&written](Status status) { written += status.ok(); });
      loop_.Run();
    }
  });
  EXPECT_EQ(written, 2 * kOps);
  // The removed object's record, with its key's and replica list's capacity,
  // and its log nodes take the new object.
  EXPECT_EQ(allocations, 0u);
}

TEST(ProxyBudgetTest, ReadHitAllocatesNothing) {
  SKIP_UNDER_SANITIZERS();
  sim::EventLoop loop;
  rc::Cluster cluster(&loop, 4, rc::ClusterOptions{}, Rng(5));
  store::ObjectStore rsds(&loop, store::StoreProfile::Swift(), Rng(3), "rsds");
  core::Proxy proxy(&loop, &cluster, &rsds, core::ProxyOptions{});
  const std::vector<std::string> keys = Keys("data/alloc-budget/o", 2 * kOps);
  for (const std::string& key : keys) {
    rsds.Seed(key, kObjectSize, {});
    cluster.Write(/*client_node=*/0, key, kObjectSize, /*version=*/1, rc::ObjectClass::kInput,
                  /*dirty=*/false, [](Status) {});
  }
  loop.Run();
  faas::InvocationContext ctx;
  ctx.invocation_id = 1;
  ctx.function = "thumbnail";
  ctx.worker = 0;
  ctx.should_cache = true;
  int hits = 0;
  const std::uint64_t allocations = CountedAfterWarmUp([&](int first) {
    for (int i = first; i < first + kOps; ++i) {
      proxy.Read(ctx, keys[static_cast<std::size_t>(i)],
                 [&hits](Result<Bytes> size) { hits += size.ok(); });
      loop.Run();
    }
  });
  EXPECT_EQ(hits, 2 * kOps);
  EXPECT_EQ(proxy.metrics().CounterValue("ofc.proxy.cache_hits"),
            static_cast<std::uint64_t>(2 * kOps));
  EXPECT_EQ(allocations, 0u);
}

TEST(PlatformBudgetTest, WarmInvocationThroughTheDirectDataService) {
  SKIP_UNDER_SANITIZERS();
  sim::EventLoop loop;
  store::ObjectStore rsds(&loop, store::StoreProfile::Swift(), Rng(3), "rsds");
  faas::DirectDataService data(&rsds);
  faas::Platform platform(&loop, faas::PlatformOptions{}, &data, /*hooks=*/nullptr, Rng(9));
  faas::FunctionConfig config;
  config.spec.name = "thumbnail";
  config.spec.kind = workloads::InputKind::kImage;
  config.spec.base_mem_mb = 100;
  config.spec.mem_noise = 0.0;
  config.spec.compute_us_per_mb = 50;
  ASSERT_TRUE(platform.RegisterFunction(config).ok());

  // Three warm-up rounds: the platform's phase series grow their sample
  // buffers by doubling, and after 3,000 invocations they hold room for the
  // 1,000 counted ones (4,096), so no buffer grows while counting.
  constexpr int kWarmUps = 3 * kOps;
  const std::vector<std::string> keys = Keys("data/alloc-budget/o", kWarmUps + kOps);
  workloads::MediaDescriptor media;
  media.kind = workloads::InputKind::kImage;
  media.width = 640;
  media.height = 480;
  media.byte_size = kObjectSize;
  std::vector<std::vector<faas::InputObject>> inputs;
  for (const std::string& key : keys) {
    rsds.Seed(key, kObjectSize, {});
    inputs.push_back({faas::InputObject{key, media}});
  }
  int completed = 0;
  const auto invoke = [&](int first, int n) {
    for (int i = first; i < first + n; ++i) {
      platform.Invoke("thumbnail", std::move(inputs[static_cast<std::size_t>(i)]), {},
                      [&completed](const faas::InvocationRecord& record) {
                        completed += !record.failed;
                      });
      // Long enough to finish the invocation, far short of the keep-alive, so
      // the one sandbox stays warm.
      loop.RunFor(Seconds(1));
    }
  };
  invoke(0, kWarmUps);
  const std::uint64_t before = g_allocations;
  invoke(kWarmUps, kOps);
  const std::uint64_t allocations = g_allocations - before;
  EXPECT_EQ(completed, kWarmUps + kOps);
  EXPECT_EQ(platform.NumSandboxes(0) + platform.NumSandboxes(1) + platform.NumSandboxes(2) +
                platform.NumSandboxes(3),
            1u);
  // Per invocation: the output key ("out/thumbnail/<id>"), and the key buffer
  // of the RSDS's record of the new output object; a block of five records
  // per five outputs.
  EXPECT_EQ(allocations, 2u * kOps + kOps / 5);
}

}  // namespace
}  // namespace ofc
