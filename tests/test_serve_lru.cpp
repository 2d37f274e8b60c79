// serve::LruCache — entry-count LRU semantics plus the byte/quota
// accounting the multi-tenant result cache leans on: cache-wide byte
// ceilings, per-tenant byte quotas (a tenant over quota evicts its OWN
// least-recently-used entries, never other tenants'), and the oversize
// rule (a value that alone exceeds a budget is never admitted).
#include "serve/lru_cache.hpp"

#include <gtest/gtest.h>

#include <cstdint>
#include <string>
#include <thread>
#include <vector>

namespace {

using Cache = dnj::serve::LruCache<int, std::string>;

TEST(ServeLru, EvictsLeastRecentlyUsedInOrder) {
  Cache cache(2);
  cache.put(1, "one", 0, 0);
  cache.put(2, "two", 0, 0);
  std::string out;
  ASSERT_TRUE(cache.get(1, &out));  // promote 1; 2 is now LRU
  cache.put(3, "three", 0, 0);      // evicts 2
  EXPECT_FALSE(cache.get(2, &out));
  EXPECT_TRUE(cache.get(1, &out));
  EXPECT_TRUE(cache.get(3, &out));
  EXPECT_EQ(cache.evictions(), 1u);
  EXPECT_EQ(cache.size(), 2u);
}

TEST(ServeLru, ZeroCapacityDisablesEverything) {
  Cache cache(0);
  EXPECT_FALSE(cache.enabled());
  cache.put(1, "one", 0, 0);
  cache.put(1, "one", 100, 7);
  std::string out;
  EXPECT_FALSE(cache.get(1, &out));
  EXPECT_EQ(cache.size(), 0u);
  EXPECT_EQ(cache.bytes(), 0u);
}

TEST(ServeLru, ByteAccountingTracksInsertRefreshAndEvict) {
  Cache cache(8, /*max_bytes=*/100);
  cache.put(1, "a", 40, 1);
  cache.put(2, "b", 40, 2);
  EXPECT_EQ(cache.bytes(), 80u);
  EXPECT_EQ(cache.tenant_bytes(1), 40u);
  EXPECT_EQ(cache.tenant_bytes(2), 40u);

  // Refresh re-records the size (and may move the entry between tenants).
  cache.put(1, "a2", 10, 1);
  EXPECT_EQ(cache.bytes(), 50u);
  EXPECT_EQ(cache.tenant_bytes(1), 10u);

  // 70 incoming + 50 held > 100: evicts the LRU (key 2) to fit.
  cache.put(3, "c", 70, 3);
  EXPECT_EQ(cache.bytes(), 80u);
  EXPECT_EQ(cache.tenant_bytes(2), 0u);
  std::string out;
  EXPECT_FALSE(cache.get(2, &out));
  EXPECT_EQ(cache.evictions(), 1u);
}

TEST(ServeLru, OversizeValueIsNeverAdmitted) {
  Cache cache(8, /*max_bytes=*/100);
  cache.put(1, "small", 30, 1);
  cache.put(2, "huge", 101, 1);  // alone exceeds the ceiling: not cached
  std::string out;
  EXPECT_FALSE(cache.get(2, &out));
  EXPECT_TRUE(cache.get(1, &out));  // and nothing was evicted to make room
  EXPECT_EQ(cache.evictions(), 0u);
  EXPECT_EQ(cache.bytes(), 30u);
}

TEST(ServeLru, TenantQuotaEvictsOwnEntriesOnly) {
  Cache cache(16, /*max_bytes=*/0, /*tenant_quota_bytes=*/100);
  cache.put(1, "t1-a", 60, 1);
  cache.put(2, "t2-a", 60, 2);
  cache.put(3, "t1-b", 60, 1);  // tenant 1 would hold 120 > 100: evicts key 1
  std::string out;
  EXPECT_FALSE(cache.get(1, &out));
  EXPECT_TRUE(cache.get(2, &out)) << "tenant 2 must be untouched";
  EXPECT_TRUE(cache.get(3, &out));
  EXPECT_EQ(cache.quota_evictions(), 1u);
  EXPECT_EQ(cache.evictions(), 0u) << "quota evictions are counted separately";
  EXPECT_EQ(cache.tenant_bytes(1), 60u);
  EXPECT_EQ(cache.tenant_bytes(2), 60u);
}

TEST(ServeLru, TenantQuotaEvictsOldestOfThatTenant) {
  Cache cache(16, 0, /*tenant_quota_bytes=*/100);
  cache.put(1, "t1-old", 40, 1);
  cache.put(2, "t2", 40, 2);
  cache.put(3, "t1-new", 40, 1);
  // Tenant 1 holds 80; +40 exceeds 100: its OLDEST entry (key 1) must go,
  // even though tenant 2's key 2 is between them in global LRU order.
  cache.put(4, "t1-newer", 40, 1);
  std::string out;
  EXPECT_FALSE(cache.get(1, &out));
  EXPECT_TRUE(cache.get(2, &out));
  EXPECT_TRUE(cache.get(3, &out));
  EXPECT_TRUE(cache.get(4, &out));
  EXPECT_EQ(cache.quota_evictions(), 1u);
}

TEST(ServeLru, QuotaLargerThanIncomingValueBlocksAdmission) {
  Cache cache(16, 0, /*tenant_quota_bytes=*/50);
  cache.put(1, "too-big", 51, 1);  // alone over quota: never cached
  std::string out;
  EXPECT_FALSE(cache.get(1, &out));
  EXPECT_EQ(cache.quota_evictions(), 0u);
}

TEST(ServeLru, ByteBlindEntriesIgnoreQuotas) {
  // Zero-byte entries: quotas and byte ceilings must never evict them.
  Cache cache(16, /*max_bytes=*/10, /*tenant_quota_bytes=*/10);
  cache.put(1, "blind-a", 0, 0);
  cache.put(2, "blind-b", 0, 0);
  cache.put(3, "sized", 8, 1);
  cache.put(4, "sized2", 8, 1);  // tenant 1 over quota: evicts key 3 only
  std::string out;
  EXPECT_TRUE(cache.get(1, &out));
  EXPECT_TRUE(cache.get(2, &out));
  EXPECT_FALSE(cache.get(3, &out));
  EXPECT_TRUE(cache.get(4, &out));
  EXPECT_EQ(cache.quota_evictions(), 1u);
  EXPECT_EQ(cache.bytes(), 8u);
}

TEST(ServeLru, RefreshReEnforcesBudgets) {
  Cache cache(16, /*max_bytes=*/100);
  cache.put(1, "a", 10, 1);
  cache.put(2, "b", 10, 2);
  cache.put(3, "c", 10, 3);
  // Refreshing key 3 from 10 to 95 bytes pushes the total over 100: the
  // LRU tail (keys 1 then 2) must fall until the ceiling holds again.
  cache.put(3, "c-big", 95, 3);
  EXPECT_LE(cache.bytes(), 100u);
  std::string out;
  EXPECT_TRUE(cache.get(3, &out));
  EXPECT_EQ(out, "c-big");
}

TEST(ServeLru, ConcurrentMixedTrafficStaysConsistent) {
  // TSan-targeted hammer: four threads, overlapping keys, sized and
  // byte-blind puts. Consistency here means no crash/race and coherent
  // final accounting (bytes <= ceiling, size <= capacity).
  Cache cache(32, /*max_bytes=*/10000, /*tenant_quota_bytes=*/4000);
  std::vector<std::thread> threads;
  for (int t = 0; t < 4; ++t) {
    threads.emplace_back([&cache, t] {
      std::string out;
      for (int i = 0; i < 2000; ++i) {
        const int key = (t * 17 + i) % 64;
        if (i % 3 == 0)
          cache.put(key, "v" + std::to_string(key), 100 + (key % 5) * 50,
                    static_cast<std::uint64_t>(t % 2 + 1));
        else if (i % 3 == 1)
          cache.put(key, "blind", 0, 0);
        else
          cache.get(key, &out);
      }
    });
  }
  for (std::thread& th : threads) th.join();
  EXPECT_LE(cache.size(), 32u);
  EXPECT_LE(cache.bytes(), 10000u);
  EXPECT_LE(cache.tenant_bytes(1), 4000u);
  EXPECT_LE(cache.tenant_bytes(2), 4000u);
  EXPECT_EQ(cache.hits() + cache.misses(), 4u * 666u);  // i % 3 == 2 per thread
}

}  // namespace
