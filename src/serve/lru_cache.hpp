// Thread-safe LRU cache, shared by every worker of a service instance.
//
// A mutex around a list + hash map is deliberate (same reasoning as the
// runtime queue): entries are whole encoded results, so a
// lookup costs a hash and two pointer swaps while the work it saves is a
// full encode — contention is irrelevant next to the savings. Values are
// returned by copy so a hit never holds the lock while the caller uses the
// result, and eviction can never invalidate a response in flight.
//
// Besides the entry-count capacity, the cache optionally enforces byte
// budgets: a cache-wide `max_bytes` ceiling and a per-tenant
// `tenant_quota_bytes` cap. The quota is the multi-tenant fairness story —
// a tenant that floods the cache evicts its OWN least-recently-used
// entries once over quota, never everyone else's. Every put() carries a
// byte size and a tenant id; an entry recorded at zero bytes stays out of
// both byte budgets.
#pragma once

#include <cstddef>
#include <cstdint>
#include <functional>
#include <list>
#include <mutex>
#include <unordered_map>
#include <utility>

namespace dnj::serve {

template <typename Key, typename Value, typename Hash = std::hash<Key>>
class LruCache {
 public:
  /// Capacity 0 disables the cache: get() always misses, put() is a no-op.
  /// `max_bytes` caps the summed entry sizes cache-wide, `tenant_quota_bytes`
  /// per tenant id; 0 disables either limit.
  explicit LruCache(std::size_t capacity, std::size_t max_bytes = 0,
                    std::size_t tenant_quota_bytes = 0)
      : capacity_(capacity), max_bytes_(max_bytes), tenant_quota_(tenant_quota_bytes) {}

  LruCache(const LruCache&) = delete;
  LruCache& operator=(const LruCache&) = delete;

  bool enabled() const { return capacity_ > 0; }
  std::size_t capacity() const { return capacity_; }
  std::size_t max_bytes() const { return max_bytes_; }
  std::size_t tenant_quota_bytes() const { return tenant_quota_; }

  /// Copies the cached value into `*out` and promotes the entry to
  /// most-recently-used. Returns false on a miss.
  bool get(const Key& key, Value* out) {
    std::lock_guard<std::mutex> lock(mutex_);
    const auto it = map_.find(key);
    if (it == map_.end()) {
      ++misses_;
      return false;
    }
    order_.splice(order_.begin(), order_, it->second);
    *out = it->second->value;
    ++hits_;
    return true;
  }

  /// Inserts (or refreshes) an entry of `bytes` size owned by `tenant`,
  /// evicting as needed: first the owning tenant's own LRU entries while it
  /// is over quota (counted as quota_evictions), then the cache-wide LRU
  /// while over the entry or byte capacity. Refreshing overwrites value and
  /// accounting — callers only ever store deterministic functions of the
  /// key, so this is a wash either way. A value that alone exceeds a byte
  /// budget is not cached at all (admitting it would just evict the world
  /// and then get evicted by the next insert).
  void put(const Key& key, Value value, std::size_t bytes, std::uint64_t tenant) {
    if (capacity_ == 0) return;
    if ((max_bytes_ != 0 && bytes > max_bytes_) ||
        (tenant_quota_ != 0 && bytes > tenant_quota_))
      return;
    std::lock_guard<std::mutex> lock(mutex_);
    const auto it = map_.find(key);
    if (it != map_.end()) {
      Entry& e = *it->second;
      debit_locked(e);
      e.value = std::move(value);
      e.bytes = bytes;
      e.tenant = tenant;
      credit_locked(e);
      order_.splice(order_.begin(), order_, it->second);
    } else {
      evict_for_tenant_locked(tenant, bytes);
      while (order_.size() >= capacity_ ||
             (max_bytes_ != 0 && bytes_ + bytes > max_bytes_))
        evict_back_locked(&evictions_);
      order_.push_front(Entry{key, std::move(value), bytes, tenant});
      map_[key] = order_.begin();
      credit_locked(order_.front());
      return;
    }
    // Refresh path: the promoted entry sits at the front, so the eviction
    // loops below can only reach it last — and never do, because its size
    // passed the single-value budget checks above.
    evict_for_tenant_locked(tenant, 0);
    while (order_.size() > capacity_ || (max_bytes_ != 0 && bytes_ > max_bytes_))
      evict_back_locked(&evictions_);
  }

  std::size_t size() const {
    std::lock_guard<std::mutex> lock(mutex_);
    return order_.size();
  }

  /// Summed recorded entry sizes.
  std::size_t bytes() const {
    std::lock_guard<std::mutex> lock(mutex_);
    return bytes_;
  }

  /// Recorded bytes currently cached for `tenant`.
  std::size_t tenant_bytes(std::uint64_t tenant) const {
    std::lock_guard<std::mutex> lock(mutex_);
    const auto it = tenant_bytes_.find(tenant);
    return it == tenant_bytes_.end() ? 0 : it->second;
  }

  std::uint64_t hits() const {
    std::lock_guard<std::mutex> lock(mutex_);
    return hits_;
  }
  std::uint64_t misses() const {
    std::lock_guard<std::mutex> lock(mutex_);
    return misses_;
  }
  std::uint64_t evictions() const {
    std::lock_guard<std::mutex> lock(mutex_);
    return evictions_;
  }
  /// Evictions forced by a tenant exceeding its own quota (a subset of the
  /// fairness story, disjoint from the capacity evictions above).
  std::uint64_t quota_evictions() const {
    std::lock_guard<std::mutex> lock(mutex_);
    return quota_evictions_;
  }

 private:
  struct Entry {
    Key key;
    Value value;
    std::size_t bytes = 0;
    std::uint64_t tenant = 0;
  };

  void credit_locked(const Entry& e) {
    bytes_ += e.bytes;
    if (e.bytes != 0) tenant_bytes_[e.tenant] += e.bytes;
  }

  void debit_locked(const Entry& e) {
    bytes_ -= e.bytes;
    if (e.bytes != 0) {
      const auto it = tenant_bytes_.find(e.tenant);
      if ((it->second -= e.bytes) == 0) tenant_bytes_.erase(it);
    }
  }

  void evict_back_locked(std::uint64_t* counter) {
    debit_locked(order_.back());
    map_.erase(order_.back().key);
    order_.pop_back();
    ++*counter;
  }

  /// Evicts `tenant`'s own least-recently-used entries until `incoming`
  /// more bytes fit under its quota.
  void evict_for_tenant_locked(std::uint64_t tenant, std::size_t incoming) {
    if (tenant_quota_ == 0) return;
    while (true) {
      const auto tb = tenant_bytes_.find(tenant);
      const std::size_t held = tb == tenant_bytes_.end() ? 0 : tb->second;
      if (held + incoming <= tenant_quota_) return;
      // Walk from the LRU end to the tenant's oldest entry. held > 0 here
      // (incoming alone fits, per the single-value check), so one exists.
      auto victim = --order_.end();
      while (victim->tenant != tenant || victim->bytes == 0) --victim;
      debit_locked(*victim);
      map_.erase(victim->key);
      order_.erase(victim);
      ++quota_evictions_;
    }
  }

  const std::size_t capacity_;
  const std::size_t max_bytes_;
  const std::size_t tenant_quota_;
  mutable std::mutex mutex_;
  std::list<Entry> order_;  ///< front = most recently used
  std::unordered_map<Key, typename std::list<Entry>::iterator, Hash> map_;
  std::unordered_map<std::uint64_t, std::size_t> tenant_bytes_;
  std::size_t bytes_ = 0;
  std::uint64_t hits_ = 0;
  std::uint64_t misses_ = 0;
  std::uint64_t evictions_ = 0;
  std::uint64_t quota_evictions_ = 0;
};

}  // namespace dnj::serve
