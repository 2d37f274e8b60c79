#include "serve/registry.hpp"

#include <algorithm>
#include <utility>

namespace dnj::serve {

std::uint64_t TableRegistry::put(const std::string& name, jpeg::EncoderConfig base,
                                 std::size_t quota_bytes) {
  if (!base.use_custom_tables) {
    base.use_custom_tables = true;
    base.luma_table = jpeg::QuantTable::annex_k_luma();
    base.chroma_table = jpeg::QuantTable::annex_k_chroma();
  }
  // Quality does not participate in a custom-table encode; normalizing it
  // makes "same tables, different leftover quality" one set of options.
  base.quality = 50;

  auto entry = std::make_shared<TenantEntry>();
  entry->name = name;
  entry->base = std::move(base);
  entry->quota_bytes = quota_bytes;

  std::lock_guard<std::mutex> lock(mutex_);
  entry->version = next_version_++;
  entries_[name] = entry;
  return entry->version;
}

bool TableRegistry::remove(const std::string& name) {
  std::lock_guard<std::mutex> lock(mutex_);
  return entries_.erase(name) > 0;
}

std::shared_ptr<const TenantEntry> TableRegistry::find(const std::string& name) const {
  std::lock_guard<std::mutex> lock(mutex_);
  const auto it = entries_.find(name);
  return it == entries_.end() ? nullptr : it->second;
}

std::vector<std::string> TableRegistry::names() const {
  std::vector<std::string> out;
  {
    std::lock_guard<std::mutex> lock(mutex_);
    out.reserve(entries_.size());
    for (const auto& [name, entry] : entries_) out.push_back(name);
  }
  std::sort(out.begin(), out.end());
  return out;
}

std::size_t TableRegistry::size() const {
  std::lock_guard<std::mutex> lock(mutex_);
  return entries_.size();
}

}  // namespace dnj::serve
