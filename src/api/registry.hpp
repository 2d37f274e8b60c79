// Public multi-tenant table registry handle.
//
// A Registry names tenants and maps each to an immutable encoder
// configuration snapshot (base quantization tables + options + an optional
// byte quota, recorded but not enforced). Services resolve kDeepnEncode
// requests that carry a tenant name against their registry; see
// Service::deepn_encode.
//
//   Registry registry;
//   registry.put("mobilenet", design.encode_options());
//   Service service(ServiceOptions().registry(registry));
//   Pending p = service.deepn_encode(view, "mobilenet", 85);
//
// Registry is a shared handle (copying shares the underlying registry, the
// way shared_ptr does): pass one Registry to any number of services and
// they serve one coherent tenant set. All operations are thread-safe.
// Updates are versioned — put() returns a monotonically increasing
// version, and requests in flight keep the snapshot they resolved at
// submission, so a concurrent re-registration never mixes table
// generations inside one request.
//
// Standard-library-only header (pimpl over serve::TableRegistry).
#pragma once

#include <cstddef>
#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "api/status.hpp"
#include "api/types.hpp"

namespace dnj::serve {
class TableRegistry;
}

namespace dnj::api {

namespace detail {
struct RegistryAccess;
}

/// A snapshot of one registered tenant, as get() reports it.
struct TenantInfo {
  std::string name;
  std::uint64_t version = 0;     ///< registry-global monotonic publication stamp
  std::size_t quota_bytes = 0;   ///< recorded byte quota; never enforced
  EncodeOptions options;         ///< normalized base configuration (custom
                                 ///  tables always materialized, quality 50)
};

class Registry {
 public:
  /// A fresh, empty registry.
  Registry();
  ~Registry();
  Registry(const Registry&);  ///< shares the underlying registry
  Registry& operator=(const Registry&);
  Registry(Registry&&) noexcept;
  Registry& operator=(Registry&&) noexcept;

  /// Registers (or replaces) tenant `name` with `base` as its encoder
  /// configuration. `quota_bytes` is recorded and echoed by get(); since
  /// the result cache was retired nothing enforces it. Normalization: when
  /// `base` carries no custom tables the Annex K pair is materialized
  /// (request quality then scales exactly like standard IJG quality), and
  /// the stored quality is pinned to 50 so two registrations of the same
  /// computation share one options digest.
  /// Returns the published version.
  Result<std::uint64_t> put(const std::string& name, const EncodeOptions& base,
                            std::size_t quota_bytes = 0);

  /// Unregisters `name`; kInvalidArgument when it was not registered.
  /// In-flight requests keep their pinned snapshot.
  Status remove(const std::string& name);

  /// The current snapshot of `name`, or kInvalidArgument.
  Result<TenantInfo> get(const std::string& name) const;

  /// Registered names, sorted.
  std::vector<std::string> names() const;

  std::size_t size() const;

  /// The exact encoder options a kDeepnEncode of (name, quality) encodes
  /// under: the tenant's configuration with its tables IJG-scaled to
  /// `quality` (50 = the base tables verbatim). This is the synchronous
  /// determinism reference — Codec::encode with these options produces
  /// payloads bit-identical to Service::deepn_encode(..., name, quality).
  Result<EncodeOptions> encode_options_for(const std::string& name, int quality) const;

 private:
  friend struct detail::RegistryAccess;
  explicit Registry(std::shared_ptr<serve::TableRegistry> impl);
  std::shared_ptr<serve::TableRegistry> impl_;
};

}  // namespace dnj::api
