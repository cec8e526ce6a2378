// Test-only helpers: scoped environment-variable overrides.
//
// ScopedEnv sets (or unsets) one variable and restores its previous state on
// destruction. EballTierOverride forces an e-ball tier: NeighborhoodCache
// reads MHCA_EBALL_TIER once per construction, so a suite forces either tier
// on the same graph by constructing its cache (or engine) while an override
// is alive.
#pragma once

#include <cstdlib>
#include <optional>
#include <string>

#include "graph/neighborhood_cache.h"

namespace mhca {

class ScopedEnv {
 public:
  /// value == nullptr unsets the variable.
  ScopedEnv(const char* name, const char* value) : name_(name) {
    if (const char* old = std::getenv(name)) old_ = old;
    if (value != nullptr)
      ::setenv(name, value, /*overwrite=*/1);
    else
      ::unsetenv(name);
  }
  ~ScopedEnv() {
    if (old_)
      ::setenv(name_.c_str(), old_->c_str(), /*overwrite=*/1);
    else
      ::unsetenv(name_.c_str());
  }
  ScopedEnv(const ScopedEnv&) = delete;
  ScopedEnv& operator=(const ScopedEnv&) = delete;

 private:
  std::string name_;
  std::optional<std::string> old_;
};

/// The MHCA_EBALL_TIER value that selects `tier`.
inline const char* eball_tier_name(NeighborhoodCache::EballTier tier) {
  return tier == NeighborhoodCache::EballTier::kExplicit ? "explicit"
                                                          : "implicit";
}

class EballTierOverride {
 public:
  explicit EballTierOverride(NeighborhoodCache::EballTier tier)
      : env_("MHCA_EBALL_TIER", eball_tier_name(tier)) {}

 private:
  ScopedEnv env_;
};

}  // namespace mhca
