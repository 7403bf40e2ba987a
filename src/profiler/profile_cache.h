// Persistent on-disk cache of measured profiles, keyed by (model spec,
// micro-batch size, sequence length, recompute flag, host fingerprint).
//
// A cache entry is a regular config_io file with metadata riding in comment
// lines ahead of the body:
//
//   # autopipe-model-config v1
//   # autopipe-profile-cache v3
//   # profile-key <fnv1a-64 hex of the canonical key string>
//   # profile-host <fingerprint>
//   # profile-created <unix seconds>
//   # profile-crc32 <crc32 hex of every byte after this line>
//
// Because config_io skips comments, every cache entry is *also* a plain
// model config: load_model_config_file() reads it unchanged, so measured
// profiles reach the Planner through the exact same entry point as analytic
// or hand-written ones (zero API forks). Lookups verify the cache format
// version, the key digest (any change to the model dimensions, batch shape
// or host invalidates the entry in place), the body CRC32 (a torn or
// bit-flipped entry reads as a miss instead of silently poisoning later
// `--from-profile` runs), and optionally the entry's age. Entries are
// written through util::atomic_write_file (temp + fsync + rename), so a
// crash mid-store never leaves a partial entry at the final path.
#pragma once

#include <string>

#include "costmodel/analytic.h"

namespace autopipe::profiler {

/// Bumped whenever the measurement methodology or the entry format changes
/// incompatibly; older entries then re-measure instead of silently feeding
/// stale numbers. v2: entries carry a body CRC32 and are written atomically.
/// v3: GELU's tanh became a vectorized rational function, which about
/// halves the measured FFN block times; v2 entries price FFN at the old
/// libm-tanh cost.
inline constexpr int kProfileCacheVersion = 3;

struct CacheKey {
  costmodel::ModelSpec spec;
  costmodel::TrainConfig train;
  std::string host;  ///< host_fingerprint() unless a test overrides it
};

/// Canonical key string: every field that must invalidate the cache when it
/// changes, including the effective sequence length (train.seq_len == 0
/// resolves to the spec default) and the cache format version.
std::string cache_key_string(const CacheKey& key);

/// FNV-1a 64-bit hex digest of cache_key_string().
std::string cache_key_digest(const CacheKey& key);

/// File name inside the cache directory: "<model>-mb<B>-seq<S>.profile.cfg"
/// (model name sanitised). The host/dimension digest lives in the header,
/// so a foreign or outdated entry at the same path reads as a miss.
std::string cache_file_name(const CacheKey& key);

struct CacheLookup {
  bool hit = false;
  std::string path;         ///< file consulted (may not exist)
  /// "absent" | "version" | "key" | "stale" | "corrupt" | "parse"
  std::string miss_reason;
  /// Valid when hit, and also on a "stale" miss (stale_config below): a
  /// stale entry passed every integrity check except its age, so its body
  /// is still well-formed and usable as a drift-detection baseline.
  costmodel::ModelConfig config;
  /// True on a "stale" miss whose body parsed: `config` holds the outdated
  /// profile so the session can probe it for drift instead of re-measuring
  /// everything from scratch.
  bool stale_config = false;
};

/// Checks dir for a valid entry. max_age_seconds <= 0 disables the
/// staleness check.
CacheLookup load_cached_profile(const std::string& dir, const CacheKey& key,
                                long max_age_seconds = 0);

/// Writes `config` as a cache entry for `key` under dir, creating dir
/// first when it is missing. Returns the final path, or "" on I/O failure.
/// `created_unix` == 0 stamps the current time (tests pass an old timestamp
/// to exercise staleness).
std::string store_profile(const std::string& dir, const CacheKey& key,
                          const costmodel::ModelConfig& config,
                          long created_unix = 0);

}  // namespace autopipe::profiler
