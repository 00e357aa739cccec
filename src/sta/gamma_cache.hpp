#pragma once

/// \file gamma_cache.hpp
/// Thread-safe memoization of Γeff fits.
///
/// The equivalent-waveform fit at a noisy gate input is a pure function
/// of (annotated noisy waveform, clean input ramp, receiving arc + load,
/// technique).  Inside a scenario sweep the same (net, input-ramp,
/// noise) triple recurs — multiple sinks on one net, scenarios sharing
/// an aggressor configuration, repeated runs — so the engine memoizes
/// the fitted (arrival, slew) per key.
///
/// The key holds the raw IEEE-754 bit patterns of the input arrival,
/// slew and sink load, the receiving arc's identity (a pointer into
/// the liberty library, stable for the library's lifetime), the sink
/// transition, and the annotation's 64-bit content hash
/// (noise_waveform_key()).  Every field but that hash (and the corner
/// key, also a hash) is exact; two different annotations whose hashes
/// collide would share a fit, so a hit is bitwise what the fit would
/// have produced unless two annotations collide (an exact key is still
/// to be built).  The net-edge index is not in the key: the fit reads
/// nothing of the edge beyond its arc and load, so two sinks that
/// present the same inputs share one fit.  Because arc identity and
/// load bits are in the key, one cache may be shared across prepared
/// engine states whose loads or graphs differ — entries simply never
/// collide across them.
///
/// Lifetime: a memo lives for one call.  sweep(SweepSpec) makes a fresh
/// one and hands it to its SweepResult (cache_stats()); one
/// sweep(GeneratedSweepSpec) shares one across its baselines and every
/// chunk and corner pass, and drops it on return.  No memo outlives its
/// call: a long-lived engine that sweeps fresh scenarios on every call
/// would otherwise grow it without bound.
///
/// Sharded: 16 buckets, each an unordered_map under its own mutex, so
/// concurrent lookups from the propagation pool rarely contend.

#include <array>
#include <atomic>
#include <cstdint>
#include <mutex>
#include <optional>
#include <unordered_map>

#include "wave/waveform.hpp"

namespace waveletic::sta {

/// 64-bit content hash of a noisy-net annotation (polarity, sample
/// count, then every time and value bit pattern, one word per mixing
/// step); annotations that hash equal are assumed identical.
[[nodiscard]] uint64_t noise_waveform_key(const wave::Waveform& w,
                                          wave::Polarity polarity) noexcept;

class GammaCache {
 public:
  struct Key {
    uint64_t noise_key = 0;   ///< annotation content hash
    uint64_t method_id = 0;   ///< technique identity (object address)
    uint64_t arc_id = 0;      ///< receiving arc identity (library address)
    uint32_t rf = 0;          ///< transition index at the sink
    uint64_t arrival_bits = 0;  ///< IEEE-754 bits of the clean arrival
    uint64_t slew_bits = 0;     ///< IEEE-754 bits of the clean slew
    uint64_t load_bits = 0;     ///< IEEE-754 bits of the sink gate's output load
    uint64_t corner_key = 0;    ///< Corner::key() of the derate point (0 = nominal)

    [[nodiscard]] bool operator==(const Key& o) const noexcept {
      return noise_key == o.noise_key && method_id == o.method_id &&
             arc_id == o.arc_id && rf == o.rf &&
             arrival_bits == o.arrival_bits && slew_bits == o.slew_bits &&
             load_bits == o.load_bits && corner_key == o.corner_key;
    }
  };

  struct Value {
    double arrival = 0.0;
    double slew = 0.0;
  };

  struct Stats {
    uint64_t hits = 0;
    uint64_t misses = 0;
  };

  /// Returns the cached fit, or nullopt after recording a miss.
  [[nodiscard]] std::optional<Value> lookup(const Key& key) noexcept;

  /// Inserts (first writer wins; later identical inserts are no-ops).
  void insert(const Key& key, const Value& value);

  [[nodiscard]] Stats stats() const noexcept;
  void clear();

 private:
  struct KeyHash {
    [[nodiscard]] size_t operator()(const Key& k) const noexcept;
  };

  static constexpr size_t kShards = 16;
  [[nodiscard]] size_t shard_of(const Key& key) const noexcept;

  struct Shard {
    std::mutex mutex;
    std::unordered_map<Key, Value, KeyHash> map;
  };
  std::array<Shard, kShards> shards_;
  std::atomic<uint64_t> hits_{0};
  std::atomic<uint64_t> misses_{0};
};

}  // namespace waveletic::sta
