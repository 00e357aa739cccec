#include "sta/gamma_cache.hpp"

#include <bit>
#include <span>

namespace waveletic::sta {
namespace {

constexpr uint64_t kSeed = 1469598103934665603ull;
constexpr uint64_t kMultiplier = 0x9e3779b97f4a7c15ull;

/// Folds one 64-bit word into the running hash.  The odd multiply
/// carries low bits up and the shift folds high bits back down, so every
/// input bit reaches the low bits the shard index reads.  Both are
/// bijections of h, so inputs of one length that differ in a single
/// word never collide.
uint64_t mix(uint64_t h, uint64_t w) noexcept {
  h = (h ^ w) * kMultiplier;
  return h ^ (h >> 32);
}

uint64_t mix_doubles(uint64_t h, std::span<const double> xs) noexcept {
  for (const double x : xs) h = mix(h, std::bit_cast<uint64_t>(x));
  return h;
}

}  // namespace

uint64_t noise_waveform_key(const wave::Waveform& w,
                            wave::Polarity polarity) noexcept {
  uint64_t h = kSeed;
  h = mix(h, static_cast<uint64_t>(polarity));
  h = mix(h, static_cast<uint64_t>(w.size()));
  h = mix_doubles(h, w.times());
  return mix_doubles(h, w.values());
}

size_t GammaCache::KeyHash::operator()(const Key& k) const noexcept {
  uint64_t h = kSeed;
  h = mix(h, k.noise_key);
  h = mix(h, k.method_id);
  h = mix(h, k.arc_id);
  h = mix(h, (static_cast<uint64_t>(k.edge) << 32) | k.rf);
  h = mix(h, k.arrival_bits);
  h = mix(h, k.slew_bits);
  h = mix(h, k.load_bits);
  h = mix(h, k.corner_key);
  return static_cast<size_t>(h);
}

size_t GammaCache::shard_of(const Key& key) const noexcept {
  return KeyHash{}(key) % kShards;
}

std::optional<GammaCache::Value> GammaCache::lookup(const Key& key) noexcept {
  auto& shard = shards_[shard_of(key)];
  {
    std::lock_guard<std::mutex> lock(shard.mutex);
    const auto it = shard.map.find(key);
    if (it != shard.map.end()) {
      hits_.fetch_add(1, std::memory_order_relaxed);
      return it->second;
    }
  }
  misses_.fetch_add(1, std::memory_order_relaxed);
  return std::nullopt;
}

void GammaCache::insert(const Key& key, const Value& value) {
  auto& shard = shards_[shard_of(key)];
  std::lock_guard<std::mutex> lock(shard.mutex);
  shard.map.emplace(key, value);
}

GammaCache::Stats GammaCache::stats() const noexcept {
  return {hits_.load(std::memory_order_relaxed),
          misses_.load(std::memory_order_relaxed)};
}

void GammaCache::clear() {
  for (auto& shard : shards_) {
    std::lock_guard<std::mutex> lock(shard.mutex);
    shard.map.clear();
  }
  hits_.store(0, std::memory_order_relaxed);
  misses_.store(0, std::memory_order_relaxed);
}

}  // namespace waveletic::sta
