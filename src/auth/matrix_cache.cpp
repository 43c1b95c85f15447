#include "auth/matrix_cache.h"

#include "common/error.h"
#include "common/obs.h"

namespace mandipass::auth {

using common::MutexLock;

MatrixCache::MatrixCache(MatrixCacheConfig config) : config_(config) {
  MANDIPASS_EXPECTS(config_.max_entries > 0);
}

std::shared_ptr<const GaussianMatrix> MatrixCache::get(std::uint64_t seed, std::size_t dim) {
  MANDIPASS_EXPECTS(dim > 0);
  // Find and splice under the lock, then verify the copied matrix
  // against its copied CRC after releasing it, so concurrent lookups run
  // their CRC passes in parallel.
  std::shared_ptr<const GaussianMatrix> found;
  std::uint32_t recorded = 0;
  {
    MutexLock lock(mutex_);
    const auto it = cache_.find(seed);
    if (it != cache_.end() && it->second.matrix->dim() == dim) {
      found = it->second.matrix;
      recorded = it->second.crc;
      recency_.splice(recency_.begin(), recency_, it->second.lru);
    }
  }
  if (found != nullptr) {
    if (found->checksum() == recorded) {
      MANDIPASS_OBS_COUNT("auth.batch.matrix_cache_hits");
      return found;
    }
    // Poisoned: the packed bytes no longer match the CRC recorded at
    // insert. Drop the entry and fall through to the rebuild-from-seed
    // miss path — the seed is the ground truth, so the cache self-heals.
    // Only the lookup that still finds this very matrix and CRC drops
    // and counts it: concurrent lookups that saw the same poisoned entry
    // find it gone or rebuilt, so one poisoning counts once.
    MutexLock lock(mutex_);
    const auto it = cache_.find(seed);
    if (it != cache_.end() && it->second.matrix == found && it->second.crc == recorded) {
      MANDIPASS_OBS_COUNT("auth.matrix_cache.poison_detected");
      recency_.erase(it->second.lru);
      cache_.erase(it);
    }
  }
  MANDIPASS_OBS_COUNT("auth.batch.matrix_cache_misses");
  // Build outside any lock (dim^2 RNG draws), then publish. A losing
  // racer's matrix is identical by construction, so either copy is fine.
  auto fresh = std::make_shared<const GaussianMatrix>(seed, dim);
  const std::uint32_t crc = fresh->checksum();
  MutexLock lock(mutex_);
  auto [it, inserted] = cache_.try_emplace(seed);
  if (inserted) {
    recency_.push_front(seed);
    it->second = Entry{std::move(fresh), crc, recency_.begin()};
    evict_over_cap();
  } else if (it->second.matrix->dim() != dim) {
    it->second.matrix = std::move(fresh);
    it->second.crc = crc;
    recency_.splice(recency_.begin(), recency_, it->second.lru);
  } else {
    recency_.splice(recency_.begin(), recency_, it->second.lru);
  }
  return it->second.matrix;
}

std::shared_ptr<const GaussianMatrix> MatrixCache::peek(std::uint64_t seed,
                                                        std::size_t dim) const {
  MANDIPASS_EXPECTS(dim > 0);
  std::shared_ptr<const GaussianMatrix> found;
  std::uint32_t recorded = 0;
  {
    MutexLock lock(mutex_);
    const auto it = cache_.find(seed);
    if (it == cache_.end() || it->second.matrix->dim() != dim) {
      return nullptr;
    }
    found = it->second.matrix;
    recorded = it->second.crc;
  }
  if (found->checksum() != recorded) {
    MANDIPASS_OBS_COUNT("auth.matrix_cache.poison_detected");
    return nullptr;
  }
  return found;
}

std::size_t MatrixCache::size() const {
  MutexLock lock(mutex_);
  return cache_.size();
}

bool MatrixCache::corrupt_integrity_for_test(std::uint64_t seed) {
  MutexLock lock(mutex_);
  const auto it = cache_.find(seed);
  if (it == cache_.end()) {
    return false;
  }
  it->second.crc ^= 0xDEADBEEFu;
  return true;
}

void MatrixCache::evict_over_cap() {
  while (cache_.size() > config_.max_entries) {
    // recency_ back = least recently used; never the entry just pushed
    // to the front, so the caller's matrix survives its own insert.
    const std::uint64_t victim = recency_.back();
    recency_.pop_back();
    cache_.erase(victim);
    MANDIPASS_OBS_COUNT("auth.matrix_cache.evicted");
  }
}

}  // namespace mandipass::auth
