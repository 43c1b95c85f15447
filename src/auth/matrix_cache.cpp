#include "auth/matrix_cache.h"

#include <iterator>
#include <utility>

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
  auto fresh = build(seed, dim);
  const std::uint32_t crc = fresh->checksum();
  MutexLock lock(mutex_);
  auto [it, inserted] = cache_.try_emplace(seed);
  if (inserted) {
    recency_.push_front(seed);
    it->second = Entry{std::move(fresh), crc, recency_.begin()};
    evict_over_cap();
  } else if (it->second.matrix->dim() != dim) {
    retire(std::exchange(it->second.matrix, std::move(fresh)));
    it->second.crc = crc;
    recency_.splice(recency_.begin(), recency_, it->second.lru);
  } else {
    retire(std::move(fresh));
    recency_.splice(recency_.begin(), recency_, it->second.lru);
  }
  return it->second.matrix;
}

void MatrixCache::Reclaim::operator()(GaussianMatrix* matrix) const {
  if (keep != nullptr) {
    *keep = matrix->release_storage();
  }
  delete matrix;
}

std::shared_ptr<const GaussianMatrix> MatrixCache::build(std::uint64_t seed, std::size_t dim) {
  std::vector<float> storage;
  {
    MutexLock lock(mutex_);
    for (auto it = spares_.rbegin(); it != spares_.rend(); ++it) {
      if (it->dim == dim) {
        storage = std::move(it->packed);
        spares_.erase(std::next(it).base());
        break;
      }
    }
  }
  return {new GaussianMatrix(seed, dim, std::move(storage)), Reclaim{}};
}

void MatrixCache::retire(std::shared_ptr<const GaussianMatrix> matrix) {
  // Every copy of an entry is made under mutex_, so a count of one means
  // no caller holds this matrix and none can take it: the reset below is
  // its last release, and the deleter runs here, ordered after every
  // earlier holder's release. Otherwise the last holder frees it.
  if (matrix.use_count() != 1) {
    return;
  }
  Spare spare{matrix->dim(), {}};
  std::get_deleter<Reclaim>(matrix)->keep = &spare.packed;
  matrix.reset();
  if (spares_.size() == kMaxSpares) {
    spares_.erase(spares_.begin());
  }
  spares_.push_back(std::move(spare));
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
    const auto victim = cache_.find(recency_.back());
    recency_.pop_back();
    retire(std::move(victim->second.matrix));
    cache_.erase(victim);
    MANDIPASS_OBS_COUNT("auth.matrix_cache.evicted");
  }
}

}  // namespace mandipass::auth
