// Process-shared, bounded cache of Gaussian cancelable-transform
// matrices.
//
// A GaussianMatrix is a pure function of (seed, dim) and costs dim^2
// Box-Muller draws, evaluated a block at a time in vector registers,
// plus writing them into the packed kernel: about 2 ms at dim 512 on one
// core, still some 80x the dim^2 mat-vec it then accelerates. So every
// verification engine wants the same seed-keyed cache. Extracted from BatchVerifier (PR 2) so that
// the shards of a ShardedVerifier share one cache instead of N: a seed
// epoch materialises each matrix once per service, not once per shard.
//
// Bounded (PR 9): under seed-rotation churn (mass re-keying, the chaos
// storm) the old unbounded map grew one dim^2 matrix per retired seed
// forever. The cache now holds at most `max_entries` matrices and evicts
// the least-recently-used seed past the cap ("auth.matrix_cache.evicted").
// Out-standing shared_ptrs keep an evicted matrix alive for callers that
// already hold it; only the cache's reference is dropped.
//
// Integrity: each entry records the CRC32 of its packed kernel bytes at
// insert and re-verifies on every lookup. The serving path looks each
// distinct key up once per call (the decide step,
// auth/batch_verifier.h), so a call pays one CRC pass per distinct key,
// not one per request or per shard, and every key a call uses is checked
// in that call. A mismatch means the shared in-memory matrix was
// corrupted after publication (stray write, poisoning) — a silent
// wrong-answer factory for every shard. Detection
// increments "auth.matrix_cache.poison_detected" and the entry is dropped
// and rebuilt from its seed (get) or reported as absent (peek), so the
// cache self-heals instead of serving poisoned transforms.
//
// Concurrency: the LRU list makes every lookup a structural mutation, so
// one Mutex guards map + recency list. A lookup holds it only for the
// find and, in get, the recency splice: it copies the entry's shared_ptr
// and recorded CRC, releases the lock and runs the CRC pass over the
// copy, so concurrent lookups (decide lanes verifying their keys) run
// their CRC passes in parallel instead of queueing on the one lock. The
// copy keeps the matrix alive even if the entry is evicted meanwhile.
// On a mismatch get re-locks and drops the entry only if it still holds
// that same matrix and CRC — lookups that raced on one poisoned entry
// find it gone or already rebuilt — so one poisoning counts once. A miss
// builds the matrix OUTSIDE the lock (the expensive part) and publishes
// under it; losing a publish race is harmless — both racers built
// identical matrices from the same seed. The containers are
// MANDIPASS_GUARDED_BY(mutex_) and the contract is compiler-checked
// under the tsafety preset (DESIGN.md §14).
//
// Recycled storage: an evicted or replaced matrix that no caller holds
// gives its packed buffer back to the cache, and a later miss of the same
// dim builds into it (GaussianMatrix's storage argument) instead of
// allocating. The bits and the CRC of the rebuilt key are a fresh
// build's. Without this, every miss allocates a dim^2 buffer on whichever
// thread builds it and every eviction frees one, and the allocator keeps
// the freed blocks in per-thread arenas. The sole-owner check runs under
// mutex_, where every copy of an entry is made: a matrix some caller still
// holds is never reused, and it is freed when its last holder drops it.
#pragma once

#include <cstdint>
#include <list>
#include <memory>
#include <unordered_map>
#include <vector>

#include "auth/gaussian_matrix.h"
#include "common/mutex.h"
#include "common/thread_annotations.h"

namespace mandipass::auth {

struct MatrixCacheConfig {
  /// Maximum distinct seeds held; the least-recently-used entry past this
  /// is evicted. Generous default: 1024 entries at dim 512 is ~1 GiB of
  /// packed matrices, far above any steady-state seed-epoch working set.
  std::size_t max_entries = 1024;
};

class MatrixCache {
 public:
  explicit MatrixCache(MatrixCacheConfig config = {});

  /// The matrix for (seed, dim), building and caching it on first use.
  /// The returned shared_ptr keeps the matrix alive independently of the
  /// cache, so callers may hold it across cache mutations (including
  /// eviction of this very entry). A seed that re-appears with a
  /// different dim (re-keyed deployment changing embedding width)
  /// replaces the stale entry. A poisoned entry (CRC mismatch) is
  /// dropped and rebuilt as a miss.
  std::shared_ptr<const GaussianMatrix> get(std::uint64_t seed, std::size_t dim)
      MANDIPASS_EXCLUDES(mutex_);

  /// Lookup WITHOUT building on miss — the degraded-mode path: when a
  /// shard's circuit breaker is open the service only serves matrices it
  /// already has. Returns nullptr on miss, dim mismatch, or CRC
  /// mismatch (the poisoned entry is left in place; the next get() drops
  /// and rebuilds it). Does not touch LRU recency and does not count
  /// toward hit/miss — degraded traffic must not perturb the healthy
  /// path's cache statistics or ordering.
  std::shared_ptr<const GaussianMatrix> peek(std::uint64_t seed, std::size_t dim) const
      MANDIPASS_EXCLUDES(mutex_);

  /// Number of distinct seeds currently cached.
  std::size_t size() const MANDIPASS_EXCLUDES(mutex_);

  /// Corrupts the stored CRC of `seed`'s entry so the next lookup takes
  /// the poison-detection path. Test/chaos hook: the matrix itself is
  /// const-shared and cannot be scribbled on safely, but detection only
  /// compares bytes-vs-recorded-CRC, so breaking the recorded side
  /// exercises the identical code path. Returns false if absent.
  bool corrupt_integrity_for_test(std::uint64_t seed) MANDIPASS_EXCLUDES(mutex_);

 private:
  struct Entry {
    std::shared_ptr<const GaussianMatrix> matrix;
    std::uint32_t crc = 0;
    std::list<std::uint64_t>::iterator lru;  ///< position in recency_
  };

  /// A packed buffer given back by a dropped matrix of dimension `dim`.
  struct Spare {
    std::size_t dim = 0;
    std::vector<float> packed;
  };

  /// Kept buffers, at most. Each miss takes at most one and its publish
  /// gives back at most one, so the list only has to cover the misses in
  /// flight at once, a handful of lanes; buffers of a dim no miss asks
  /// for are never taken, and the cap (oldest dropped first) keeps them
  /// from piling up. A constant, not a config field: it bounds the
  /// cache's own slack, at most kMaxSpares dim^2 floats beyond
  /// max_entries, and no caller needs another value.
  static constexpr std::size_t kMaxSpares = 8;

  /// Deleter of every matrix the cache builds: frees it, or, when the
  /// cache pointed `keep` at a buffer first, moves its packed buffer there.
  struct Reclaim {
    std::vector<float>* keep = nullptr;
    void operator()(GaussianMatrix* matrix) const;
  };

  /// Builds (seed, dim) outside the lock, into a kept buffer of that dim
  /// when there is one.
  std::shared_ptr<const GaussianMatrix> build(std::uint64_t seed, std::size_t dim)
      MANDIPASS_EXCLUDES(mutex_);
  /// Drops the cache's reference to a matrix it no longer lists, keeping
  /// the packed buffer when that reference is the last one.
  void retire(std::shared_ptr<const GaussianMatrix> matrix) MANDIPASS_REQUIRES(mutex_);
  void evict_over_cap() MANDIPASS_REQUIRES(mutex_);

  MatrixCacheConfig config_;
  mutable common::Mutex mutex_;
  std::unordered_map<std::uint64_t, Entry> cache_ MANDIPASS_GUARDED_BY(mutex_);
  /// Front = most recently used. std::list so Entry::lru iterators stay
  /// valid across splices; size is slaved to cache_ (bounded by
  /// max_entries via evict_over_cap).
  std::list<std::uint64_t> recency_ MANDIPASS_GUARDED_BY(mutex_);
  /// Oldest first; at most kMaxSpares.
  std::vector<Spare> spares_ MANDIPASS_GUARDED_BY(mutex_);
};

}  // namespace mandipass::auth
