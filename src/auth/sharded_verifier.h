// Sharded authentication service (DESIGN.md §15).
//
// One BatchVerifier is a single TemplateStore behind one shared_mutex —
// correct, but every verification in the process contends on the same
// reader count and every enrolment stalls every reader. ShardedVerifier
// splits the population across N independent BatchVerifier shards keyed
// by a stable hash of the user id, so lock traffic scales with shards:
//
//   * routing: shard_for(user) = FNV-1a 64(user) mod N. The hash is
//     fixed (not std::hash) so a population shards identically on every
//     platform and across runs — tests and baselines depend on it;
//   * writes (enroll / revoke) go to exactly the owning shard and touch
//     no other shard's lock;
//   * verify_batch routes each request to its shard, then hands the
//     per-shard lists to serve(), the service's one shard fan-out (the
//     resilience layer calls it too, after its own admission). serve()
//     runs the engine's decision kernel (auth/batch_verifier.h):
//     BatchVerifier::prepare for each shard on the calling thread, then
//     one BatchVerifier::decide over all of them, one pool task per
//     distinct Gaussian key — so a key that several shards need costs
//     one cache lookup, one CRC pass. Within a shard the requests of one
//     key run as one packed-GEMM tile: same-key requests share one
//     streaming pass over the packed matrix.
//
// Shard invariance: every decision is produced by the same snapshot +
// transform + cosine pipeline as a lone BatchVerifier, and coalescing
// preserves the per-element accumulation order, so decisions and
// distances are bit-identical for ANY shard count (tested at 1/2/8 in
// tests/auth/test_sharded_verifier.cpp and asserted as a bench_service
// exit verdict).
//
// Lock topology: the shard array and the shared MatrixCache pointer are
// immutable after construction, so this class adds NO lock of its own —
// the only capabilities involved are each shard's internal mutex_ (never
// held two at a time: the router touches one shard per request, and only
// the prepare step locks a shard, one shard at a time on the calling
// thread) and the MatrixCache mutex (never held while a shard lock is
// held: decide makes its first cache call after every prepare of the
// call has released its shard lock, and takes no shard lock itself).
// Deadlock is therefore impossible by construction — there is no point
// where two locks overlap.
#pragma once

#include <cstdint>
#include <memory>
#include <optional>
#include <span>
#include <string>
#include <string_view>
#include <vector>

#include "auth/batch_verifier.h"
#include "auth/matrix_cache.h"
#include "common/thread_pool.h"

namespace mandipass::auth {

/// Stable 64-bit FNV-1a hash of a user id; the shard routing function.
/// Deliberately not std::hash: routing must agree across platforms,
/// standard libraries and process runs.
std::uint64_t user_shard_hash(std::string_view user);

/// One shard's share of a batch, as serve() takes it: the request
/// indices routed to the shard, in request order, and whether the shard
/// serves degraded mode (BatchVerifier::prepare's `degraded`).
struct ShardWork {
  std::vector<std::size_t> indices;
  bool degraded = false;
};

class ShardedVerifier {
 public:
  /// `shards` BatchVerifier instances (one per core is the intended
  /// sizing) sharing one Gaussian-matrix cache. Precondition: shards >= 1.
  explicit ShardedVerifier(std::size_t shards, double threshold = kPaperThreshold);

  std::size_t shard_count() const { return shards_.size(); }

  /// The shard that owns `user` (stable across runs and platforms).
  std::size_t shard_for(std::string_view user) const {
    return static_cast<std::size_t>(user_shard_hash(user) % shards_.size());
  }

  /// Seals a template on the owning shard. Overwrites any previous one.
  void enroll(const std::string& user, StoredTemplate tmpl);

  /// Removes a user's template from the owning shard; false if absent.
  bool revoke(const std::string& user);

  /// Consistent copy of the user's sealed template from the owning shard.
  std::optional<StoredTemplate> snapshot(const std::string& user) const;

  /// Total enrolled users across all shards. Each shard is counted under
  /// its own lock; concurrent writers may move the total between reads.
  std::size_t size() const;

  /// Verifies one request on the owning shard (no coalescing: a single
  /// request has nothing to share a matrix pass with).
  BatchDecision verify_one(const std::string& user, std::span<const float> raw_probe) const;

  /// Routes requests to their shards, then serve()s them (healthy
  /// mode on every shard). decisions[i] always answers requests[i];
  /// duplicate user ids are safe (they land on one shard and are decided
  /// against one snapshot). The stats carry outcome counts only.
  BatchResult verify_batch(std::span<const VerifyRequest> requests,
                           common::ThreadPool* pool = nullptr,
                           const common::Deadline& deadline = {}) const;

  /// The shard fan-out. Runs the kernel's prepare step for each shard
  /// with work, on the calling thread, then one decide over all of them
  /// (BatchVerifier::decide): one task per distinct key of the call, on
  /// `pool` (the global pool when null) when more than one shard has
  /// work and on the calling thread otherwise, so a one-request call
  /// wakes no worker. A key any healthy shard needs is fetched with get,
  /// one only degraded shards need is peeked, and every shard uses that
  /// one result.
  ///
  /// Writes decisions[i] for each routed index i and leaves other slots
  /// untouched. Preconditions: work.size() equals shard_count(); each
  /// index appears at most once, in the list of the shard that owns its
  /// user; decisions.size() equals requests.size().
  ///
  /// auth.shard.{verify_total, coalesced_groups, coalesced_requests,
  /// singleton_requests} are counted after the join on the calling
  /// thread, so they do not depend on the thread count.
  ///
  /// `deadline` bounds the call: each shard's prepare answers an expired
  /// budget with typed Expired decisions before any lock or GEMM, and
  /// decide re-checks it before each key's lookup. An unlimited deadline
  /// adds one null check to the fast path.
  void serve(std::span<const VerifyRequest> requests, std::span<const ShardWork> work,
             std::span<BatchDecision> decisions, common::ThreadPool* pool,
             const common::Deadline& deadline) const;

  /// Operating threshold (uniform across shards, fixed at construction;
  /// read from shard 0 without a lock).
  double threshold() const;

  /// The shared matrix cache (callers warm it; the chaos harness
  /// poisons it).
  MatrixCache& matrix_cache() { return *cache_; }

  /// Direct shard access (the resilience layer's persistence probes save
  /// individual shards). Precondition: s < shard_count().
  BatchVerifier& shard(std::size_t s) { return *shards_[s]; }

 private:
  /// Shared before the shards so it outlives them on destruction order.
  std::shared_ptr<MatrixCache> cache_;
  /// Immutable after construction (the vector itself; shards internally
  /// locked). unique_ptr keeps BatchVerifier's mutexes address-stable.
  std::vector<std::unique_ptr<BatchVerifier>> shards_;
};

}  // namespace mandipass::auth
