// Concurrent batch authentication engine.
//
// A production deployment serves many verification requests at once while
// enrolments and revocations trickle in. BatchVerifier owns a
// TemplateStore behind an annotated common::SharedMutex:
//
//   * verify paths take a shared lock only long enough to snapshot the
//     user's StoredTemplate (a copy), then run the heavy math — Gaussian
//     cancelable transform + cosine distance — outside the lock;
//   * enroll / revoke / re-key take the exclusive lock;
//   * the threshold is fixed at construction and needs no lock.
//
// The decision kernel runs in two steps: prepare (gates, one snapshot
// window, grouping by Gaussian key), per shard, and decide, once per
// call: one task per distinct key looks it up in the MatrixCache once
// and runs every shard's group of that key (transform + cosine per
// member). verify_coalesced runs the two for one shard;
// ShardedVerifier::serve prepares every shard on the calling thread,
// then decides them all in one fan-out, so a key that several shards
// need is looked up once.
//
// A reader therefore always sees a template that existed in full at some
// point (no torn reads: the snapshot happens under the lock), and the
// returned key_version identifies exactly which template generation the
// decision was made against. verify_batch fans the requests out over a
// thread pool with deterministic chunking; per-request decisions are
// independent, so the decision vector is identical for any thread count.
#pragma once

#include <cstdint>
#include <map>
#include <memory>
#include <optional>
#include <span>
#include <string>
#include <utility>
#include <vector>

#include "auth/matrix_cache.h"
#include "auth/resilience/backoff.h"
#include "auth/template_store.h"
#include "auth/verifier.h"
#include "common/deadline.h"
#include "common/mutex.h"
#include "common/result.h"
#include "common/thread_annotations.h"
#include "common/thread_pool.h"

namespace mandipass::auth {

/// One authentication request: a user id plus the raw (pre-transform)
/// MandiblePrint extracted from the probe recording.
struct VerifyRequest {
  std::string user;
  std::vector<float> raw_probe;
};

/// What happened to one request in a batch. verify_one is total: every
/// request — including malformed probes and unknown ids — maps to one of
/// these, so no exception can escape a worker thread and tear down the
/// whole batch (DESIGN.md §12).
enum class BatchStatus : std::uint8_t {
  Accepted,  ///< enrolled user, distance within threshold
  Rejected,  ///< enrolled user, distance beyond threshold
  Unknown,   ///< no enrolment for this user id
  Invalid,   ///< request malformed (empty / non-finite / wrong-dim probe)
  Expired,   ///< deadline passed before verification ran (DeadlineExceeded)
  Shed,      ///< load-shed before verification ran (Overloaded)
};

const char* batch_status_name(BatchStatus status);

/// Outcome of one request in a batch.
struct BatchDecision {
  bool known = false;            ///< user was enrolled when snapshotted
  Decision decision;             ///< valid only when known
  std::uint32_t key_version = 0; ///< template generation the decision used
  BatchStatus status = BatchStatus::Unknown;
  /// Structured reject reason; meaningful for Unknown (UnknownUser),
  /// Invalid (InvalidInput / NonFiniteSample / DimensionMismatch),
  /// Expired (DeadlineExceeded) and Shed (Overloaded).
  common::ErrorCode reason = common::ErrorCode::UnknownUser;
  /// True when the decision was served in degraded mode (circuit open:
  /// cached-matrix-only verification, DESIGN.md §17). The accept/reject
  /// outcome is still exact — same matrix, same distance — but callers
  /// that require a fully healthy service can route on this bit instead
  /// of getting a silently indistinguishable answer.
  bool degraded = false;
};

/// Aggregate statistics of one verify_batch call. The outcome counts come
/// from tally() at every layer; the timing fields (wall_ms,
/// mean_request_ms, max_request_ms, throughput_per_s) are filled only by
/// BatchVerifier::verify_batch and stay 0 elsewhere.
struct BatchStats {
  std::size_t requests = 0;
  std::size_t known = 0;           ///< requests that matched an enrolment
  std::size_t accepted = 0;
  std::size_t unknown = 0;         ///< ids with no enrolment
  std::size_t invalid = 0;         ///< malformed requests (typed reject)
  std::size_t expired = 0;         ///< deadline-expired before service
  std::size_t shed = 0;            ///< load-shed at admission
  std::size_t degraded = 0;        ///< served in degraded (circuit-open) mode
  double wall_ms = 0.0;            ///< batch wall-clock time
  double mean_request_ms = 0.0;    ///< mean per-request service time
  double max_request_ms = 0.0;     ///< worst per-request service time
  double throughput_per_s = 0.0;   ///< requests / wall seconds
};

struct BatchResult {
  std::vector<BatchDecision> decisions;  ///< decisions[i] answers requests[i]
  BatchStats stats;
};

/// Per-call accounting of the coalescing path (verify_coalesced): how
/// many known requests shared a Gaussian transform with at least one
/// other request versus riding a group of one.
struct CoalesceStats {
  std::size_t groups = 0;      ///< distinct (seed, dim) transform groups
  std::size_t coalesced = 0;   ///< known requests in groups of size >= 2
  std::size_t singletons = 0;  ///< known requests alone in their group
};

/// A Gaussian key as the kernel groups requests by it: (matrix seed,
/// probe dim).
using MatrixKey = std::pair<std::uint64_t, std::size_t>;

/// One shard's share of a call after the prepare step
/// (BatchVerifier::prepare): the requests past the probe gate, their
/// snapshots, and those past the template gate grouped by key.
struct PreparedShard {
  std::vector<std::size_t> valid;                    ///< request indices
  std::vector<std::optional<StoredTemplate>> snaps;  ///< snaps[k] answers valid[k]
  /// Positions k into `valid`, per key; std::map keeps the order fixed.
  std::map<MatrixKey, std::vector<std::size_t>> groups;
  bool degraded = false;  ///< served in degraded mode (DESIGN.md §17.4)
};

/// The outcome counts of a batch (requests, known, accepted, unknown,
/// invalid, expired, shed, degraded) plus, when `wall_ms` > 0, the wall
/// time and throughput. Per-request service times are left to the caller.
BatchStats tally(std::span<const BatchDecision> decisions, double wall_ms = 0.0);

/// Overwrites `out` with the typed reject for `error`: Unknown for
/// UnknownUser, Expired for DeadlineExceeded, Shed for Overloaded and
/// Invalid for every other code (the check_probe / check_template
/// rejects). Every layer answers a request it does not verify through
/// this writer.
void mark_rejected(BatchDecision& out, const common::Error& error);

/// The Expired and Shed decisions. Expired requests report known=false
/// regardless of enrolment: the service never looked at the store. Both
/// build their reason with make_error (fault.reject.deadline_exceeded /
/// overloaded); layer counters stay with the caller.
void mark_expired(BatchDecision& out);
void mark_shed(BatchDecision& out, const char* detail);

/// The locking contract below is machine-checked: the store is
/// MANDIPASS_GUARDED_BY its mutex, the internal snapshot helper states
/// MANDIPASS_REQUIRES_SHARED, and the public entry points state
/// MANDIPASS_EXCLUDES (they take the lock themselves, so holding it on
/// entry would deadlock). Under the tsafety preset (Clang,
/// -Werror=thread-safety) a mis-locked access is a compile error; on GCC
/// the annotations are documentation (DESIGN.md §14).
class BatchVerifier {
 public:
  /// `cache` lets several engines (the shards of a ShardedVerifier)
  /// share one seed-keyed Gaussian-matrix cache; when null the verifier
  /// owns a private one. The cache is internally synchronised and the
  /// pointer itself is immutable after construction, so it needs no
  /// guard here.
  explicit BatchVerifier(double threshold = kPaperThreshold,
                         std::shared_ptr<MatrixCache> cache = nullptr);

  /// Seals a template (exclusive lock). Overwrites any previous one.
  void enroll(const std::string& user, StoredTemplate tmpl) MANDIPASS_EXCLUDES(mutex_);

  /// Removes a user's template (exclusive lock); false if absent.
  bool revoke(const std::string& user) MANDIPASS_EXCLUDES(mutex_);

  /// Consistent copy of the user's sealed template (shared lock).
  std::optional<StoredTemplate> snapshot(const std::string& user) const
      MANDIPASS_EXCLUDES(mutex_);

  /// Enrolled-user count (shared lock).
  std::size_t size() const MANDIPASS_EXCLUDES(mutex_);

  /// Verifies one request against the current template generation: a
  /// one-request verify_coalesced call, timed as auth.batch.verify_us.
  BatchDecision verify_one(const std::string& user, std::span<const float> raw_probe) const
      MANDIPASS_EXCLUDES(mutex_);

  /// Verifies a batch, fanning requests out over `pool` (the global pool
  /// when null). Returns per-request decisions plus aggregate stats.
  BatchResult verify_batch(std::span<const VerifyRequest> requests,
                           common::ThreadPool* pool = nullptr) const
      MANDIPASS_EXCLUDES(mutex_);

  /// The engine's decision kernel; every verify entry point of the
  /// engine ends here. Coalesced verification of the subset
  /// requests[indices]: prepare, then decide on the calling thread. One
  /// shared lock acquisition snapshots every template, the known
  /// requests are grouped by (matrix_seed, dim), each group's matrix is
  /// looked up once, and each group runs as one
  /// GaussianMatrix::transform_batch tile instead of one transform per
  /// request. decisions[i] is written for each i in `indices`
  /// (decisions.size() must equal requests.size()); other slots are
  /// untouched, so a router can aim several shards at one decision
  /// vector. Every distance is bit-identical to a lone
  /// GaussianMatrix::transform of the probe checked by Verifier::verify
  /// against the same snapshot — including duplicate user ids, which
  /// simply resolve to the same snapshotted template — and lands at its
  /// request's own index, so the caller's ordering can never invert.
  /// Total: requests refused by check_probe / check_template become typed
  /// Invalid / Unknown decisions.
  ///
  /// `deadline` bounds the call: if it is already expired on entry every
  /// indexed request short-circuits to an Expired decision before any
  /// lock or GEMM, and it is re-checked before each key's lookup so a
  /// budget that dies mid-batch stops burning cycles on answers nobody
  /// will read. The default deadline is unlimited and costs one null
  /// check (bench_overhead's <2% gate covers this path).
  CoalesceStats verify_coalesced(std::span<const VerifyRequest> requests,
                                 std::span<const std::size_t> indices,
                                 std::span<BatchDecision> decisions,
                                 const common::Deadline& deadline = {}) const
      MANDIPASS_EXCLUDES(mutex_);

  /// The kernel's prepare step for requests[indices]: the deadline gate
  /// on entry, the probe gate before any lock, ONE shared-lock window
  /// that snapshots every template, the template gate, and grouping by
  /// key. Rejected and expired requests get their typed decisions here;
  /// the rest are reset and left to decide(). Same contract on
  /// `decisions` as verify_coalesced. `degraded` marks a shard whose
  /// circuit breaker is engaged (DESIGN.md §17.4); decide() never builds
  /// a key for it alone and sets the bit on every decision it serves.
  PreparedShard prepare(std::span<const VerifyRequest> requests,
                        std::span<const std::size_t> indices, std::span<BatchDecision> decisions,
                        const common::Deadline& deadline, bool degraded) const
      MANDIPASS_EXCLUDES(mutex_);

  /// The kernel's decide step for the prepared shards of one call: one
  /// task per distinct key of `shards`, fanned out over `pool` (on the
  /// calling thread when null). Each task checks `deadline`, looks its
  /// key up in this engine's cache once — with get when any healthy
  /// shard needs the key, else with peek, so nothing is built for
  /// degraded shards alone — and runs each shard's group of that key as
  /// one transform_batch with a cosine decision per member, written at
  /// the member's request index. The members of a key whose lookup the
  /// budget did not reach expire in every shard; a key that was not
  /// cached sheds its members (typed Overloaded), and a degraded shard's
  /// decisions carry the `degraded` bit. Takes no shard lock; call it
  /// after every prepare of the call has returned (DESIGN.md §15.3).
  /// Returns the coalescing accounting of all the shards.
  CoalesceStats decide(std::span<const VerifyRequest> requests,
                       std::span<const PreparedShard> shards, std::span<BatchDecision> decisions,
                       const common::Deadline& deadline, common::ThreadPool* pool) const;

  double threshold() const { return verifier_.threshold(); }

  /// Crash-safe persistence of the whole store to `path` (TemplateStore
  /// atomic save + .bak rotation) with transient-I/O retry under the
  /// deterministic backoff policy. The exclusive lock is held for the
  /// duration, so the file is one consistent image; retries
  /// sleep through resilience::retry_sleep_us, which tests and the chaos
  /// bench replace with a capturing hook, so the hold time under
  /// injected faults is virtual. This is the probe the resilience
  /// layer's circuit breaker drives (DESIGN.md §17).
  common::Result<void> save_file(const std::string& path, int max_retries = 3,
                                 const resilience::BackoffPolicy& backoff = {}) const
      MANDIPASS_EXCLUDES(mutex_);

 private:
  /// Shared-lock snapshot helper: the caller must already hold mutex_ at
  /// least shared; it performs the guarded read and nothing else.
  std::optional<StoredTemplate> lookup_locked(const std::string& user) const
      MANDIPASS_REQUIRES_SHARED(mutex_);

  /// The decision threshold, fixed by the constructor, so read without
  /// the lock.
  const Verifier verifier_;
  mutable common::SharedMutex mutex_;
  TemplateStore store_ MANDIPASS_GUARDED_BY(mutex_);  ///< template generations

  /// Seed-keyed Gaussian-matrix cache (auth/matrix_cache.h), possibly
  /// shared across engines. Immutable pointer, internally synchronised.
  std::shared_ptr<MatrixCache> cache_;
};

}  // namespace mandipass::auth
