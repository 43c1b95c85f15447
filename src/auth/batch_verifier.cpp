#include "auth/batch_verifier.h"
// mandilint: allow-file(expects-guard) -- the batch API is total by design
// (DESIGN.md §12): malformed requests become typed Invalid decisions on the
// pool workers instead of precondition failures, and threshold bounds are
// enforced by the owned Verifier.

#include <algorithm>
#include <chrono>
#include <map>
#include <utility>

#include "auth/gaussian_matrix.h"
#include "common/error.h"
#include "common/mutex.h"
#include "common/obs.h"

namespace mandipass::auth {

using common::kDeferLock;
using common::ReaderLock;
using common::WriterLock;

BatchVerifier::BatchVerifier(double threshold, std::shared_ptr<MatrixCache> cache)
    : verifier_(threshold),
      cache_(cache != nullptr ? std::move(cache) : std::make_shared<MatrixCache>()) {}

void BatchVerifier::enroll(const std::string& user, StoredTemplate tmpl) {
  WriterLock lock(mutex_, kDeferLock);
  {
    MANDIPASS_OBS_TRACE(trace_wait, "auth.batch.exclusive_lock_wait_us");
    // Deferred acquire on the scoped guard so the trace times exactly the
    // lock wait; the guard's destructor still releases (common/mutex.h).
    lock.lock();  // mandilint: allow(raw-lock-discipline) -- timed deferred RAII acquire
  }
  MANDIPASS_OBS_COUNT("auth.batch.enroll_total");
  store_.enroll(user, std::move(tmpl));
}

bool BatchVerifier::revoke(const std::string& user) {
  WriterLock lock(mutex_, kDeferLock);
  {
    MANDIPASS_OBS_TRACE(trace_wait, "auth.batch.exclusive_lock_wait_us");
    lock.lock();  // mandilint: allow(raw-lock-discipline) -- timed deferred RAII acquire
  }
  MANDIPASS_OBS_COUNT("auth.batch.revoke_total");
  return store_.revoke(user);
}

std::optional<StoredTemplate> BatchVerifier::lookup_locked(const std::string& user) const {
  return store_.lookup(user);
}

std::optional<StoredTemplate> BatchVerifier::snapshot(const std::string& user) const {
  ReaderLock lock(mutex_);
  return lookup_locked(user);
}

std::size_t BatchVerifier::size() const {
  ReaderLock lock(mutex_);
  return store_.size();
}

const char* batch_status_name(BatchStatus status) {
  switch (status) {
    case BatchStatus::Accepted:
      return "accepted";
    case BatchStatus::Rejected:
      return "rejected";
    case BatchStatus::Unknown:
      return "unknown";
    case BatchStatus::Invalid:
      return "invalid";
    case BatchStatus::Expired:
      return "expired";
    case BatchStatus::Shed:
      return "shed";
  }
  return "?";
}

BatchStats tally(std::span<const BatchDecision> decisions, double wall_ms) {
  BatchStats st;
  st.requests = decisions.size();
  for (const BatchDecision& d : decisions) {
    st.known += d.known ? 1 : 0;
    st.accepted += (d.known && d.decision.accepted) ? 1 : 0;
    st.unknown += d.status == BatchStatus::Unknown ? 1 : 0;
    st.invalid += d.status == BatchStatus::Invalid ? 1 : 0;
    st.expired += d.status == BatchStatus::Expired ? 1 : 0;
    st.shed += d.status == BatchStatus::Shed ? 1 : 0;
    st.degraded += d.degraded ? 1 : 0;
  }
  if (wall_ms > 0.0) {
    st.wall_ms = wall_ms;
    st.throughput_per_s = static_cast<double>(st.requests) * 1000.0 / wall_ms;
  }
  return st;
}

void mark_rejected(BatchDecision& out, const common::Error& error) {
  out = BatchDecision{};
  switch (error.code) {
    case common::ErrorCode::UnknownUser:
      out.status = BatchStatus::Unknown;
      break;
    case common::ErrorCode::DeadlineExceeded:
      out.status = BatchStatus::Expired;
      break;
    case common::ErrorCode::Overloaded:
      out.status = BatchStatus::Shed;
      break;
    default:
      out.status = BatchStatus::Invalid;
      break;
  }
  out.reason = error.code;
}

void mark_expired(BatchDecision& out) {
  mark_rejected(out, common::make_error(common::ErrorCode::DeadlineExceeded,
                                        "request budget exhausted before verification"));
}

void mark_shed(BatchDecision& out, const char* detail) {
  mark_rejected(out, common::make_error(common::ErrorCode::Overloaded, detail));
}

BatchDecision BatchVerifier::verify_one(const std::string& user,
                                        std::span<const float> raw_probe) const {
  MANDIPASS_OBS_TRACE(trace_verify, "auth.batch.verify_us");
  const VerifyRequest request{user, std::vector<float>(raw_probe.begin(), raw_probe.end())};
  const std::size_t only = 0;
  BatchDecision out;
  verify_coalesced({&request, 1}, {&only, 1}, {&out, 1});
  return out;
}

CoalesceStats BatchVerifier::verify_coalesced(std::span<const VerifyRequest> requests,
                                              std::span<const std::size_t> indices,
                                              std::span<BatchDecision> decisions,
                                              const common::Deadline& deadline) const {
  const PreparedShard shard = prepare(requests, indices, decisions, deadline, false);
  return decide(requests, {&shard, 1}, decisions, deadline, nullptr);
}

PreparedShard BatchVerifier::prepare(std::span<const VerifyRequest> requests,
                                     std::span<const std::size_t> indices,
                                     std::span<BatchDecision> decisions,
                                     const common::Deadline& deadline, bool degraded) const {
  MANDIPASS_EXPECTS(decisions.size() == requests.size());
  PreparedShard shard;
  shard.degraded = degraded;
  if (indices.empty()) {
    return shard;
  }
  // Deadline gate on entry: a batch whose budget is already gone gets
  // typed Expired decisions before any lock or GEMM is touched.
  if (deadline.expired()) {
    for (const std::size_t i : indices) {
      MANDIPASS_OBS_COUNT("auth.batch.verify_total");
      MANDIPASS_OBS_COUNT("auth.batch.verify_expired");
      mark_expired(decisions[i]);
    }
    return shard;
  }
  // The probe gate, before any lock is taken. This runs on pool workers,
  // where a throw would surface via parallel_for on the caller and void
  // the whole batch, so a malformed probe becomes a typed Invalid
  // decision instead.
  std::vector<std::size_t>& valid = shard.valid;
  valid.reserve(indices.size());
  for (const std::size_t i : indices) {
    MANDIPASS_OBS_COUNT("auth.batch.verify_total");
    if (const auto gate = check_probe(requests[i].raw_probe); !gate.ok()) {
      MANDIPASS_OBS_COUNT("auth.batch.verify_invalid");
      mark_rejected(decisions[i], gate.error());
      continue;
    }
    decisions[i] = BatchDecision{};
    valid.push_back(i);
  }
  // ONE shared-lock window snapshots every template, so the whole
  // coalesced batch is decided against a single consistent store
  // generation. Duplicate user ids in the batch hit the same snapshot and
  // therefore always agree; nothing here acquires a second lock, so a
  // duplicate-heavy batch cannot deadlock either.
  std::vector<std::optional<StoredTemplate>>& snaps = shard.snaps;
  snaps.resize(valid.size());
  {
    ReaderLock lock(mutex_, kDeferLock);
    {
      MANDIPASS_OBS_TRACE(trace_wait, "auth.batch.shared_lock_wait_us");
      lock.lock();  // mandilint: allow(raw-lock-discipline) -- timed deferred RAII acquire
    }
    for (std::size_t k = 0; k < valid.size(); ++k) {
      snaps[k] = lookup_locked(requests[valid[k]].user);
    }
  }
  // The template gate (Unknown / dimension mismatch), then group the rest
  // by (matrix_seed, dim). std::map keys keep group order deterministic.
  for (std::size_t k = 0; k < valid.size(); ++k) {
    const VerifyRequest& req = requests[valid[k]];
    if (const auto gate = check_template(snaps[k], req.user, req.raw_probe.size()); !gate.ok()) {
      if (gate.code() == common::ErrorCode::UnknownUser) {
        MANDIPASS_OBS_COUNT("auth.batch.verify_unknown");
      } else {
        MANDIPASS_OBS_COUNT("auth.batch.verify_invalid");
      }
      mark_rejected(decisions[valid[k]], gate.error());
      continue;
    }
    shard.groups[{snaps[k]->matrix_seed, req.raw_probe.size()}].push_back(k);
  }
  return shard;
}

CoalesceStats BatchVerifier::decide(std::span<const VerifyRequest> requests,
                                    std::span<const PreparedShard> shards,
                                    std::span<BatchDecision> decisions,
                                    const common::Deadline& deadline,
                                    common::ThreadPool* pool) const {
  // One task per distinct key: every shard's group of it, and whether a
  // healthy shard needs it. std::map keeps the tasks in key order.
  struct KeyTask {
    bool build = false;
    std::vector<std::pair<const PreparedShard*, std::span<const std::size_t>>> groups;
    CoalesceStats cs;
  };
  std::map<MatrixKey, KeyTask> keys;
  for (const PreparedShard& shard : shards) {
    for (const auto& [key, members] : shard.groups) {
      KeyTask& task = keys[key];
      task.build |= !shard.degraded;
      task.groups.emplace_back(&shard, members);
    }
  }
  // The map's shape is fixed from here on, so lanes may fill distinct
  // tasks concurrently. Each request sits in one shard's list and one
  // key's group, so the tasks write disjoint decision slots, and a task's
  // work does not depend on the lane that runs it, so the decisions are
  // identical for any thread count.
  std::vector<std::pair<const MatrixKey, KeyTask>*> tasks;
  tasks.reserve(keys.size());
  for (auto& entry : keys) {
    tasks.push_back(&entry);
  }
  const auto run = [&](std::size_t lo, std::size_t hi) {
    std::vector<float> xs;
    std::vector<float> transformed;
    for (std::size_t n = lo; n < hi; ++n) {
      const auto& [seed, dim] = tasks[n]->first;
      KeyTask& task = tasks[n]->second;
      // Once the budget dies, the remaining keys' members expire instead
      // of burning CRC passes and builds on answers nobody will read.
      // Degraded mode never builds a matrix: the breaker is engaged
      // because the shard's dependencies are suspect, so a cold key is an
      // honest typed shed rather than a multi-millisecond build.
      const bool expired = deadline.expired();
      std::shared_ptr<const GaussianMatrix> matrix;
      if (!expired) {
        matrix = task.build ? cache_->get(seed, dim) : cache_->peek(seed, dim);
      }
      for (const auto& [shard, members] : task.groups) {
        if (matrix == nullptr) {
          for (const std::size_t k : members) {
            if (expired) {
              MANDIPASS_OBS_COUNT("auth.batch.verify_expired");
              mark_expired(decisions[shard->valid[k]]);
            } else {
              mark_shed(decisions[shard->valid[k]], "degraded mode: matrix not cached");
            }
          }
          continue;
        }
        // One packed-GEMM tile per shard's group: pack the member probes
        // contiguously and stream the matrix once per kXTile probes.
        // transform_batch keeps transform()'s per-element accumulation
        // order, so every distance below is bit-identical to a lone
        // transform.
        task.cs.groups += 1;
        if (members.size() >= 2) {
          task.cs.coalesced += members.size();
        } else {
          task.cs.singletons += 1;
        }
        xs.resize(members.size() * dim);
        transformed.resize(members.size() * dim);
        for (std::size_t m = 0; m < members.size(); ++m) {
          const auto& probe = requests[shard->valid[members[m]]].raw_probe;
          std::copy(probe.begin(), probe.end(), xs.begin() + static_cast<std::ptrdiff_t>(m * dim));
        }
        matrix->transform_batch(xs, members.size(), transformed);
        for (std::size_t m = 0; m < members.size(); ++m) {
          const StoredTemplate& snap = *shard->snaps[members[m]];
          BatchDecision& out = decisions[shard->valid[members[m]]];
          out.known = true;
          out.degraded = shard->degraded;
          out.key_version = snap.key_version;
          out.decision = verifier_.verify(
              std::span<const float>(transformed).subspan(m * dim, dim), snap.data);
          if (out.decision.accepted) {
            MANDIPASS_OBS_COUNT("auth.batch.verify_accepted");
            out.status = BatchStatus::Accepted;
          } else {
            MANDIPASS_OBS_COUNT("auth.batch.verify_rejected");
            out.status = BatchStatus::Rejected;
          }
        }
      }
    }
  };
  if (pool == nullptr) {
    run(0, tasks.size());
  } else {
    pool->parallel_for(0, tasks.size(), 1, run);
  }
  // Summed after the join, on the calling thread.
  CoalesceStats total;
  for (const auto& entry : keys) {
    total.groups += entry.second.cs.groups;
    total.coalesced += entry.second.cs.coalesced;
    total.singletons += entry.second.cs.singletons;
  }
  return total;
}

BatchResult BatchVerifier::verify_batch(std::span<const VerifyRequest> requests,
                                        common::ThreadPool* pool) const {
  MANDIPASS_OBS_TRACE(trace_batch, "auth.batch.batch_us");
  using clock = std::chrono::steady_clock;
  common::ThreadPool& tp = pool != nullptr ? *pool : common::ThreadPool::global();

  BatchResult result;
  result.decisions.resize(requests.size());
  std::vector<double> request_ms(requests.size(), 0.0);

  const auto batch_start = clock::now();
  tp.parallel_for(0, requests.size(), 1, [&](std::size_t lo, std::size_t hi) {
    for (std::size_t i = lo; i < hi; ++i) {
      const auto t0 = clock::now();
      result.decisions[i] = verify_one(requests[i].user, requests[i].raw_probe);
      request_ms[i] = std::chrono::duration<double, std::milli>(clock::now() - t0).count();
    }
  });
  const double wall_ms =
      std::chrono::duration<double, std::milli>(clock::now() - batch_start).count();

  BatchStats& s = result.stats;
  s = tally(result.decisions, wall_ms);
  double sum_ms = 0.0;
  for (const double ms : request_ms) {
    sum_ms += ms;
    s.max_request_ms = std::max(s.max_request_ms, ms);
  }
  if (s.requests > 0) {
    s.mean_request_ms = sum_ms / static_cast<double>(s.requests);
  }
  return result;
}

common::Result<void> BatchVerifier::save_file(const std::string& path, int max_retries,
                                              const resilience::BackoffPolicy& backoff) const {
  WriterLock lock(mutex_);
  return store_.save_file(path, max_retries, backoff);
}

}  // namespace mandipass::auth
