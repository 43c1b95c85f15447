// Service-level chaos harness for the overload-resilience layer
// (DESIGN.md §17).
//
// Drives the 8-shard ResilientVerifier through scripted fault storms and
// gates the outcome with exit verdicts instead of eyeballs:
//
//   1. Healthy transparency — with no faults armed the resilience layer
//      must be invisible: decisions bit-identical to a plain
//      ShardedVerifier, zero shed/expired/degraded.
//   2. Overload storm — a request flood against shard queues capped far
//      below the batch size. Shed counts must equal the serial admission
//      replay exactly (arrival order x capacity is the whole function)
//      and the service must keep admitting full queue capacity.
//   3. Slow shard — a scripted 50 ms stall charge against one shard with
//      a 5 ms virtual-deadline budget: exactly the stalled shard's
//      requests expire, everyone else is served, and the amortized
//      admitted latency p99 stays bounded (the stall is deadline skew,
//      not a sleep — the harness runs at full speed).
//   4. Breaker storm — a store I/O error burst fails persist_shard until
//      the shard's circuit breaker trips (exactly once), the shard serves
//      degraded mode bit-identically from the warm matrix cache, and
//      after the burst clears plus the cooldown elapses the half-open
//      probe re-closes the breaker: full recovery, no degraded residue.
//   5. Cache poisoning — every key epoch's cached matrix is poisoned;
//      the CRC check must detect each one and the rebuilt matrices must
//      produce bit-identical decisions (self-heal, no wrong answers).
//
// Every fault is scripted (ServiceFaultInjector) and every clock is
// virtual, so all event counters on this tape are deterministic: the
// quick run's counters are committed as bench/baselines/
// bench_chaos.quick.json and gated cross-machine with
// bench_compare --skip-latency.
//
// Usage: bench_chaos [--threads N] [--json [PATH]] [--quick] [--users N]
#include <algorithm>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <iostream>
#include <memory>
#include <string>
#include <vector>

#include "auth/resilience/resilient_verifier.h"
#include "auth/sharded_verifier.h"
#include "bench_common.h"
#include "common/deadline.h"
#include "common/obs.h"
#include "common/rng.h"
#include "common/table.h"
#include "common/thread_pool.h"

using namespace mandipass;

namespace {

constexpr std::size_t kDim = 64;        ///< embedding width (service config)
constexpr std::size_t kShards = 8;      ///< the PR 7 service shape
constexpr std::size_t kSeedEpochs = 8;  ///< key-epoch pool; users draw seed = epoch(u)
constexpr std::uint64_t kEpochBase = 0x5EED0000;
constexpr std::size_t kOverloadCapacity = 32;   ///< per-shard queue cap for the storm
constexpr std::size_t kStalledShard = 3;        ///< shard the slow-shard scenario stalls
constexpr std::int64_t kStallUs = 50'000;       ///< scripted stall charge
constexpr std::int64_t kBudgetUs = 5'000;       ///< request deadline under the stall
constexpr std::size_t kBrokenShard = 0;         ///< shard the breaker storm breaks

std::uint64_t epoch_seed(std::size_t user) { return kEpochBase + user % kSeedEpochs; }

std::string user_name(std::size_t u) { return "u" + std::to_string(u); }

/// Deterministic per-user raw MandiblePrint, regenerated on demand.
std::vector<float> print_for(std::size_t u) {
  Rng rng(0x9E3779B97F4A7C15ULL ^ (u * 0x2545F4914F6CDD1DULL + 1));
  std::vector<float> v(kDim);
  for (float& x : v) {
    x = static_cast<float>(rng.uniform());
  }
  return v;
}

auth::StoredTemplate template_for(std::size_t u, const auth::GaussianMatrix& g) {
  auth::StoredTemplate tmpl;
  tmpl.data = g.transform(print_for(u));
  tmpl.matrix_seed = epoch_seed(u);
  tmpl.key_version = 1;
  return tmpl;
}

bool same_decision(const auth::BatchDecision& a, const auth::BatchDecision& b) {
  return a.known == b.known && a.status == b.status && a.reason == b.reason &&
         a.key_version == b.key_version &&
         (!a.known || (a.decision.accepted == b.decision.accepted &&
                       a.decision.distance == b.decision.distance));
}

/// A fixed tape of genuine requests over users [0, pool).
std::vector<auth::VerifyRequest> genuine_tape(std::size_t pool, std::size_t count,
                                              std::uint64_t tape_seed) {
  Rng tape(tape_seed);
  std::vector<auth::VerifyRequest> requests;
  requests.reserve(count);
  for (std::size_t i = 0; i < count; ++i) {
    const std::size_t u = tape.uniform_index(pool);
    requests.push_back({user_name(u), print_for(u)});
  }
  return requests;
}

double percentile(std::vector<double> samples, double q) {
  if (samples.empty()) {
    return 0.0;
  }
  std::sort(samples.begin(), samples.end());
  const auto rank = static_cast<std::size_t>(q * static_cast<double>(samples.size() - 1));
  return samples[rank];
}

}  // namespace

int main(int argc, char** argv) {
  // --quick mirrors MANDIPASS_BENCH_QUICK=1 (set before init_bench so
  // active_scale() and the report's scale field agree with the flag).
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--quick") == 0) {
      setenv("MANDIPASS_BENCH_QUICK", "1", 1);
      for (int j = i; j + 1 < argc; ++j) {
        argv[j] = argv[j + 1];
      }
      --argc;
      break;
    }
  }
  bench::init_bench(argc, argv);
  const bench::Scale scale = bench::active_scale();
  std::size_t users = scale.quick ? 2'000 : 20'000;
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--users") == 0 && i + 1 < argc) {
      users = static_cast<std::size_t>(std::stoull(argv[i + 1]));
      ++i;
    }
  }
  const std::size_t batch = std::min<std::size_t>(users, scale.quick ? 1'024 : 4'096);
  const std::size_t storm_requests = scale.quick ? 4'096 : 16'384;
  const std::size_t stall_rounds = scale.quick ? 32 : 128;

  bench::print_banner("service chaos harness",
                      "robustness extension: deadlines, backpressure, degraded modes "
                      "and breaker-gated persistence under scripted fault storms");
  std::cout << "users " << users << "  dim " << kDim << "  shards " << kShards
            << "  overload queue cap " << kOverloadCapacity << "\n\n";

  common::VirtualClock clock;
  auth::resilience::ResilienceConfig config;
  config.clock = &clock;
  auth::resilience::ResilientVerifier resilient(kShards, config);
  auth::resilience::ResilienceConfig overload_config;
  overload_config.clock = &clock;
  overload_config.queue_capacity = kOverloadCapacity;
  auth::resilience::ResilientVerifier overload(kShards, overload_config);
  auth::ShardedVerifier reference(kShards);

  // Enrollment: one Gaussian matrix per key epoch mints every template.
  std::vector<std::unique_ptr<auth::GaussianMatrix>> epochs;
  for (std::size_t e = 0; e < kSeedEpochs; ++e) {
    epochs.push_back(std::make_unique<auth::GaussianMatrix>(kEpochBase + e, kDim));
  }
  for (std::size_t u = 0; u < users; ++u) {
    const auto tmpl = template_for(u, *epochs[u % kSeedEpochs]);
    resilient.enroll(user_name(u), tmpl);
    overload.enroll(user_name(u), tmpl);
    reference.enroll(user_name(u), tmpl);
  }
  // Serial prewarm: every engine's cache materialises each epoch matrix
  // exactly once, keeping hit/miss counters deterministic afterwards.
  for (std::size_t e = 0; e < kSeedEpochs && e < users; ++e) {
    const auto probe = print_for(e);
    resilient.engine().verify_one(user_name(e), probe);
    overload.engine().verify_one(user_name(e), probe);
    reference.verify_one(user_name(e), probe);
  }

  bool ok = true;

  // ---- 1. Healthy transparency ------------------------------------------
  const auto healthy_tape = genuine_tape(users, batch, 0xC4A05);
  const auth::BatchResult want = reference.verify_batch(healthy_tape);
  const auth::BatchResult healthy = resilient.verify_batch(healthy_tape);
  std::size_t healthy_mismatches = 0;
  for (std::size_t i = 0; i < healthy_tape.size(); ++i) {
    healthy_mismatches += same_decision(healthy.decisions[i], want.decisions[i]) ? 0 : 1;
  }
  ok = bench::record_verdict("healthy_path_transparent",
                             healthy_mismatches == 0 && healthy.stats.shed == 0 &&
                                 healthy.stats.expired == 0 && healthy.stats.degraded == 0,
                             "no faults armed: decisions bit-identical to the plain "
                             "sharded engine, zero shed/expired/degraded") &&
       ok;
  std::cout << "healthy: " << healthy_tape.size() << " requests, "
            << healthy_mismatches << " mismatches vs reference\n";

  // ---- 2. Overload storm -------------------------------------------------
  const auto storm_tape = genuine_tape(users, storm_requests, 0x510C4);
  // Serial replay of the admission arithmetic: shed is a pure function of
  // arrival order and queue capacity, so this is the exact expectation.
  std::vector<std::size_t> arrivals(kShards, 0);
  std::size_t expected_shed = 0;
  for (const auth::VerifyRequest& r : storm_tape) {
    const std::size_t s = overload.shard_for(r.user);
    expected_shed += arrivals[s] >= kOverloadCapacity ? 1 : 0;
    ++arrivals[s];
  }
  const auth::BatchResult stormed = overload.verify_batch(storm_tape);
  const double shed_fraction =
      static_cast<double>(stormed.stats.shed) / static_cast<double>(storm_tape.size());
  const std::size_t admitted = storm_tape.size() - stormed.stats.shed;
  MANDIPASS_OBS_GAUGE_SET("bench.chaos.storm_shed_fraction", shed_fraction);
  ok = bench::record_verdict("storm_shed_exact", stormed.stats.shed == expected_shed,
                             "overload shed count equals the serial admission replay") &&
       ok;
  ok = bench::record_verdict("storm_shed_bounded",
                             admitted == kShards * kOverloadCapacity &&
                                 stormed.stats.expired == 0,
                             "every shard admitted exactly its queue capacity; the "
                             "flood shed the rest, nothing expired") &&
       ok;
  std::cout << "overload: " << storm_tape.size() << " requests -> " << admitted
            << " admitted, " << stormed.stats.shed << " shed ("
            << fmt(100.0 * shed_fraction, 1) << "%)\n";

  // ---- 3. Slow shard under deadline --------------------------------------
  resilient.faults().arm_slow_shard(kStalledShard, kStallUs, static_cast<int>(stall_rounds));
  const auto stall_tape = genuine_tape(users, batch, 0x57A11);
  std::size_t routed_to_stalled = 0;
  for (const auth::VerifyRequest& r : stall_tape) {
    routed_to_stalled += resilient.shard_for(r.user) == kStalledShard ? 1 : 0;
  }
  std::size_t stall_expired_total = 0;
  std::size_t stall_mismatches = 0;
  std::vector<double> amortized_us;
  using wall_clock = std::chrono::steady_clock;
  for (std::size_t round = 0; round < stall_rounds; ++round) {
    const auto deadline = common::Deadline::after_us(kBudgetUs, &clock);
    const auto t0 = wall_clock::now();
    const auth::BatchResult result = resilient.verify_batch(stall_tape, nullptr, deadline);
    const double wall_us =
        std::chrono::duration<double, std::micro>(wall_clock::now() - t0).count();
    stall_expired_total += result.stats.expired;
    const std::size_t served = stall_tape.size() - result.stats.expired;
    amortized_us.push_back(served > 0 ? wall_us / static_cast<double>(served) : 0.0);
    // Non-stalled shards must be entirely unaffected by the stall.
    for (std::size_t i = 0; i < stall_tape.size(); ++i) {
      const bool stalled = resilient.shard_for(stall_tape[i].user) == kStalledShard;
      const bool expired = result.decisions[i].status == auth::BatchStatus::Expired;
      stall_mismatches += (stalled != expired || (!expired && !result.decisions[i].known))
                              ? 1
                              : 0;
    }
  }
  const double admitted_p99_us = percentile(amortized_us, 0.99);
  MANDIPASS_OBS_GAUGE_SET("bench.chaos.stall_admitted_p99_us", admitted_p99_us);
  ok = bench::record_verdict("stall_expiry_exact",
                             stall_expired_total == stall_rounds * routed_to_stalled &&
                                 stall_mismatches == 0,
                             "exactly the stalled shard's requests expired, every "
                             "other shard served normally, every round") &&
       ok;
  // Generous bound: catches the failure mode where a stalled shard drags
  // the whole batch (a sleep or a lock convoy), not machine variance.
  ok = bench::record_verdict("stall_admitted_p99_bounded", admitted_p99_us < 10'000.0,
                             "amortized admitted latency p99 under the stalled shard "
                             "stays below 10ms") &&
       ok;
  std::cout << "slow shard: " << stall_rounds << " rounds, "
            << stall_expired_total << " expired (" << routed_to_stalled
            << "/round routed to shard " << kStalledShard << "), admitted p99 "
            << fmt(admitted_p99_us, 1) << " us/request\n";
  resilient.faults().clear_stalls();

  // ---- 4. Breaker storm: persistence faults -> degraded -> recovery ------
  const std::string store_dir =
      std::getenv("TMPDIR") != nullptr ? std::getenv("TMPDIR") : "/tmp";
  const std::string store_path = store_dir + "/mandipass_bench_chaos_shard.bin";
  auth::resilience::set_retry_sleep_fn([](std::int64_t) {});  // virtual sleeps
  resilient.faults().arm_store_fault_burst(
      {.kind = common::IoFaultConfig::Kind::TransientError, .fail_at_byte = 0, .failures = 1'000});
  std::size_t persist_failures = 0;
  while (resilient.breaker(kBrokenShard).trips() == 0 &&
         persist_failures < 2 * static_cast<std::size_t>(config.breaker.failure_threshold)) {
    persist_failures += resilient.persist_shard(kBrokenShard, store_path).ok() ? 0 : 1;
  }
  ok = bench::record_verdict(
           "breaker_trips_once",
           resilient.breaker(kBrokenShard).trips() == 1 &&
               persist_failures == static_cast<std::size_t>(config.breaker.failure_threshold),
           "the store fault burst trips the shard breaker exactly once, at "
           "exactly the consecutive-failure threshold") &&
       ok;

  const auto degraded_tape = genuine_tape(users, batch, 0xDE64A);
  const auth::BatchResult degraded_want = reference.verify_batch(degraded_tape);
  const auth::BatchResult degraded_got = resilient.verify_batch(degraded_tape);
  std::size_t degraded_mismatches = 0;
  std::size_t routed_to_broken = 0;
  for (std::size_t i = 0; i < degraded_tape.size(); ++i) {
    const bool broken = resilient.shard_for(degraded_tape[i].user) == kBrokenShard;
    routed_to_broken += broken ? 1 : 0;
    // Degraded answers must be exact (same cached matrix, same distance)
    // and must say they are degraded; healthy shards must not.
    if (degraded_got.decisions[i].degraded != broken ||
        degraded_got.decisions[i].decision.distance !=
            degraded_want.decisions[i].decision.distance ||
        degraded_got.decisions[i].status != degraded_want.decisions[i].status) {
      ++degraded_mismatches;
    }
  }
  ok = bench::record_verdict("degraded_mode_exact",
                             degraded_mismatches == 0 &&
                                 degraded_got.stats.degraded == routed_to_broken &&
                                 degraded_got.stats.shed == 0,
                             "breaker-engaged shard served every request degraded from "
                             "the warm cache, bit-identical distances, typed as such") &&
       ok;
  std::cout << "breaker: " << persist_failures << " persist failures tripped shard "
            << kBrokenShard << "; degraded batch served " << degraded_got.stats.degraded
            << "/" << degraded_tape.size() << " degraded, " << degraded_mismatches
            << " mismatches\n";

  // Recovery: clear the burst, let the cooldown elapse, probe re-closes.
  resilient.faults().clear_store_faults();
  clock.advance_us(config.breaker.open_duration_us);
  const auto probe = resilient.persist_shard(kBrokenShard, store_path);
  const auth::BatchResult recovered = resilient.verify_batch(degraded_tape);
  std::size_t recovered_mismatches = 0;
  for (std::size_t i = 0; i < degraded_tape.size(); ++i) {
    recovered_mismatches +=
        same_decision(recovered.decisions[i], degraded_want.decisions[i]) ? 0 : 1;
  }
  ok = bench::record_verdict("recovery_full",
                             probe.ok() &&
                                 resilient.breaker(kBrokenShard).closes() == 1 &&
                                 recovered.stats.degraded == 0 &&
                                 recovered_mismatches == 0,
                             "after the burst clears and the cooldown elapses, the "
                             "half-open probe re-closes the breaker and service is "
                             "bit-identical to healthy, zero degraded residue") &&
       ok;
  std::remove(store_path.c_str());
  std::remove((store_path + ".bak").c_str());
  auth::resilience::set_retry_sleep_fn(nullptr);

  // ---- 5. Cache poisoning: detection + self-heal --------------------------
  std::size_t poisoned = 0;
  for (std::size_t e = 0; e < kSeedEpochs; ++e) {
    poisoned += resilient.faults().poison_matrix(resilient.engine().matrix_cache(),
                                                 kEpochBase + e)
                    ? 1
                    : 0;
  }
  const std::uint64_t detected_before =
      common::obs::counter("auth.matrix_cache.poison_detected").value();
  // Single-lane pool: each poisoned entry is then detected and healed
  // exactly once (concurrent shards could race detection of one seed).
  common::ThreadPool serial_pool(1);
  const auth::BatchResult healed =
      resilient.verify_batch(healthy_tape, &serial_pool);
  const std::uint64_t detected =
      common::obs::counter("auth.matrix_cache.poison_detected").value() - detected_before;
  std::size_t heal_mismatches = 0;
  for (std::size_t i = 0; i < healthy_tape.size(); ++i) {
    heal_mismatches += same_decision(healed.decisions[i], want.decisions[i]) ? 0 : 1;
  }
  ok = bench::record_verdict("poison_detected_and_healed",
                             poisoned == kSeedEpochs && detected == kSeedEpochs &&
                                 heal_mismatches == 0,
                             "every poisoned epoch matrix was CRC-detected exactly once "
                             "and rebuilt; decisions bit-identical to pre-poison") &&
       ok;
  std::cout << "poison: " << poisoned << " epochs poisoned, " << detected
            << " detected, " << heal_mismatches << " decision mismatches after heal\n";

  // ---- Summary -------------------------------------------------------------
  ok = bench::record_verdict("no_crash", true,
                             "all chaos scenarios completed without a crash") &&
       ok;
  Table table({"scenario", "verdict"});
  table.add_row({"healthy transparency", healthy_mismatches == 0 ? "PASS" : "FAIL"});
  table.add_row({"overload shed exact+bounded",
                 stormed.stats.shed == expected_shed ? "PASS" : "FAIL"});
  table.add_row({"slow-shard expiry+p99", stall_mismatches == 0 ? "PASS" : "FAIL"});
  table.add_row({"breaker trip/degrade/recover",
                 degraded_mismatches == 0 && recovered_mismatches == 0 ? "PASS" : "FAIL"});
  table.add_row({"poison detect+self-heal", heal_mismatches == 0 ? "PASS" : "FAIL"});
  std::cout << "\n";
  table.print(std::cout);
  std::cout << "\nchaos harness: " << (ok ? "PASS" : "FAIL") << "\n";
  return ok ? 0 : 1;
}
