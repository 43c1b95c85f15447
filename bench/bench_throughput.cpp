// Serving-path throughput, three sections:
//
//   1. extract_batch samples/sec — the compiled inference plan (fused
//      Conv+BN+ReLU, packed register-blocked GEMM, scratch arenas;
//      DESIGN.md §13) against the layer-by-layer reference path it
//      replaced, measured single-thread so the speedup is the kernel's,
//      not the pool's. Gates: compiled matches reference to ≤1e-5
//      max-abs, and >= 2x reference throughput.
//   2. key build — GaussianMatrix(seed, 256), whose rows come from the
//      batched Rng::normal_floats, against the per-draw normal() walk
//      that defines its bits. Gate: the walk takes >= 2x the build's CPU.
//   3. verifications/sec of the concurrent BatchVerifier engine at batch
//      sizes 1..256, single- vs multi-thread. Per-request decisions are
//      independent, so the multi-thread decision vector must be
//      identical to the single-thread one — the bench checks that too.
//
// Both speed gates are common::ab_compare ratios: alternating windows of
// the two sides, each timed on the calling thread's CPU clock, gated on
// the median ratio. The wall-clock ratio is printed as a gauge.
//
// Usage: bench_throughput [--threads N]   (default: all hardware cores)
#include <chrono>
#include <cmath>
#include <iostream>
#include <vector>

#include "auth/batch_verifier.h"
#include "auth/gaussian_matrix.h"
#include "bench_common.h"
#include "common/ab_timer.h"
#include "common/rng.h"
#include "common/table.h"
#include "common/thread_pool.h"

using namespace mandipass;

namespace {

constexpr std::size_t kDim = 256;       // MandiblePrint length (headline config)
constexpr std::size_t kUsers = 64;

std::vector<float> random_print(Rng& rng) {
  std::vector<float> v(kDim);
  for (float& x : v) {
    x = static_cast<float>(rng.uniform());  // sigmoid-range embedding
  }
  return v;
}

struct Measurement {
  double per_sec = 0.0;
  double mean_ms = 0.0;
  double max_ms = 0.0;
  std::vector<auth::BatchDecision> decisions;
};

Measurement measure(const auth::BatchVerifier& engine,
                    std::span<const auth::VerifyRequest> requests, common::ThreadPool& pool) {
  using clock = std::chrono::steady_clock;
  // Warm-up pass (first-touch, pool spin-up), then repeat until ~0.25 s.
  auth::BatchResult last = engine.verify_batch(requests, &pool);
  const auto t0 = clock::now();
  std::size_t total = 0;
  double mean_ms = 0.0;
  double max_ms = 0.0;
  std::size_t batches = 0;
  while (std::chrono::duration<double>(clock::now() - t0).count() < 0.25) {
    last = engine.verify_batch(requests, &pool);
    total += last.stats.requests;
    mean_ms += last.stats.mean_request_ms;
    max_ms = std::max(max_ms, last.stats.max_request_ms);
    ++batches;
  }
  const double secs = std::chrono::duration<double>(clock::now() - t0).count();
  Measurement m;
  m.per_sec = static_cast<double>(total) / secs;
  m.mean_ms = batches > 0 ? mean_ms / static_cast<double>(batches) : 0.0;
  m.max_ms = max_ms;
  m.decisions = std::move(last.decisions);
  return m;
}

bool same_decisions(const std::vector<auth::BatchDecision>& a,
                    const std::vector<auth::BatchDecision>& b) {
  if (a.size() != b.size()) {
    return false;
  }
  for (std::size_t i = 0; i < a.size(); ++i) {
    if (a[i].known != b[i].known || a[i].key_version != b[i].key_version ||
        a[i].decision.accepted != b[i].decision.accepted ||
        a[i].decision.distance != b[i].decision.distance) {
      return false;
    }
  }
  return true;
}

// ---- Section 1: compiled-plan extract_batch vs the reference path ----

std::vector<core::GradientArray> random_gradient_batch(std::size_t count, std::size_t half,
                                                       std::uint64_t seed) {
  Rng rng(seed);
  std::vector<core::GradientArray> out;
  out.reserve(count);
  for (std::size_t s = 0; s < count; ++s) {
    core::GradientArray g;
    for (std::size_t a = 0; a < imu::kAxisCount; ++a) {
      g.positive[a].resize(half);
      g.negative[a].resize(half);
      for (std::size_t i = 0; i < half; ++i) {
        g.positive[a][i] = rng.uniform(0.0, 0.5);
        g.negative[a][i] = rng.uniform(-0.5, 0.0);
      }
    }
    out.push_back(std::move(g));
  }
  return out;
}

/// The pre-plan extract_batch pipeline, kept here as the measured
/// baseline: per-chunk GradientArray copy, Tensor packing, and the
/// layer-by-layer eval forward (separate conv GEMM, BN pass, ReLU pass,
/// Linear, Sigmoid).
std::vector<std::vector<float>> reference_extract_batch(
    core::BiometricExtractor& ex, const std::vector<core::GradientArray>& arrays) {
  std::vector<std::vector<float>> out;
  out.reserve(arrays.size());
  constexpr std::size_t kChunk = 128;
  for (std::size_t start = 0; start < arrays.size(); start += kChunk) {
    const std::size_t bs = std::min(kChunk, arrays.size() - start);
    const auto off = static_cast<std::ptrdiff_t>(start);
    const std::vector<core::GradientArray> chunk(
        arrays.begin() + off, arrays.begin() + off + static_cast<std::ptrdiff_t>(bs));
    const core::BranchTensors input = core::pack_branches(chunk, ex.config().axes);
    const nn::Tensor e = ex.embed(input, /*train=*/false);
    for (std::size_t b = 0; b < bs; ++b) {
      std::vector<float> row(e.dim(1));
      for (std::size_t j = 0; j < row.size(); ++j) {
        row[j] = e.at2(b, j);
      }
      out.push_back(std::move(row));
    }
  }
  return out;
}

/// Samples/sec of the compiled plan on the current pool, over ~0.3 s.
double measure_extract_rate(core::BiometricExtractor& ex,
                            const std::vector<core::GradientArray>& batch) {
  using clock = std::chrono::steady_clock;
  (void)ex.extract_batch(batch);  // warm-up: lanes, arenas, first-touch
  const auto t0 = clock::now();
  std::size_t total = 0;
  while (std::chrono::duration<double>(clock::now() - t0).count() < 0.3) {
    (void)ex.extract_batch(batch);
    total += batch.size();
  }
  return static_cast<double>(total) / std::chrono::duration<double>(clock::now() - t0).count();
}

float max_abs_delta(const std::vector<std::vector<float>>& a,
                    const std::vector<std::vector<float>>& b) {
  float worst = 0.0f;
  for (std::size_t i = 0; i < a.size() && i < b.size(); ++i) {
    for (std::size_t j = 0; j < a[i].size() && j < b[i].size(); ++j) {
      worst = std::max(worst, std::abs(a[i][j] - b[i][j]));
    }
  }
  return worst;
}

/// Returns pass/fail of the two extract gates (tolerance + 2x speedup).
bool run_extract_section(std::size_t threads) {
  core::ExtractorConfig cfg;
  cfg.embedding_dim = kDim;  // headline MandiblePrint config
  core::BiometricExtractor ex(cfg);
  constexpr std::size_t kBatch = 256;
  const auto batch = random_gradient_batch(kBatch, cfg.half_length, 9001);

  // Single-thread: the plan's own gate, kernel vs kernel, no pool. A
  // one-lane pool runs inline, so the calling thread's CPU clock sees all
  // of the work.
  common::ThreadPool::set_global_threads(1);
  std::vector<std::vector<float>> ref_out = reference_extract_batch(ex, batch);  // warm-up
  std::vector<std::vector<float>> plan_out = ex.extract_batch(batch);           // plan compile
  constexpr std::size_t kWindows = 9;
  const common::AbRatio ab = common::ab_compare(
      kWindows, [&](std::size_t) { ref_out = reference_extract_batch(ex, batch); },
      [&](std::size_t) { plan_out = ex.extract_batch(batch); });
  const float delta = max_abs_delta(ref_out, plan_out);
  const double speedup = ab.cpu_ratio;
  const double batch_size = static_cast<double>(kBatch);

  // Multi-thread compiled path, for the table only. The pool stays at
  // `threads` afterwards for the verification section.
  common::ThreadPool::set_global_threads(threads);
  const double plan_n_sps = measure_extract_rate(ex, batch);

  std::cout << "\nextract_batch samples/sec (batch " << kBatch << ", dim " << kDim << "):\n";
  Table table({"path", "1 thread [sps]", std::to_string(threads) + " threads [sps]"});
  table.add_row({"reference (layered)", fmt(batch_size / ab.a_cpu_s, 0), "-"});
  table.add_row({"compiled plan", fmt(batch_size / ab.b_cpu_s, 0), fmt(plan_n_sps, 0)});
  table.print(std::cout);
  std::cout << "single-thread speedup: " << fmt(speedup, 2) << "x CPU (wall-clock gauge "
            << fmt(ab.wall_ratio, 2) << "x, " << ab.windows << " windows)"
            << "   max-abs embedding delta: " << delta << "\n";

  const bool matches = bench::record_verdict(
      "extract_plan_matches_reference", delta <= 1e-5f,
      "compiled extract_batch within 1e-5 max-abs of the layer-by-layer reference");
  const bool fast = bench::record_verdict(
      "extract_plan_speedup_ge_2x", speedup >= 2.0,
      "compiled extract_batch >= 2x single-thread reference throughput (" + fmt(speedup, 2) +
          "x CPU)");
  return matches && fast;
}

// ---- Section 2: batched key build vs the per-draw walk ----

/// G drawn one normal() at a time: G[i][j] = the (i * dim + j)-th
/// normal(0, 1/sqrt(dim)) of Rng(seed), the values GaussianMatrix's
/// batched build must reproduce bit for bit.
std::vector<float> per_draw_key(std::uint64_t seed, std::size_t dim) {
  Rng rng(seed);
  const double sigma = 1.0 / std::sqrt(static_cast<double>(dim));
  std::vector<float> g(dim * dim);
  for (float& v : g) {
    v = static_cast<float>(rng.normal(0.0, sigma));
  }
  return g;
}

/// Returns pass/fail of the key-build gate.
bool run_keygen_section() {
  constexpr std::size_t kWindows = 21;
  (void)per_draw_key(1, kDim);  // warm-up: page in both paths
  (void)auth::GaussianMatrix(1, kDim);
  const common::AbRatio ab = common::ab_compare(
      kWindows, [](std::size_t w) { (void)per_draw_key(w, kDim); },
      [](std::size_t w) { (void)auth::GaussianMatrix(w, kDim); });
  std::cout << "\nkey build (dim " << kDim << ", " << ab.windows << " windows): per-draw walk "
            << fmt(ab.a_cpu_s * 1e6, 0) << " us, GaussianMatrix " << fmt(ab.b_cpu_s * 1e6, 0)
            << " us CPU; ratio " << fmt(ab.cpu_ratio, 2) << "x CPU (wall-clock gauge "
            << fmt(ab.wall_ratio, 2) << "x)\n";
  return bench::record_verdict(
      "keygen_batched_ge_2x", ab.cpu_ratio >= 2.0,
      "per-draw normal() walk of a dim-256 key >= 2x the CPU of GaussianMatrix(seed, 256) (" +
          fmt(ab.cpu_ratio, 2) + "x)");
}

}  // namespace

int main(int argc, char** argv) {
  const std::size_t threads = bench::init_bench(argc, argv);
  bench::print_banner("serving-path throughput",
                      "reproduction extension: compiled inference plan "
                      "(samples/sec) + concurrent verification "
                      "(verifications/sec, single- vs multi-thread)");

  const bool extract_ok = run_extract_section(threads);
  const bool keygen_ok = run_keygen_section();

  Rng rng(4242);
  auth::BatchVerifier engine;
  std::vector<std::vector<float>> prints;
  for (std::size_t u = 0; u < kUsers; ++u) {
    prints.push_back(random_print(rng));
    const std::uint64_t seed = rng();
    const auth::GaussianMatrix g(seed, kDim);
    auth::StoredTemplate tmpl;
    tmpl.data = g.transform(prints.back());
    tmpl.matrix_seed = seed;
    tmpl.key_version = 1;
    engine.enroll("user" + std::to_string(u), tmpl);
  }

  common::ThreadPool single(1);
  common::ThreadPool multi(threads);

  std::cout << "\nverifications/sec by batch size (" << kUsers << " enrolled users, dim "
            << kDim << "):\n";
  Table table({"batch", "1 thread [v/s]", std::to_string(threads) + " threads [v/s]",
               "speedup", "mean lat [ms]", "max lat [ms]"});

  bool consistent = true;
  double speedup_at_64 = 0.0;
  for (const std::size_t batch : {std::size_t{1}, std::size_t{4}, std::size_t{16},
                                  std::size_t{64}, std::size_t{256}}) {
    std::vector<auth::VerifyRequest> requests;
    requests.reserve(batch);
    for (std::size_t i = 0; i < batch; ++i) {
      const std::size_t u = i % kUsers;
      // Genuine probe with mild session noise; every request still runs
      // the full transform + distance whatever the outcome.
      std::vector<float> probe = prints[u];
      for (float& x : probe) {
        x += static_cast<float>(rng.normal(0.0, 0.01));
      }
      requests.push_back({"user" + std::to_string(u), std::move(probe)});
    }
    const Measurement s = measure(engine, requests, single);
    const Measurement m = measure(engine, requests, multi);
    consistent = consistent && same_decisions(s.decisions, m.decisions);
    const double speedup = s.per_sec > 0.0 ? m.per_sec / s.per_sec : 0.0;
    if (batch == 64) {
      speedup_at_64 = speedup;
    }
    table.add_row({std::to_string(batch), fmt(s.per_sec, 0), fmt(m.per_sec, 0),
                   fmt(speedup, 2) + "x", fmt(m.mean_ms, 3), fmt(m.max_ms, 3)});
  }
  table.print(std::cout);

  std::cout << "\nspeedup at batch 64 with " << threads << " threads: " << fmt(speedup_at_64, 2)
            << "x\n";
  std::cout << "single- vs multi-thread decisions identical: "
            << (consistent ? "PASS" : "FAIL") << "\n";
  // The throughput target (>= 3x at batch 64 with all cores) only means
  // something on a multi-core host; the hard in-bench gate is decision
  // consistency.
  bench::record_verdict("decisions_thread_invariant", consistent,
                        "single- vs multi-thread batch decisions identical");
  return (consistent && extract_ok && keygen_ok) ? 0 : 1;
}
