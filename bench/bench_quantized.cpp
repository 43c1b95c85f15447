// bench_quantized — the int8 compiled-plan serving gate (DESIGN.md §18).
//
// Deployment extension (beyond the paper): the earbud budget in Section
// VII-E is ~5 MB of model; folding BatchNorm and quantising weights to
// int8 cuts that ~4x. This bench gates the whole int8 serving story:
//
//   * storage:     int8 snapshot < 1/3 of the float model;
//   * fidelity:    max-abs embedding drift of the compiled int8 plan vs
//                  the float extractor <= 5e-2, mean cosine > 0.995, and
//                  the EER moves <= 0.5 pp on the standard cohort;
//   * kernels:     every compiled SIMD tier (VNNI / AVX2 / NEON) is
//                  bit-identical to the generic int32 reference tier;
//   * throughput:  the fused int8 plan sustains >= 2x the single-thread
//                  probe rate of the scalar quantized reference path.
//
// Determinism contract (bench_compare gates the quick-mode counters
// exactly): fixed seeds, fixed iteration counts (never timed loops), and
// in quick mode an extractor trained INLINE with no disk cache so cold
// and warm runs emit the same counter stream. Counter keys never name a
// kernel tier — the active tier is machine-specific and is reported via
// gauges/verdict detail only, which bench_compare does not compare.
#include <cmath>
#include <cstring>
#include <iostream>
#include <memory>
#include <vector>

#include "auth/cosine.h"
#include "bench_common.h"
#include "common/ab_timer.h"
#include "common/obs.h"
#include "common/stats.h"
#include "common/table.h"
#include "core/dataset_builder.h"
#include "core/quantized_extractor.h"
#include "core/trainer.h"
#include "nn/inference_plan.h"
#include "nn/quantize.h"
#include "nn/tensor.h"

using namespace mandipass;

namespace {

/// Quick-mode extractor: trained in-process, never cached. Same cohort
/// seeds and regularisation as the shared headline model, quick scale.
std::shared_ptr<core::BiometricExtractor> train_inline(const bench::Scale& scale) {
  auto extractor = std::make_shared<core::BiometricExtractor>(
      bench::default_extractor_config(64));
  Rng rng(bench::kSessionSeed);
  vibration::PopulationGenerator hired_pop(bench::kHiredPopulationSeed);
  const auto hired = hired_pop.sample_population(scale.hired_people);
  core::CollectionConfig cc;
  cc.arrays_per_person = scale.train_arrays;
  cc.tone_augment_min = 0.92;
  cc.tone_augment_max = 1.09;
  const auto data = core::collect_gradient_set(hired, cc, rng);
  core::ExtractorTrainer trainer(*extractor, bench::default_train_config(scale.epochs));
  const double acc = trainer.train(data);
  std::cout << "[bench] inline-trained quick extractor (no cache): final accuracy "
            << fmt(acc, 3) << "\n";
  return extractor;
}

/// Cross-tier bit-identity over synthetic packed GEMMs at padding-heavy
/// shapes (rows off the 16-block, cols off the 4-tap group). Returns
/// true iff every compiled tier reproduces the generic accumulators
/// bit-for-bit through the shared dequantizing driver.
bool tiers_bit_identical() {
  const std::size_t shapes[][2] = {{7, 33}, {16, 100}, {33, 257}};
  const auto tiers = nn::quantized_kernel_tiers();
  nn::ScratchArena arena;
  arena.assert_owner();
  Rng rng(424242);
  for (const auto& shape : shapes) {
    const std::size_t rows = shape[0], cols = shape[1], count = 5;
    nn::Tensor w({rows, cols});
    for (std::size_t i = 0; i < w.size(); ++i) {
      w[i] = static_cast<float>(rng.normal(0.0, 0.5));
    }
    std::vector<float> bias(rows);
    for (auto& b : bias) b = static_cast<float>(rng.normal(0.0, 0.2));
    nn::PackedQuantizedGemm gemm;
    gemm.pack_rows(nn::quantize_rows(w), bias.data());
    std::vector<float> x(count * cols);
    for (auto& v : x) v = static_cast<float>(rng.normal());
    std::vector<float> ref(rows * count);
    arena.reset();
    if (!gemm.run_tier("generic", x.data(), count, cols, ref.data(), count,
                       nn::Epilogue::Relu, arena)) {
      return false;
    }
    for (const char* tier : tiers) {
      std::vector<float> got(rows * count);
      arena.reset();
      if (!gemm.run_tier(tier, x.data(), count, cols, got.data(), count,
                         nn::Epilogue::Relu, arena) ||
          std::memcmp(got.data(), ref.data(), ref.size() * sizeof(float)) != 0) {
        return false;
      }
    }
  }
  return true;
}

}  // namespace

int main(int argc, char** argv) {
  bench::init_bench(argc, argv);
  bench::print_banner(
      "Extension: int8 compiled serving plan",
      "(beyond the paper) 4x smaller extractor, >= 2x scalar int8 throughput, "
      "near-identical EER");

  const bench::Scale scale = bench::active_scale();
  const auto extractor =
      scale.quick ? train_inline(scale)
                  : bench::get_or_train_extractor(
                        "headline", bench::default_extractor_config(256),
                        scale.hired_people, scale.train_arrays, scale.epochs);
  const core::QuantizedExtractor quantized(*extractor);

  std::cout << "\nactive int8 kernel tier: " << nn::active_quantized_kernel() << " (of";
  for (const char* tier : nn::quantized_kernel_tiers()) std::cout << " " << tier;
  std::cout << ")\n";

  // --- storage ---
  std::cout << "\nstorage:\n";
  Table storage({"model", "bytes", "relative"});
  const double fbytes = static_cast<double>(extractor->storage_bytes());
  storage.add_row({"float32 extractor", std::to_string(extractor->storage_bytes()), "1.00x"});
  storage.add_row({"int8 extractor", std::to_string(quantized.storage_bytes()),
                   fmt(quantized.storage_bytes() / fbytes, 2) + "x"});
  storage.print(std::cout);
  const bool storage_ok = quantized.storage_bytes() * 3 < extractor->storage_bytes();
  bench::record_verdict("storage_quartered", storage_ok,
                        std::to_string(quantized.storage_bytes()) + " of " +
                            std::to_string(extractor->storage_bytes()) + " bytes");

  // --- kernel tier cross-check ---
  const bool tiers_ok = tiers_bit_identical();
  bench::record_verdict(
      "kernel_tiers_bit_identical", tiers_ok,
      std::to_string(nn::quantized_kernel_tiers().size()) +
          " tier(s) vs generic, active: " + std::string(nn::active_quantized_kernel()));

  // --- fidelity on the standard cohort ---
  const auto cohort = bench::paper_cohort();
  core::CollectionConfig cc;
  cc.arrays_per_person = scale.quick ? 10 : 25;
  const auto eval = bench::collect_and_embed(*extractor, cohort, cc, bench::kSessionSeed + 140);
  MANDIPASS_OBS_COUNT_N("bench.quantized.probes", eval.data.size());

  const auto q_embeddings =
      quantized.extract_batch(std::span<const core::GradientArray>(eval.data.arrays));
  double sim_sum = 0.0;
  float max_drift = 0.0f;
  for (std::size_t i = 0; i < eval.data.size(); ++i) {
    sim_sum += auth::cosine_similarity(eval.embeddings[i], q_embeddings[i]);
    for (std::size_t j = 0; j < q_embeddings[i].size(); ++j) {
      max_drift = std::max(max_drift, std::abs(q_embeddings[i][j] - eval.embeddings[i][j]));
    }
  }
  const double mean_cosine = sim_sum / static_cast<double>(eval.data.size());

  auto eer_of = [&](const std::vector<std::vector<float>>& emb) {
    std::vector<double> genuine;
    std::vector<double> impostor;
    for (std::size_t i = 0; i < emb.size(); ++i) {
      for (std::size_t j = i + 1; j < emb.size(); ++j) {
        const double d = auth::cosine_distance(emb[i], emb[j]);
        (eval.data.labels[i] == eval.data.labels[j] ? genuine : impostor).push_back(d);
      }
    }
    return auth::compute_eer(genuine, impostor);
  };
  const auto float_eer = eer_of(eval.embeddings);
  const auto int8_eer = eer_of(q_embeddings);
  const double eer_delta = std::abs(int8_eer.eer - float_eer.eer);

  std::cout << "\nfidelity:\n";
  Table fid({"metric", "value"});
  fid.add_row({"mean cosine(float, int8) embedding similarity", fmt(mean_cosine, 5)});
  fid.add_row({"max-abs embedding drift vs float", fmt(max_drift, 5)});
  fid.add_row({"EER float32", fmt_percent(float_eer.eer)});
  fid.add_row({"EER int8 plan", fmt_percent(int8_eer.eer)});
  fid.add_row({"EER delta", fmt_percent(eer_delta)});
  fid.print(std::cout);

  bench::record_verdict("embedding_drift_bounded", max_drift <= 5e-2f,
                        "max-abs drift " + fmt(max_drift, 5) + " (bound 0.05)");
  bench::record_verdict("embedding_cosine_high", mean_cosine > 0.995,
                        "mean cosine " + fmt(mean_cosine, 5));
  bench::record_verdict("eer_delta_half_point", eer_delta <= 0.005,
                        "EER " + fmt_percent(float_eer.eer) + " float vs " +
                            fmt_percent(int8_eer.eer) + " int8");

  // --- throughput: fused plan vs scalar reference, single thread ---
  // Fixed probe/repeat counts (never timed loops) keep every counter the
  // plan emits machine-invariant: common::ab_compare's windows split the
  // same `probes`, each run once on the scalar path and `plan_reps` times
  // on the plan, and time each side on the calling thread's CPU clock.
  // Only the measured rates vary; they feed gauges + the speedup verdict.
  const std::size_t probes = std::min<std::size_t>(eval.data.size(), scale.quick ? 48 : 128);
  const std::size_t plan_reps = scale.quick ? 4 : 8;
  constexpr std::size_t kWindows = 8;
  const auto window_lo = [&](std::size_t w) { return w * probes / kWindows; };

  (void)quantized.extract(eval.data.arrays[0]);  // compile + arena warm-up
  const common::AbRatio ab = common::ab_compare(
      kWindows,
      [&](std::size_t w) {
        for (std::size_t i = window_lo(w); i < window_lo(w + 1); ++i) {
          (void)quantized.extract_scalar(eval.data.arrays[i]);
        }
      },
      [&](std::size_t w) {
        for (std::size_t rep = 0; rep < plan_reps; ++rep) {
          for (std::size_t i = window_lo(w); i < window_lo(w + 1); ++i) {
            (void)quantized.extract(eval.data.arrays[i]);
          }
        }
      });
  // Per probe, the plan side does plan_reps times the scalar side's calls.
  const double speedup = ab.cpu_ratio * static_cast<double>(plan_reps);
  const double window_probes = static_cast<double>(probes) / static_cast<double>(kWindows);
  const double scalar_ms = 1e3 * ab.a_cpu_s / window_probes;
  const double plan_ms = 1e3 * ab.b_cpu_s / (window_probes * static_cast<double>(plan_reps));

  std::cout << "\nthroughput (single thread, " << probes << " probes):\n";
  Table thr({"path", "CPU ms / probe", "probes / CPU s"});
  thr.add_row({"scalar int8 reference", fmt(scalar_ms, 3), fmt(1000.0 / scalar_ms, 0)});
  thr.add_row({"fused int8 plan", fmt(plan_ms, 3), fmt(1000.0 / plan_ms, 0)});
  thr.print(std::cout);
  std::cout << "plan speedup over scalar: " << fmt(speedup, 2) << "x CPU (wall-clock gauge "
            << fmt(ab.wall_ratio * static_cast<double>(plan_reps), 2) << "x, " << ab.windows
            << " windows)\n";
  MANDIPASS_OBS_GAUGE_SET("bench.quantized.scalar_ms_per_probe", scalar_ms);
  MANDIPASS_OBS_GAUGE_SET("bench.quantized.plan_ms_per_probe", plan_ms);
  MANDIPASS_OBS_GAUGE_SET("bench.quantized.plan_speedup", speedup);

  const bool speedup_ok =
      bench::record_verdict("plan_2x_over_scalar", speedup >= 2.0,
                            "fused plan " + fmt(speedup, 2) + "x scalar (bound 2x)");

  const bool pass = storage_ok && tiers_ok && max_drift <= 5e-2f && mean_cosine > 0.995 &&
                    eer_delta <= 0.005 && speedup_ok;
  std::cout << "\nShape check (4x smaller, bit-identical tiers, bounded drift/EER, "
               ">= 2x scalar throughput): "
            << (pass ? "PASS" : "FAIL") << "\n";
  return pass ? 0 : 1;
}
