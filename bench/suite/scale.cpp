// scale.cpp — AP-scale throughput benchmark (`mobiwlan-bench --scale`).
//
// The workload: a 64-AP floor (8x8 grid, 30 m pitch) serving 512 clients,
// every link an independent scatterer field over a shared master seed. The
// bench answers three questions the per-link perf cases cannot:
//
//   1. *Agreement at scale* — one ChannelBatch pass over all 512 links,
//      sharded over a pool of --jobs workers, must equal 512 serial
//      WirelessChannel::sample_into calls (same seeds) bit for bit: CSI
//      (max_rel_diff == 0), RSSI and ToF. Checked every run, so it doubles
//      as a shard-determinism check.
//   2. *Batch throughput* — aggregate CSI samples/s of the engine,
//      single-threaded, plus a thread-scaling ladder (1/2/4/8 executors via
//      ThreadPool::parallel_for, grain 64, one Scratch per slot; widths
//      above the host's hardware concurrency are skipped — they would
//      measure oversubscription, not scaling).
//   3. *Allocation discipline* — a steady-state batch pass must perform
//      zero heap allocations (counted via the mobiwlan_alloc_hook that
//      mobiwlan-bench links).
//
// Determinism contract: everything in BENCH_scale.json except the
// `timing_*` keys is byte-identical for --jobs 1 and --jobs N. Timing keys
// are quarantined by name, the same convention as the run reports.
#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <fstream>
#include <memory>
#include <numbers>
#include <string>
#include <thread>
#include <vector>

#include "chan/channel.hpp"
#include "chan/channel_batch.hpp"
#include "chan/trajectory.hpp"
#include "runtime/experiment.hpp"
#include "runtime/thread_pool.hpp"
#include "suite/suite.hpp"
#include "util/alloc_count.hpp"
#include "util/flatjson.hpp"
#include "util/rng.hpp"
#include "util/simd.hpp"

namespace mobiwlan::benchsuite {
namespace {

using clock_type = std::chrono::steady_clock;

constexpr std::size_t kApsPerSide = 8;
constexpr std::size_t kNumAps = kApsPerSide * kApsPerSide;  // 64
constexpr double kApPitchM = 30.0;
constexpr std::size_t kNumClients = 512;
constexpr std::size_t kShardGrain = 64;  // links per parallel_for chunk

struct LinkSet {
  std::vector<std::unique_ptr<WirelessChannel>> channels;
  ChannelBatch batch;  // non-owning view, link i == channels[i]
};

/// Builds the 512-link floor. Construction is sharded through the
/// Experiment (chunk-keyed substreams), so the set is bit-identical on any
/// pool size — and calling this twice on experiments with the same seed
/// yields two identical, independent copies (the batched / serial pair
/// the agreement phase compares).
LinkSet build_links(runtime::Experiment& exp) {
  LinkSet set;
  set.channels.resize(kNumClients);
  exp.shard(kNumClients, kShardGrain,
            [&](std::size_t begin, std::size_t end, Rng& rng) {
              for (std::size_t i = begin; i < end; ++i) {
                const std::size_t ap = i % kNumAps;
                const Vec2 ap_pos{
                    static_cast<double>(ap % kApsPerSide) * kApPitchM,
                    static_cast<double>(ap / kApsPerSide) * kApPitchM};
                ChannelConfig cfg;
                cfg.activity = (i % 2 == 0) ? EnvironmentalActivity::kStrong
                                            : EnvironmentalActivity::kWeak;
                const Vec2 start{ap_pos.x + rng.uniform(-12.0, 12.0),
                                 ap_pos.y + rng.uniform(-12.0, 12.0)};
                const double heading =
                    rng.uniform(0.0, 2.0 * std::numbers::pi);
                auto traj = std::make_shared<LinearTrajectory>(
                    start, Vec2{std::cos(heading), std::sin(heading)}, 1.2);
                set.channels[i] = std::make_unique<WirelessChannel>(
                    cfg, ap_pos, std::move(traj), rng.split());
              }
            });
  for (auto& ch : set.channels) set.batch.add_link(ch.get());
  return set;
}

/// One batched pass over all links at time t, sharded over `pool` with one
/// scratch per slot. Writes out[0..kNumClients).
void batch_pass(runtime::ThreadPool& pool,
                std::vector<ChannelBatch::Scratch>& scratches, LinkSet& set,
                double t, ChannelSample* out) {
  pool.parallel_for(kNumClients, kShardGrain,
                    [&](std::size_t slot, std::size_t begin, std::size_t end) {
                      set.batch.sample_range(t, begin, end, out,
                                             scratches[slot]);
                    });
}

struct Agreement {
  double max_rel_diff = 0.0;  // scale-relative, per link
  long exact_mismatches = 0;  // RSSI / ToF quantized outputs
  double checksum = 0.0;      // order-independent probe over both sets
};

/// Compares a batched pass against the serial per-link loop, link by link.
/// CSI diffs are reported relative to the link's own CSI scale
/// (max |element|); the gate is exact, so any nonzero value fails.
void compare_pass(const ChannelSample* a, const ChannelSample* b,
                  Agreement& agg) {
  for (std::size_t i = 0; i < kNumClients; ++i) {
    double scale = 0.0;
    for (const cplx& z : a[i].csi.raw())
      scale = std::max({scale, std::abs(z.real()), std::abs(z.imag())});
    scale = std::max(scale, 1e-300);
    for (std::size_t k = 0; k < a[i].csi.raw().size(); ++k) {
      const double dr =
          std::abs(a[i].csi.raw()[k].real() - b[i].csi.raw()[k].real());
      const double di =
          std::abs(a[i].csi.raw()[k].imag() - b[i].csi.raw()[k].imag());
      agg.max_rel_diff = std::max(agg.max_rel_diff, (dr + di) / scale);
    }
    if (a[i].rssi_dbm != b[i].rssi_dbm) ++agg.exact_mismatches;
    if (a[i].tof_cycles != b[i].tof_cycles) ++agg.exact_mismatches;
    agg.checksum += a[i].rssi_dbm + a[i].tof_cycles + b[i].rssi_dbm +
                    b[i].tof_cycles;
  }
}

/// Times `pass(t)` in whole passes until `min_time_s` elapses (one warmup
/// pass first); returns ns per link-sample.
template <typename Pass>
double time_passes(double min_time_s, double& t, Pass&& pass) {
  pass(t);
  t += 0.001;
  std::size_t passes = 0;
  const auto t0 = clock_type::now();
  double elapsed = 0.0;
  do {
    pass(t);
    t += 0.001;
    ++passes;
    elapsed = std::chrono::duration<double>(clock_type::now() - t0).count();
  } while (elapsed < min_time_s);
  return 1e9 * elapsed / (static_cast<double>(passes) * kNumClients);
}

/// Paired fp32-vs-fp64 batched-synthesis ratio at `tier`, on a wideband
/// (242-subcarrier) link where the synthesis kernels — not the per-path
/// scalar prep — dominate. The two precisions are measured *interleaved*
/// (alternating 256-op blocks with a short untimed warm block after each
/// switch, so the plane working-set swap is not charged to either side) and
/// the ratio comes from the summed times: background-load drift on a shared
/// CI host hits both sides equally instead of skewing whichever side ran
/// second.
struct F32Speedup {
  double f64_ns = 0.0;
  double f32_ns = 0.0;
  double speedup = 0.0;
};

F32Speedup measure_f32_synthesis(double min_time_s, int tier) {
  Rng master(runtime::kMasterSeed);
  Rng rng = master.stream(7001);
  ChannelConfig cfg;
  cfg.n_subcarriers = 242;  // 80 MHz-class width: synthesis-dominated
  cfg.activity = EnvironmentalActivity::kWeak;
  auto traj =
      std::make_shared<LinearTrajectory>(Vec2{9.0, 0.0}, Vec2{1.0, 0.4}, 1.2);
  auto ch = std::make_unique<WirelessChannel>(cfg, Vec2{0.0, 0.0},
                                              std::move(traj), rng.split());
  ChannelBatch::Scratch scratch;
  CsiMatrix m;
  simd::set_forced_tier(tier);
  double t = 0.1;
  for (int i = 0; i < 64; ++i) {  // size both precision tiers' planes
    simd::set_forced_precision(i & 1);
    ch->csi_true_into(t, m, scratch);
    t += 1e-4;
  }
  F32Speedup r;
  double t64 = 0.0, t32 = 0.0;
  std::size_t ops = 0;
  do {
    for (int precision = 0; precision < 2; ++precision) {
      simd::set_forced_precision(precision);
      for (int i = 0; i < 32; ++i) {  // untimed: repopulate caches post-switch
        ch->csi_true_into(t, m, scratch);
        t += 1e-4;
      }
      const auto t0 = clock_type::now();
      for (int i = 0; i < 256; ++i) {
        ch->csi_true_into(t, m, scratch);
        t += 1e-4;
      }
      const double dt =
          std::chrono::duration<double>(clock_type::now() - t0).count();
      (precision == 0 ? t64 : t32) += dt;
    }
    ops += 256;
  } while (t64 + t32 < min_time_s);
  simd::set_forced_precision(-1);
  simd::set_forced_tier(-1);
  r.f64_ns = 1e9 * t64 / static_cast<double>(ops);
  r.f32_ns = 1e9 * t32 / static_cast<double>(ops);
  r.speedup = t64 / t32;
  return r;
}

}  // namespace

int run_scale_bench(const ScaleOptions& opt) {
  std::size_t jobs = opt.jobs;
  if (jobs == 0) jobs = 1;

  std::printf("scale: %zu APs x %zu clients, seed %llu, %zu jobs\n", kNumAps,
              kNumClients, static_cast<unsigned long long>(opt.seed), jobs);

  runtime::ThreadPool pool(jobs);
  runtime::Experiment exp_a(pool, opt.seed);
  runtime::Experiment exp_b(pool, opt.seed);
  LinkSet set_a = build_links(exp_a);  // sampled in sharded batch passes
  LinkSet set_b = build_links(exp_b);  // sampled per link, serially

  std::vector<ChannelBatch::Scratch> scratches(pool.size() + 1);
  std::vector<ChannelSample> out_a(kNumClients), out_b(kNumClients);
  ChannelBatch::Scratch per_link_scratch;

  // ---- phase 1: agreement (deterministic keys) --------------------------
  Agreement agg;
  for (int pass = 0; pass < 4; ++pass) {
    const double t = 0.25 * (pass + 1);
    batch_pass(pool, scratches, set_a, t, out_a.data());
    for (std::size_t i = 0; i < kNumClients; ++i)
      set_b.channels[i]->sample_into(t, out_b[i], per_link_scratch);
    compare_pass(out_a.data(), out_b.data(), agg);
  }
  const bool agree = agg.max_rel_diff == 0.0 && agg.exact_mismatches == 0;
  std::printf(
      "  agreement: max_rel_diff %.3e, %ld exact mismatches, checksum "
      "%.17g -> %s\n",
      agg.max_rel_diff, agg.exact_mismatches, agg.checksum,
      agree ? "ok" : "FAIL");

  // ---- phase 2: steady-state allocation count (deterministic key) -------
  // One explicit warmup pass sizes scratches[0] for every link (at jobs > 1
  // the caller's slot saw only some chunks in phase 1); the 8 counted
  // single-threaded passes after it must not allocate.
  double t_alloc = 2.0;
  set_a.batch.sample_range(t_alloc, 0, kNumClients, out_a.data(),
                           scratches[0]);
  t_alloc += 0.001;
  const std::uint64_t allocs0 = alloc_count();
  for (int pass = 0; pass < 8; ++pass) {
    set_a.batch.sample_range(t_alloc, 0, kNumClients, out_a.data(),
                             scratches[0]);
    t_alloc += 0.001;
  }
  const double allocs_per_op =
      static_cast<double>(alloc_count() - allocs0) / (8.0 * kNumClients);
  std::printf("  steady-state allocs/op: %.4f%s\n", allocs_per_op,
              alloc_hook_active() ? "" : " (hook not linked)");

  // ---- phase 3: throughput (timing keys) --------------------------------
  double t_time = 10.0;
  const double batch_ns = time_passes(opt.min_time_s, t_time, [&](double t) {
    set_a.batch.sample_range(t, 0, kNumClients, out_a.data(), scratches[0]);
  });
  std::printf("  single-thread: batch %.0f ns  (%.2fM samples/s)\n", batch_ns,
              1e3 / batch_ns);

  // Thread-scaling ladder: N executors = a pool of N-1 helpers plus the
  // calling thread (jobs 1 reuses the single-thread number above). A width
  // beyond the hardware concurrency measures scheduler thrash, not scaling,
  // so the ladder only reports widths the host can actually run in
  // parallel; hardware_concurrency() == 0 means "unknown" and keeps the
  // full ladder. The procedure is documented in EXPERIMENTS.md.
  const unsigned hw = std::thread::hardware_concurrency();
  std::vector<std::size_t> ladder_widths{1};
  for (std::size_t n : {2u, 4u, 8u})
    if (hw == 0 || n <= hw) ladder_widths.push_back(n);
  std::vector<double> ladder_ns{batch_ns};
  for (std::size_t k = 1; k < ladder_widths.size(); ++k) {
    const std::size_t n = ladder_widths[k];
    runtime::ThreadPool ladder_pool(n - 1);
    std::vector<ChannelBatch::Scratch> ladder_scratch(ladder_pool.size() + 1);
    const double ns = time_passes(opt.min_time_s, t_time, [&](double t) {
      batch_pass(ladder_pool, ladder_scratch, set_a, t, out_a.data());
    });
    ladder_ns.push_back(ns);
    std::printf("  %zu executors: %.0f ns/sample (%.2fx vs 1, %.2fM "
                "samples/s)\n",
                n, ns, batch_ns / ns, 1e3 / ns);
  }
  if (ladder_widths.size() == 1)
    std::printf("  thread ladder: host has %u hardware thread(s); wider "
                "widths skipped\n",
                hw);

  // ---- phase 4: fp32 synthesis ratio (timing keys) ----------------------
  // Gate quantity for ci/perf_gate.sh's fp32 section: the precision-tier
  // speedup at the host's active SIMD tier, plus the avx2-forced pair so
  // AVX-512 hosts also publish the narrower tier's ratio.
  const F32Speedup f32_best = measure_f32_synthesis(opt.min_time_s, -1);
  std::printf(
      "  fp32 synthesis (242 sc, %s tier): fp64 %.0f ns, fp32 %.0f ns "
      "(%.2fx)\n",
      simd::tier_name(simd::active_tier()), f32_best.f64_ns, f32_best.f32_ns,
      f32_best.speedup);
  F32Speedup f32_avx2;
  if (simd::avx2fma_supported()) {
    f32_avx2 = measure_f32_synthesis(opt.min_time_s, 1);
    std::printf(
        "  fp32 synthesis (242 sc, avx2-forced): fp64 %.0f ns, fp32 %.0f ns "
        "(%.2fx)\n",
        f32_avx2.f64_ns, f32_avx2.f32_ns, f32_avx2.speedup);
  }

  // ---- report -----------------------------------------------------------
  std::ofstream out(opt.out, std::ios::binary);
  if (!out) {
    std::fprintf(stderr, "mobiwlan-bench: cannot write %s\n", opt.out.c_str());
    return 1;
  }
  char buf[256];
  out << "{\n  \"bench\": \"scale\",\n";
  std::snprintf(buf, sizeof buf, "  \"n_aps\": %zu,\n", kNumAps);
  out << buf;
  std::snprintf(buf, sizeof buf, "  \"n_clients\": %zu,\n", kNumClients);
  out << buf;
  std::snprintf(buf, sizeof buf, "  \"agreement_max_rel_diff\": %.3e,\n",
                agg.max_rel_diff);
  out << buf;
  std::snprintf(buf, sizeof buf, "  \"agreement_exact_mismatches\": %ld,\n",
                agg.exact_mismatches);
  out << buf;
  std::snprintf(buf, sizeof buf, "  \"agreement_checksum\": %.17g,\n",
                agg.checksum);
  out << buf;
  std::snprintf(buf, sizeof buf, "  \"alloc_hook_active\": %d,\n",
                alloc_hook_active() ? 1 : 0);
  out << buf;
  std::snprintf(buf, sizeof buf, "  \"scale_allocs_per_op\": %.4f,\n",
                allocs_per_op);
  out << buf;
  std::snprintf(buf, sizeof buf, "  \"timing_batch_sample_ns\": %.1f,\n",
                batch_ns);
  out << buf;
  std::snprintf(buf, sizeof buf,
                "  \"timing_batch_samples_per_sec\": %.0f,\n", 1e9 / batch_ns);
  out << buf;
  std::snprintf(buf, sizeof buf, "  \"timing_hw_concurrency\": %u,\n", hw);
  out << buf;
  for (std::size_t k = 0; k < ladder_ns.size(); ++k) {
    std::snprintf(buf, sizeof buf, "  \"timing_jobs%zu_sample_ns\": %.1f,\n",
                  ladder_widths[k], ladder_ns[k]);
    out << buf;
    std::snprintf(buf, sizeof buf,
                  "  \"timing_jobs%zu_samples_per_sec\": %.0f,\n",
                  ladder_widths[k], 1e9 / ladder_ns[k]);
    out << buf;
  }
  // Host-capability and tier provenance, quarantined on timing_* keys: the
  // deterministic body of the report stays host-independent while baselines
  // stay comparable across machines.
  std::snprintf(buf, sizeof buf, "  \"timing_host_avx2\": %d,\n",
                simd::avx2fma_supported() ? 1 : 0);
  out << buf;
  std::snprintf(buf, sizeof buf, "  \"timing_host_avx512\": %d,\n",
                simd::avx512_supported() ? 1 : 0);
  out << buf;
  std::snprintf(buf, sizeof buf, "  \"timing_active_simd_tier\": %d,\n",
                static_cast<int>(simd::active_tier()));
  out << buf;
  std::snprintf(buf, sizeof buf, "  \"timing_active_precision_fp32\": %d,\n",
                simd::active_precision() == simd::Precision::kFloat32 ? 1 : 0);
  out << buf;
  std::snprintf(buf, sizeof buf, "  \"timing_f32_synthesis_f64_ns\": %.1f,\n",
                f32_best.f64_ns);
  out << buf;
  std::snprintf(buf, sizeof buf, "  \"timing_f32_synthesis_f32_ns\": %.1f,\n",
                f32_best.f32_ns);
  out << buf;
  std::snprintf(buf, sizeof buf, "  \"timing_f32_synthesis_speedup\": %.2f,\n",
                f32_best.speedup);
  out << buf;
  if (simd::avx2fma_supported()) {
    std::snprintf(buf, sizeof buf,
                  "  \"timing_f32_synthesis_speedup_avx2\": %.2f,\n",
                  f32_avx2.speedup);
    out << buf;
  }
  out << "  \"end\": 0\n}\n";
  out.close();
  std::printf("wrote %s\n", opt.out.c_str());

  if (!agree) {
    std::fprintf(stderr,
                 "mobiwlan-bench: scale agreement FAILED (max_rel_diff %.3e, "
                 "%ld exact mismatches)\n",
                 agg.max_rel_diff, agg.exact_mismatches);
    return 1;
  }
  if (!opt.check) return 0;

  // ---- gate (--scale-check) ---------------------------------------------
  const auto baseline = load_flat_json(opt.baseline);
  const auto tol_it = baseline.find("tolerance");
  const double tol = tol_it != baseline.end() ? tol_it->second : 0.25;
  bool ok = true;

  const auto gate_ns = baseline.find("gate_scale_batch_sample_ns");
  if (gate_ns != baseline.end()) {
    const double limit = gate_ns->second * (1.0 + tol);
    const bool time_ok = batch_ns <= limit;
    std::printf("scale-check: batch_sample_ns %s  (%.1f vs limit %.1f)\n",
                time_ok ? "ok" : "REGRESSION", batch_ns, limit);
    ok = ok && time_ok;
  } else {
    std::printf("scale-check: no gate_scale_batch_sample_ns in %s, skipped\n",
                opt.baseline.c_str());
  }
  if (alloc_hook_active()) {
    // Strict: a single steady-state allocation per op is a contract break,
    // not a perf wobble — no tolerance band.
    const bool alloc_ok = allocs_per_op == 0.0;
    std::printf("scale-check: allocs_per_op %s  (%.4f, gate 0)\n",
                alloc_ok ? "ok" : "REGRESSION", allocs_per_op);
    ok = ok && alloc_ok;
  }
  if (!ok) {
    std::fprintf(stderr, "mobiwlan-bench: scale gate FAILED (baseline %s)\n",
                 opt.baseline.c_str());
    return 1;
  }
  std::printf("scale-check: all gates hold\n");
  return 0;
}

}  // namespace mobiwlan::benchsuite
