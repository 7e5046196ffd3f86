// perf.cpp — hot-path microbenchmarks for `mobiwlan-bench --suite perf`.
//
// The cases cover the per-packet pipeline the runtime loops execute
// millions of times per study — full channel sampling, bare CSI synthesis
// at both precision tiers, the beamscan AoA, CSI similarity and one
// classifier CSI step — plus the thread pool and a campus epoch, and a
// measure-only set of PHY primitives (SNR, effective SNR, beamforming
// gains, PER, MCS choice, the classifier ToF step). Each case
// exercises the scratch-buffer (zero-allocation) API that the steady-state
// loops use, so allocs_per_op doubles as a regression check on the
// allocation-free contract whenever the counting hook is linked (it is, in
// mobiwlan-bench).
//
// The workload construction is deliberately simple and self-contained so
// the numbers stay comparable across refactors: a strong-activity channel
// with a walking client, sampled at 1 kHz. ci/perf_baseline.json stores the
// gate values; ci/perf_gate.sh fails the build when a case regresses past
// the tolerance band.
#include <atomic>
#include <chrono>
#include <condition_variable>
#include <cstddef>
#include <memory>
#include <mutex>
#include <vector>

#include "campus/campus.hpp"
#include "chan/channel.hpp"
#include "chan/channel_batch.hpp"
#include "chan/trajectory.hpp"
#include "core/csi_similarity.hpp"
#include "core/mobility_classifier.hpp"
#include "phy/aoa.hpp"
#include "phy/beamforming.hpp"
#include "phy/error_model.hpp"
#include "phy/mcs.hpp"
#include "runtime/thread_pool.hpp"
#include "suite/suite.hpp"
#include "util/alloc_count.hpp"
#include "util/rng.hpp"
#include "util/simd.hpp"

namespace mobiwlan::benchsuite {
namespace {

using clock_type = std::chrono::steady_clock;

/// The shared perf workload: strong environmental activity plus a client
/// walking away from the AP at 1.2 m/s — every mobility signal active, so no
/// hot branch is skipped. Seeded off a dedicated stream, independent of the
/// experiment runner's job streams.
std::unique_ptr<WirelessChannel> perf_channel() {
  Rng master(20140204);
  Rng rng = master.stream(2001);
  ChannelConfig cfg;
  cfg.activity = EnvironmentalActivity::kStrong;
  auto traj =
      std::make_shared<LinearTrajectory>(Vec2{9.0, 0.0}, Vec2{1.0, 0.4}, 1.2);
  return std::make_unique<WirelessChannel>(cfg, Vec2{0.0, 0.0},
                                           std::move(traj), rng.split());
}

/// Repeats `body` in 256-op batches until `min_time_s` elapses (after a
/// 64-op warmup that also populates any scratch buffers), then reports
/// mean ns/op and allocs/op over the timed region.
template <typename Body>
PerfResult measure(const char* name, double min_time_s, Body body) {
  for (int i = 0; i < 64; ++i) body();
  std::uint64_t iters = 0;
  const std::uint64_t allocs0 = alloc_count();
  const auto t0 = clock_type::now();
  double elapsed = 0.0;
  do {
    for (int i = 0; i < 256; ++i) body();
    iters += 256;
    elapsed = std::chrono::duration<double>(clock_type::now() - t0).count();
  } while (elapsed < min_time_s);
  const std::uint64_t allocs1 = alloc_count();

  PerfResult r;
  r.name = name;
  r.ns_per_op = 1e9 * elapsed / static_cast<double>(iters);
  r.ops_per_sec = static_cast<double>(iters) / elapsed;
  r.allocs_per_op =
      static_cast<double>(allocs1 - allocs0) / static_cast<double>(iters);
  return r;
}

PerfResult run_channel_sample(double min_time_s) {
  auto ch = perf_channel();
  ChannelBatch::Scratch scratch;
  ChannelSample s;
  double t = 0.0;
  return measure("channel_sample", min_time_s, [&] {
    ch->sample_into(t, s, scratch);
    t += 0.001;
    asm volatile("" : : "r"(&s) : "memory");
  });
}

/// Restores the forced precision tier on scope exit (the fp32 cases must
/// not leak their override into later cases or the gate run).
struct PrecisionGuard {
  explicit PrecisionGuard(int precision) {
    simd::set_forced_precision(precision);
  }
  ~PrecisionGuard() { simd::set_forced_precision(-1); }
};

/// Restores the SIMD tier override on scope exit (the scalar-tier case must
/// not leak its override into later cases or the gate run).
struct TierGuard {
  explicit TierGuard(int tier) { simd::set_forced_tier(tier); }
  ~TierGuard() { simd::set_forced_tier(-1); }
};

/// Noiseless synthesis (geometry + CSI) at the paper's 3x2x52 layout via
/// csi_true_into — the channel engine every sampler sits on. `precision`
/// pins the plane tier: 0 = fp64 (the default contract), 1 = fp32
/// (error-bounded tier; see DESIGN.md §5).
PerfResult run_batch_synthesis_tier(const char* name, double min_time_s,
                                    int precision) {
  PrecisionGuard guard(precision);
  auto ch = perf_channel();
  ChannelBatch::Scratch scratch;
  CsiMatrix m;
  double t = 0.0;
  return measure(name, min_time_s, [&] {
    ch->csi_true_into(t, m, scratch);
    t += 0.001;
    asm volatile("" : : "r"(&m) : "memory");
  });
}

PerfResult run_batch_synthesis(double min_time_s) {
  return run_batch_synthesis_tier("batch_synthesis", min_time_s, 0);
}

PerfResult run_batch_synthesis_f32(double min_time_s) {
  return run_batch_synthesis_tier("batch_synthesis_f32", min_time_s, 1);
}

/// One full 181-point beamscan over a fixed CSI snapshot — the estimator
/// the localization fusion path calls per serving-AP observation. Holds the
/// cached steering table honest: the per-grid-point work must stay one
/// complex multiply-accumulate per (tx, rx, subcarrier), not a std::polar
/// in the inner loop. `tier` pins the SIMD tier of the scan only (-1 = the
/// host default); the snapshot is synthesized before the override.
PerfResult run_aoa_sweep_tier(const char* name, double min_time_s, int tier) {
  auto ch = perf_channel();
  const CsiMatrix csi = ch->csi_at(0.0);
  TierGuard guard(tier);
  return measure(name, min_time_s, [&] {
    AoaEstimate est = estimate_aoa(csi);
    asm volatile("" : : "r"(&est) : "memory");
  });
}

PerfResult run_aoa_sweep(double min_time_s) {
  return run_aoa_sweep_tier("aoa_sweep", min_time_s, -1);
}

/// The same scan on the portable 8-lane loop. Its ratio to aoa_sweep
/// (timing_aoa_tier_speedup) is what ci/perf_gate.sh gates: both cases run
/// on the same host, so the floor means the same thing on every host.
PerfResult run_aoa_sweep_scalar(double min_time_s) {
  return run_aoa_sweep_tier("aoa_sweep_scalar", min_time_s, 0);
}

PerfResult run_csi_similarity(double min_time_s) {
  auto ch = perf_channel();
  const CsiMatrix a = ch->csi_at(0.0);
  const CsiMatrix b = ch->csi_at(0.5);
  CsiSimilarityScratch scratch;
  return measure("csi_similarity", min_time_s, [&] {
    double s = csi_similarity(a, b, scratch);
    asm volatile("" : : "r"(&s) : "memory");
  });
}

PerfResult run_classifier_csi_step(double min_time_s) {
  auto ch = perf_channel();
  std::vector<CsiMatrix> samples;
  samples.reserve(64);
  for (int i = 0; i < 64; ++i) samples.push_back(ch->csi_at(i * 0.5));
  MobilityClassifier clf;
  double t = 0.0;
  std::size_t i = 0;
  return measure("classifier_csi_step", min_time_s, [&] {
    clf.on_csi(t, samples[i % samples.size()]);
    t += 0.5;
    ++i;
  });
}

// ---- measure-only PHY primitives -------------------------------------------
// The costs that decide whether the classifier and the trace emulators run
// at line rate on an AP-class CPU. No gate_* key exists for these, so
// `--check` reports them as skipped; they are timed for the record.

/// A 3x2 (or `tx` x `rx`) CSI matrix of i.i.d. complex Gaussian entries.
CsiMatrix random_csi(Rng& rng, std::size_t tx = 3, std::size_t rx = 2) {
  CsiMatrix m(tx, rx, kDefaultSubcarriers);
  for (auto& v : m.raw()) v = rng.complex_gaussian();
  return m;
}

PerfResult run_channel_snr(double min_time_s) {
  auto ch = perf_channel();
  ChannelBatch::Scratch scratch;
  double t = 0.0;
  return measure("channel_snr", min_time_s, [&] {
    double snr = ch->snr_db(t, scratch);
    t += 0.001;
    asm volatile("" : : "r"(&snr) : "memory");
  });
}

PerfResult run_effective_snr(double min_time_s) {
  Rng rng(4);
  const CsiMatrix h = random_csi(rng);
  return measure("effective_snr", min_time_s, [&] {
    double snr = effective_snr_db(h, 20.0);
    asm volatile("" : : "r"(&snr) : "memory");
  });
}

PerfResult run_su_bf_gain(double min_time_s) {
  Rng rng(5);
  const CsiMatrix now = random_csi(rng);
  const CsiMatrix stale = random_csi(rng);
  return measure("su_bf_gain", min_time_s, [&] {
    double gain = su_beamforming_gain_db(now, stale);
    asm volatile("" : : "r"(&gain) : "memory");
  });
}

PerfResult run_mu_mimo_zf(double min_time_s) {
  Rng rng(6);
  std::vector<CsiMatrix> now;
  std::vector<CsiMatrix> stale;
  for (int k = 0; k < 3; ++k) {
    now.push_back(random_csi(rng, 3, 1));
    stale.push_back(random_csi(rng, 3, 1));
  }
  const std::vector<double> snr(3, 20.0);
  return measure("mu_mimo_zf", min_time_s, [&] {
    MuMimoResult r = mu_mimo_zero_forcing(now, stale, snr);
    asm volatile("" : : "r"(&r) : "memory");
  });
}

PerfResult run_classifier_tof_step(double min_time_s) {
  Rng rng(8);
  MobilityClassifier clf;
  // Uncorrelated CSI reads as device mobility, so ToF processing is active.
  for (double t = 0.0; t < 4.0; t += 0.5) clf.on_csi(t, random_csi(rng));
  double t = 4.0;
  return measure("classifier_tof_step", min_time_s, [&] {
    clf.on_tof(t, 100.0 + rng.gaussian());
    t += 0.02;
  });
}

PerfResult run_per_from_snr(double min_time_s) {
  return measure("per_from_snr", min_time_s, [&] {
    double per = per_from_snr(mcs(12), 22.0, 1500);
    asm volatile("" : : "r"(&per) : "memory");
  });
}

PerfResult run_best_mcs(double min_time_s) {
  double snr = 5.0;
  return measure("best_mcs", min_time_s, [&] {
    int m = best_mcs(snr, 1500, 2);
    snr = snr > 35.0 ? 5.0 : snr + 0.1;
    asm volatile("" : : "r"(&m) : "memory");
  });
}

PerfResult run_pool_post_many(double min_time_s) {
  // Dispatch overhead of the batched enqueue: one op = post_many() of 64
  // no-op tasks (one lock + one notify_all) plus the completion wait. The
  // tasks capture 16 bytes, so they ride the TaskFn inline buffer — the
  // allocs/op column proves the queue itself is the only allocator (one
  // node per task from std::queue, nothing per-submit).
  runtime::ThreadPool pool(1);
  constexpr std::size_t kTasks = 64;
  std::atomic<std::size_t> remaining{0};
  std::mutex mu;
  std::condition_variable done;
  return measure("pool_post_many", min_time_s, [&] {
    remaining.store(kTasks, std::memory_order_relaxed);
    pool.post_many(kTasks, [&](std::size_t) {
      return runtime::TaskFn([&] {
        if (remaining.fetch_sub(1, std::memory_order_acq_rel) == 1) {
          std::lock_guard<std::mutex> lock(mu);
          done.notify_one();
        }
      });
    });
    std::unique_lock<std::mutex> lock(mu);
    done.wait(lock, [&] {
      return remaining.load(std::memory_order_acquire) == 0;
    });
  });
}

PerfResult run_campus_step(double min_time_s) {
  // A steady-state campus shard step: 512 resident sessions on an 8x8 grid
  // over 4 shards, all arrived at epoch 1 and none departing within the
  // measured horizon. The hysteresis is pinned high so no session
  // re-associates mid-measurement — the case times the shard step loop
  // (batch rebuild + batched sample + per-session step + mailbox sweep),
  // not channel re-construction, and its allocs/op column gates the
  // zero-allocation contract of that loop.
  campus::CampusConfig cfg = campus::campus_default_config();
  cfg.cols = 8;
  cfg.rows = 8;
  cfg.shards = 4;
  cfg.jobs = 1;
  cfg.n_sessions = 512;
  cfg.arrival_window_epochs = 1;
  cfg.min_dwell_epochs = 100000;
  cfg.mean_extra_dwell_epochs = 0.0;
  cfg.max_dwell_epochs = 100000;
  cfg.horizon_epochs = 200000;
  cfg.session.handover_hysteresis_m = 1e9;
  campus::CampusSim sim(cfg);
  sim.step_epoch();  // admits (and primes) every session
  return measure("campus_step", min_time_s, [&] { sim.step_epoch(); });
}

}  // namespace

const std::vector<PerfCaseDef>& perf_registry() {
  static const std::vector<PerfCaseDef> cases = {
      {"channel_sample",
       "full ChannelSample (geometry+CSI+noise) via sample_into",
       run_channel_sample},
      {"batch_synthesis",
       "noiseless 3x2x52 CSI synthesis via csi_true_into (fp64 tier)",
       run_batch_synthesis},
      {"batch_synthesis_f32",
       "noiseless 3x2x52 CSI synthesis via csi_true_into (fp32 tier)",
       run_batch_synthesis_f32},
      {"aoa_sweep", "181-point beamscan AoA estimate on a fixed CSI snapshot",
       run_aoa_sweep},
      {"aoa_sweep_scalar",
       "the aoa_sweep beamscan forced onto the portable scalar tier",
       run_aoa_sweep_scalar},
      {"csi_similarity", "4-pair Pearson CSI similarity with scratch buffers",
       run_csi_similarity},
      {"classifier_csi_step", "MobilityClassifier::on_csi steady-state step",
       run_classifier_csi_step},
      {"pool_post_many", "64-task batched enqueue + drain on a 1-worker pool",
       run_pool_post_many},
      {"campus_step", "one campus epoch: 512 resident sessions on 4 shards",
       run_campus_step},
      {"channel_snr", "true wideband SNR of the perf channel (measure-only)",
       run_channel_snr},
      {"effective_snr", "effective SNR of a 3x2x52 CSI matrix (measure-only)",
       run_effective_snr},
      {"su_bf_gain", "SU beamforming gain from stale CSI (measure-only)",
       run_su_bf_gain},
      {"mu_mimo_zf", "3-user MU-MIMO zero-forcing from stale CSI "
       "(measure-only)", run_mu_mimo_zf},
      {"classifier_tof_step", "MobilityClassifier::on_tof step under device "
       "mobility (measure-only)", run_classifier_tof_step},
      {"per_from_snr", "PER of MCS 12 at 22 dB, 1500 B (measure-only)",
       run_per_from_snr},
      {"best_mcs", "best MCS over an SNR sweep, 2 streams (measure-only)",
       run_best_mcs},
  };
  return cases;
}

}  // namespace mobiwlan::benchsuite
