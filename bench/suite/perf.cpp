// perf.cpp — `mobiwlan-bench --suite perf`: the hot-path cases, the
// host-relative timing ratios and every perf verdict.
//
// The cases cover the per-packet pipeline the runtime loops execute
// millions of times per study — full channel sampling, bare CSI synthesis
// at both precision tiers, the beamscan AoA, CSI similarity and one
// classifier CSI step — plus the thread pool, a campus epoch, one batched
// pass over a 512-link floor, and a measure-only set of PHY primitives
// (SNR, effective SNR, beamforming gains, PER, MCS choice, the classifier
// ToF step). Each case exercises the scratch-buffer (zero-allocation) API
// that the steady-state loops use, so allocs_per_op doubles as a regression
// check on the allocation-free contract whenever the counting hook is
// linked (it is, in mobiwlan-bench).
//
// The workload construction is deliberately simple and self-contained so
// the numbers stay comparable across refactors: a strong-activity channel
// with a walking client, sampled at 1 kHz. Besides the cases, run_perf()
// measures the 512-link floor on a 1/2/4/8-executor ladder (measure-only)
// and the paired fp32-vs-fp64 synthesis ratio. ci/perf_baseline.json
// stores the gate values; `--check` fails on a case past its tolerance
// band or a host-relative ratio (fp32, beamscan tier) below its floor.
#include <atomic>
#include <chrono>
#include <cmath>
#include <condition_variable>
#include <cstddef>
#include <cstdio>
#include <fstream>
#include <map>
#include <memory>
#include <mutex>
#include <numbers>
#include <string>
#include <thread>
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
/// (timing_aoa_tier_speedup) is what `--check` gates: both cases run on the
/// same host, so the floor means the same thing on every host.
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

// ---- the 512-link floor ----------------------------------------------------
// A 64-AP floor (8x8 grid, 30 m pitch) serving 512 clients, every link an
// independent scatterer field. scale_batch_sample times one batched pass
// over it; the jobs ladder in run_perf() times the same pass sharded.

constexpr std::size_t kApsPerSide = 8;
constexpr std::size_t kNumAps = kApsPerSide * kApsPerSide;  // 64
constexpr double kApPitchM = 30.0;
constexpr std::size_t kNumClients = 512;
constexpr std::size_t kShardGrain = 64;  // links per parallel_for chunk

struct LinkFloor {
  std::vector<std::unique_ptr<WirelessChannel>> channels;
  ChannelBatch batch;  // non-owning view, link i == channels[i]
  std::vector<ChannelSample> out = std::vector<ChannelSample>(kNumClients);
};

/// Builds the floor at kMasterSeed. Construction is sharded through an
/// Experiment (chunk-keyed substreams), so the links are bit-identical on
/// any pool size.
LinkFloor build_floor() {
  runtime::ThreadPool pool(1);
  runtime::Experiment exp(pool, runtime::kMasterSeed);
  LinkFloor floor;
  floor.channels.resize(kNumClients);
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
                floor.channels[i] = std::make_unique<WirelessChannel>(
                    cfg, ap_pos, std::move(traj), rng.split());
              }
            });
  for (auto& ch : floor.channels) floor.batch.add_link(ch.get());
  return floor;
}

/// Times `pass(t)` in whole passes over the floor until `min_time_s`
/// elapses (one untimed warm-up pass first); one op is one link-sample.
template <typename Pass>
PerfResult measure_passes(const char* name, double min_time_s, Pass pass) {
  double t = 10.0;
  pass(t);
  t += 0.001;
  std::uint64_t passes = 0;
  const std::uint64_t allocs0 = alloc_count();
  const auto t0 = clock_type::now();
  double elapsed = 0.0;
  do {
    pass(t);
    t += 0.001;
    ++passes;
    elapsed = std::chrono::duration<double>(clock_type::now() - t0).count();
  } while (elapsed < min_time_s);
  const double ops = static_cast<double>(passes * kNumClients);

  PerfResult r;
  r.name = name;
  r.ns_per_op = 1e9 * elapsed / ops;
  r.ops_per_sec = ops / elapsed;
  r.allocs_per_op = static_cast<double>(alloc_count() - allocs0) / ops;
  return r;
}

PerfResult run_scale_batch_sample(double min_time_s) {
  LinkFloor floor = build_floor();
  ChannelBatch::Scratch scratch;
  return measure_passes("scale_batch_sample", min_time_s, [&](double t) {
    floor.batch.sample_range(t, 0, kNumClients, floor.out.data(), scratch);
  });
}

/// One rung of the thread-scaling ladder: ns per link-sample of a pass
/// sharded over `width` executors (width - 1 pool helpers plus the caller).
struct LadderRung {
  std::size_t width = 0;
  double ns = 0.0;
};

/// The jobs ladder over the floor. Width 1 is the scale_batch_sample case
/// (`jobs1_ns`). A width beyond the hardware concurrency measures scheduler
/// thrash, not scaling, so only widths the host can run in parallel are
/// timed; hardware_concurrency() == 0 means "unknown" and keeps the full
/// ladder. The procedure is documented in EXPERIMENTS.md.
std::vector<LadderRung> measure_jobs_ladder(double min_time_s, double jobs1_ns,
                                            unsigned hw) {
  std::vector<LadderRung> ladder{{1, jobs1_ns}};
  LinkFloor floor = build_floor();
  for (const std::size_t width : {2u, 4u, 8u}) {
    if (hw != 0 && width > hw) continue;
    runtime::ThreadPool pool(width - 1);
    std::vector<ChannelBatch::Scratch> scratches(pool.size() + 1);
    const auto pass = [&](double t) {
      pool.parallel_for(kNumClients, kShardGrain,
                        [&](std::size_t slot, std::size_t begin,
                            std::size_t end) {
                          floor.batch.sample_range(t, begin, end,
                                                   floor.out.data(),
                                                   scratches[slot]);
                        });
    };
    const PerfResult r = measure_passes("jobs_ladder", min_time_s, pass);
    ladder.push_back({width, r.ns_per_op});
  }
  return ladder;
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
      {"scale_batch_sample", "one batched pass over a 64-AP x 512-client "
       "floor, per link-sample", run_scale_batch_sample},
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

namespace {

/// Appends `"key": value,` to the flat report.
void put(std::ofstream& out, const std::string& key, const char* format,
         double value) {
  char num[64];
  std::snprintf(num, sizeof num, format, value);
  out << "  \"" << key << "\": " << num << ",\n";
}

/// Gates one host-relative ratio against the baseline's floor `key`. A
/// missing floor fails: the ratio gates have no measure-only mode.
bool check_floor(const char* what, double ratio,
                 const std::map<std::string, double>& baseline,
                 const char* key) {
  const auto it = baseline.find(key);
  if (it == baseline.end()) {
    std::printf("perf-check: %-20s REGRESSION  (no %s in baseline)\n", what,
                key);
    return false;
  }
  const bool ok = ratio >= it->second;
  std::printf("perf-check: %-20s %s  (%.2fx vs floor %.2fx)\n", what,
              ok ? "ok" : "REGRESSION", ratio, it->second);
  return ok;
}

}  // namespace

int run_perf(const SuiteOptions& opt) {
  const auto baseline = load_flat_json(opt.baseline);
  if (!baseline.empty())
    std::printf("perf: baseline %s (%zu keys)\n", opt.baseline.c_str(),
                baseline.size());
  else
    std::printf("perf: no baseline at %s (measuring only)\n",
                opt.baseline.c_str());
  if (!alloc_hook_active())
    std::printf("perf: warning: alloc hook not linked, allocs/op will read 0\n");

  std::vector<PerfResult> results;
  for (const PerfCaseDef& def : perf_registry()) {
    PerfResult r = def.run(opt.min_time_s);
    std::printf("  %-20s %12.1f ns/op  %12.0f ops/s  %6.2f allocs/op\n",
                r.name.c_str(), r.ns_per_op, r.ops_per_sec, r.allocs_per_op);
    results.push_back(std::move(r));
  }
  const auto ns_of = [&](const char* name) {
    for (const PerfResult& r : results)
      if (r.name == name) return r.ns_per_op;
    return 0.0;
  };

  // The beamscan's active-tier speedup over its own scalar tier, measured
  // back to back on this host.
  const double aoa_ns = ns_of("aoa_sweep");
  const double aoa_scalar_ns = ns_of("aoa_sweep_scalar");
  const double aoa_speedup =
      aoa_ns > 0.0 && aoa_scalar_ns > 0.0 ? aoa_scalar_ns / aoa_ns : 0.0;

  const unsigned hw = std::thread::hardware_concurrency();
  const std::vector<LadderRung> ladder = measure_jobs_ladder(
      opt.min_time_s, ns_of("scale_batch_sample"), hw);
  for (const LadderRung& rung : ladder)
    std::printf("  %zu executor(s): %.0f ns/link-sample (%.2fx vs 1)\n",
                rung.width, rung.ns, ladder.front().ns / rung.ns);
  if (ladder.size() == 1)
    std::printf("  jobs ladder: host has %u hardware thread(s); wider "
                "widths skipped\n", hw);

  // The fp32 tier's synthesis speedup at the active SIMD tier, plus the
  // avx2-forced pair so AVX-512 hosts also publish the narrower tier's
  // ratio.
  const F32Speedup f32 = measure_f32_synthesis(opt.min_time_s, -1);
  std::printf("  fp32 synthesis (242 sc, %s tier): fp64 %.0f ns, fp32 %.0f "
              "ns (%.2fx)\n",
              simd::tier_name(simd::active_tier()), f32.f64_ns, f32.f32_ns,
              f32.speedup);
  F32Speedup f32_avx2;
  if (simd::avx2fma_supported()) {
    f32_avx2 = measure_f32_synthesis(opt.min_time_s, 1);
    std::printf("  fp32 synthesis (242 sc, avx2-forced): fp64 %.0f ns, fp32 "
                "%.0f ns (%.2fx)\n",
                f32_avx2.f64_ns, f32_avx2.f32_ns, f32_avx2.speedup);
  }

  std::ofstream out(opt.out, std::ios::binary);
  if (!out) {
    std::fprintf(stderr, "mobiwlan-bench: cannot write %s\n",
                 opt.out.c_str());
    return 1;
  }
  out << "{\n";
  out << "  \"bench\": \"channel_perf\",\n";
  put(out, "min_time_s", "%g", opt.min_time_s);
  put(out, "alloc_hook_active", "%.0f", alloc_hook_active() ? 1 : 0);
  for (const PerfResult& r : results) {
    put(out, r.name + "_ns", "%.1f", r.ns_per_op);
    put(out, r.name + "_ops_per_sec", "%.0f", r.ops_per_sec);
    put(out, r.name + "_allocs", "%.2f", r.allocs_per_op);
    const auto pre_ns = baseline.find("pre_pr_" + r.name + "_ns");
    if (pre_ns != baseline.end()) {
      put(out, "pre_pr_" + r.name + "_ns", "%.1f", pre_ns->second);
      const auto pre_allocs = baseline.find("pre_pr_" + r.name + "_allocs");
      if (pre_allocs != baseline.end())
        put(out, "pre_pr_" + r.name + "_allocs", "%.2f", pre_allocs->second);
      put(out, r.name + "_speedup_vs_pre_pr", "%.2f",
          pre_ns->second / r.ns_per_op);
    }
  }
  // Host-relative ratios, the jobs ladder and host provenance, quarantined
  // on timing_* keys (the same convention the determinism diffs filter on),
  // so perf baselines are comparable across hosts.
  if (aoa_speedup > 0.0)
    put(out, "timing_aoa_tier_speedup", "%.2f", aoa_speedup);
  put(out, "timing_hw_concurrency", "%.0f", hw);
  for (const LadderRung& rung : ladder) {
    const std::string jobs = "timing_jobs" + std::to_string(rung.width);
    put(out, jobs + "_sample_ns", "%.1f", rung.ns);
    put(out, jobs + "_samples_per_sec", "%.0f", 1e9 / rung.ns);
  }
  put(out, "timing_f32_synthesis_f64_ns", "%.1f", f32.f64_ns);
  put(out, "timing_f32_synthesis_f32_ns", "%.1f", f32.f32_ns);
  put(out, "timing_f32_synthesis_speedup", "%.2f", f32.speedup);
  if (simd::avx2fma_supported())
    put(out, "timing_f32_synthesis_speedup_avx2", "%.2f", f32_avx2.speedup);
  put(out, "timing_host_avx2", "%.0f", simd::avx2fma_supported() ? 1 : 0);
  put(out, "timing_host_avx512", "%.0f", simd::avx512_supported() ? 1 : 0);
  put(out, "timing_active_simd_tier", "%.0f",
      static_cast<double>(simd::active_tier()));
  put(out, "timing_active_precision_fp32", "%.0f",
      simd::active_precision() == simd::Precision::kFloat32 ? 1 : 0);
  out << "  \"end\": 0\n}\n";
  out.close();
  std::printf("wrote %s (%zu cases)\n", opt.out.c_str(), results.size());

  if (!opt.check) return 0;

  // Gate: each case must stay within (1 + tolerance) of its committed
  // gate_*_ns and must not allocate more than gate_*_allocs (+0.5 slack for
  // amortized one-off growth). Missing gate keys are reported, not fatal,
  // so new cases can land before the baseline is refreshed.
  const auto tol_it = baseline.find("tolerance");
  const double tol = tol_it != baseline.end() ? tol_it->second : 0.25;
  bool ok = true;
  for (const PerfResult& r : results) {
    const auto gate_ns = baseline.find("gate_" + r.name + "_ns");
    if (gate_ns == baseline.end()) {
      std::printf("perf-check: %-20s no gate_%s_ns in baseline, skipped\n",
                  r.name.c_str(), r.name.c_str());
      continue;
    }
    const double limit = gate_ns->second * (1.0 + tol);
    const bool time_ok = r.ns_per_op <= limit;
    bool allocs_ok = true;
    const auto gate_allocs = baseline.find("gate_" + r.name + "_allocs");
    if (gate_allocs != baseline.end() && alloc_hook_active())
      allocs_ok = r.allocs_per_op <= gate_allocs->second + 0.5;
    std::printf("perf-check: %-20s %s  (%.1f ns/op vs limit %.1f",
                r.name.c_str(), time_ok && allocs_ok ? "ok" : "REGRESSION",
                r.ns_per_op, limit);
    if (gate_allocs != baseline.end())
      std::printf(", %.2f allocs/op vs gate %.2f", r.allocs_per_op,
                  gate_allocs->second);
    std::printf(")\n");
    ok = ok && time_ok && allocs_ok;
  }

  // The host-relative floors. Both sides of each ratio run on this host, so
  // they mean the same on every host that has the tiers; a host that lacks
  // them skips the floor LOUDLY rather than silently passing.
  if (!simd::avx2fma_supported()) {
    std::fprintf(stderr,
                 "perf-check: fp32 SKIPPED — host lacks AVX2+FMA; the avx2 "
                 "and avx512 tiers cannot be exercised here and the "
                 "gate_f32_min_speedup floor does not apply to the scalar "
                 "tier\n");
  } else {
    if (!simd::avx512_supported())
      std::fprintf(stderr,
                   "perf-check: fp32 NOTE — host lacks AVX-512 (f/dq/vl); the "
                   "avx512 tier falls back to avx2 and the fp32 ratio is "
                   "gated at the avx2 tier\n");
    ok = check_floor("f32_synthesis", f32.speedup, baseline,
                     "gate_f32_min_speedup") && ok;
  }
  if (simd::active_tier() == simd::Tier::kScalar) {
    std::fprintf(stderr,
                 "perf-check: aoa SKIPPED — active SIMD tier is scalar (host "
                 "lacks AVX2+FMA or MOBIWLAN_SIMD_TIER forces it); the "
                 "gate_aoa_min_speedup beamscan floor does not apply to the "
                 "scalar tier\n");
  } else {
    ok = check_floor("aoa_tier", aoa_speedup, baseline,
                     "gate_aoa_min_speedup") && ok;
  }

  if (!ok) {
    std::fprintf(stderr,
                 "mobiwlan-bench: perf regression past %.0f%% tolerance or "
                 "below a ratio floor (baseline %s)\n",
                 100.0 * tol, opt.baseline.c_str());
    return 1;
  }
  std::printf("perf-check: all cases within %.0f%% of baseline, every ratio "
              "floor holds or is skipped\n", 100.0 * tol);
  return 0;
}

}  // namespace mobiwlan::benchsuite
