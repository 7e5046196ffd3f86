// channel_batch.hpp — the channel engine.
//
// Geometry and CSI synthesis for every WirelessChannel run here, once: a
// ChannelBatch advances N independent AP-client links in one
// structure-of-arrays pass, and each WirelessChannel sampling entry point
// (sample_into, csi_at_into, csi_true_into, rssi_dbm, snr_db) is the same
// kernels applied to a batch of one. What the kernels do per sample:
//
//   * the SIMD tier (`simd::active_tier()`) and precision are resolved once
//     per call — per range for the batch calls;
//   * one scratch arena per *worker* holds the path geometries, the
//     path-major base-phasor planes and the ULA steering table for every
//     path of the link being synthesized, so the working set stays in L1
//     across the whole batch;
//   * the steer x base multiply-accumulate runs as a register-blocked fused
//     kernel: all antenna-pair accumulators for a 4-subcarrier block live in
//     registers while the path loop runs, and the result is stored directly
//     into the CsiMatrix (interleaved);
//   * the wideband power needed for the CSI noise variance is accumulated
//     during that store instead of by a second pass over the matrix;
//   * geometry phases use the extended-range fastmath kernels
//     (fastmath::sincos_wide, log10_pos, db_to_amplitude) instead of libm.
//
// Numerical contract: the engine is its own reference. Every output is
// bitwise-identical across the scalar, AVX2 and AVX-512 tiers (each vector
// kernel has a scalar lane mirror), across batch and per-link calls, and
// across range chunkings; the golden fixtures in
// tests/chan/channel_equivalence_test.cpp pin it to the original channel
// model to <= 1e-12. The RNG draw sequence per link (CSI noise, RSSI
// jitter, ToF jitter) is fixed, so a link can move between batched and
// per-link sampling mid-run without forking its randomness.
//
// Precision tiers: the default (simd::Precision::kFloat64) holds the
// contract above. Under MOBIWLAN_PRECISION=fp32 the phasor planes, the
// steering table and the steer x base MAC run in float32 (8-lane AVX2 /
// 16-lane AVX-512), with an error-bounded contract instead: CSI agrees with
// the fp64 reference to <= 1e-4 scale-relative, while geometry and every
// RNG draw stay double so RSSI/ToF readings and RNG state remain *bitwise*
// identical across precision tiers. The setting covers every caller, batch
// and per-link alike. See DESIGN.md §5 "Precision tiers".
//
// Thread safety: links may be partitioned across workers (e.g. via
// ThreadPool::parallel_for) as long as every worker owns a disjoint link
// range and its own Scratch — sampling mutates only per-link state (rng_)
// and the caller's buffers.
#pragma once

#include <cstddef>
#include <vector>

#include "chan/channel.hpp"
#include "phy/csi.hpp"

namespace mobiwlan {

/// Geometry of one propagation path at a time instant. Steering angles are
/// carried as cosines (the only form the ULA phase terms need), computed as
/// coordinate ratios instead of cos(atan2(...)).
struct PathGeometry {
  double length_m;   ///< total propagation length
  double amplitude;  ///< sqrt(mW) received amplitude
  double phase0;     ///< reflection phase offset
  double cos_aod;    ///< cos(departure angle at the AP array)
  double cos_aoa;    ///< cos(arrival angle at the client array)
};

/// Per-worker workspace of the channel engine (ChannelBatch::Scratch). All
/// buffers grow to the largest path / antenna counts seen on first use and
/// are reused thereafter: sampling through a retained scratch performs zero
/// heap allocations in steady state.
struct ChannelScratch {
  std::vector<PathGeometry> paths;  ///< LOS first, then one per scatterer
  std::vector<double> base;   ///< path-major phasor planes: [path][re|im][sc]
  std::vector<double> steer;  ///< ULA steering phasors: [path][pair][re,im]
  std::vector<double> rssi;   ///< per-link RSSI plane for scans
  // Staging planes for the 4-lane transcendental passes (oscillator
  // arguments, squared lengths, loss exponents), padded to lane multiples.
  std::vector<double> arg, sinv, cosv, len, dxs, amp;
  // fp32 tier planes (simd::Precision::kFloat32): the phasor/steering
  // planes and the sincos staging in float, contiguous so the kernel stays
  // GPU-portable. Geometry (paths/len/dxs/amp) and the RSSI plane stay
  // double on every tier.
  std::vector<float> basef, steerf, argf, sinvf, cosvf;
};

/// Batched view over N independent links (non-owning).
class ChannelBatch {
 public:
  using Scratch = ChannelScratch;

  ChannelBatch() = default;

  /// Registers a link and returns its slot. Slots are *stable*: a link
  /// keeps its slot until remove_link, and new links fill the most
  /// recently freed hole first (LIFO), else append. The channel must
  /// outlive its membership. Per-link sampling is independent, so slot
  /// order never affects any link's output — only which out[] element it
  /// lands in.
  std::size_t add_link(WirelessChannel* channel) {
    if (!free_slots_.empty()) {
      const std::size_t slot = free_slots_.back();
      free_slots_.pop_back();
      links_[slot] = channel;
      return slot;
    }
    links_.push_back(channel);
    // Every slot can become a hole, so growing the hole list alongside the
    // slot vector (amortized by capacity, O(log n) reallocations) makes
    // remove_link allocation-free — callers punch holes from hot loops.
    if (free_slots_.capacity() < links_.capacity())
      free_slots_.reserve(links_.capacity());
    return links_.size() - 1;
  }

  /// Frees a slot, leaving a hole the range calls skip. The slot is
  /// recycled by a later add_link.
  void remove_link(std::size_t slot) {
    links_[slot] = nullptr;
    free_slots_.push_back(slot);
  }

  /// Forgets every link and hole, keeping the registration buffers.
  void clear() {
    links_.clear();
    free_slots_.clear();
  }

  /// Slot count, holes included (the bound for the range calls).
  std::size_t size() const { return links_.size(); }
  /// Links registered (slots minus holes).
  std::size_t occupied() const { return links_.size() - free_slots_.size(); }
  bool is_hole(std::size_t i) const { return links_[i] == nullptr; }
  WirelessChannel& link(std::size_t i) { return *links_[i]; }
  const WirelessChannel& link(std::size_t i) const { return *links_[i]; }

  /// Full observations (CSI + RSSI + SNR + ToF) for links [begin, end) at
  /// time t, into out[begin..end). Holes are skipped (their out element is
  /// left untouched). Draw order per link matches
  /// WirelessChannel::sample_into. Allocation-free in steady state.
  void sample_range(double t, std::size_t begin, std::size_t end,
                    ChannelSample* out, Scratch& scratch);

  /// One slot's full observation — the same kernels and bits sample_range
  /// applies to that slot. Lets a memory-bound caller interleave sampling
  /// with per-link consumption in one pass, so each link's working set is
  /// touched exactly once per epoch. `slot` must not be a hole.
  void sample_slot(double t, std::size_t slot, ChannelSample& out,
                   Scratch& scratch);

  /// Cache-hint for the link in `slot` (hole-safe no-op): issue it one slot
  /// ahead of sample_slot so the link's realization lines stream in under
  /// the current slot's synthesis.
  void prefetch_slot(std::size_t slot) const {
    if (const WirelessChannel* ch = links_[slot]) ch->prefetch();
  }

  /// One full observation of any link, registered or not — the same bits
  /// ch.sample_into(t, out, scratch) and a sample_range call give it.
  static void sample_link(WirelessChannel& ch, double t, ChannelSample& out,
                          Scratch& scratch);

  /// Quantized RSSI for every link at time t into scratch.rssi — the roaming
  /// scan as one pass (WirelessChannel::rssi_dbm per link, in link order).
  void rssi_all(double t, Scratch& scratch);

  /// One noisy ToF reading per link at time t into out[0..size()) — the
  /// neighbor-AP ToF sweep as one pass.
  void tof_all(double t, double* out);

  /// Link index with the strongest RSSI at time t (draws one RSSI reading
  /// per link, in link order — same contract as WlanDeployment's scan).
  std::size_t strongest_link(double t, Scratch& scratch);

 private:
  // WirelessChannel's sampling entry points run these kernels directly.
  friend class WirelessChannel;

  struct SynthSpec;  // resolved kernel + layout for one call

  // The kernels are static: they touch only the passed link and scratch,
  // which is what lets every per-link entry point be a batch of one.
  static void geometries(const WirelessChannel& ch, double t,
                         const SynthSpec& spec, Scratch& scratch);
  static void geometries_wide(const WirelessChannel& ch, double t,
                              Scratch& scratch);
  static void geometries_scalar(const WirelessChannel& ch, double t,
                                Scratch& scratch);
  static void synthesize(const WirelessChannel& ch, const SynthSpec& spec,
                         Scratch& scratch, CsiMatrix& out, double& power_mw);
  static void synthesize_f32(const WirelessChannel& ch, const SynthSpec& spec,
                             Scratch& scratch, CsiMatrix& out,
                             double& power_mw);
  static void sample_one(WirelessChannel& ch, const SynthSpec& spec, double t,
                         ChannelSample& out, Scratch& scratch);
  /// Measurement noise on synthesized CSI whose summed |h|^2 is `power_mw`,
  /// at the link SNR `link_snr_db` (one draw batch from ch's RNG).
  static void add_csi_noise(WirelessChannel& ch, CsiMatrix& csi,
                            double power_mw, double link_snr_db);

  std::vector<WirelessChannel*> links_;
  std::vector<std::size_t> free_slots_;  // LIFO recycled holes
};

}  // namespace mobiwlan
