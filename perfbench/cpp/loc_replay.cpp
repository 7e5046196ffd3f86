// loc_replay — a recorded crowd replayed strictly through TraceSource into
// the same fingerprint DB, with mobility-gated refreshes writing beside the
// lookups. No radio and no AoA run in the timed loop.
//
// Set-up surveys the DB and records 64 clients for 30 s into one MWTR v2
// trace: half static, half walking, and every third client loses its PHY
// exports for 5 s, which the trace keeps as absence records. Per
// (client, epoch) the trace holds one RSSI record per AP (absent when the AP
// does not hear the client), the CSI of each hearing AP in AP order, and 25
// ToF readings (20 ms apart) of the strongest AP. Every stream is keyed by
// client, so each has records every epoch and replay decodes at most one
// epoch ahead.
//
// A pass replays the whole trace into a fresh copy of the DB: per
// client-epoch it reads the RSSI and CSI, calls observe_ap and locate, feeds
// MobilityClassifier on_csi / on_tof / decision into MobilityGate::route,
// and on a refresh calls FingerprintDb::refresh for the client's
// registration cell. After the pass, probes (each client's first
// observation) are located against the refreshed DB.
#include <bit>
#include <filesystem>
#include <limits>
#include <optional>
#include <stdexcept>
#include <string>
#include <vector>

#include <malloc.h>

#include "campus/stats_stream.hpp"
#include "chan/channel_batch.hpp"
#include "core/mobility_classifier.hpp"
#include "loc/mobility_gate.hpp"
#include "loc_common.hpp"
#include "trace/trace_io.hpp"
#include "trace/trace_source.hpp"

namespace perfbench {
namespace {

namespace ml = mobiwlan::loc;
namespace mt = mobiwlan::trace;
using mobiwlan::campus::fnv1a_mix;

constexpr std::uint64_t kCrowdSalt = 0xBE7C20;
constexpr int kTofPerEpoch = 25;  ///< 0.5 s epoch / 20 ms ToF period
constexpr double kRefreshAlpha = 0.25;

struct CrowdShape {
  std::size_t clients = 64;
  std::size_t epochs = 60;
  std::size_t outage_begin = 30;  ///< outage epochs [begin, begin + 10)
};

double tof_time(double t, int i) {
  return t + mobiwlan::MobilityClassifier::Config{}.tof_period_s * i;
}

struct Crowd {
  CrowdShape shape;
  std::vector<mobiwlan::Vec2> truth0;
  std::vector<std::size_t> reg_cell;
  std::uint64_t present = 0;  ///< reads the replay must be served
  std::uint64_t absent = 0;   ///< reads that replay recorded absences
  std::uint64_t bytes = 0;    ///< trace file size
  std::int64_t write_wall_ns = 0;
};

bool in_outage(const CrowdShape& sh, std::size_t c, std::size_t e) {
  return c % 3 == 0 && e >= sh.outage_begin && e < sh.outage_begin + 10;
}

Crowd record_crowd(const ml::FingerprintDb& db, std::uint64_t seed,
                   const CrowdShape& sh, const std::string& path, Tracer* tr) {
  Crowd crowd;
  crowd.shape = sh;
  const std::int64_t start = now_ns();
  const mobiwlan::Rng root = mobiwlan::Rng(seed).stream(kCrowdSalt);
  std::vector<std::shared_ptr<const mobiwlan::Trajectory>> trajs(sh.clients);
  std::vector<std::vector<std::unique_ptr<mobiwlan::WirelessChannel>>> chans(
      sh.clients);
  for (std::size_t c = 0; c < sh.clients; ++c) {
    mobiwlan::Rng rng = root.stream(c);
    const auto walk = walk_in_db(db, 5.0, rng, 600.0);
    if (c % 2 == 0) {
      trajs[c] =
          std::make_shared<mobiwlan::StaticTrajectory>(walk->position(0.0));
    } else {
      trajs[c] = walk;
    }
    for (std::size_t ap = 0; ap < db.n_aps(); ++ap)
      chans[c].push_back(query_channel(db, ap, trajs[c]));
  }

  const mobiwlan::ChannelConfig& cc = db.channel_config();
  mt::TraceHeader h;
  h.stream_mask = mt::stream_bit(mt::StreamKind::kCsi) |
                  mt::stream_bit(mt::StreamKind::kRssi) |
                  mt::stream_bit(mt::StreamKind::kTof);
  h.n_units = static_cast<std::uint32_t>(sh.clients);
  h.n_tx = static_cast<std::uint32_t>(cc.n_tx);
  h.n_rx = static_cast<std::uint32_t>(cc.n_rx);
  h.n_sc = static_cast<std::uint32_t>(cc.n_subcarriers);
  h.carrier_hz = cc.carrier_hz;
  h.nominal_period_s = kEpochPeriodS;

  crowd.truth0.resize(sh.clients);
  crowd.reg_cell.resize(sh.clients);
  mt::TraceWriter w(path, h);
  mobiwlan::ChannelBatch::Scratch cs;
  std::vector<mobiwlan::ChannelSample> heard(db.n_aps());
  for (std::size_t e = 0; e < sh.epochs; ++e) {
    const double t = kEpochPeriodS * static_cast<double>(e);
    for (std::size_t c = 0; c < sh.clients; ++c) {
      const auto unit = static_cast<std::uint32_t>(c);
      const Detail keep = pick(tr, c, Detail::kTime);
      const mobiwlan::Vec2 truth = trajs[c]->position(t);
      if (e == 0) {
        crowd.truth0[c] = truth;
        crowd.reg_cell[c] = db.nearest_cell(truth);
      }
      const bool outage = in_outage(sh, c, e);
      std::size_t n_heard = 0, serving = 0;
      double best = -1e18;
      for (std::size_t ap = 0; ap < db.n_aps(); ++ap) {
        if (outage || !audible(db, ap, truth)) {
          Span s(tr, Layer::kTraceWrite, c, keep);
          w.put_absent(mt::StreamKind::kRssi, unit, t);
          ++crowd.absent;
          continue;
        }
        mobiwlan::ChannelSample& smp = heard[n_heard++];
        mobiwlan::ChannelBatch::sample_link(*chans[c][ap], t, smp, cs);
        if (smp.rssi_dbm > best) {
          best = smp.rssi_dbm;
          serving = ap;
        }
        Span s(tr, Layer::kTraceWrite, c, keep);
        w.put_scalar(mt::StreamKind::kRssi, unit, t, smp.rssi_dbm);
        ++crowd.present;
      }
      for (std::size_t i = 0; i < n_heard; ++i) {
        Span s(tr, Layer::kTraceWrite, c, keep);
        w.put_csi(mt::StreamKind::kCsi, unit, t, heard[i].csi);
        ++crowd.present;
      }
      for (int i = 0; i < kTofPerEpoch; ++i) {
        const double ti = tof_time(t, i);
        if (n_heard == 0) {
          Span s(tr, Layer::kTraceWrite, c, keep);
          w.put_absent(mt::StreamKind::kTof, unit, ti);
          ++crowd.absent;
        } else {
          const double tof = chans[c][serving]->tof_cycles(ti);
          Span s(tr, Layer::kTraceWrite, c, keep);
          w.put_scalar(mt::StreamKind::kTof, unit, ti, tof);
          ++crowd.present;
        }
      }
    }
  }
  w.close();
  crowd.write_wall_ns = now_ns() - start;
  crowd.bytes = std::filesystem::file_size(path);
  return crowd;
}

struct Pass {
  std::int64_t wall_ns = 0;  ///< whole pass, trace open included
  std::uint64_t client_epochs = 0;
  std::uint64_t checksum = mobiwlan::campus::kFnvOffset;
  std::uint64_t invalid = 0;
  std::uint64_t routes = 0;
  std::uint64_t refreshes = 0;
  std::uint64_t held = 0;
  std::uint64_t decayed = 0;
  double probe_err_m = 0.0;
  mt::TraceSource::Counters counters;
  std::string error;  ///< non-empty when the strict replay threw
};

/// One strict replay pass into `work` (reset to `base` first, untimed).
/// `lat_us`, when given, gets one latency per replay epoch: all clients'
/// reads and calls for that epoch, so it covers where decode lands.
Pass replay_pass(const ml::FingerprintDb& base, ml::FingerprintDb& work,
                 const Crowd& crowd, const std::string& path, Tracer* tr,
                 std::vector<double>* lat_us) {
  const CrowdShape& sh = crowd.shape;
  work = base;
  const ml::Locator locator(&work, ml::LocatorConfig{});
  ml::Locator::Scratch s;
  std::vector<ml::Locator::Scratch> probes(sh.clients);
  std::vector<mobiwlan::MobilityClassifier> clfs(sh.clients);
  std::vector<ml::MobilityGate> gates(sh.clients);
  std::vector<double> rssi(work.n_aps());
  mobiwlan::CsiMatrix csi, serving_csi;

  Pass p;
  const std::int64_t start = now_ns();
  try {
    mt::TraceSource src(path);  // strict
    for (std::size_t e = 0; e < sh.epochs; ++e) {
      const double t = kEpochPeriodS * static_cast<double>(e);
      const std::int64_t e0 = now_ns();
      for (std::size_t c = 0; c < sh.clients; ++c) {
        const auto unit = static_cast<std::uint32_t>(c);
        Span root(tr, Layer::kClientEpoch, (c << 32) | e,
                  pick(tr, c, Detail::kTime));
        locator.begin_query(s);
        std::uint64_t heard = 0;
        std::size_t serving = 0;
        double best = -1e18;
        for (std::size_t ap = 0; ap < work.n_aps(); ++ap) {
          std::optional<double> v;
          {
            Span sp(tr, Layer::kTraceRead, c);
            v = src.rssi_dbm(unit, t);
          }
          if (!v) continue;
          heard |= std::uint64_t{1} << ap;
          rssi[ap] = *v;
          if (*v > best) {
            best = *v;
            serving = ap;
          }
        }
        for (std::uint64_t bits = heard; bits != 0; bits &= bits - 1) {
          const auto ap = static_cast<std::size_t>(std::countr_zero(bits));
          bool ok = false;
          {
            Span sp(tr, Layer::kTraceRead, c);
            ok = src.csi(unit, t, csi);
          }
          if (!ok) throw std::runtime_error("hearing AP without a CSI record");
          {
            Span sp(tr, Layer::kLocObserveAp, c);
            locator.observe_ap(s, ap, csi, rssi[ap]);
          }
          if (ap == serving) std::swap(csi, serving_csi);
        }
        mobiwlan::MobilityClassifier& clf = clfs[c];
        if (heard != 0) {
          Span sp(tr, Layer::kCoreObserve, c);
          clf.on_csi(t, serving_csi);
        }
        for (int i = 0; i < kTofPerEpoch; ++i) {
          const double ti = tof_time(t, i);
          std::optional<double> tof;
          {
            Span sp(tr, Layer::kTraceRead, c);
            tof = src.tof_cycles(unit, ti);
          }
          if (!tof) continue;
          Span sp(tr, Layer::kCoreObserve, c);
          clf.on_tof(ti, *tof);
        }
        std::optional<mobiwlan::MobilityMode> decision;
        {
          Span sp(tr, Layer::kCoreObserve, c);
          decision = clf.decision(t);
        }
        const ml::GateAction action = gates[c].route(t, decision);
        ++p.routes;
        if (s.mask != 0) {
          if (e == 0) probes[c] = s;
          ml::LocEstimate est;
          {
            Span sp(tr, Layer::kLocLocate, c);
            est = locator.locate(s);
          }
          if (!est.valid) ++p.invalid;
          p.checksum =
              fnv1a_mix(p.checksum, static_cast<std::uint64_t>(est.cell));
          if (action == ml::GateAction::kRefresh) {
            Span sp(tr, Layer::kLocRefresh, c);
            work.refresh(crowd.reg_cell[c], s.feat.data(), s.rssi.data(),
                         s.mask, kRefreshAlpha);
            ++p.refreshes;
          }
        }
        ++p.client_epochs;
      }
      if (lat_us) lat_us->push_back(static_cast<double>(now_ns() - e0) * 1e-3);
    }
    p.counters = src.counters();
  } catch (const std::exception& ex) {
    p.error = ex.what();
  }
  p.wall_ns = now_ns() - start;

  for (const ml::MobilityGate& g : gates) {
    p.held += g.held();
    p.decayed += g.decayed();
  }
  double sum = 0.0;
  std::size_t n = 0;
  for (std::size_t c = 0; c < sh.clients; ++c) {
    if (probes[c].mask == 0) continue;
    const ml::LocEstimate est = locator.locate(probes[c]);
    sum += mobiwlan::distance(est.position, crowd.truth0[c]);
    ++n;
  }
  p.probe_err_m = n ? sum / static_cast<double>(n) : 0.0;
  p.checksum = fnv1a_mix(p.checksum, work.writes());
  p.checksum = fnv1a_mix(p.checksum, p.probe_err_m);
  return p;
}

/// Output checks of one pass; returns the failed-read count it adds.
std::uint64_t check_pass(const Pass& p, const Crowd& crowd,
                         std::uint64_t first_checksum, Result& r) {
  r.check(p.error.empty(), "strict replay failed: " + p.error);
  r.check(p.counters.missing == 0 && p.counters.skipped == 0,
          "replay reads missing or skipped");
  r.check(p.counters.served == crowd.present,
          "replay served a different number of reads than recorded");
  r.check(p.counters.absent == crowd.absent,
          "replay saw a different number of absences than recorded");
  r.check(p.checksum == first_checksum, "replay pass differs from the first");
  r.check(p.invalid == 0, "invalid LocEstimate during replay");
  const std::uint64_t reads = crowd.present + crowd.absent;
  r.attempted += reads;
  const std::uint64_t answered = p.counters.served + p.counters.absent;
  return p.counters.missing + p.counters.skipped +
         (answered < reads ? reads - answered : 0);
}

struct World {
  Survey survey;
  Crowd crowd;
};

World set_up(const Options& opt, const CrowdShape& sh, const std::string& path,
             Tracer* tr) {
  World w;
  w.survey = survey_db(opt.seed, opt.workers);
  w.crowd = record_crowd(*w.survey.db, opt.seed, sh, path, tr);
  return w;
}

void end_to_end(const Options& opt, Result& r) {
  const std::string path = opt.out_dir + "/loc_replay.mwtr";
  World world;
  std::vector<double> setup_s;
  std::uint64_t first_digest = 0;
  for (int i = 0; i < kSetups; ++i) {
    world.survey.db.reset();
    const std::int64_t t0 = now_ns();
    world = set_up(opt, CrowdShape{}, path, nullptr);
    setup_s.push_back(seconds_since(t0));
    const std::uint64_t d = world.survey.db->digest();
    if (i == 0) first_digest = d;
    r.check(d == first_digest, "DB digest differs between set-ups");
  }
  const Pinned* pin = pinned_for(opt.seed);
  if (pin)
    r.check(first_digest == pin->db_digest,
            "DB digest differs from the pinned value");

  ml::FingerprintDb work = *world.survey.db;
  std::vector<double> lat_us;
  lat_us.reserve(world.crowd.shape.epochs);
  Blocks blocks;  // one block per pass
  Pass first;
  CpuRotation rotation;
  const std::int64_t start = now_ns();
  for (int i = 0; i < 3 || seconds_since(start) < opt.seconds; ++i) {
    rotation.next();
    const Pass p = replay_pass(*world.survey.db, work, world.crowd, path,
                               nullptr, &lat_us);
    if (i == 0) first = p;
    r.failed += check_pass(p, world.crowd, first.checksum, r);
    blocks.add(p.client_epochs, static_cast<double>(p.wall_ns) * 1e-9, lat_us);
  }
  if (pin)
    r.check(first.checksum == pin->replay_checksum,
            "replay checksum differs from the pinned value");

  r.metric("setup_s", median(setup_s), "s");
  r.metric("peak_rss_mb", peak_rss_mb(), "MiB");
  blocks.report(r, "replay.client_epochs_per_s", "replay.epoch_us");
  r.note("replay.probe_err_m", first.probe_err_m);
  r.note("replay.trace_mb", static_cast<double>(world.crowd.bytes) * 1e-6);
  r.note("replay.db_writes_per_pass", static_cast<double>(first.refreshes));
  r.info.push_back("loc.db_digest " + hex(first_digest));
  r.info.push_back("replay.checksum " + hex(first.checksum));
}

void traced(const Options& opt, Result& r, Tracer& tr) {
  const std::string path = opt.out_dir + "/loc_replay.mwtr";
  const World world = set_up(opt, CrowdShape{}, path, &tr);
  const std::uint64_t digest = world.survey.db->digest();
  if (const Pinned* p = pinned_for(opt.seed))
    r.check(digest == p->db_digest, "DB digest differs from the pinned value");

  ml::FingerprintDb work = *world.survey.db;
  // Untraced and traced passes alternate. Where a pass decodes is uneven
  // (the first read of an epoch decodes the whole epoch, the last read
  // before an outage decodes past it), so the overhead compares whole
  // passes: the median of the four traced / untraced pair ratios.
  std::int64_t traced_ns = 0;
  std::vector<double> ratio;
  Pass first, last;
  for (int i = 0; i < 4; ++i) {
    const Pass plain = replay_pass(*world.survey.db, work, world.crowd, path,
                                   nullptr, nullptr);
    last = replay_pass(*world.survey.db, work, world.crowd, path, &tr, nullptr);
    if (i == 0) first = plain;
    r.failed += check_pass(plain, world.crowd, first.checksum, r);
    r.failed += check_pass(last, world.crowd, first.checksum, r);
    traced_ns += last.wall_ns;
    ratio.push_back(static_cast<double>(last.wall_ns) /
                    static_cast<double>(plain.wall_ns));
  }
  if (const Pinned* p = pinned_for(opt.seed))
    r.check(first.checksum == p->replay_checksum,
            "replay checksum differs from the pinned value");

  for (std::size_t i = 0; i < static_cast<std::size_t>(Layer::kFirstRoot); ++i) {
    const auto l = static_cast<Layer>(i);
    add_layer_metrics(r, tr, l,
                      l == Layer::kTraceWrite ? world.crowd.write_wall_ns
                                              : traced_ns);
  }
  add_unattributed(r, tr,
                   {Layer::kTraceRead, Layer::kLocObserveAp, Layer::kCoreObserve,
                    Layer::kLocLocate, Layer::kLocRefresh},
                   traced_ns);
  const double read_s = tr.self_ns(Layer::kTraceRead) * 1e-9;
  // The four traced passes decode the whole trace each.
  const double traced_mb = static_cast<double>(world.crowd.bytes) * 4.0 * 1e-6;
  r.metric("trace.decode_mb_per_s", traced_mb / read_s, "MB/s");
  r.metric("trace.served", static_cast<double>(last.counters.served), "count");
  r.metric("trace.absent", static_cast<double>(last.counters.absent), "count");
  r.metric("trace.missing", static_cast<double>(last.counters.missing), "count");
  r.metric("trace.skipped", static_cast<double>(last.counters.skipped), "count");
  r.metric("loc.refresh_ratio",
           static_cast<double>(last.refreshes) / static_cast<double>(last.routes),
           "ratio");
  r.metric("loc.gate.held", static_cast<double>(last.held), "count");
  r.metric("loc.gate.decayed", static_cast<double>(last.decayed), "count");
  r.metric("loc.aps_per_query",
           static_cast<double>(tr.agg(Layer::kLocObserveAp).calls) /
               static_cast<double>(tr.agg(Layer::kLocLocate).calls),
           "count");
  r.metric("runtime.survey.busy_s", world.survey.busy_s, "s");
  r.metric("runtime.survey.wait_s", world.survey.wait_s, "s");
  r.metric("tracing.overhead", median(ratio) - 1.0, "ratio");
  r.note("replay.probe_err_m", first.probe_err_m);
}

}  // namespace

Result run_loc_replay(const Options& opt) {
  // Freed heap memory stays with the process. A pass's outage look-ahead
  // allocates and frees ~300 MB; left to glibc's trim heuristic, whether the
  // next pass found that memory still mapped depended on fragmentation, and
  // a pass took ~150 ms of fresh page faults or not at random.
  mallopt(M_TRIM_THRESHOLD, std::numeric_limits<int>::max());
  Result r;
  if (opt.trace) {
    Tracer tr;
    traced(opt, r, tr);
    if (!tr.write_csv(opt.out_dir + "/spans_loc_replay.csv"))
      r.check(false, "cannot write the span export");
  } else {
    end_to_end(opt, r);
  }
  std::error_code ec;
  std::filesystem::remove(opt.out_dir + "/loc_replay.mwtr", ec);
  return r;
}

std::vector<std::string> smoke_loc_replay(const Options& opt) {
  const CrowdShape sh{6, 24, 8};
  const std::string path = opt.out_dir + "/smoke_replay.mwtr";
  const World world = set_up(opt, sh, path, nullptr);
  ml::FingerprintDb work = *world.survey.db;
  Result r;
  const Pass p = replay_pass(*world.survey.db, work, world.crowd, path,
                             nullptr, nullptr);
  r.failed += check_pass(p, world.crowd, p.checksum, r);
  const Pass again = replay_pass(*world.survey.db, work, world.crowd, path,
                                 nullptr, nullptr);
  check_pass(again, world.crowd, p.checksum, r);
  r.check(p.counters.absent > 0 && p.decayed > 0,
          "smoke replay: the outage produced no absences or gate decay");
  if (r.failed) r.errors.push_back("smoke replay: failed reads");
  std::error_code ec;
  std::filesystem::remove(path, ec);
  for (std::string& e : r.errors) e = "smoke replay: " + e;
  return r.errors;
}

}  // namespace perfbench
