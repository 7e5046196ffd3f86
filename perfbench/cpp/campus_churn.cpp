// campus_churn — the default 32x32-AP campus, 100k sessions, 4 shards on
// min(4, nproc) workers, driven through CampusSim's public API.
//
// End-to-end runs construct a CampusSim (set-up) and step it to the horizon
// epoch by epoch, repeatedly until the run time is spent. The traced run
// times step_epoch() on the real sim, then re-drives the same seed serially
// on one shard from public calls only (SessionPool::acquire, Session::prime,
// ChannelBatch::sample_slot, Session::observe_step / mac_step / maybe_roam,
// CampusAggregate::fold) so each layer gets its own span. The re-drive's
// digest pair must equal CampusSim's: that proves it did the same work.
#include <algorithm>
#include <string>
#include <vector>

#include "campus/campus.hpp"
#include "common.hpp"
#include "util/flatjson.hpp"
#include "util/rng.hpp"

namespace perfbench {
namespace {

using mobiwlan::campus::CampusAggregate;
using mobiwlan::campus::CampusConfig;
using mobiwlan::campus::CampusSim;

/// The aggregate's exact witnesses: the digest pair plus its counters.
struct Digest {
  std::uint64_t x = 0;
  std::uint64_t s = 0;
  std::uint64_t counts[6] = {};
  bool operator==(const Digest&) const = default;
};

// Counter keys of ci/campus_baseline.json, in Digest::counts order.
constexpr const char* kCountKeys[6] = {"sessions",   "steps",
                                       "mac_steps",  "mpdus_sent",
                                       "mpdus_failed", "ap_handovers"};

Digest digest_of(const CampusAggregate& a) {
  return {a.digest_xor,
          a.digest_sum,
          {a.sessions, a.steps, a.mac_steps, a.mpdus_sent, a.mpdus_failed,
           a.ap_handovers}};
}

CampusConfig campus_config(const Options& opt) {
  CampusConfig cfg = mobiwlan::campus::campus_default_config();
  cfg.shards = 4;
  cfg.jobs = opt.workers;
  cfg.master_seed = opt.seed;
  return cfg;
}

/// The witnesses ci/campus_baseline.json pins, if it was taken at `seed`.
bool baseline_digest(const Options& opt, std::uint64_t seed, Digest& out,
                     bool& readable) {
  const auto doc =
      mobiwlan::load_flat_json(opt.root + "/ci/campus_baseline.json");
  const auto key = [](const std::string& name) {
    return "campus." + name + ".min";
  };
  std::vector<std::string> keys = {key("digest_xor_hi"), key("digest_xor_lo"),
                                   key("digest_sum_hi"), key("digest_sum_lo")};
  for (const char* k : kCountKeys) keys.push_back(key(k));
  readable = doc.count("seed") != 0;
  for (const std::string& k : keys) readable = readable && doc.count(k) != 0;
  if (!readable || doc.at("seed") != static_cast<double>(seed)) return false;
  const auto u = [&](std::size_t i) {
    return static_cast<std::uint64_t>(doc.at(keys[i]));
  };
  out.x = (u(0) << 32) | u(1);
  out.s = (u(2) << 32) | u(3);
  for (std::size_t i = 0; i < 6; ++i) out.counts[i] = u(4 + i);
  return true;
}

/// Conservation and digest checks on a finished CampusSim run.
bool check_sim(const CampusSim& sim, const Digest* expect, Result& r,
               const std::string& label) {
  const CampusConfig& cfg = sim.config();
  const CampusAggregate& agg = sim.aggregate();
  bool ok = true;
  const auto need = [&](bool cond, const std::string& what) {
    r.check(cond, label + ": " + what);
    ok = ok && cond;
  };
  need(sim.arrived() == cfg.n_sessions, "arrived != n_sessions");
  need(sim.departed() + sim.active() == sim.arrived(),
       "departed + active != arrived");
  need(sim.active() == 0, "sessions still active at the horizon");
  need(agg.sessions == sim.departed(), "aggregate sessions != departed");
  if (expect)
    need(digest_of(agg) == *expect, "digest pair or counters mismatch");
  return ok;
}

struct Redrive {
  CampusAggregate agg;
  std::int64_t wall_ns = 0;  ///< the epoch loop (set-up excluded)
  std::vector<double> epoch_ns;
  std::uint64_t roam_calls = 0;
  std::uint64_t roams = 0;
};

/// One shard, one thread, public calls only; same epoch structure as
/// CampusSim::step_epoch (fused pass, then arrivals, then the id-ordered
/// departure fold).
Redrive redrive(const CampusConfig& cfg, Tracer* tr) {
  namespace cp = mobiwlan::campus;
  const cp::CampusMap map(cfg.cols, cfg.rows, cfg.pitch_m);
  cp::SessionPool pool(4096);

  // Arrival buckets exactly as the constructor derives them: the arrival
  // draw is the first draw of the id's substream, the dwell draws follow.
  const mobiwlan::Rng arrivals =
      mobiwlan::Rng(cfg.master_seed).stream(cp::kArrivalSalt);
  const int window = cfg.arrival_window_epochs < 1
                         ? 1
                         : static_cast<int>(cfg.arrival_window_epochs);
  std::vector<std::vector<std::uint64_t>> buckets(
      static_cast<std::size_t>(window) + 1);
  for (std::uint64_t id = 0; id < cfg.n_sessions; ++id) {
    mobiwlan::Rng a = arrivals.stream(id);
    buckets[static_cast<std::size_t>(a.uniform_int(1, window))].push_back(id);
  }

  const mobiwlan::ChannelConfig& ch = cfg.session.channel;
  mobiwlan::ChannelBatch batch;
  mobiwlan::ChannelBatch::Scratch scratch, prime_scratch;
  mobiwlan::ChannelSample sample, prime_sample;
  sample.csi.resize(ch.n_tx, ch.n_rx, ch.n_subcarriers);
  std::vector<cp::SessionPtr> slots, departing;
  std::vector<cp::SessionStats> stats;

  Redrive out;
  const std::int64_t start = now_ns();
  for (std::uint64_t epoch = 1; epoch <= cfg.horizon_epochs; ++epoch) {
    const std::int64_t epoch_start = now_ns();
    const double t = static_cast<double>(epoch) * cfg.session.tick_s;
    for (std::size_t i = 0; i < batch.size(); ++i) {
      cp::SessionPtr& sp = slots[i];
      if (!sp) continue;
      const std::uint64_t id = sp->id();
      // Sampled sessions get a step root and timed calls; the rest are
      // only counted.
      const Detail d = pick(tr, id, Detail::kCount);
      Span step(d == Detail::kRecord ? tr : nullptr, Layer::kCampusStep, id);
      {
        Span s(tr, Layer::kChanSample, id, d);
        batch.sample_slot(t, i, sample, scratch);
      }
      {
        Span s(tr, Layer::kCoreObserve, id, d);
        sp->observe_step(epoch, sample);
      }
      {
        Span s(tr, Layer::kMacStep, id, d);
        sp->mac_step(epoch, sample);
      }
      bool roamed = false;
      {
        Span s(tr, Layer::kCampusRoam, id, d);
        roamed = sp->maybe_roam(t);
      }
      ++out.roam_calls;
      out.roams += roamed ? 1 : 0;
      if (sp->depart_epoch() <= epoch + 1) {
        batch.remove_link(i);
        departing.push_back(std::move(sp));
      }
    }

    if (epoch < buckets.size()) {
      for (const std::uint64_t id : buckets[epoch]) {
        mobiwlan::Rng a = arrivals.stream(id);
        (void)a.uniform_int(1, window);
        const auto extra = static_cast<std::uint64_t>(
            a.exponential(cfg.mean_extra_dwell_epochs));
        std::uint64_t dwell =
            std::min(cfg.min_dwell_epochs + extra, cfg.max_dwell_epochs);
        if (dwell < 2) dwell = 2;
        cp::SessionPtr sp;
        {
          Span s(tr, Layer::kCampusAdmit, id, pick(tr, id, Detail::kTime));
          sp = pool.acquire(id, cfg.master_seed, map, cfg.session, epoch, dwell);
          sp->prime(prime_scratch, prime_sample);
        }
        const std::size_t slot = batch.add_link(sp->channel());
        if (slot >= slots.size()) slots.resize(slot + 1);
        slots[slot] = std::move(sp);
      }
      buckets[epoch] = {};
    }

    {
      Span s(tr, Layer::kCampusFold, epoch);
      stats.clear();
      for (const cp::SessionPtr& sp : departing) stats.push_back(sp->stats());
      departing.clear();
      std::sort(stats.begin(), stats.end(),
                [](const cp::SessionStats& a, const cp::SessionStats& b) {
                  return a.id < b.id;
                });
      for (const cp::SessionStats& st : stats) out.agg.fold(st);
    }
    out.epoch_ns.push_back(static_cast<double>(now_ns() - epoch_start));
  }
  out.wall_ns = now_ns() - start;
  return out;
}

void end_to_end(const Options& opt, Result& r) {
  const CampusConfig cfg = campus_config(opt);
  Digest pinned;
  bool readable = false;
  const bool have_pin = baseline_digest(opt, opt.seed, pinned, readable);
  r.check(readable, "ci/campus_baseline.json missing or unreadable");

  std::vector<double> setup_s, epoch_us;
  Blocks blocks;  // one block per run
  Digest first;
  std::uint64_t steps = 0;
  const std::int64_t start = now_ns();
  // At least three set-ups, so setup_s is a median.
  for (int run = 0; run < 3 || seconds_since(start) < opt.seconds; ++run) {
    const std::int64_t t0 = now_ns();
    CampusSim sim(cfg);
    setup_s.push_back(seconds_since(t0));
    const std::int64_t t1 = now_ns();
    while (sim.epoch() < cfg.horizon_epochs) {
      const std::int64_t e0 = now_ns();
      sim.step_epoch();
      epoch_us.push_back(static_cast<double>(now_ns() - e0) * 1e-3);
    }
    steps = sim.aggregate().steps;
    blocks.add(steps, seconds_since(t1), epoch_us);
    if (run == 0) first = digest_of(sim.aggregate());
    ++r.attempted;
    const Digest* expect = have_pin ? &pinned : &first;
    if (!check_sim(sim, expect, r, "run " + std::to_string(run)))
      ++r.failed;
  }

  r.metric("setup_s", median(setup_s), "s");
  r.metric("peak_rss_mb", peak_rss_mb(), "MiB");
  blocks.report(r, "campus.session_steps_per_s", "campus.epoch_us");
  r.note("campus.steps_per_run", static_cast<double>(steps));
  r.note("campus.digest_pinned", have_pin ? 1.0 : 0.0);
}

void traced(const Options& opt, Result& r, Tracer& tr) {
  const CampusConfig cfg = campus_config(opt);
  Digest pinned;
  bool readable = false;
  const bool have_pin = baseline_digest(opt, opt.seed, pinned, readable);
  r.check(readable, "ci/campus_baseline.json missing or unreadable");

  // The real sim: one call per epoch is all the API exposes from outside.
  CampusSim sim(cfg);
  std::vector<double> epoch_us;
  const std::int64_t sim_start = now_ns();
  while (sim.epoch() < cfg.horizon_epochs) {
    const std::int64_t e0 = now_ns();
    {
      Span s(&tr, Layer::kCampusEpoch, sim.epoch() + 1);
      sim.step_epoch();
    }
    epoch_us.push_back(static_cast<double>(now_ns() - e0) * 1e-3);
  }
  const std::int64_t sim_wall = now_ns() - sim_start;
  const Digest sim_digest = digest_of(sim.aggregate());
  ++r.attempted;
  if (!check_sim(sim, have_pin ? &pinned : nullptr, r, "traced sim"))
    ++r.failed;

  // Re-drives: a cold one, a warm untraced one, and the traced one. The
  // overhead is the median over epochs of traced / untraced epoch time,
  // which keeps a passing disturbance of the host out of it.
  redrive(cfg, nullptr);
  const Redrive plain = redrive(cfg, nullptr);
  const Redrive rd = redrive(cfg, &tr);
  r.attempted += 2;
  for (const Redrive* x : {&plain, &rd}) {
    const bool same = digest_of(x->agg) == sim_digest;
    r.check(same, "re-drive digest pair differs from CampusSim");
    if (!same) ++r.failed;
  }

  for (std::size_t i = 0; i < static_cast<std::size_t>(Layer::kFirstRoot); ++i) {
    const auto l = static_cast<Layer>(i);
    add_layer_metrics(r, tr, l,
                      l == Layer::kCampusEpoch ? sim_wall : rd.wall_ns);
  }
  const std::vector<Layer> redrive_layers = {
      Layer::kChanSample, Layer::kCoreObserve, Layer::kMacStep,
      Layer::kCampusRoam, Layer::kCampusAdmit, Layer::kCampusFold};
  add_unattributed(r, tr, redrive_layers, rd.wall_ns);
  const double wall = static_cast<double>(rd.wall_ns);
  r.metric("campus.serial_share",
           (tr.self_ns(Layer::kCampusAdmit) + tr.self_ns(Layer::kCampusFold)) /
               wall,
           "ratio");
  r.metric("mac.mpdu_fail_ratio",
           static_cast<double>(rd.agg.mpdus_failed) /
               static_cast<double>(std::max<std::uint64_t>(rd.agg.mpdus_sent, 1)),
           "ratio");
  r.metric("campus.roam.handover_ratio",
           static_cast<double>(rd.roams) /
               static_cast<double>(std::max<std::uint64_t>(rd.roam_calls, 1)),
           "ratio");
  r.metric("campus.epoch.us_p50", quantile(epoch_us, 0.5), "us");
  r.metric("campus.epoch.us_p90", quantile(epoch_us, 0.9), "us");
  r.metric("campus.mailbox.handovers",
           static_cast<double>(sim.handovers_sent()), "count");
  r.metric("campus.mailbox.deferred",
           static_cast<double>(sim.deferred_handovers()), "count");
  r.metric("campus.mailbox.max_depth",
           static_cast<double>(sim.mailbox_max_depth()), "count");
  r.metric("campus.pool_sessions", static_cast<double>(sim.pool_sessions()),
           "count");
  std::vector<double> ratio;
  for (std::size_t e = 0; e < rd.epoch_ns.size(); ++e)
    ratio.push_back(rd.epoch_ns[e] / plain.epoch_ns[e]);
  r.metric("tracing.overhead", median(ratio) - 1.0, "ratio");
  r.note("campus.redrive_untraced_s", static_cast<double>(plain.wall_ns) * 1e-9);
  r.note("campus.redrive_traced_s", wall * 1e-9);
  r.note("campus.sim_traced_s", static_cast<double>(sim_wall) * 1e-9);
}

}  // namespace

Result run_campus_churn(const Options& opt) {
  Result r;
  if (opt.trace) {
    Tracer tr;
    traced(opt, r, tr);
    if (!tr.write_csv(opt.out_dir + "/spans_campus_churn.csv"))
      r.check(false, "cannot write the span export");
  } else {
    end_to_end(opt, r);
  }
  return r;
}

std::vector<std::string> smoke_campus_redrive(const Options& opt) {
  CampusConfig cfg = campus_config(opt);
  cfg.cols = 8;
  cfg.rows = 8;
  cfg.n_sessions = 2000;
  CampusSim sim(cfg);
  sim.run();
  Result r;
  check_sim(sim, nullptr, r, "smoke campus");
  Tracer tr;
  const Redrive rd = redrive(cfg, &tr);
  if (!(digest_of(rd.agg) == digest_of(sim.aggregate())))
    r.errors.push_back("smoke campus: re-drive digest differs from CampusSim");
  if (tr.agg(Layer::kChanSample).calls != rd.agg.mac_steps)
    r.errors.push_back("smoke campus: chan.sample calls != batched steps");
  return r.errors;
}

}  // namespace perfbench
