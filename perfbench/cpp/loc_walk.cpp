// loc_walk — walking clients localized against the fingerprint DB, one
// closed-loop caller. Query q serves client q % 32 at t = 0.5 s * (q / 32):
// sample_link for every audible AP (~4), observe_ap, locate, the beamscan
// AoA of the strongest AP, and locate_fused. Set-up is the DB survey plus
// the query-channel build. The first 4096 queries form a fixed check set:
// their checksum is compared across runs and pinned for known seeds.
#include <string>
#include <utility>
#include <vector>

#include "campus/stats_stream.hpp"
#include "chan/channel_batch.hpp"
#include "loc_common.hpp"
#include "phy/aoa.hpp"

namespace perfbench {
namespace {

namespace ml = mobiwlan::loc;
using mobiwlan::campus::fnv1a_mix;

constexpr std::size_t kClients = 32;
constexpr std::size_t kCheckedQueries = 4096;
constexpr std::size_t kBlockQueries = 256;  ///< one Blocks entry: 8 rounds
constexpr double kWalkDurationS = 36000.0;  // far beyond any run
constexpr std::uint64_t kWalkSalt = 0xBE7C3A1C;

struct Client {
  std::shared_ptr<mobiwlan::WalkTrajectory> traj;
  std::vector<std::unique_ptr<mobiwlan::WirelessChannel>> chans;
};

std::vector<Client> make_clients(const ml::FingerprintDb& db,
                                 std::uint64_t seed) {
  const mobiwlan::Rng root = mobiwlan::Rng(seed).stream(kWalkSalt);
  std::vector<Client> clients(kClients);
  for (std::size_t c = 0; c < kClients; ++c) {
    mobiwlan::Rng rng = root.stream(c);
    clients[c].traj = walk_in_db(db, 5.0, rng, kWalkDurationS);
    for (std::size_t ap = 0; ap < db.n_aps(); ++ap)
      clients[c].chans.push_back(query_channel(db, ap, clients[c].traj));
  }
  return clients;
}

struct QueryOut {
  bool heard = false;  ///< some AP heard the client above the DB floor
  ml::LocEstimate knn;
  ml::LocEstimate fused;
  mobiwlan::Vec2 truth;
};

class Querier {
 public:
  explicit Querier(const ml::FingerprintDb& db)
      : db_(db), locator_(&db, ml::LocatorConfig{}) {}

  QueryOut query(Client& c, double t, std::uint64_t qid, Tracer* tr) {
    Span root(tr, Layer::kLocQuery, qid, pick(tr, qid, Detail::kTime));
    QueryOut out;
    out.truth = c.traj->position(t);
    locator_.begin_query(s_);
    double best = -1e18;
    std::size_t serving = 0;
    for (std::size_t ap = 0; ap < db_.n_aps(); ++ap) {
      if (!audible(db_, ap, out.truth)) continue;
      {
        Span sp(tr, Layer::kChanSample, qid);
        mobiwlan::ChannelBatch::sample_link(*c.chans[ap], t, smp_, cs_);
      }
      {
        Span sp(tr, Layer::kLocObserveAp, qid);
        locator_.observe_ap(s_, ap, smp_.csi, smp_.rssi_dbm);
      }
      if (smp_.rssi_dbm > best) {
        best = smp_.rssi_dbm;
        serving = ap;
        std::swap(smp_, serving_smp_);
      }
    }
    // A client every AP hears below the survey floor (a deep fade) has no
    // fingerprint to match: no query is issued.
    out.heard = s_.mask != 0;
    if (!out.heard) return out;
    {
      Span sp(tr, Layer::kLocLocate, qid);
      out.knn = locator_.locate(s_);
    }
    mobiwlan::AoaEstimate aoa;
    {
      Span sp(tr, Layer::kPhyAoa, qid);
      aoa = mobiwlan::estimate_aoa(serving_smp_.csi);
    }
    {
      Span sp(tr, Layer::kLocLocateFused, qid);
      out.fused =
          locator_.locate_fused(s_, aoa, serving, serving_smp_.tof_cycles);
    }
    return out;
  }

 private:
  const ml::FingerprintDb& db_;
  ml::Locator locator_;
  ml::Locator::Scratch s_;
  mobiwlan::ChannelBatch::Scratch cs_;
  mobiwlan::ChannelSample smp_, serving_smp_;
};

std::uint64_t mix_estimate(std::uint64_t h, const QueryOut& q) {
  if (!q.heard) return fnv1a_mix(h, ~std::uint64_t{0});
  h = fnv1a_mix(h, static_cast<std::uint64_t>(q.knn.cell));
  h = fnv1a_mix(h, static_cast<std::uint64_t>(q.fused.cell));
  h = fnv1a_mix(h, q.fused.position.x);
  return fnv1a_mix(h, q.fused.position.y);
}

/// Queries [0, n) on fresh clients. Rounds of kClients queries alternate
/// untraced and traced (odd rounds use `tr`), so both sides see nearly the
/// same work at nearly the same time and host drift cancels out of the
/// overhead ratio. The checksum covers the first kCheckedQueries.
struct Segment {
  std::uint64_t checksum = mobiwlan::campus::kFnvOffset;
  std::int64_t plain_ns = 0;
  std::int64_t traced_ns = 0;
  std::uint64_t invalid = 0;
  std::uint64_t unheard = 0;
};

/// An invalid estimate for a query that had observations is a failure.
bool failed(const QueryOut& q) {
  return q.heard && (!q.knn.valid || !q.fused.valid);
}

Segment run_segment(Querier& qr, std::vector<Client>& clients, std::size_t n,
                    Tracer* tr) {
  Segment seg;
  std::int64_t round_start = now_ns();
  for (std::size_t q = 0; q < n; ++q) {
    const std::size_t round = q / kClients;
    Tracer* rt = (round % 2 == 1) ? tr : nullptr;
    const double t = kEpochPeriodS * static_cast<double>(round);
    const QueryOut out = qr.query(clients[q % kClients], t, q, rt);
    if (failed(out)) ++seg.invalid;
    if (!out.heard) ++seg.unheard;
    if (q < kCheckedQueries) seg.checksum = mix_estimate(seg.checksum, out);
    if ((q + 1) % kClients == 0) {
      const std::int64_t now = now_ns();
      (rt ? seg.traced_ns : seg.plain_ns) += now - round_start;
      round_start = now;
    }
  }
  return seg;
}

void check_db(const Options& opt, const ml::FingerprintDb& db,
              std::uint64_t first_digest, Result& r) {
  const std::uint64_t d = db.digest();
  r.check(d == first_digest, "DB digest differs between set-ups");
  if (const Pinned* p = pinned_for(opt.seed))
    r.check(d == p->db_digest, "DB digest differs from the pinned value");
}

void end_to_end(const Options& opt, Result& r) {
  Survey world;
  std::vector<Client> clients;
  std::vector<double> setup_s;
  std::uint64_t first_digest = 0;
  for (int i = 0; i < kSetups; ++i) {
    clients.clear();
    world.db.reset();
    const std::int64_t t0 = now_ns();
    world = survey_db(opt.seed, opt.workers);
    clients = make_clients(*world.db, opt.seed);
    setup_s.push_back(seconds_since(t0));
    if (i == 0) first_digest = world.db->digest();
    check_db(opt, *world.db, first_digest, r);
  }

  Querier qr(*world.db);
  Blocks blocks;
  std::vector<double> lat_us, err_m;
  lat_us.reserve(kBlockQueries);
  err_m.reserve(kCheckedQueries);
  std::uint64_t checksum = mobiwlan::campus::kFnvOffset;
  std::uint64_t unheard = 0;
  CpuRotation rotation;
  rotation.next();
  const std::int64_t start = now_ns();
  const std::int64_t deadline =
      start + static_cast<std::int64_t>(opt.seconds * 1e9);
  std::int64_t block_start = start;
  std::size_t q = 0;
  for (; q < kCheckedQueries || q % kBlockQueries != 0 ||
         block_start < deadline;
       ++q) {
    const double t = kEpochPeriodS * static_cast<double>(q / kClients);
    const std::int64_t q0 = now_ns();
    const QueryOut out = qr.query(clients[q % kClients], t, q, nullptr);
    const std::int64_t q1 = now_ns();
    lat_us.push_back(static_cast<double>(q1 - q0) * 1e-3);
    if (out.heard) ++r.attempted; else ++unheard;
    if (failed(out)) ++r.failed;
    if (q < kCheckedQueries) {
      checksum = mix_estimate(checksum, out);
      if (out.heard)
        err_m.push_back(mobiwlan::distance(out.fused.position, out.truth));
    }
    if ((q + 1) % kBlockQueries == 0) {
      blocks.add(kBlockQueries, static_cast<double>(q1 - block_start) * 1e-9,
                 lat_us);
      rotation.next();
      block_start = now_ns();
    }
  }
  if (const Pinned* p = pinned_for(opt.seed))
    r.check(checksum == p->walk_checksum,
            "query checksum differs from the pinned value");
  const double err_p50 = median(err_m);
  // A loose accuracy floor for unpinned seeds: four cells.
  r.check(err_p50 <= 16.0, "median fused error above 16 m");

  r.metric("setup_s", median(setup_s), "s");
  r.metric("peak_rss_mb", peak_rss_mb(), "MiB");
  blocks.report(r, "loc.queries_per_s", "loc.query_us");
  r.note("loc.queries", static_cast<double>(q));
  r.note("loc.queries_unheard", static_cast<double>(unheard));
  r.note("loc.err_m_p50", err_p50);
  r.info.push_back("loc.db_digest " + hex(first_digest));
  r.info.push_back("loc.walk_checksum " + hex(checksum));
}

void traced(const Options& opt, Result& r, Tracer& tr) {
  const std::int64_t t0 = now_ns();
  const Survey world = survey_db(opt.seed, opt.workers);
  const double setup = seconds_since(t0);
  check_db(opt, *world.db, world.db->digest(), r);
  Querier qr(*world.db);

  // An untraced reference segment, then one alternating untraced and
  // traced rounds; both start from fresh clients, so their checked
  // queries must agree.
  std::vector<Client> clients = make_clients(*world.db, opt.seed);
  const Segment ref = run_segment(qr, clients, kCheckedQueries, nullptr);
  clients = make_clients(*world.db, opt.seed);
  const Segment seg = run_segment(qr, clients, 2 * kCheckedQueries, &tr);
  r.attempted += 3 * kCheckedQueries - ref.unheard - seg.unheard;
  r.failed += ref.invalid + seg.invalid;
  r.check(seg.checksum == ref.checksum,
          "traced queries differ from untraced ones");
  if (const Pinned* p = pinned_for(opt.seed))
    r.check(ref.checksum == p->walk_checksum,
            "query checksum differs from the pinned value");
  const std::int64_t traced_ns = seg.traced_ns;

  for (std::size_t i = 0; i < static_cast<std::size_t>(Layer::kFirstRoot); ++i)
    add_layer_metrics(r, tr, static_cast<Layer>(i), traced_ns);
  add_unattributed(r, tr,
                   {Layer::kChanSample, Layer::kLocObserveAp, Layer::kLocLocate,
                    Layer::kPhyAoa, Layer::kLocLocateFused},
                   traced_ns);
  r.metric("loc.aps_per_query",
           static_cast<double>(tr.agg(Layer::kLocObserveAp).calls) /
               static_cast<double>(tr.agg(Layer::kLocQuery).calls),
           "count");
  r.metric("runtime.survey.busy_s", world.busy_s, "s");
  r.metric("runtime.survey.wait_s", world.wait_s, "s");
  r.metric("tracing.overhead",
           static_cast<double>(traced_ns) / static_cast<double>(seg.plain_ns) -
               1.0,
           "ratio");
  r.note("loc.setup_s", setup);
}

}  // namespace

Result run_loc_walk(const Options& opt) {
  Result r;
  if (opt.trace) {
    Tracer tr;
    traced(opt, r, tr);
    if (!tr.write_csv(opt.out_dir + "/spans_loc_walk.csv"))
      r.check(false, "cannot write the span export");
  } else {
    end_to_end(opt, r);
  }
  return r;
}

}  // namespace perfbench
