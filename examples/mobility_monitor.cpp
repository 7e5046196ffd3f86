// mobility_monitor — a streaming classification tool built on the library's
// trace infrastructure, in the spirit of what an AP vendor would ship for
// debugging: record a link's CSI/ToF/RSSI reads to an MWTR trace, then
// replay a trace through the classifier, emitting a per-second CSV of its
// decisions either way.
//
// Usage:
//   mobility_monitor record <file.mwtr> [static|environmental|micro|macro] [seconds]
//   mobility_monitor classify <file.mwtr>
//
// Both subcommands run the same read schedule (monitor() below): `record`
// over a live channel teed into a RecordingSource, `classify` strictly from
// a TraceSource over the recording. The replay therefore prints exactly the
// CSV the recording run printed.
#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <limits>
#include <string>

#include "chan/scenario.hpp"
#include "core/mobility_classifier.hpp"
#include "sim/event_queue.hpp"
#include "trace/source.hpp"
#include "trace/trace_source.hpp"

using namespace mobiwlan;

namespace {

/// Classifies unit 0 of `src` over [0, end_s] and prints one CSV row per
/// second. The classifier's CSI and ToF streams are multiplexed at their
/// native cadences on an event queue, as an AP's driver would schedule them.
void monitor(trace::ObservableSource& src, double end_s) {
  MobilityClassifier classifier;
  CsiMatrix csi;
  EventQueue events;
  const MobilityClassifier::Config& cfg = classifier.config();
  events.schedule_every(0.0, cfg.csi_period_s, [&](double t) {
    if (src.csi(0, t, csi)) classifier.on_csi(t, csi);
  });
  events.schedule_every(0.0, cfg.tof_period_s, [&](double t) {
    if (const auto tof = src.tof_cycles(0, t)) classifier.on_tof(t, *tof);
  });

  constexpr double kNan = std::numeric_limits<double>::quiet_NaN();
  std::printf("t_s,mode,similarity,rssi_dbm,tof_cycles\n");
  events.schedule_every(1.0, 1.0, [&](double t) {
    const double rssi = src.rssi_dbm(0, t).value_or(kNan);
    const double tof = src.tof_cycles(0, t).value_or(kNan);
    std::printf("%.0f,%s,%.4f,%.1f,%.0f\n", t, to_string(classifier.mode()).data(),
                classifier.similarity().value_or(0.0), rssi, tof);
  });
  events.run_until(end_s);
}

int record(const std::string& path, const std::string& mode, double seconds) {
  MobilityClass cls = MobilityClass::kMacro;
  if (mode == "static") cls = MobilityClass::kStatic;
  else if (mode == "environmental") cls = MobilityClass::kEnvironmental;
  else if (mode == "micro") cls = MobilityClass::kMicro;
  else if (mode != "macro") {
    std::fprintf(stderr, "unknown mode '%s'\n", mode.c_str());
    return 1;
  }

  Rng rng(static_cast<std::uint64_t>(seconds * 1000) ^ 0xbeef);
  Scenario scenario = make_scenario(cls, rng);
  try {
    trace::LiveChannelSource live(*scenario.channel);
    trace::TraceWriter writer(path, trace::RecordingSource::header_for(
                                        live, scenario.channel->config()));
    trace::RecordingSource rec(live, writer);
    monitor(rec, seconds);
    writer.close();
    std::fprintf(stderr, "recorded %llu reads (%.1f s of %s mobility) to %s\n",
                 static_cast<unsigned long long>(writer.records_written()),
                 seconds, to_string(cls).data(), path.c_str());
  } catch (const trace::TraceError& e) {
    std::fprintf(stderr, "cannot record %s: %s\n", path.c_str(), e.what());
    return 1;
  }
  return 0;
}

int classify(const std::string& path) {
  try {
    // The replay spans the recording: every scheduled read at or before the
    // last recorded timestamp was recorded, and none after it.
    double end_s = -1.0;
    {
      trace::TraceReader reader(path);
      trace::TraceRecord r;
      while (reader.next(r)) end_s = std::max(end_s, r.t);
    }
    if (end_s < 0.0) {
      std::fprintf(stderr, "empty trace\n");
      return 1;
    }
    trace::TraceSource replay(path);  // strict
    replay.require({trace::StreamKind::kCsi, trace::StreamKind::kTof,
                    trace::StreamKind::kRssi},
                   "mobility_monitor");
    monitor(replay, end_s);
  } catch (const trace::TraceError& e) {
    std::fprintf(stderr, "cannot classify %s: %s\n", path.c_str(), e.what());
    return 1;
  }
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  if (argc >= 3 && std::strcmp(argv[1], "record") == 0) {
    const std::string mode = argc > 3 ? argv[3] : "macro";
    const double seconds = argc > 4 ? std::atof(argv[4]) : 30.0;
    return record(argv[2], mode, seconds);
  }
  if (argc >= 3 && std::strcmp(argv[1], "classify") == 0) return classify(argv[2]);

  std::fprintf(stderr,
               "usage:\n"
               "  %s record <file.mwtr> [static|environmental|micro|macro] [seconds]\n"
               "  %s classify <file.mwtr>\n",
               argv[0], argv[0]);
  return 1;
}
