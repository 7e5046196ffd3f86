#include "common.hpp"

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#if defined(__x86_64__)
#include <x86intrin.h>
#endif

namespace perfbench {

namespace {

constexpr std::uint64_t kSampleEvery = 16;

constexpr const char* kLayerNames[] = {
    "chan.sample",  "core.observe",   "mac.step",         "campus.roam",
    "campus.admit", "campus.fold",    "campus.epoch",     "loc.observe_ap",
    "loc.locate",   "loc.locate_fused", "phy.aoa",        "loc.refresh",
    "trace.read",   "trace.write",    "campus.step",      "loc.query",
    "replay.client_epoch"};
static_assert(sizeof(kLayerNames) / sizeof(kLayerNames[0]) ==
              static_cast<std::size_t>(Layer::kCount));

std::int64_t ticks() {
#if defined(__x86_64__)
  return static_cast<std::int64_t>(__rdtsc());
#else
  return now_ns();
#endif
}

std::uint64_t splitmix(std::uint64_t x) {
  x += 0x9e3779b97f4a7c15ULL;
  x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ULL;
  x = (x ^ (x >> 27)) * 0x94d049bb133111ebULL;
  return x ^ (x >> 31);
}

}  // namespace

const char* layer_name(Layer layer) {
  return kLayerNames[static_cast<std::size_t>(layer)];
}

Tracer::Tracer()
    : origin_ns_(now_ns()),
      origin_tick_(ticks()) {
  stack_.reserve(16);
}

double Tracer::ns_per_tick() const {
  const std::int64_t dt = ticks() - origin_tick_;
  const std::int64_t dns = now_ns() - origin_ns_;
  return dt > 0 ? static_cast<double>(dns) / static_cast<double>(dt) : 1.0;
}

bool Tracer::sampled(std::uint64_t id) const {
  return splitmix(id) % kSampleEvery == 0;
}

void Tracer::begin(Layer layer, std::uint64_t request, Detail detail) {
  const bool parent_kept = stack_.empty() || stack_.back().row != 0;
  std::uint32_t row = 0;
  const std::int64_t start = ticks();
  if (detail == Detail::kRecord && parent_kept) {
    const std::uint32_t parent = stack_.empty() ? 0 : stack_.back().row;
    spans_.push_back({start - origin_tick_, 0, request, parent, layer});
    row = static_cast<std::uint32_t>(spans_.size());
  }
  stack_.push_back({layer, start, 0, row});
}

void Tracer::end() {
  const std::int64_t stop = ticks();
  const Open open = stack_.back();
  stack_.pop_back();
  const std::int64_t dur = stop - open.start;
  Agg& a = agg_[static_cast<std::size_t>(open.layer)];
  ++a.calls;
  ++a.timed;
  a.total += dur;
  a.self += dur - open.child;
  if (!stack_.empty()) stack_.back().child += dur;
  if (open.row != 0) spans_[open.row - 1].end = stop - origin_tick_;
}

double Tracer::ns_per_call(Layer layer) const {
  const Agg& a = agg(layer);
  return a.timed ? static_cast<double>(a.total) * ns_per_tick() /
                       static_cast<double>(a.timed)
                 : 0.0;
}

double Tracer::self_ns(Layer layer) const {
  const Agg& a = agg(layer);
  if (a.timed == 0) return 0.0;
  return static_cast<double>(a.self) * ns_per_tick() *
         static_cast<double>(a.calls) / static_cast<double>(a.timed);
}

bool Tracer::write_csv(const std::string& path) const {
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (!f) return false;
  const double k = ns_per_tick();
  std::fprintf(f, "name,start_ns,end_ns,parent,request\n");
  for (const Record& s : spans_)
    std::fprintf(f, "%s,%lld,%lld,%u,%llu\n", layer_name(s.layer),
                 std::llround(static_cast<double>(s.start) * k),
                 std::llround(static_cast<double>(s.end) * k), s.parent,
                 static_cast<unsigned long long>(s.request));
  return std::fclose(f) == 0;
}

void add_layer_metrics(Result& r, const Tracer& tr, Layer layer,
                       std::int64_t wall_ns) {
  const Tracer::Agg& a = tr.agg(layer);
  const std::string n = layer_name(layer);
  r.metric(n + ".calls", static_cast<double>(a.calls), "count");
  r.metric(n + ".ns_per_call", tr.ns_per_call(layer), "ns");
  r.metric(n + ".share",
           wall_ns > 0 ? tr.self_ns(layer) / static_cast<double>(wall_ns) : 0.0,
           "ratio");
}

void add_unattributed(Result& r, const Tracer& tr,
                      const std::vector<Layer>& layers, std::int64_t wall_ns) {
  double self = 0.0;
  for (const Layer l : layers) self += tr.self_ns(l);
  r.metric("unattributed",
           wall_ns > 0 ? 1.0 - self / static_cast<double>(wall_ns) : 0.0,
           "ratio");
}

void Blocks::add(std::uint64_t ops, double wall_s, std::vector<double>& lat_us) {
  rate_.push_back(static_cast<double>(ops) / wall_s);
  lat_.push_back(lat_us);
  lat_us.clear();
}

void Blocks::report(Result& r, const std::string& rate_name,
                    const std::string& latency_name) const {
  std::size_t samples = 0;
  std::vector<double> pooled;
  for (const auto& b : lat_) {
    samples += b.size();
    pooled.insert(pooled.end(), b.begin(), b.end());
  }
  // The block figure at quantile `across` over blocks of each block's
  // latency quantile `q`.
  const auto latency = [&](double q, double across) {
    std::vector<double> per_block;
    for (const auto& b : lat_) per_block.push_back(quantile(b, q));
    return quantile(per_block, across);
  };
  const double rate = quantile(rate_, 0.25);
  const double p50 = latency(0.5, 0.75), p90 = latency(0.9, 0.75);
  r.metric("throughput_per_s", rate, "1/s");
  r.metric("op_us_p50", p50, "us");
  r.metric("op_us_p90", p90, "us");
  r.note(rate_name, rate);
  r.note(latency_name + "_p50", p50);
  r.note(latency_name + "_p90", p90);
  r.note(latency_name + "_p99", quantile(pooled, 0.99));
  r.note(rate_name + "_median", median(rate_));
  r.note(latency_name + "_p50_median", latency(0.5, 0.5));
  r.note(latency_name + "_p90_median", latency(0.9, 0.5));
  r.note("blocks", static_cast<double>(rate_.size()));
  r.note("block_rate_min", *std::min_element(rate_.begin(), rate_.end()));
  r.note("block_rate_max", *std::max_element(rate_.begin(), rate_.end()));
  r.note("latency_samples", static_cast<double>(samples));
}

CpuRotation::CpuRotation() {
  if (sched_getaffinity(0, sizeof original_, &original_) != 0) return;
  for (int c = 0; c < CPU_SETSIZE; ++c)
    if (CPU_ISSET(c, &original_)) cpus_.push_back(c);
}

CpuRotation::~CpuRotation() {
  if (!cpus_.empty()) sched_setaffinity(0, sizeof original_, &original_);
}

void CpuRotation::next() {
  if (cpus_.size() < 2) return;
  cpu_set_t one;
  CPU_ZERO(&one);
  CPU_SET(cpus_[at_++ % cpus_.size()], &one);
  sched_setaffinity(0, sizeof one, &one);
}

double quantile(std::vector<double> v, double q) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const double idx = q * static_cast<double>(v.size() - 1);
  const auto lo = static_cast<std::size_t>(idx);
  const std::size_t hi = std::min(lo + 1, v.size() - 1);
  return v[lo] + (v[hi] - v[lo]) * (idx - static_cast<double>(lo));
}

double median(std::vector<double> v) { return quantile(std::move(v), 0.5); }

std::string hex(std::uint64_t v) {
  char buf[24];
  std::snprintf(buf, sizeof buf, "0x%016llx",
                static_cast<unsigned long long>(v));
  return buf;
}

double peak_rss_mb() {
  std::ifstream st("/proc/self/status");
  std::string line;
  while (std::getline(st, line)) {
    if (line.rfind("VmHWM:", 0) == 0)
      return std::strtod(line.c_str() + 6, nullptr) / 1024.0;  // kB -> MiB
  }
  return 0.0;
}

}  // namespace perfbench
