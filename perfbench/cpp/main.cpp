// perfbench — one workload of the repository benchmark per invocation.
//
//   perfbench --workload campus_churn|loc_walk|loc_replay --seed N
//             --seconds S --trace 0|1 [--root DIR] [--out-dir DIR]
//   perfbench --smoke [--root DIR] [--out-dir DIR]
//
// Prints a provenance line, the workload's own named figures, and as the
// last line one JSON object: {"correct", "attempted", "failed", "metrics"}
// with the metrics the workload measured (run.py checks them against
// BENCHMARK.json). Exit status 0 only when every output check passed.
#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <string>
#include <thread>

#include "common.hpp"
#include "runtime/report.hpp"
#include "util/simd.hpp"

namespace {

using perfbench::Options;
using perfbench::Result;
using mobiwlan::runtime::json_escape;

std::string cpu_model() {
  std::ifstream in("/proc/cpuinfo");
  std::string line;
  while (std::getline(in, line)) {
    if (line.rfind("model name", 0) == 0) {
      const auto colon = line.find(':');
      if (colon != std::string::npos) {
        std::string m = line.substr(colon + 1);
        m.erase(0, m.find_first_not_of(' '));
        return m;
      }
    }
  }
  return "unknown";
}

std::string num(double v) {
  char buf[40];
  std::snprintf(buf, sizeof buf, "%.17g", v);
  return buf;
}

void print_provenance(const Options& opt) {
  namespace simd = mobiwlan::simd;
  std::printf(
      "# provenance {\"workload\": \"%s\", \"seed\": %llu, \"seconds\": %s, "
      "\"trace\": %d, \"cpu\": \"%s\", \"nproc\": %u, \"workers\": %zu, "
      "\"simd_tier\": \"%s\", \"simd_best\": \"%s\", \"precision\": \"%s\", "
      "\"compiler\": \"%s\", \"build_type\": \"%s\"}\n",
      json_escape(opt.workload).c_str(),
      static_cast<unsigned long long>(opt.seed), num(opt.seconds).c_str(),
      opt.trace ? 1 : 0, json_escape(cpu_model()).c_str(),
      std::thread::hardware_concurrency(), opt.workers,
      simd::tier_name(simd::active_tier()),
      simd::tier_name(simd::best_supported_tier()),
      simd::precision_name(simd::active_precision()),
      json_escape(__VERSION__).c_str(), PERFBENCH_BUILD_TYPE);
}

void print_result(const Result& r) {
  for (const auto& [k, v] : r.report)
    std::printf("# %s %s\n", k.c_str(), num(v).c_str());
  for (const std::string& line : r.info) std::printf("# %s\n", line.c_str());
  for (const std::string& e : r.errors)
    std::printf("# CHECK FAILED: %s\n", e.c_str());
  std::printf("# fail_rate %s\n",
              num(r.attempted ? static_cast<double>(r.failed) /
                                    static_cast<double>(r.attempted)
                              : 0.0)
                  .c_str());
  std::string json = "{\"correct\": ";
  json += r.correct() ? "true" : "false";
  json += ", \"attempted\": " + std::to_string(r.attempted);
  json += ", \"failed\": " + std::to_string(r.failed);
  json += ", \"metrics\": {";
  for (std::size_t i = 0; i < r.metrics.size(); ++i) {
    const auto& m = r.metrics[i];
    if (i) json += ", ";
    json += "\"" + m.name + "\": {\"value\": " + num(m.value) +
            ", \"unit\": \"" + m.unit + "\"}";
  }
  json += "}}";
  std::printf("%s\n", json.c_str());
}

int usage(const char* why) {
  std::fprintf(stderr,
               "perfbench: %s\nusage: perfbench --workload NAME --seed N "
               "--seconds S --trace 0|1 [--root DIR] [--out-dir DIR]\n"
               "       perfbench --smoke [--root DIR] [--out-dir DIR]\n",
               why);
  return 2;
}

}  // namespace

int main(int argc, char** argv) {
  Options opt;
  bool smoke = false;
  for (int i = 1; i < argc; ++i) {
    const std::string a = argv[i];
    const auto value = [&]() -> std::string {
      if (i + 1 >= argc) return {};
      return argv[++i];
    };
    try {
      if (a == "--workload") opt.workload = value();
      else if (a == "--seed") opt.seed = std::stoull(value());
      else if (a == "--seconds") opt.seconds = std::stod(value());
      else if (a == "--trace") opt.trace = std::stoi(value()) != 0;
      else if (a == "--root") opt.root = value();
      else if (a == "--out-dir") opt.out_dir = value();
      else if (a == "--smoke") smoke = true;
      else return usage(("unknown argument " + a).c_str());
    } catch (const std::exception&) {
      return usage(("bad value for " + a).c_str());
    }
  }

  // The benchmark pins fp64 and runs the host's own SIMD tier; an
  // environment override would silently change what is measured.
  for (const char* var :
       {"MOBIWLAN_PRECISION", "MOBIWLAN_SIMD_TIER", "MOBIWLAN_FORCE_SCALAR"}) {
    if (std::getenv(var) != nullptr) {
      std::fprintf(stderr, "perfbench: refusing to run with %s set\n", var);
      return 2;
    }
  }
  mobiwlan::simd::set_forced_precision(0);
  const unsigned hw = std::thread::hardware_concurrency();
  opt.workers = std::clamp<std::size_t>(hw, 1, 4);
  std::error_code ec;
  std::filesystem::create_directories(opt.out_dir, ec);

  if (smoke) {
    opt.workload = "smoke";
    print_provenance(opt);
    std::vector<std::string> errors = perfbench::smoke_campus_redrive(opt);
    for (std::string& e : perfbench::smoke_loc_replay(opt)) errors.push_back(e);
    for (const std::string& e : errors)
      std::printf("# CHECK FAILED: %s\n", e.c_str());
    std::printf("smoke: %s\n", errors.empty() ? "ok" : "FAILED");
    return errors.empty() ? 0 : 1;
  }

  Result r;
  if (opt.workload == "campus_churn") r = perfbench::run_campus_churn(opt);
  else if (opt.workload == "loc_walk") r = perfbench::run_loc_walk(opt);
  else if (opt.workload == "loc_replay") r = perfbench::run_loc_replay(opt);
  else return usage(("unknown workload '" + opt.workload + "'").c_str());
  if (r.attempted == 0) r.check(false, "no operation attempted");

  print_provenance(opt);
  print_result(r);
  return r.correct() ? 0 : 1;
}
