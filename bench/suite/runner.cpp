// runner.cpp — run_gated_suite(), the one harness behind every gated suite.
//
// A gated suite run is: build the pool and Experiment, run the suite's
// report function, print its metrics, optionally check them against the
// committed baseline, and write the flat JSON (FidelityReport::to_json).
// `--check-only` skips the run and re-checks an existing report instead.
// Keeping these steps in one place means every suite's gate has the same
// strength: same seed policy, same bound semantics, same report bytes.
#include <chrono>
#include <cstdio>
#include <fstream>
#include <string>
#include <thread>

#include "fidelity/fidelity.hpp"
#include "runtime/thread_pool.hpp"
#include "suite/suite.hpp"
#include "util/flatjson.hpp"

namespace mobiwlan::benchsuite {
namespace {

using fidelity::FidelityReport;

/// Checks `rep` against the baseline and prints the verdict table. Returns
/// the process exit code.
int check_report(const GatedSuite& suite, const FidelityReport& rep,
                 std::uint64_t run_seed, const std::string& baseline_path,
                 fidelity::CheckResult& check) {
  const auto baseline = load_flat_json(baseline_path);
  if (baseline.empty()) {
    std::fprintf(stderr, "mobiwlan-bench: no %s baseline at %s\n",
                 suite.name.c_str(), baseline_path.c_str());
    return 1;
  }
  check = rep.check(baseline, run_seed);
  std::printf("\n%s-check against %s (seed %llu):\n", suite.name.c_str(),
              baseline_path.c_str(), static_cast<unsigned long long>(run_seed));
  std::fputs(fidelity::render_check(check).c_str(), stdout);
  if (!check.pass()) {
    std::fprintf(stderr, "mobiwlan-bench: %s gate FAILED (baseline %s)\n",
                 suite.gate.c_str(), baseline_path.c_str());
    return 1;
  }
  std::printf("%s-check: all bounds hold\n", suite.name.c_str());
  return 0;
}

}  // namespace

int run_gated_suite(const GatedSuite& suite, const SuiteOptions& opt) {
  fidelity::CheckResult check;
  if (!opt.check_only.empty()) {
    const auto doc = load_flat_json(opt.check_only);
    if (doc.empty()) {
      std::fprintf(stderr, "mobiwlan-bench: cannot read %s report %s\n",
                   suite.name.c_str(), opt.check_only.c_str());
      return 1;
    }
    std::uint64_t seed = 0;
    const FidelityReport rep = fidelity::report_from_flat_json(doc, seed);
    return check_report(suite, rep, seed, opt.baseline, check);
  }

  std::size_t jobs = opt.jobs;
  if (jobs == 0) {
    const unsigned hw = std::thread::hardware_concurrency();
    jobs = hw ? hw : 1;
  }
  runtime::ThreadPool pool(jobs);
  runtime::BenchReport bench_report;
  bench_report.name = suite.name;
  runtime::Experiment exp(pool, opt.seed, &bench_report);

  std::printf("%s: %s (seed %llu, %zu workers)\n", suite.name.c_str(),
              suite.banner.c_str(), static_cast<unsigned long long>(opt.seed),
              pool.size());
  const auto start = std::chrono::steady_clock::now();
  const FidelityReport rep = suite.report(exp);
  const double wall_s =
      std::chrono::duration<double>(std::chrono::steady_clock::now() - start)
          .count();

  for (const auto& [key, v] : rep.metrics())
    std::printf("  %-44s %.6g\n", key.c_str(), v);
  std::printf("[%s: %zu jobs on %zu workers, %.2fs wall]\n", suite.name.c_str(),
              bench_report.jobs.size(), pool.size(), wall_s);

  int rc = 0;
  const fidelity::CheckResult* check_ptr = nullptr;
  if (opt.check) {
    rc = check_report(suite, rep, opt.seed, opt.baseline, check);
    check_ptr = &check;
  }

  std::ofstream out(opt.out, std::ios::binary);
  if (!out) {
    std::fprintf(stderr, "mobiwlan-bench: cannot write %s\n", opt.out.c_str());
    return 1;
  }
  out << rep.to_json(opt.seed, wall_s, check_ptr);
  out.close();
  std::printf("wrote %s (%zu metrics)\n", opt.out.c_str(), rep.metrics().size());
  return rc;
}

}  // namespace mobiwlan::benchsuite
