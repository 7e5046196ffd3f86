#include "suite/suite.hpp"

#include <cstdarg>
#include <cstdio>

namespace mobiwlan::benchsuite {

const std::vector<BenchDef>& registry() {
  static const std::vector<BenchDef> benches = {
      table1_bench(),
      fig9_bench(),
      fig13_bench(),
  };
  return benches;
}

const std::vector<GatedSuite>& gated_suites() {
  static const std::vector<GatedSuite> suites = {
      fidelity_suite(), fault_suite(), trace_suite(),
      campus_suite(),   loc_suite(),
  };
  return suites;
}

std::string strf(const char* format, ...) {
  va_list args;
  va_start(args, format);
  va_list args_copy;
  va_copy(args_copy, args);
  const int n = std::vsnprintf(nullptr, 0, format, args);
  va_end(args);
  std::string out;
  if (n > 0) {
    out.resize(static_cast<std::size_t>(n));
    std::vsnprintf(out.data(), out.size() + 1, format, args_copy);
  }
  va_end(args_copy);
  return out;
}

std::string banner_text(const std::string& figure,
                        const std::string& expectation) {
  return strf("\n================================================================\n"
              "%s\nPaper: %s\n"
              "================================================================\n",
              figure.c_str(), expectation.c_str());
}

}  // namespace mobiwlan::benchsuite
