// FidelityReport::check and the flat-JSON round trip — the bound semantics
// every gated suite (`mobiwlan-bench --suite NAME`) relies on.
#include "fidelity/fidelity.hpp"

#include <gtest/gtest.h>

#include <cstdint>
#include <map>
#include <string>

#include "util/flatjson.hpp"

namespace mobiwlan::fidelity {
namespace {

constexpr std::uint64_t kSeed = 20140204;

FidelityReport sample_report() {
  FidelityReport rep;
  rep.add("table1.static.acc", 0.9375);
  rep.add("fig9.aware_over_stock", 1.2071067811865475);
  rep.add("loc.db.cells", 10000);
  rep.add("campus.digest_xor_lo", 4294967295.0);
  rep.add("fault.fig13.aware_over_stock.drop30", -0.125);
  return rep;
}

TEST(FidelityReportTest, BaselineWithoutBoundsFails) {
  const FidelityReport rep = sample_report();
  const CheckResult check = rep.check({{"seed", kSeed}}, kSeed);
  EXPECT_TRUE(check.assertions.empty());
  EXPECT_TRUE(check.seed_ok);
  EXPECT_EQ(check.failed, 0u);
  EXPECT_FALSE(check.pass());
  EXPECT_NE(render_check(check).find("no bounds"), std::string::npos);
}

TEST(FidelityReportTest, EmptyBaselineFails) {
  EXPECT_FALSE(sample_report().check({}, kSeed).pass());
}

TEST(FidelityReportTest, SeedMismatchFails) {
  const std::map<std::string, double> baseline = {
      {"seed", kSeed}, {"table1.static.acc.min", 0.9}};
  const CheckResult check = sample_report().check(baseline, kSeed + 1);
  EXPECT_FALSE(check.seed_ok);
  EXPECT_EQ(check.failed, 0u);
  EXPECT_FALSE(check.pass());
  EXPECT_NE(render_check(check).find("seed policy"), std::string::npos);
  EXPECT_TRUE(sample_report().check(baseline, kSeed).pass());
}

TEST(FidelityReportTest, MissingMetricFails) {
  const std::map<std::string, double> baseline = {
      {"seed", kSeed},
      {"table1.static.acc.min", 0.9},
      {"table1.macro.acc.min", 0.9}};
  const CheckResult check = sample_report().check(baseline, kSeed);
  ASSERT_EQ(check.assertions.size(), 2u);
  EXPECT_EQ(check.failed, 1u);
  EXPECT_FALSE(check.pass());
  for (const Assertion& a : check.assertions) {
    if (a.metric == "table1.macro.acc") {
      EXPECT_FALSE(a.measured.has_value());
      EXPECT_FALSE(a.pass);
    }
  }
  EXPECT_NE(render_check(check).find("missing"), std::string::npos);
}

TEST(FidelityReportTest, ValueEqualToBoundPasses) {
  const FidelityReport rep = sample_report();
  for (const auto& [metric, v] : rep.metrics()) {
    const CheckResult check = rep.check(
        {{"seed", kSeed}, {metric + ".min", v}, {metric + ".max", v}}, kSeed);
    ASSERT_EQ(check.assertions.size(), 2u) << metric;
    EXPECT_TRUE(check.pass()) << metric;
  }
}

TEST(FidelityReportTest, BoundsPastTheValueFail) {
  const FidelityReport rep = sample_report();
  EXPECT_FALSE(rep.check({{"loc.db.cells.min", 10001}}, kSeed).pass());
  EXPECT_FALSE(rep.check({{"loc.db.cells.max", 9999}}, kSeed).pass());
}

TEST(FidelityReportTest, JsonRoundTripKeepsEveryMetric) {
  const FidelityReport rep = sample_report();
  const std::map<std::string, double> baseline = {
      {"seed", kSeed}, {"loc.db.cells.min", 10000}, {"loc.db.cells.max", 10000}};
  const CheckResult check = rep.check(baseline, kSeed);
  const std::string json = rep.to_json(kSeed, 1.5, &check);

  std::uint64_t seed = 0;
  const FidelityReport back =
      report_from_flat_json(parse_flat_json_numbers(json), seed);
  EXPECT_EQ(seed, kSeed);
  ASSERT_EQ(back.metrics().size(), rep.metrics().size());
  for (const auto& [metric, v] : rep.metrics()) {
    const auto got = back.value(metric);
    ASSERT_TRUE(got.has_value()) << metric;
    EXPECT_EQ(*got, v) << metric;
  }
  // The re-read report checks exactly like the original.
  EXPECT_TRUE(back.check(baseline, seed).pass());
}

}  // namespace
}  // namespace mobiwlan::fidelity
