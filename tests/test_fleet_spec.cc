/**
 * @file
 * Fleet job-spec parser tests: every malformed input must die with a
 * crisp SimFatal at submit time — never UB, never a half-parsed sweep
 * that fails attempts deep into a long run — and the retry/backoff
 * arithmetic must be exact.
 */

#include <gtest/gtest.h>

#include <string>

#include "fleet/backoff.hh"
#include "fleet/job_spec.hh"
#include "sim/logging.hh"

namespace vip
{
namespace fleet
{
namespace
{

/** A minimal valid spec the failure cases below mutate. */
const char *kGood = R"({
  "name": "t",
  "seconds": 0.1,
  "configs": ["vip", "baseline"],
  "workloads": ["A1", "W4"],
  "seeds": [1, 2],
  "fleet": {"workers": 3, "max_attempts": 2}
})";

TEST(FleetSpec, ExpandsCrossProductInSpecOrder)
{
    JobSpec s = JobSpec::parse(kGood);
    EXPECT_EQ(s.name, "t");
    EXPECT_DOUBLE_EQ(s.seconds, 0.1);
    EXPECT_EQ(s.fleet.workers, 3);
    EXPECT_EQ(s.fleet.maxAttempts, 2);
    ASSERT_EQ(s.jobs.size(), 8u); // 2 configs x 2 workloads x 2 seeds
    EXPECT_EQ(s.jobs[0].id, "vip-A1-s1");
    EXPECT_EQ(s.jobs[1].id, "vip-A1-s2");
    EXPECT_EQ(s.jobs[2].id, "vip-W4-s1");
    EXPECT_EQ(s.jobs[7].id, "baseline-W4-s2");
    EXPECT_EQ(s.jobs[7].config, "baseline");
    EXPECT_EQ(s.jobs[7].workload, "W4");
    EXPECT_EQ(s.jobs[7].seed, 2u);
    EXPECT_TRUE(s.jobs[0].faultPlan.empty());
}

TEST(FleetSpec, DefaultsApplyWhenOptionalFieldsAreAbsent)
{
    JobSpec s = JobSpec::parse(
        R"({"configs": ["vip"], "workloads": ["A1"]})");
    ASSERT_EQ(s.jobs.size(), 1u); // implicit seed axis = [1]
    EXPECT_EQ(s.jobs[0].seed, 1u);
    FleetPolicy d;
    EXPECT_EQ(s.fleet.workers, d.workers);
    EXPECT_EQ(s.fleet.maxAttempts, d.maxAttempts);
    EXPECT_DOUBLE_EQ(s.fleet.backoffBaseMs, d.backoffBaseMs);
    EXPECT_EQ(s.fleet.resume, d.resume);
}

TEST(FleetSpec, FaultPlanAxisExpandsAndSanitizesIds)
{
    JobSpec s = JobSpec::parse(R"({
      "configs": ["vip"], "workloads": ["A1"],
      "fault_plans": ["none", "hang=0.01,seed=7"]
    })");
    ASSERT_EQ(s.jobs.size(), 2u);
    EXPECT_TRUE(s.jobs[0].faultPlan.empty()); // "none" -> fault-free
    EXPECT_EQ(s.jobs[1].faultPlan, "hang=0.01,seed=7");
    // '=' and ',' are shell/file hostile; ids keep only safe chars.
    EXPECT_EQ(s.jobs[1].id, "vip-A1-s1-hang_0.01_seed_7");
}

TEST(FleetSpec, MalformedJsonIsFatal)
{
    EXPECT_THROW(JobSpec::parse("{\"configs\": [\"vip\""), SimFatal);
    EXPECT_THROW(JobSpec::parse(""), SimFatal);
    EXPECT_THROW(JobSpec::parse("[1, 2]"), SimFatal);
}

TEST(FleetSpec, UnknownAxisValuesAreFatalAtSubmitTime)
{
    EXPECT_THROW(JobSpec::parse(R"({
      "configs": ["vip", "turbo"], "workloads": ["A1"]})"),
                 SimFatal);
    EXPECT_THROW(JobSpec::parse(R"({
      "configs": ["vip"], "workloads": ["Z9"]})"),
                 SimFatal);
    EXPECT_THROW(JobSpec::parse(R"({
      "configs": ["vip"], "workloads": ["A1"],
      "fault_plans": ["totally-bogus"]})"),
                 SimFatal);
    EXPECT_THROW(JobSpec::parse(R"({
      "configs": ["vip"], "workloads": ["A1"],
      "audit": "sometimes"})"),
                 SimFatal);
    // An audit period or heartbeat below one tick would fail every
    // worker; it fails here instead.
    EXPECT_THROW(JobSpec::parse(R"({
      "configs": ["vip"], "workloads": ["A1"],
      "audit": "periodic:1e-10"})"),
                 SimFatal);
    EXPECT_THROW(JobSpec::parse(R"({
      "configs": ["vip"], "workloads": ["A1"],
      "fleet": {"heartbeat_interval_ms": 1e-10}})"),
                 SimFatal);
    // Unknown keys are refused by name, with the valid ones listed:
    // typos, a stray top-level key, and the retired "timeseries".
    const char *unknown[][2] = {
        {R"({"configs": ["vip"], "workloads": ["A1"],
             "fleet": {"workers": 1, "max_attempt": 1}})",
         "max_attempt"},
        {R"({"configs": ["vip"], "workloads": ["A1"],
             "fleet": {"workers": 1, "timeseriez": true}})",
         "timeseriez"},
        {R"({"configs": ["vip"], "workloads": ["A1"], "extra": 5})",
         "extra"},
        {R"({"configs": ["vip"], "workloads": ["A1"],
             "fleet": {"timeseries": true}})",
         "timeseries"},
    };
    for (const auto &[text, key] : unknown) {
        SCOPED_TRACE(key);
        try {
            JobSpec::parse(text);
            ADD_FAILURE() << "unknown key accepted";
        } catch (const SimFatal &e) {
            const std::string msg = e.what();
            EXPECT_NE(msg.find(std::string("unknown key '") + key + "'"),
                      std::string::npos)
                << msg;
            EXPECT_NE(msg.find("valid keys: "), std::string::npos) << msg;
        }
    }
}

TEST(FleetSpec, EmptyOrMissingAxesAreFatal)
{
    EXPECT_THROW(JobSpec::parse(R"({"workloads": ["A1"]})"), SimFatal);
    EXPECT_THROW(JobSpec::parse(R"({"configs": ["vip"]})"), SimFatal);
    EXPECT_THROW(JobSpec::parse(R"({
      "configs": [], "workloads": ["A1"]})"),
                 SimFatal);
    EXPECT_THROW(JobSpec::parse(R"({
      "configs": ["vip"], "workloads": ["A1"], "seeds": []})"),
                 SimFatal);
    EXPECT_THROW(JobSpec::parse(R"({
      "configs": ["vip"], "workloads": ["A1"],
      "fault_plans": []})"),
                 SimFatal);
}

TEST(FleetSpec, WrongTypesAreFatal)
{
    EXPECT_THROW(JobSpec::parse(R"({
      "configs": [1], "workloads": ["A1"]})"),
                 SimFatal);
    EXPECT_THROW(JobSpec::parse(R"({
      "configs": ["vip"], "workloads": ["A1"],
      "seeds": [1.5]})"),
                 SimFatal);
    EXPECT_THROW(JobSpec::parse(R"({
      "configs": ["vip"], "workloads": ["A1"],
      "seeds": [-1]})"),
                 SimFatal);
    EXPECT_THROW(JobSpec::parse(R"({
      "configs": ["vip"], "workloads": ["A1"],
      "seconds": "fast"})"),
                 SimFatal);
    EXPECT_THROW(JobSpec::parse(R"({
      "configs": ["vip"], "workloads": ["A1"], "fleet": 3})"),
                 SimFatal);
}

TEST(FleetSpec, DuplicateJobIdsAreFatal)
{
    // The same seed twice collapses two cells onto one id.
    EXPECT_THROW(JobSpec::parse(R"({
      "configs": ["vip"], "workloads": ["A1"],
      "seeds": [1, 1]})"),
                 SimFatal);
    EXPECT_THROW(JobSpec::parse(R"({
      "configs": ["vip", "vip"], "workloads": ["A1"]})"),
                 SimFatal);
}

TEST(FleetSpec, PolicyRangeChecks)
{
    auto withFleet = [](const std::string &fleet) {
        return std::string(R"({"configs": ["vip"],
                               "workloads": ["A1"], "fleet": )") +
               fleet + "}";
    };
    EXPECT_THROW(JobSpec::parse(withFleet(R"({"workers": 0})")),
                 SimFatal);
    EXPECT_THROW(JobSpec::parse(withFleet(R"({"max_attempts": 0})")),
                 SimFatal);
    EXPECT_THROW(JobSpec::parse(withFleet(
                     R"({"backoff_base_ms": -1})")),
                 SimFatal);
    // Cap below base would make the delay sequence nonsense.
    EXPECT_THROW(JobSpec::parse(withFleet(
                     R"({"backoff_base_ms": 100, "backoff_cap_ms": 10})")),
                 SimFatal);
    // A hang deadline without a heartbeat stream can never fire.
    EXPECT_THROW(JobSpec::parse(withFleet(
                     R"({"heartbeat_deadline_ms": 1000,
                         "heartbeat_interval_ms": 0})")),
                 SimFatal);
    EXPECT_THROW(JobSpec::parse(withFleet(R"({"resume": "yes"})")),
                 SimFatal);
}

TEST(FleetSpec, SecondsMustBePositiveAndSane)
{
    EXPECT_THROW(JobSpec::parse(R"({
      "configs": ["vip"], "workloads": ["A1"], "seconds": 0})"),
                 SimFatal);
    EXPECT_THROW(JobSpec::parse(R"({
      "configs": ["vip"], "workloads": ["A1"], "seconds": 1e9})"),
                 SimFatal);
}

TEST(FleetSpec, ParseFileRejectsMissingFile)
{
    EXPECT_THROW(JobSpec::parseFile("/nonexistent/sweep.json"),
                 SimFatal);
}

TEST(FleetBackoff, ExponentialWithCap)
{
    FleetPolicy p;
    p.backoffBaseMs = 250.0;
    p.backoffCapMs = 10000.0;
    EXPECT_DOUBLE_EQ(backoffDelayMs(p, 1), 250.0);
    EXPECT_DOUBLE_EQ(backoffDelayMs(p, 2), 500.0);
    EXPECT_DOUBLE_EQ(backoffDelayMs(p, 3), 1000.0);
    EXPECT_DOUBLE_EQ(backoffDelayMs(p, 6), 8000.0);
    EXPECT_DOUBLE_EQ(backoffDelayMs(p, 7), 10000.0); // 16000 clamped
    EXPECT_DOUBLE_EQ(backoffDelayMs(p, 100), 10000.0);
}

TEST(FleetBackoff, DegenerateInputs)
{
    FleetPolicy p;
    p.backoffBaseMs = 250.0;
    p.backoffCapMs = 10000.0;
    EXPECT_DOUBLE_EQ(backoffDelayMs(p, 0), 0.0);
    EXPECT_DOUBLE_EQ(backoffDelayMs(p, -3), 0.0);
    p.backoffBaseMs = 0.0; // retry immediately
    EXPECT_DOUBLE_EQ(backoffDelayMs(p, 5), 0.0);
    // Absurd failure counts must not overflow: saturates at the cap.
    p.backoffBaseMs = 1.0;
    p.backoffCapMs = 1e9;
    EXPECT_DOUBLE_EQ(backoffDelayMs(p, 10000), 1e9);
}

TEST(FleetBackoff, CapEqualToBasePinsEveryDelay)
{
    FleetPolicy p;
    p.backoffBaseMs = 42.0;
    p.backoffCapMs = 42.0;
    EXPECT_DOUBLE_EQ(backoffDelayMs(p, 1), 42.0);
    EXPECT_DOUBLE_EQ(backoffDelayMs(p, 9), 42.0);
}

} // namespace
} // namespace fleet
} // namespace vip
