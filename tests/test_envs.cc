/**
 * @file
 * Integration tests for the four gym environments: action decode
 * faithfulness, reward semantics per Table 3, cross-agent runs through
 * the driver, and a parameterized contract suite shared by every
 * environment (the integration backbone of the framework).
 */

#include <gtest/gtest.h>

#include <functional>
#include <memory>

#include "agents/registry.h"
#include "core/driver.h"
#include "envs/dram_gym_env.h"
#include "envs/farsi_gym_env.h"
#include "envs/maestro_gym_env.h"
#include "envs/timeloop_gym_env.h"

namespace archgym {
namespace {

// --------------------------------------------------------------------
// Shared environment contract
// --------------------------------------------------------------------

using EnvFactory = std::function<std::unique_ptr<Environment>()>;

struct EnvCase
{
    std::string name;
    EnvFactory make;
};

void
PrintTo(const EnvCase &c, std::ostream *os)
{
    *os << c.name;
}

class AllEnvs : public ::testing::TestWithParam<EnvCase>
{
};

TEST_P(AllEnvs, MetadataIsConsistent)
{
    auto env = GetParam().make();
    EXPECT_FALSE(env->name().empty());
    EXPECT_GE(env->actionSpace().size(), 5u);
    EXPECT_GE(env->metricNames().size(), 3u);
    EXPECT_GT(env->actionSpace().cardinality(), 1e4);
}

TEST_P(AllEnvs, StepIsDeterministicAndCountsSamples)
{
    auto env = GetParam().make();
    Rng rng(17);
    const Action a = env->actionSpace().sample(rng);
    const StepResult r1 = env->step(a);
    const StepResult r2 = env->step(a);
    EXPECT_EQ(r1.observation, r2.observation);
    EXPECT_DOUBLE_EQ(r1.reward, r2.reward);
    EXPECT_EQ(env->sampleCount(), 2u);
}

TEST_P(AllEnvs, ObservationMatchesMetricNames)
{
    auto env = GetParam().make();
    Rng rng(18);
    const StepResult r = env->step(env->actionSpace().sample(rng));
    EXPECT_EQ(r.observation.size(), env->metricNames().size());
    for (double m : r.observation)
        EXPECT_TRUE(std::isfinite(m));
    EXPECT_TRUE(std::isfinite(r.reward));
}

TEST_P(AllEnvs, EveryAgentRunsEndToEnd)
{
    for (const auto &agentName : agentNames()) {
        auto env = GetParam().make();
        HyperParams hp;
        if (agentName == "BO") {
            hp.set("num_candidates", 32).set("max_history", 48);
        }
        auto agent = makeAgent(agentName, env->actionSpace(), hp, 23);
        RunConfig cfg;
        cfg.maxSamples = 40;
        const RunResult r = runSearch(*env, *agent, cfg);
        EXPECT_EQ(r.samplesUsed, 40u) << agentName;
        EXPECT_TRUE(std::isfinite(r.bestReward)) << agentName;
        EXPECT_TRUE(env->actionSpace().contains(r.bestAction))
            << agentName;
    }
}

TEST_P(AllEnvs, TrajectoryLoggingProducesDataset)
{
    auto env = GetParam().make();
    auto agent = makeAgent("RW", env->actionSpace(), {}, 29);
    RunConfig cfg;
    cfg.maxSamples = 25;
    cfg.logTrajectory = true;
    const RunResult r = runSearch(*env, *agent, cfg);
    EXPECT_EQ(r.trajectory.size(), 25u);
    EXPECT_EQ(r.trajectory.envName(), env->name());
    for (const auto &t : r.trajectory.toTransitions())
        EXPECT_EQ(t.observation.size(), env->metricNames().size());
}

std::vector<EnvCase>
allEnvCases()
{
    return {
        {"DRAMGym",
         [] {
             DramGymEnv::Options o;
             o.traceLength = 96;  // keep integration tests fast
             return std::unique_ptr<Environment>(
                 std::make_unique<DramGymEnv>(o));
         }},
        {"TimeloopGym",
         [] {
             TimeloopGymEnv::Options o;
             o.network = timeloop::resNet18();
             return std::unique_ptr<Environment>(
                 std::make_unique<TimeloopGymEnv>(o));
         }},
        {"FARSIGym",
         [] {
             return std::unique_ptr<Environment>(
                 std::make_unique<FarsiGymEnv>());
         }},
        {"MaestroGym",
         [] {
             MaestroGymEnv::Options o;
             o.network.layers.resize(2);  // trim for speed
             return std::unique_ptr<Environment>(
                 std::make_unique<MaestroGymEnv>(o));
         }},
    };
}

INSTANTIATE_TEST_SUITE_P(
    Contract, AllEnvs, ::testing::ValuesIn(allEnvCases()),
    [](const ::testing::TestParamInfo<EnvCase> &info) {
        return info.param.name;
    });

// --------------------------------------------------------------------
// DRAMGym specifics
// --------------------------------------------------------------------

TEST(DramGym, ActionDecodeRoundTrips)
{
    DramGymEnv env;
    Rng rng(31);
    for (int i = 0; i < 50; ++i) {
        const Action a = env.actionSpace().sample(rng);
        const dram::ControllerConfig cfg = env.decodeAction(a);
        // Spot-check categorical and numeric fields against the action.
        const auto levels = env.actionSpace().toLevels(a);
        EXPECT_EQ(static_cast<std::size_t>(cfg.pagePolicy), levels[0]);
        EXPECT_EQ(cfg.requestBufferSize,
                  static_cast<std::uint32_t>(a[3]));
        EXPECT_EQ(cfg.maxActiveTransactions,
                  static_cast<std::uint32_t>(a[8]));
    }
}

TEST(DramGym, SpaceMatchesPaperParameters)
{
    DramGymEnv env;
    const ParamSpace &s = env.actionSpace();
    EXPECT_EQ(s.size(), 9u);
    EXPECT_NO_THROW(s.indexOf("PagePolicy"));
    EXPECT_NO_THROW(s.indexOf("Scheduler"));
    EXPECT_NO_THROW(s.indexOf("SchedulerBuffer"));
    EXPECT_NO_THROW(s.indexOf("RequestBufferSize"));
    EXPECT_NO_THROW(s.indexOf("RespQueue"));
    EXPECT_NO_THROW(s.indexOf("RefreshMaxPostponed"));
    EXPECT_NO_THROW(s.indexOf("RefreshMaxPulledin"));
    EXPECT_NO_THROW(s.indexOf("Arbiter"));
    EXPECT_NO_THROW(s.indexOf("MaxActiveTransactions"));
}

TEST(DramGym, LowPowerRewardPrefersPowerNearTarget)
{
    DramGymEnv::Options o;
    o.objective = DramObjective::LowPower;
    o.powerTargetW = 1.0;
    o.traceLength = 96;
    DramGymEnv env(o);
    const auto &obj = env.objective();
    EXPECT_GT(obj.reward({100.0, 1.05, 5.0}),
              obj.reward({100.0, 2.0, 5.0}));
}

TEST(DramGym, JointObjectiveUsesBothMetrics)
{
    DramGymEnv::Options o;
    o.objective = DramObjective::LatencyAndPower;
    o.traceLength = 96;
    DramGymEnv env(o);
    const auto &obj = env.objective();
    // Improving either metric toward its target raises the reward.
    const double base = obj.reward({100.0, 2.0, 5.0});
    EXPECT_GT(obj.reward({50.0, 2.0, 5.0}), base);
    EXPECT_GT(obj.reward({100.0, 1.5, 5.0}), base);
}

TEST(DramGym, DifferentTracesGiveDifferentCosts)
{
    DramGymEnv::Options o1;
    o1.pattern = dram::TracePattern::Streaming;
    o1.traceLength = 128;
    DramGymEnv::Options o2 = o1;
    o2.pattern = dram::TracePattern::Random;
    DramGymEnv e1(o1), e2(o2);
    Rng rng(37);
    const Action a = e1.actionSpace().sample(rng);
    EXPECT_NE(e1.step(a).observation[0], e2.step(a).observation[0]);
}

// --------------------------------------------------------------------
// TimeloopGym specifics
// --------------------------------------------------------------------

TEST(TimeloopGym, DecodeMapsAllFields)
{
    TimeloopGymEnv env;
    Rng rng(41);
    const Action a = env.actionSpace().sample(rng);
    const auto cfg = env.decodeAction(a);
    EXPECT_EQ(cfg.numPEs, static_cast<std::uint32_t>(a[0]));
    EXPECT_EQ(cfg.globalBufferKb, static_cast<std::uint32_t>(a[4]));
}

TEST(TimeloopGym, RewardPeaksNearLatencyTarget)
{
    TimeloopGymEnv::Options o;
    o.network = timeloop::resNet18();
    o.latencyTargetMs = 10.0;
    TimeloopGymEnv env(o);
    const auto &obj = env.objective();
    EXPECT_GT(obj.reward({11.0, 0.0, 0.0}), obj.reward({30.0, 0.0, 0.0}));
}

// --------------------------------------------------------------------
// FARSIGym specifics
// --------------------------------------------------------------------

TEST(FarsiGym, RewardIsNegativeDistance)
{
    FarsiGymEnv env;
    // All budgets met -> distance 0 -> reward 0 (the maximum).
    EXPECT_DOUBLE_EQ(env.objective().reward({0.1, 1.0, 5.0}), 0.0);
    EXPECT_LT(env.objective().reward({10.0, 100.0, 50.0}), 0.0);
}

TEST(FarsiGym, RewardFloorBoundsCatastrophicConfigs)
{
    FarsiGymEnv env;
    Rng rng(43);
    // The all-zero allocation is the worst case in the space.
    Action worst(env.actionSpace().size(), 0.0);
    worst = env.actionSpace().quantize(worst);
    const StepResult r = env.step(worst);
    EXPECT_GE(r.reward, -1000.0);
}

TEST(FarsiGym, BudgetsAreAchievable)
{
    // The calibrated default budgets admit at least one design (found by
    // random probing) — the search problem is feasible but non-trivial.
    FarsiGymEnv env;
    Rng rng(44);
    double best = -1e18;
    for (int i = 0; i < 3000; ++i) {
        const auto s = env.step(env.actionSpace().sample(rng));
        best = std::max(best, s.reward);
    }
    EXPECT_GT(best, -0.5);
}

// --------------------------------------------------------------------
// MaestroGym specifics
// --------------------------------------------------------------------

TEST(MaestroGym, DecodePermutationFromPriorities)
{
    MaestroGymEnv env;
    Rng rng(47);
    const Action a = env.actionSpace().sample(rng);
    const maestro::Mapping m = env.decodeAction(a);
    // loopOrder is always a valid permutation of the 6 dims.
    std::array<bool, maestro::kNumDims> seen{};
    for (maestro::Dim d : m.loopOrder())
        seen[static_cast<std::size_t>(d)] = true;
    for (bool b : seen)
        EXPECT_TRUE(b);
}

TEST(MaestroGym, RewardIsInverseRuntime)
{
    MaestroGymEnv::Options o;
    o.network.layers.resize(1);
    MaestroGymEnv env(o);
    Rng rng(48);
    const StepResult r = env.step(env.actionSpace().sample(rng));
    EXPECT_NEAR(r.reward, 1.0 / r.observation[0], 1e-15);
}

} // namespace
} // namespace archgym
