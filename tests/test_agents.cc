/**
 * @file
 * Tests for the five search agents.
 *
 * Every agent must (a) respect the ask-tell protocol, (b) produce only
 * in-space actions, (c) be deterministic under a fixed seed, and (d) beat
 * uniform-random expectation on analytically understood landscapes. A
 * parameterized suite runs the shared protocol/property checks across all
 * agents and a representative slice of their hyperparameter grids — the
 * property-test backbone for the Q1/Q2/Q3 interface contract.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <cmath>
#include <cstdint>
#include <iomanip>
#include <limits>
#include <memory>
#include <set>
#include <stdexcept>
#include <string>

#include "agents/ant_colony.h"
#include "agents/bayesian_opt.h"
#include "agents/genetic_algorithm.h"
#include "agents/random_walker.h"
#include "agents/registry.h"
#include "agents/reinforcement_learning.h"
#include "agents/simulated_annealing.h"
#include "core/driver.h"
#include "core/toy_envs.h"

namespace archgym {
namespace {

double
runBest(Environment &env, Agent &agent, std::size_t samples)
{
    RunConfig cfg;
    cfg.maxSamples = samples;
    return runSearch(env, agent, cfg).bestReward;
}

// --------------------------------------------------------------------
// Parameterized cross-agent protocol properties
// --------------------------------------------------------------------

struct AgentCase
{
    std::string name;
    HyperParams hp;
};

void
PrintTo(const AgentCase &c, std::ostream *os)
{
    *os << c.name << "{" << c.hp.str() << "}";
}

class AllAgents : public ::testing::TestWithParam<AgentCase>
{
};

TEST_P(AllAgents, ActionsAlwaysInSpace)
{
    OneMaxEnv env(6);
    auto agent = makeAgent(GetParam().name, env.actionSpace(),
                           GetParam().hp, 77);
    for (int i = 0; i < 300; ++i) {
        const Action a = agent->selectAction();
        ASSERT_TRUE(env.actionSpace().contains(a))
            << env.actionSpace().describe(a);
        const StepResult sr = env.step(a);
        agent->observe(a, sr.observation, sr.reward);
    }
}

TEST_P(AllAgents, DeterministicUnderSeed)
{
    QuadraticEnv env1({4.0, 9.0}), env2({4.0, 9.0});
    auto a1 = makeAgent(GetParam().name, env1.actionSpace(),
                        GetParam().hp, 123);
    auto a2 = makeAgent(GetParam().name, env2.actionSpace(),
                        GetParam().hp, 123);
    RunConfig cfg;
    cfg.maxSamples = 120;
    const RunResult r1 = runSearch(env1, *a1, cfg);
    const RunResult r2 = runSearch(env2, *a2, cfg);
    EXPECT_EQ(r1.rewardHistory, r2.rewardHistory);
    EXPECT_EQ(r1.bestAction, r2.bestAction);
}

TEST_P(AllAgents, ResetReproducesRun)
{
    QuadraticEnv env({4.0, 9.0});
    auto agent = makeAgent(GetParam().name, env.actionSpace(),
                           GetParam().hp, 321);
    RunConfig cfg;
    cfg.maxSamples = 80;
    const RunResult r1 = runSearch(env, *agent, cfg);
    agent->reset();
    const RunResult r2 = runSearch(env, *agent, cfg);
    EXPECT_EQ(r1.rewardHistory, r2.rewardHistory);
}

TEST_P(AllAgents, ImprovesOverFirstSampleOnQuadratic)
{
    QuadraticEnv env({13.0, 22.0, 5.0});
    auto agent = makeAgent(GetParam().name, env.actionSpace(),
                           GetParam().hp, 55);
    RunConfig cfg;
    cfg.maxSamples = 400;
    const RunResult r = runSearch(env, *agent, cfg);
    EXPECT_GT(r.bestReward, r.rewardHistory.front());
}

TEST_P(AllAgents, HyperparametersExposed)
{
    OneMaxEnv env(4);
    auto agent = makeAgent(GetParam().name, env.actionSpace(),
                           GetParam().hp, 1);
    // Q3: every configured knob must be visible on the agent.
    for (const auto &[k, v] : GetParam().hp.values())
        EXPECT_DOUBLE_EQ(agent->hyperParams().get(k, -1e18), v);
}

std::vector<AgentCase>
allAgentCases()
{
    return {
        {"RW", {}},
        {"RW", {{"walk", 1}, {"step_size", 0.2}}},
        {"GA", {}},
        {"GA", {{"population_size", 8}, {"selection", 1},
                {"crossover", 1}}},
        {"GA", {{"max_age", 3}, {"growth_add", 2}, {"reorder_prob", 0.2}}},
        {"ACO", {}},
        {"ACO", {{"num_ants", 4}, {"q0", 0.5}, {"evaporation", 0.3}}},
        {"BO", {{"num_candidates", 64}, {"max_history", 64}}},
        {"BO", {{"acquisition", 1}, {"num_candidates", 64},
                {"max_history", 64}}},
        {"BO", {{"acquisition", 2}, {"num_candidates", 64},
                {"max_history", 64}}},
        {"RL", {}},
        {"RL", {{"batch_size", 8}, {"entropy_coeff", 0.05}}},
        {"SA", {}},
        {"SA", {{"initial_temp", 5.0}, {"cooling", 0.98},
                {"move_dims", 3}}},
    };
}

INSTANTIATE_TEST_SUITE_P(
    Protocol, AllAgents, ::testing::ValuesIn(allAgentCases()),
    [](const ::testing::TestParamInfo<AgentCase> &info) {
        std::string tag = info.param.name + "_" +
                          std::to_string(info.index);
        return tag;
    });

// --------------------------------------------------------------------
// Batched vs per-step evaluation determinism (population-based agents)
// --------------------------------------------------------------------

/**
 * Full-search trajectory equivalence: the batched ask-tell path
 * (selectActionBatch / stepBatch / observeBatch) must reproduce the
 * per-step path sample for sample — same chosen actions in every
 * generation, same reward history, same best — for any seed and any
 * sample budget (including budgets that truncate the final
 * generation/cohort mid-way).
 */
void
expectBatchedRunMatchesPerStep(const std::string &agentName,
                               const HyperParams &hp, std::uint64_t seed,
                               std::size_t maxSamples)
{
    QuadraticEnv perStepEnv({9.0, 17.0, 4.0});
    QuadraticEnv batchEnv({9.0, 17.0, 4.0});
    auto perStepAgent =
        makeAgent(agentName, perStepEnv.actionSpace(), hp, seed);
    auto batchAgent = makeAgent(agentName, batchEnv.actionSpace(), hp,
                                seed);

    RunConfig perStepCfg;
    perStepCfg.maxSamples = maxSamples;
    perStepCfg.logTrajectory = true;
    RunConfig batchCfg = perStepCfg;
    batchCfg.batchEval = true;

    const RunResult expected =
        runSearch(perStepEnv, *perStepAgent, perStepCfg);
    const RunResult got = runSearch(batchEnv, *batchAgent, batchCfg);

    const std::string what = agentName + "{" + hp.str() + "} seed=" +
                             std::to_string(seed);
    EXPECT_EQ(got.samplesUsed, expected.samplesUsed) << what;
    EXPECT_EQ(got.rewardHistory, expected.rewardHistory) << what;
    EXPECT_EQ(got.bestReward, expected.bestReward) << what;
    EXPECT_EQ(got.bestAction, expected.bestAction) << what;
    ASSERT_EQ(got.trajectory.size(), expected.trajectory.size()) << what;
    for (std::size_t i = 0; i < got.trajectory.size(); ++i) {
        EXPECT_EQ(got.trajectory[i].action,
                  expected.trajectory[i].action)
            << what << " sample " << i;
    }
}

TEST(GeneticAlgorithm, BatchedTrajectoryBitIdenticalToPerStep)
{
    // Vanilla, roulette/one-point, and the GAMMA operators (aging,
    // growth, reorder) — every breeding path must consume the RNG
    // identically under batching. 130 samples truncates the last
    // 20-individual generation; 97 is prime on purpose.
    const std::vector<HyperParams> grids = {
        {},
        {{"population_size", 8}, {"selection", 1}, {"crossover", 1}},
        {{"population_size", 12}, {"max_age", 3}, {"growth_add", 2},
         {"reorder_prob", 0.3}},
        {{"population_size", 20}, {"elite_count", 4}},
    };
    for (const auto &hp : grids) {
        for (const std::uint64_t seed : {1ull, 77ull, 4242ull}) {
            expectBatchedRunMatchesPerStep("GA", hp, seed, 130);
            expectBatchedRunMatchesPerStep("GA", hp, seed, 97);
        }
    }
}

TEST(AntColony, BatchedTrajectoryBitIdenticalToPerStep)
{
    const std::vector<HyperParams> grids = {
        {},
        {{"num_ants", 4}, {"q0", 0.5}, {"evaporation", 0.3}},
        {{"num_ants", 16}, {"elitist", 0}, {"deposit_count", 1}},
    };
    for (const auto &hp : grids) {
        for (const std::uint64_t seed : {2ull, 91ull, 1337ull}) {
            expectBatchedRunMatchesPerStep("ACO", hp, seed, 120);
            expectBatchedRunMatchesPerStep("ACO", hp, seed, 59);
        }
    }
}

TEST(ReinforcementLearning, BatchedTrajectoryBitIdenticalToPerStep)
{
    // The policy is frozen between updates, so draining the remainder
    // of the accumulation batch in one ask must consume the RNG in the
    // per-step order for every batch_size; 52 truncates the final
    // accumulation batch, 31 is prime on purpose.
    const std::vector<HyperParams> grids = {
        {},
        {{"batch_size", 8}, {"entropy_coeff", 0.05}},
        {{"batch_size", 5}, {"hidden_size", 16}},
    };
    for (const auto &hp : grids) {
        for (const std::uint64_t seed : {4ull, 58ull, 2718ull}) {
            expectBatchedRunMatchesPerStep("RL", hp, seed, 52);
            expectBatchedRunMatchesPerStep("RL", hp, seed, 31);
        }
    }
}

TEST(AllAgentsBatch, DefaultBatchInterfaceMatchesPerStepForEveryAgent)
{
    // Non-population agents fall back to batch-of-one proposals; the
    // batched driver loop must still reproduce their runs exactly.
    for (const auto &name : agentNames()) {
        HyperParams hp;
        if (name == "BO")
            hp.set("num_candidates", 16).set("max_history", 32);
        expectBatchedRunMatchesPerStep(name, hp, 7, 40);
    }
}

// --------------------------------------------------------------------
// RandomWalker
// --------------------------------------------------------------------

TEST(RandomWalker, UniformModeCoversSpace)
{
    OneMaxEnv env(3);
    RandomWalkerAgent agent(env.actionSpace(), {}, 2);
    std::set<std::vector<std::size_t>> seen;
    for (int i = 0; i < 400; ++i) {
        const Action a = agent.selectAction();
        seen.insert(env.actionSpace().toLevels(a));
        agent.observe(a, {}, 0.0);
    }
    EXPECT_EQ(seen.size(), 8u);  // all 2^3 points visited
}

TEST(RandomWalker, WalkModeStaysNearIncumbent)
{
    QuadraticEnv env({16.0, 16.0});
    RandomWalkerAgent agent(env.actionSpace(),
                            {{"walk", 1},
                             {"step_size", 0.05},
                             {"restart_prob", 0.0}},
                            3);
    // Give it a strong incumbent at the center.
    agent.observe({16.0, 16.0}, {}, 100.0);
    for (int i = 0; i < 50; ++i) {
        const Action a = agent.selectAction();
        EXPECT_NEAR(a[0], 16.0, 4.0);
        EXPECT_NEAR(a[1], 16.0, 4.0);
        agent.observe(a, {}, 0.0);  // never displaces the incumbent
    }
}

// --------------------------------------------------------------------
// GeneticAlgorithm
// --------------------------------------------------------------------

TEST(GeneticAlgorithm, SolvesOneMax)
{
    OneMaxEnv env(20);
    GeneticAlgorithmAgent agent(env.actionSpace(),
                                {{"population_size", 20},
                                 {"mutation_prob", 0.05}},
                                7);
    const double best = runBest(env, agent, 1500);
    EXPECT_GE(best, 0.95);
}

TEST(GeneticAlgorithm, BeatsRandomOnQuadratic)
{
    QuadraticEnv envGa({7.0, 21.0, 13.0, 3.0});
    QuadraticEnv envRw({7.0, 21.0, 13.0, 3.0});
    GeneticAlgorithmAgent ga(envGa.actionSpace(), {}, 11);
    RandomWalkerAgent rw(envRw.actionSpace(), {}, 11);
    const double gaBest = runBest(envGa, ga, 600);
    const double rwBest = runBest(envRw, rw, 600);
    EXPECT_GT(gaBest, rwBest * 0.8);  // GA should be at least comparable
}

TEST(GeneticAlgorithm, GenerationAdvancesAfterPopulationEvaluated)
{
    OneMaxEnv env(5);
    GeneticAlgorithmAgent agent(env.actionSpace(),
                                {{"population_size", 6}}, 1);
    EXPECT_EQ(agent.generation(), 0u);
    for (int i = 0; i < 6; ++i) {
        const Action a = agent.selectAction();
        agent.observe(a, {}, 0.5);
    }
    agent.selectAction();  // triggers breeding
    EXPECT_EQ(agent.generation(), 1u);
}

TEST(GeneticAlgorithm, GrowthExpandsPopulation)
{
    OneMaxEnv env(5);
    GeneticAlgorithmAgent agent(env.actionSpace(),
                                {{"population_size", 6},
                                 {"growth_add", 3},
                                 {"growth_cap", 12}},
                                2);
    RunConfig cfg;
    cfg.maxSamples = 60;
    runSearch(env, agent, cfg);
    EXPECT_EQ(agent.populationSize(), 12u);  // capped growth
}

TEST(GeneticAlgorithm, AgingStillSolvesOneMax)
{
    OneMaxEnv env(12);
    GeneticAlgorithmAgent agent(env.actionSpace(),
                                {{"population_size", 12},
                                 {"max_age", 4}},
                                3);
    EXPECT_GE(runBest(env, agent, 1200), 0.9);
}

TEST(GeneticAlgorithm, ReorderingPreservesValidity)
{
    OneMaxEnv env(8);
    GeneticAlgorithmAgent agent(env.actionSpace(),
                                {{"reorder_prob", 1.0}}, 4);
    for (int i = 0; i < 200; ++i) {
        const Action a = agent.selectAction();
        ASSERT_TRUE(env.actionSpace().contains(a));
        agent.observe(a, {}, 0.0);
    }
}

// --------------------------------------------------------------------
// AntColony
// --------------------------------------------------------------------

TEST(AntColony, PheromonesConcentrateOnRewardedLevels)
{
    OneMaxEnv env(6);
    AntColonyAgent agent(env.actionSpace(),
                         {{"num_ants", 6}, {"evaporation", 0.2}}, 5);
    RunConfig cfg;
    cfg.maxSamples = 600;
    runSearch(env, agent, cfg);
    // After convergence, the "on" level should hold more pheromone.
    int onStronger = 0;
    for (std::size_t d = 0; d < 6; ++d)
        onStronger += agent.pheromone(d, 1) > agent.pheromone(d, 0);
    EXPECT_GE(onStronger, 5);
}

TEST(AntColony, SolvesOneMax)
{
    OneMaxEnv env(16);
    AntColonyAgent agent(env.actionSpace(), {{"num_ants", 8}}, 6);
    EXPECT_GE(runBest(env, agent, 1200), 0.9);
}

TEST(AntColony, EvaporationBoundsPheromone)
{
    OneMaxEnv env(4);
    AntColonyAgent agent(env.actionSpace(),
                         {{"num_ants", 4},
                          {"evaporation", 0.5},
                          {"deposit", 1.0}},
                         7);
    RunConfig cfg;
    cfg.maxSamples = 400;
    runSearch(env, agent, cfg);
    // With rho=0.5 and bounded deposits, pheromone stays bounded:
    // tau_max <= sum of geometric series = (Q_total per round)/rho.
    for (std::size_t d = 0; d < 4; ++d) {
        for (std::size_t l = 0; l < 2; ++l)
            EXPECT_LT(agent.pheromone(d, l), 50.0);
    }
}

TEST(AntColony, FullExploitationLocksOntoBest)
{
    OneMaxEnv env(4);
    AntColonyAgent agent(env.actionSpace(),
                         {{"num_ants", 4}, {"q0", 1.0}}, 8);
    // Run enough to stamp a trail, then verify proposals repeat.
    RunConfig cfg;
    cfg.maxSamples = 200;
    runSearch(env, agent, cfg);
    const Action a1 = agent.selectAction();
    agent.observe(a1, {}, 0.0);
    const Action a2 = agent.selectAction();
    agent.observe(a2, {}, 0.0);
    EXPECT_EQ(a1, a2);
}

// --------------------------------------------------------------------
// BayesianOpt
// --------------------------------------------------------------------

TEST(GaussianProcessModel, InterpolatesTrainingPoints)
{
    GaussianProcess gp(0.3, 1.0, 1e-6);
    const std::vector<std::vector<double>> xs = {
        {0.1}, {0.4}, {0.7}, {0.95}};
    const std::vector<double> ys = {1.0, 3.0, -1.0, 2.0};
    gp.fit(xs, ys);
    ASSERT_TRUE(gp.fitted());
    for (std::size_t i = 0; i < xs.size(); ++i) {
        double mean, var;
        gp.predict(xs[i], mean, var);
        EXPECT_NEAR(mean, ys[i], 0.05);
    }
}

TEST(GaussianProcessModel, UncertaintyGrowsAwayFromData)
{
    GaussianProcess gp(0.1, 1.0, 1e-6);
    gp.fit({{0.5}}, {1.0});
    double meanNear, varNear, meanFar, varFar;
    gp.predict({0.5}, meanNear, varNear);
    gp.predict({0.0}, meanFar, varFar);
    EXPECT_LT(varNear, varFar);
}

TEST(GaussianProcessModel, Matern52AlsoInterpolates)
{
    GaussianProcess gp(0.3, 1.0, 1e-6, GpKernel::Matern52);
    const std::vector<std::vector<double>> xs = {{0.1}, {0.5}, {0.9}};
    const std::vector<double> ys = {1.0, -2.0, 0.5};
    gp.fit(xs, ys);
    ASSERT_TRUE(gp.fitted());
    for (std::size_t i = 0; i < xs.size(); ++i) {
        double mean, var;
        gp.predict(xs[i], mean, var);
        EXPECT_NEAR(mean, ys[i], 0.05);
    }
}

TEST(GaussianProcessModel, KernelsAgreeAtZeroDistanceOnly)
{
    GaussianProcess se(0.2, 1.0, 1e-6, GpKernel::SquaredExponential);
    GaussianProcess mat(0.2, 1.0, 1e-6, GpKernel::Matern52);
    EXPECT_DOUBLE_EQ(se.kernel({0.3}, {0.3}), mat.kernel({0.3}, {0.3}));
    // Matern-5/2 has heavier tails than SE at moderate distance.
    EXPECT_GT(mat.kernel({0.0}, {0.6}), se.kernel({0.0}, {0.6}));
}

TEST(BayesianOpt, MaternKernelRunsEndToEnd)
{
    QuadraticEnv env({12.0, 4.0});
    BayesianOptAgent agent(env.actionSpace(),
                           {{"kernel", 1},
                            {"num_candidates", 64},
                            {"max_history", 64}},
                           15);
    RunConfig cfg;
    cfg.maxSamples = 120;
    const RunResult r = runSearch(env, agent, cfg);
    EXPECT_GT(r.bestReward, r.rewardHistory.front());
}

TEST(GaussianProcessModel, AppendFitMatchesFullFit)
{
    // The rank-1 incremental path must agree with a from-scratch fit on
    // the same training set, point for point.
    Rng rng(5);
    std::vector<std::vector<double>> xs;
    std::vector<double> ys;
    for (int i = 0; i < 30; ++i) {
        xs.push_back({rng.uniform(), rng.uniform()});
        ys.push_back(rng.uniform(-2.0, 2.0));
    }

    GaussianProcess incremental(0.25, 1.0, 1e-4);
    incremental.appendFit(xs[0], ys[0]);  // bootstraps via full fit
    for (std::size_t i = 1; i < xs.size(); ++i)
        incremental.appendFit(xs[i], ys[i]);
    ASSERT_TRUE(incremental.fitted());
    EXPECT_EQ(incremental.sampleCount(), xs.size());

    GaussianProcess full(0.25, 1.0, 1e-4);
    full.fit(xs, ys);
    ASSERT_TRUE(full.fitted());

    for (int i = 0; i < 50; ++i) {
        const std::vector<double> q = {rng.uniform(), rng.uniform()};
        double m1, v1, m2, v2;
        incremental.predict(q, m1, v1);
        full.predict(q, m2, v2);
        EXPECT_NEAR(m1, m2, 1e-9);
        EXPECT_NEAR(v1, v2, 1e-9);
    }
}

TEST(GaussianProcessModel, UnfittedFallsBackToPrior)
{
    GaussianProcess gp(0.2, 2.0, 1e-4);
    double mean, var;
    gp.predict({0.3}, mean, var);
    EXPECT_DOUBLE_EQ(mean, 0.0);
    EXPECT_DOUBLE_EQ(var, 2.0);
}

TEST(GaussianProcessModel, PrefitVarianceIsConsistentlyScaled)
{
    // Pre-fit contract: whatever state the GP is in before a
    // successful fit, predict reports the standardization-scaled prior
    // — mean yMean(), variance yStd()^2 * signal_var — i.e. the same
    // original-y units as the fitted path.
    GaussianProcess gp(0.2, 2.0, 1e-4);
    // Force an unfitted-with-data state: a non-finite input makes the
    // kernel matrix unfactorable at any jitter, but target
    // standardization still happens.
    const double bad = std::numeric_limits<double>::quiet_NaN();
    gp.fit({{0.1}, {bad}, {0.9}}, {4.0, 6.0, 8.0});
    ASSERT_FALSE(gp.fitted());
    EXPECT_DOUBLE_EQ(gp.yMean(), 6.0);
    double mean, var;
    gp.predict({0.5}, mean, var);
    EXPECT_DOUBLE_EQ(mean, 6.0);
    EXPECT_DOUBLE_EQ(var, gp.yStd() * gp.yStd() * 2.0);

    // predictBatch honours the same fallback.
    std::vector<double> means, vars;
    gp.predictBatch({{0.5}, {0.2}}, means, vars);
    ASSERT_EQ(means.size(), 2u);
    EXPECT_DOUBLE_EQ(means[0], mean);
    EXPECT_DOUBLE_EQ(vars[0], var);
    EXPECT_DOUBLE_EQ(means[1], mean);
    EXPECT_DOUBLE_EQ(vars[1], var);
}

TEST(GaussianProcessModel, DropFitMatchesFullFit)
{
    // Evicting a training row via the rank-1 downdate must agree with
    // a from-scratch fit on the punctured set — first, middle, and
    // last row, applied cumulatively.
    Rng rng(6);
    std::vector<std::vector<double>> xs;
    std::vector<double> ys;
    for (int i = 0; i < 40; ++i) {
        xs.push_back({rng.uniform(), rng.uniform()});
        ys.push_back(rng.uniform(-2.0, 2.0));
    }
    GaussianProcess incremental(0.25, 1.0, 1e-4);
    incremental.fit(xs, ys);
    ASSERT_TRUE(incremental.fitted());

    const auto relNear = [](double a, double b) {
        return std::abs(a - b) <=
               1e-8 * std::max({1.0, std::abs(a), std::abs(b)});
    };
    for (const std::size_t drop :
         {std::size_t{0}, std::size_t{17}, xs.size() - 3}) {
        incremental.dropFit(drop);
        xs.erase(xs.begin() + static_cast<std::ptrdiff_t>(drop));
        ys.erase(ys.begin() + static_cast<std::ptrdiff_t>(drop));
        ASSERT_TRUE(incremental.fitted());
        ASSERT_EQ(incremental.sampleCount(), xs.size());

        GaussianProcess full(0.25, 1.0, 1e-4);
        full.fit(xs, ys);
        ASSERT_TRUE(full.fitted());
        for (int q = 0; q < 30; ++q) {
            const std::vector<double> query = {rng.uniform(),
                                               rng.uniform()};
            double m1, v1, m2, v2;
            incremental.predict(query, m1, v1);
            full.predict(query, m2, v2);
            EXPECT_TRUE(relNear(m1, m2)) << drop << ": " << m1 << " vs "
                                         << m2;
            EXPECT_TRUE(relNear(v1, v2)) << drop << ": " << v1 << " vs "
                                         << v2;
        }
    }
}

TEST(GaussianProcessModel, SlidingWindowDowndateMatchesRefit)
{
    // The BO steady state as a pure GP sequence: append one, evict the
    // oldest — posteriors from the downdate path must track a
    // full-refit reference to <= 1e-8 relative tolerance across the
    // whole stream (this is the downdate-vs-refit oracle the agent
    // fast path rests on).
    const std::size_t window = 40;
    Rng rng(99);
    std::vector<std::vector<double>> xs;
    std::vector<double> ys;
    GaussianProcess incremental(0.3, 1.0, 1e-4);
    incremental.reserveCapacity(window + 1);

    const auto relNear = [](double a, double b) {
        return std::abs(a - b) <=
               1e-8 * std::max({1.0, std::abs(a), std::abs(b)});
    };
    const std::vector<std::vector<double>> queries = {
        {0.1, 0.9}, {0.5, 0.5}, {0.8, 0.2}};
    for (int t = 0; t < 120; ++t) {
        const std::vector<double> x = {rng.uniform(), rng.uniform()};
        const double y = rng.uniform(-2.0, 2.0);
        incremental.appendFit(x, y);
        xs.push_back(x);
        ys.push_back(y);
        if (xs.size() > window) {
            incremental.dropFit(0);
            xs.erase(xs.begin());
            ys.erase(ys.begin());
        }
        if (t % 10 == 9) {
            GaussianProcess reference(0.3, 1.0, 1e-4);
            reference.fit(xs, ys);
            ASSERT_TRUE(reference.fitted());
            for (const auto &q : queries) {
                double m1, v1, m2, v2;
                incremental.predict(q, m1, v1);
                reference.predict(q, m2, v2);
                EXPECT_TRUE(relNear(m1, m2))
                    << t << ": " << m1 << " vs " << m2;
                EXPECT_TRUE(relNear(v1, v2))
                    << t << ": " << v1 << " vs " << v2;
            }
        }
    }
}

/** Bitwise equality of two doubles. EXPECT_DOUBLE_EQ allows 4 ulps,
 *  which would hide a vector lane that is one ulp off its scalar twin. */
::testing::AssertionResult
sameBits(double a, double b)
{
    if (std::bit_cast<std::uint64_t>(a) == std::bit_cast<std::uint64_t>(b))
        return ::testing::AssertionSuccess();
    return ::testing::AssertionFailure()
           << std::setprecision(17) << a << " vs " << b;
}

/** The length scales the BO lottery grid draws. */
const double kLotteryLengthScales[] = {0.05, 0.1, 0.2, 0.4};

/**
 * Queries that reach every corner of the kernel map, 4-d: a training
 * point (squared distance exactly 0), a 1e-9 perturbation of one (the
 * GEMM decomposition cancels to roundoff, clamped at 0), a far point
 * that drives expNeg into its -708 clamp for both kernels at length
 * scale 0.05, random points, and a training point again in the last
 * slot. The count, 33, is not a multiple of 4, so the last query
 * takes the scalar remainder while the edge cases sit in vector
 * lanes.
 */
std::vector<std::vector<double>>
kernelEdgeQueries(const std::vector<std::vector<double>> &train, Rng &rng)
{
    std::vector<double> nudged = train[5];
    nudged[0] += 1e-9;
    std::vector<std::vector<double>> queries = {
        train[3], nudged, {40.0, -40.0, 40.0, -40.0}};
    while (queries.size() < 32) {
        queries.push_back(
            {rng.uniform(), rng.uniform(), rng.uniform(), rng.uniform()});
    }
    queries.push_back(train[11]);
    return queries;
}

TEST(GaussianProcessModel, PredictBatchBitIdenticalToScalarPredict)
{
    // predictBatch promises bitwise equality with per-point predict —
    // batched candidate scoring must not perturb the search
    // trajectory. Run twice to cover the persistent-scratch reuse.
    Rng rng(8);
    std::vector<std::vector<double>> xs;
    std::vector<double> ys;
    for (int i = 0; i < 25; ++i) {
        xs.push_back(
            {rng.uniform(), rng.uniform(), rng.uniform(), rng.uniform()});
        ys.push_back(rng.uniform(-3.0, 3.0));
    }
    for (const GpKernel kernel :
         {GpKernel::SquaredExponential, GpKernel::Matern52}) {
        for (const double lengthScale : kLotteryLengthScales) {
            GaussianProcess gp(lengthScale, 1.5, 1e-4, kernel);
            gp.fit(xs, ys);
            ASSERT_TRUE(gp.fitted());

            const auto queries = kernelEdgeQueries(xs, rng);
            std::vector<double> means, vars;
            for (int pass = 0; pass < 2; ++pass) {
                gp.predictBatch(queries, means, vars);
                ASSERT_EQ(means.size(), queries.size());
                for (std::size_t q = 0; q < queries.size(); ++q) {
                    double mean, var;
                    gp.predict(queries[q], mean, var);
                    const std::string what =
                        "kernel " + std::to_string(int(kernel)) +
                        " l=" + std::to_string(lengthScale) + " query " +
                        std::to_string(q);
                    EXPECT_TRUE(sameBits(means[q], mean)) << what;
                    EXPECT_TRUE(sameBits(vars[q], var)) << what;
                }
            }
            std::vector<double> emptyMeans, emptyVars;
            gp.predictBatch({}, emptyMeans, emptyVars);
            EXPECT_TRUE(emptyMeans.empty());
            EXPECT_TRUE(emptyVars.empty());
        }
    }
}

TEST(BayesianOpt, WarmupIsRandomThenModelBased)
{
    QuadraticEnv env({10.0, 10.0});
    BayesianOptAgent agent(env.actionSpace(),
                           {{"n_init", 5}, {"num_candidates", 32}}, 9);
    for (int i = 0; i < 5; ++i) {
        const Action a = agent.selectAction();
        const auto sr = env.step(a);
        agent.observe(a, sr.observation, sr.reward);
    }
    EXPECT_EQ(agent.historySize(), 5u);
}

TEST(BayesianOpt, FindsQuadraticOptimumRegion)
{
    QuadraticEnv env({20.0, 8.0});
    BayesianOptAgent agent(env.actionSpace(),
                           {{"length_scale", 0.2},
                            {"num_candidates", 128},
                            {"max_history", 100}},
                           10);
    const double best = runBest(env, agent, 150);
    // Reward 1/(1+d^2): within distance ~2 of the optimum.
    EXPECT_GE(best, 0.2);
}

TEST(BayesianOpt, HistoryWindowIsBounded)
{
    QuadraticEnv env({5.0, 5.0});
    BayesianOptAgent agent(env.actionSpace(),
                           {{"max_history", 32},
                            {"num_candidates", 16}},
                           11);
    RunConfig cfg;
    cfg.maxSamples = 120;
    runSearch(env, agent, cfg);
    EXPECT_LE(agent.historySize(), 32u);
}

TEST(BayesianOpt, SteadyStateDowndatePathTracksReferenceImpl)
{
    // Drive the optimized agent and the reference_impl oracle (full GP
    // refit on every history change, scalar per-candidate predicts)
    // through the same windowed search: same seed, same environment.
    // The trajectories must agree sample for sample — the downdate /
    // batched-predict machinery changes the arithmetic path, not the
    // search (any drift here would be a numerics bug far above the
    // 1e-8 GP-posterior tolerance).
    for (const int kernel : {0, 1}) {
        QuadraticEnv optEnv({7.0, 21.0}), refEnv({7.0, 21.0});
        HyperParams opt{{"max_history", 24},
                        {"num_candidates", 32},
                        {"n_init", 6},
                        {"kernel", kernel}};
        HyperParams ref = opt;
        ref.set("reference_impl", 1);
        BayesianOptAgent optAgent(optEnv.actionSpace(), opt, 42);
        BayesianOptAgent refAgent(refEnv.actionSpace(), ref, 42);
        RunConfig cfg;
        cfg.maxSamples = 90;
        const RunResult optRun = runSearch(optEnv, optAgent, cfg);
        const RunResult refRun = runSearch(refEnv, refAgent, cfg);
        ASSERT_EQ(optRun.rewardHistory.size(), refRun.rewardHistory.size());
        for (std::size_t i = 0; i < optRun.rewardHistory.size(); ++i) {
            EXPECT_NEAR(optRun.rewardHistory[i], refRun.rewardHistory[i],
                        1e-7)
                << "kernel " << kernel << " sample " << i;
        }
    }
}

TEST(BayesianOpt, NegativeRewardLandscapeAfterReset)
{
    // Regression for the reset() incumbent: on a strictly negative
    // reward landscape a bestY_ left at 0.0 would poison PI/EI
    // acquisition (every candidate would look like a 0-improvement
    // against a phantom incumbent). With bestY_ re-armed at -inf the
    // post-reset run must reproduce the first run exactly and still
    // improve over its first sample.
    for (const int acquisition : {0, 2}) {  // EI and PI read bestY_
        RastriginEnv env(2);  // rewards <= 0, strictly < 0 off-optimum
        BayesianOptAgent agent(env.actionSpace(),
                               {{"acquisition", acquisition},
                                {"num_candidates", 32},
                                {"max_history", 32},
                                {"n_init", 5}},
                               23);
        RunConfig cfg;
        cfg.maxSamples = 80;
        const RunResult first = runSearch(env, agent, cfg);
        EXPECT_LT(first.rewardHistory.front(), 0.0);  // all-negative
        EXPECT_LE(first.bestReward, 0.0);
        EXPECT_GT(first.bestReward, first.rewardHistory.front());
        agent.reset();
        const RunResult second = runSearch(env, agent, cfg);
        EXPECT_EQ(first.rewardHistory, second.rewardHistory)
            << "acquisition " << acquisition;
    }
}

TEST(BayesianOpt, BatchedTrajectoryBitIdenticalToPerStep)
{
    // Warmup proposals go out as one batch, model-driven proposals as
    // batches of one; either way the trajectory must reproduce the
    // per-step path exactly. 4-sample budgets truncate the warmup
    // batch itself.
    const std::vector<HyperParams> grids = {
        {{"num_candidates", 32}, {"max_history", 32}, {"n_init", 6}},
        {{"acquisition", 1}, {"num_candidates", 32}, {"max_history", 32},
         {"n_init", 10}},
        {{"acquisition", 2}, {"num_candidates", 16}, {"max_history", 24},
         {"kernel", 1}},
    };
    for (const auto &hp : grids) {
        for (const std::uint64_t seed : {3ull, 41ull, 909ull}) {
            expectBatchedRunMatchesPerStep("BO", hp, seed, 60);
            expectBatchedRunMatchesPerStep("BO", hp, seed, 4);
        }
    }
}

TEST(BayesianOpt, OutOfRangeAcquisitionThrows)
{
    // Regression: the old static_cast of the raw int silently produced
    // an agent whose acquisition switch fell through to EI. The
    // constructor must reject out-of-range modes, naming the field and
    // the value.
    QuadraticEnv env({5.0, 5.0});
    for (const int bad : {-1, 5, 9, 42}) {
        try {
            BayesianOptAgent agent(env.actionSpace(),
                                   {{"acquisition", bad}}, 7);
            FAIL() << "acquisition " << bad << " did not throw";
        } catch (const std::runtime_error &e) {
            const std::string what = e.what();
            EXPECT_NE(what.find("'acquisition'"), std::string::npos)
                << what;
            EXPECT_NE(what.find(std::to_string(bad)), std::string::npos)
                << what;
        }
    }
    // The boundary modes construct fine.
    for (const int good : {0, 4}) {
        EXPECT_NO_THROW(BayesianOptAgent(env.actionSpace(),
                                         {{"acquisition", good}}, 7));
    }
}

TEST(BayesianOpt, OutOfRangeGpHyperparametersThrow)
{
    // Regression: an unknown kernel id silently ran SE, and a zero
    // length scale made every kernel diagonal NaN, so each refit
    // failed and the search kept proposing from the prior. Each
    // out-of-domain value must throw, naming the field and the value.
    QuadraticEnv env({5.0, 5.0});
    const double nan = std::numeric_limits<double>::quiet_NaN();
    const double inf = std::numeric_limits<double>::infinity();
    const std::vector<std::pair<std::string, double>> bad = {
        {"kernel", -1},         {"kernel", 2},
        {"length_scale", 0.0},  {"length_scale", -0.2},
        {"length_scale", nan},  {"length_scale", inf},
        {"signal_var", 0.0},    {"signal_var", -1.0},
        {"signal_var", inf},    {"noise_var", -1e-4},
        {"noise_var", nan},     {"noise_var", inf},
    };
    for (const auto &[field, value] : bad) {
        HyperParams hp;
        hp.set(field, value);
        try {
            BayesianOptAgent agent(env.actionSpace(), hp, 7);
            FAIL() << field << "=" << value << " did not throw";
        } catch (const std::runtime_error &e) {
            const std::string what = e.what();
            EXPECT_NE(what.find("'" + field + "' is "), std::string::npos)
                << what;
        }
    }
    try {
        BayesianOptAgent agent(env.actionSpace(), {{"length_scale", 0.0}},
                               7);
        FAIL() << "length_scale=0 did not throw";
    } catch (const std::runtime_error &e) {
        EXPECT_NE(std::string(e.what()).find("is 0, must be finite and > 0"),
                  std::string::npos)
            << e.what();
    }
    // The domain boundaries construct fine.
    for (const HyperParams &good :
         {HyperParams{{"kernel", 0}}, HyperParams{{"kernel", 1}},
          HyperParams{{"noise_var", 0.0}},
          HyperParams{{"length_scale", 1e-9}, {"signal_var", 1e-9}}}) {
        EXPECT_NO_THROW(BayesianOptAgent(env.actionSpace(), good, 7))
            << good.str();
    }
}

TEST(GaussianProcessModel, PosteriorJointMatchesPredictBatch)
{
    // posteriorJoint's means/variances run through the exact code
    // predictBatch runs, so they are bitwise equal; the covariance
    // diagonal agrees with the variances only to solver roundoff, and
    // the matrix itself is symmetric with the cross terms decaying for
    // distant pairs.
    Rng rng(14);
    std::vector<std::vector<double>> xs;
    std::vector<double> ys;
    for (int i = 0; i < 30; ++i) {
        xs.push_back(
            {rng.uniform(), rng.uniform(), rng.uniform(), rng.uniform()});
        ys.push_back(rng.uniform(-2.0, 2.0));
    }
    for (const GpKernel kernel :
         {GpKernel::SquaredExponential, GpKernel::Matern52}) {
        for (const double lengthScale : kLotteryLengthScales) {
            GaussianProcess gp(lengthScale, 1.2, 1e-4, kernel);
            gp.fit(xs, ys);
            ASSERT_TRUE(gp.fitted());

            const auto queries = kernelEdgeQueries(xs, rng);
            std::vector<double> bm, bv, jm, jv;
            gp.predictBatch(queries, bm, bv);
            Matrix cov;
            gp.posteriorJoint(queries, jm, jv, cov);
            ASSERT_EQ(cov.rows(), queries.size());
            ASSERT_EQ(cov.cols(), queries.size());
            const std::string what = "kernel " +
                                     std::to_string(int(kernel)) +
                                     " l=" + std::to_string(lengthScale);
            for (std::size_t q = 0; q < queries.size(); ++q) {
                EXPECT_TRUE(sameBits(jm[q], bm[q]))
                    << what << " query " << q;
                EXPECT_TRUE(sameBits(jv[q], bv[q]))
                    << what << " query " << q;
                EXPECT_NEAR(cov(q, q), bv[q], 1e-8 * (1.0 + bv[q]))
                    << what << " diag " << q;
            }
            for (std::size_t a = 0; a < queries.size(); ++a)
                for (std::size_t b = 0; b < queries.size(); ++b)
                    EXPECT_NEAR(cov(a, b), cov(b, a), 1e-10)
                        << what << " " << a << "," << b;
        }
    }
}

TEST(GaussianProcessModel, PosteriorJointPrefitIsScaledPriorCovariance)
{
    // Before any fit the joint covariance is the standardization-scaled
    // prior kernel block, diagonal equal to the predict() prior
    // variance.
    GaussianProcess gp(0.3, 2.0, 1e-4);
    std::vector<std::vector<double>> queries = {{0.1, 0.4}, {0.9, 0.2}};
    std::vector<double> means, vars;
    Matrix cov;
    gp.posteriorJoint(queries, means, vars, cov);
    for (std::size_t q = 0; q < queries.size(); ++q) {
        double m, v;
        gp.predict(queries[q], m, v);
        EXPECT_DOUBLE_EQ(means[q], m);
        EXPECT_DOUBLE_EQ(cov(q, q), v);
    }
    EXPECT_DOUBLE_EQ(cov(0, 1),
                     gp.kernel(queries[0], queries[1]) * gp.yStd() *
                         gp.yStd());
}

TEST(GaussianProcessModel, SamplePosteriorBatchDeterministicFixedStream)
{
    // Same RNG seed, same draws — and the call consumes exactly
    // num_draws * m gaussians regardless of internal branches, so the
    // agent-side RNG stream stays reproducible.
    Rng rng(3);
    std::vector<std::vector<double>> xs;
    std::vector<double> ys;
    for (int i = 0; i < 20; ++i) {
        xs.push_back({rng.uniform(), rng.uniform()});
        ys.push_back(rng.uniform(-1.0, 1.0));
    }
    GaussianProcess gp(0.3, 1.0, 1e-4);
    gp.fit(xs, ys);
    ASSERT_TRUE(gp.fitted());
    std::vector<std::vector<double>> queries;
    for (int q = 0; q < 9; ++q)
        queries.push_back({rng.uniform(), rng.uniform()});

    const std::size_t numDraws = 4;
    std::vector<double> d1, d2;
    Rng r1(321), r2(321);
    gp.samplePosteriorBatch(queries, numDraws, r1, d1);
    gp.samplePosteriorBatch(queries, numDraws, r2, d2);
    ASSERT_EQ(d1.size(), numDraws * queries.size());
    EXPECT_EQ(d1, d2);

    // Consumption contract: r1 must now be exactly a fresh rng
    // advanced by numDraws * m gaussians.
    Rng expect(321);
    for (std::size_t i = 0; i < numDraws * queries.size(); ++i)
        expect.gaussian(0.0, 1.0);
    EXPECT_DOUBLE_EQ(r1.uniform(), expect.uniform());

    // Draw rows differ from each other and stay near the posterior:
    // at a training point the draws concentrate around its target.
    bool anyDiffer = false;
    for (std::size_t d = 1; d < numDraws && !anyDiffer; ++d)
        for (std::size_t j = 0; j < queries.size(); ++j)
            if (d1[d * queries.size() + j] != d1[j]) {
                anyDiffer = true;
                break;
            }
    EXPECT_TRUE(anyDiffer);
}

TEST(BayesianOpt, BatchEICohortOfOneMatchesScalarEI)
{
    // A one-slot BatchEI cohort scores candidates through
    // posteriorJoint (bitwise predictBatch means/variances) with the
    // same EI formula and the same argmax rule as the scalar mode, and
    // consumes no extra randomness — so the full trajectory must equal
    // scalar EI's bit for bit.
    QuadraticEnv eiEnv({11.0, 6.0}), cohortEnv({11.0, 6.0});
    HyperParams ei{{"num_candidates", 32},
                   {"max_history", 32},
                   {"n_init", 6}};
    HyperParams cohort1 = ei;
    cohort1.set("acquisition", 4).set("cohort", 1);
    BayesianOptAgent eiAgent(eiEnv.actionSpace(), ei, 19);
    BayesianOptAgent cohortAgent(cohortEnv.actionSpace(), cohort1, 19);
    RunConfig cfg;
    cfg.maxSamples = 70;
    cfg.batchEval = true;
    const RunResult a = runSearch(eiEnv, eiAgent, cfg);
    const RunResult b = runSearch(cohortEnv, cohortAgent, cfg);
    EXPECT_EQ(a.rewardHistory, b.rewardHistory);
    EXPECT_EQ(a.bestReward, b.bestReward);
    EXPECT_EQ(a.bestAction, b.bestAction);
}

TEST(BayesianOpt, BatchModesDeterministicAndResettable)
{
    // Same seed, same trajectory — across fresh agents and across
    // reset() — for both batch acquisition modes, per-step and
    // batched.
    for (const int mode : {3, 4}) {
        QuadraticEnv env({8.0, 15.0});
        HyperParams hp{{"acquisition", mode},
                       {"num_candidates", 32},
                       {"max_history", 32},
                       {"cohort", 4},
                       {"n_init", 6}};
        for (const bool batched : {false, true}) {
            RunConfig cfg;
            cfg.maxSamples = 50;
            cfg.batchEval = batched;
            QuadraticEnv e1({8.0, 15.0}), e2({8.0, 15.0});
            BayesianOptAgent a1(e1.actionSpace(), hp, 5);
            BayesianOptAgent a2(e2.actionSpace(), hp, 5);
            const RunResult r1 = runSearch(e1, a1, cfg);
            const RunResult r2 = runSearch(e2, a2, cfg);
            EXPECT_EQ(r1.rewardHistory, r2.rewardHistory)
                << "mode " << mode << " batched " << batched;
            a1.reset();
            QuadraticEnv e3({8.0, 15.0});
            const RunResult r3 = runSearch(e3, a1, cfg);
            EXPECT_EQ(r1.rewardHistory, r3.rewardHistory)
                << "mode " << mode << " batched " << batched
                << " after reset";
        }
    }
}

TEST(BayesianOpt, CohortSizingAndTruncation)
{
    // After warmup a batch-mode agent emits min(cohort, maxActions)
    // distinct proposals per call; a zero budget yields an empty batch.
    for (const int mode : {3, 4}) {
        QuadraticEnv env({5.0, 9.0});
        BayesianOptAgent agent(env.actionSpace(),
                               {{"acquisition", mode},
                                {"num_candidates", 32},
                                {"cohort", 8},
                                {"n_init", 4}},
                               13);
        // Drain warmup.
        for (int i = 0; i < 4; ++i) {
            const Action a = agent.selectAction();
            const auto sr = env.step(a);
            agent.observe(a, sr.observation, sr.reward);
        }
        EXPECT_TRUE(agent.selectActionBatch(0).empty());
        const auto full = agent.selectActionBatch(20);
        EXPECT_EQ(full.size(), 8u) << "mode " << mode;
        std::set<Action> unique(full.begin(), full.end());
        EXPECT_EQ(unique.size(), full.size())
            << "mode " << mode << ": cohort repeated a candidate";
        // Feed the cohort back, then request a truncated one.
        std::vector<StepResult> results;
        for (const Action &a : full)
            results.push_back(env.step(a));
        agent.observeBatch(full, results);
        EXPECT_EQ(agent.selectActionBatch(3).size(), 3u)
            << "mode " << mode;
    }
}

// --------------------------------------------------------------------
// ReinforcementLearning
// --------------------------------------------------------------------

TEST(ReinforcementLearning, PolicyShiftsTowardRewardedActions)
{
    OneMaxEnv env(4);
    ReinforcementLearningAgent agent(env.actionSpace(),
                                     {{"batch_size", 8},
                                      {"learning_rate", 0.05}},
                                     12);
    RunConfig cfg;
    cfg.maxSamples = 1600;
    runSearch(env, agent, cfg);
    EXPECT_GT(agent.updateCount(), 0u);
    const auto dists = agent.actionDistributions();
    // Probability of the rewarded "on" level should dominate.
    int onDominates = 0;
    for (const auto &d : dists)
        onDominates += d[1] > 0.6;
    EXPECT_GE(onDominates, 3);
}

TEST(ReinforcementLearning, UpdatesHappenPerBatch)
{
    OneMaxEnv env(3);
    ReinforcementLearningAgent agent(env.actionSpace(),
                                     {{"batch_size", 10}}, 13);
    for (int i = 0; i < 25; ++i) {
        const Action a = agent.selectAction();
        const auto sr = env.step(a);
        agent.observe(a, sr.observation, sr.reward);
    }
    EXPECT_EQ(agent.updateCount(), 2u);
}

TEST(ReinforcementLearning, EventuallySolvesSmallOneMax)
{
    OneMaxEnv env(6);
    ReinforcementLearningAgent agent(env.actionSpace(),
                                     {{"batch_size", 16},
                                      {"learning_rate", 0.03},
                                      {"entropy_coeff", 0.01}},
                                     14);
    const double best = runBest(env, agent, 3000);
    EXPECT_GE(best, 0.99);
}

// --------------------------------------------------------------------
// SimulatedAnnealing (the §8 "integrate a new algorithm" example)
// --------------------------------------------------------------------

TEST(SimulatedAnnealing, TemperatureCoolsGeometrically)
{
    OneMaxEnv env(5);
    SimulatedAnnealingAgent agent(env.actionSpace(),
                                  {{"initial_temp", 2.0},
                                   {"cooling", 0.9},
                                   {"reheat", 0}},
                                  3);
    EXPECT_DOUBLE_EQ(agent.temperature(), 2.0);
    for (int i = 0; i < 10; ++i) {
        const Action a = agent.selectAction();
        agent.observe(a, {}, 0.0);
    }
    // First observe establishes the incumbent without cooling... the
    // remaining nine each multiply by 0.9.
    EXPECT_NEAR(agent.temperature(), 2.0 * std::pow(0.9, 9), 1e-12);
}

TEST(SimulatedAnnealing, ReheatsAtFloor)
{
    OneMaxEnv env(5);
    SimulatedAnnealingAgent agent(env.actionSpace(),
                                  {{"initial_temp", 1.0},
                                   {"cooling", 0.5},
                                   {"min_temp", 0.1},
                                   {"reheat", 1}},
                                  4);
    double maxTempSeen = 0.0;
    for (int i = 0; i < 30; ++i) {
        const Action a = agent.selectAction();
        agent.observe(a, {}, 0.0);
        EXPECT_GE(agent.temperature(), 0.1);
        maxTempSeen = std::max(maxTempSeen, agent.temperature());
    }
    EXPECT_DOUBLE_EQ(maxTempSeen, 1.0);  // reheated back to the top
}

TEST(SimulatedAnnealing, SolvesOneMax)
{
    OneMaxEnv env(16);
    SimulatedAnnealingAgent agent(env.actionSpace(),
                                  {{"initial_temp", 0.3},
                                   {"cooling", 0.995}},
                                  5);
    EXPECT_GE(runBest(env, agent, 1500), 0.95);
}

TEST(SimulatedAnnealing, GreedyAtZeroTemperatureNeverAcceptsWorse)
{
    QuadraticEnv env({10.0, 10.0});
    SimulatedAnnealingAgent agent(env.actionSpace(),
                                  {{"initial_temp", 1e-9},
                                   {"min_temp", 1e-12},
                                   {"cooling", 0.5},
                                   {"reheat", 0}},
                                  6);
    RunConfig cfg;
    cfg.maxSamples = 300;
    const RunResult r = runSearch(env, agent, cfg);
    // Greedy hill climbing still improves over its first sample.
    EXPECT_GE(r.bestReward, r.rewardHistory.front());
}

// --------------------------------------------------------------------
// Registry
// --------------------------------------------------------------------

TEST(Registry, SimulatedAnnealingIsRegisteredAsExtension)
{
    OneMaxEnv env(3);
    auto agent = makeAgent("SA", env.actionSpace(), {}, 1);
    EXPECT_EQ(agent->name(), "SA");
    EXPECT_GE(defaultHyperGrid("SA").gridSize(), 9u);
    // But SA stays out of the paper-reproduction roster.
    for (const auto &name : agentNames())
        EXPECT_NE(name, "SA");
}

TEST(Registry, AllNamesConstruct)
{
    OneMaxEnv env(3);
    for (const auto &name : agentNames()) {
        auto agent = makeAgent(name, env.actionSpace(), {}, 1);
        EXPECT_EQ(agent->name(), name);
    }
}

TEST(Registry, UnknownNameThrows)
{
    OneMaxEnv env(3);
    EXPECT_THROW(makeAgent("nope", env.actionSpace(), {}, 1),
                 std::invalid_argument);
}

TEST(Registry, DefaultGridsAreNonTrivial)
{
    for (const auto &name : agentNames()) {
        const HyperGrid grid = defaultHyperGrid(name);
        EXPECT_GE(grid.gridSize(), 9u) << name;
    }
    EXPECT_THROW(defaultHyperGrid("nope"), std::invalid_argument);
}

} // namespace
} // namespace archgym
