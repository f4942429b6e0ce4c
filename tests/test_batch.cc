/**
 * @file
 * Equivalence suite for the vectorized batch-evaluation subsystem.
 *
 * The Environment::stepBatch contract demands results bit-identical to
 * sequential step() calls at any worker count; this file enforces it on
 * all four gym families with randomized action batches at 1 / 2 / 8
 * logical workers, covers the edge cases (empty batch, batch of one,
 * batch larger than the pool), checks sample accounting, exercises the
 * serial default for environments without an override, verifies the
 * nested-invocation fallback (stepBatch called from inside a pool
 * task), and closes the loop with an end-to-end batched-vs-per-step GA
 * search on a real environment.
 */

#include <gtest/gtest.h>

#include <atomic>
#include <functional>
#include <memory>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "agents/genetic_algorithm.h"
#include "agents/registry.h"
#include "core/driver.h"
#include "core/toy_envs.h"
#include "core/worker_pool.h"
#include "envs/dram_gym_env.h"
#include "envs/farsi_gym_env.h"
#include "envs/maestro_gym_env.h"
#include "envs/timeloop_gym_env.h"
#include "mathutil/rng.h"

namespace archgym {
namespace {

using EnvMaker = std::function<std::unique_ptr<Environment>()>;

struct BatchEnvCase
{
    std::string name;
    EnvMaker make;
};

void
PrintTo(const BatchEnvCase &c, std::ostream *os)
{
    *os << c.name;
}

std::vector<BatchEnvCase>
batchEnvCases()
{
    return {
        {"DRAMGym",
         [] {
             DramGymEnv::Options o;
             o.traceLength = 96;  // keep the simulator fast
             return std::unique_ptr<Environment>(
                 std::make_unique<DramGymEnv>(o));
         }},
        {"FARSIGym",
         [] {
             return std::unique_ptr<Environment>(
                 std::make_unique<FarsiGymEnv>());
         }},
        {"TimeloopGym",
         [] {
             TimeloopGymEnv::Options o;
             o.network = timeloop::resNet18();
             o.network.layers.resize(4);  // trim for speed
             return std::unique_ptr<Environment>(
                 std::make_unique<TimeloopGymEnv>(o));
         }},
        {"MaestroGym",
         [] {
             MaestroGymEnv::Options o;
             o.network.layers.resize(2);
             return std::unique_ptr<Environment>(
                 std::make_unique<MaestroGymEnv>(o));
         }},
    };
}

std::vector<Action>
randomBatch(const Environment &env, std::size_t n, Rng &rng)
{
    std::vector<Action> actions;
    actions.reserve(n);
    for (std::size_t i = 0; i < n; ++i)
        actions.push_back(env.actionSpace().sample(rng));
    return actions;
}

void
expectSameResult(const StepResult &a, const StepResult &b,
                 const std::string &what)
{
    // Exact (bit-level) comparisons: the batched path must not
    // reassociate, reorder, or otherwise perturb the arithmetic.
    EXPECT_EQ(a.observation, b.observation) << what;
    EXPECT_EQ(a.reward, b.reward) << what;
    EXPECT_EQ(a.done, b.done) << what;
}

class BatchEquivalence : public ::testing::TestWithParam<BatchEnvCase>
{
};

TEST_P(BatchEquivalence, BitIdenticalToSerialAtAnyWorkerCount)
{
    // Reference results from the per-step path on a fresh instance.
    auto serialEnv = GetParam().make();
    Rng rng(2024);
    // A batch larger than any pool this test will meet plus odd sizes.
    const std::vector<std::size_t> sizes = {5, 17};
    for (const std::size_t size : sizes) {
        const std::vector<Action> actions =
            randomBatch(*serialEnv, size, rng);
        std::vector<StepResult> expected;
        expected.reserve(actions.size());
        for (const Action &a : actions)
            expected.push_back(serialEnv->step(a));

        for (const std::size_t workers : {1u, 2u, 8u}) {
            auto env = GetParam().make();
            env->setBatchWorkers(workers);
            const std::vector<StepResult> got = env->stepBatch(actions);
            ASSERT_EQ(got.size(), actions.size());
            for (std::size_t i = 0; i < got.size(); ++i) {
                expectSameResult(got[i], expected[i],
                                 GetParam().name + " workers=" +
                                     std::to_string(workers) + " i=" +
                                     std::to_string(i));
            }
            EXPECT_EQ(env->sampleCount(), actions.size())
                << GetParam().name;
        }
    }
}

TEST_P(BatchEquivalence, EmptyBatchIsANoOp)
{
    auto env = GetParam().make();
    const std::vector<StepResult> got = env->stepBatch({});
    EXPECT_TRUE(got.empty());
    EXPECT_EQ(env->sampleCount(), 0u);
}

TEST_P(BatchEquivalence, BatchOfOneMatchesStep)
{
    auto serialEnv = GetParam().make();
    auto env = GetParam().make();
    env->setBatchWorkers(8);
    Rng rng(7);
    const Action a = serialEnv->actionSpace().sample(rng);
    const StepResult expected = serialEnv->step(a);
    const std::vector<StepResult> got = env->stepBatch({a});
    ASSERT_EQ(got.size(), 1u);
    expectSameResult(got[0], expected, GetParam().name);
    EXPECT_EQ(env->sampleCount(), 1u);
}

TEST_P(BatchEquivalence, BatchLargerThanPoolMultiplexes)
{
    // More items (and more requested slots) than the shared pool has
    // threads: slots multiplex, results must not care.
    auto serialEnv = GetParam().make();
    auto env = GetParam().make();
    const std::size_t poolSize = WorkerPool::shared().size();
    env->setBatchWorkers(poolSize + 3);
    Rng rng(99);
    const std::vector<Action> actions =
        randomBatch(*serialEnv, 2 * poolSize + 5, rng);
    const std::vector<StepResult> got = env->stepBatch(actions);
    ASSERT_EQ(got.size(), actions.size());
    for (std::size_t i = 0; i < actions.size(); ++i) {
        expectSameResult(got[i], serialEnv->step(actions[i]),
                         GetParam().name + " i=" + std::to_string(i));
    }
}

TEST_P(BatchEquivalence, RepeatedBatchesReuseWarmSlotState)
{
    // Slot-local simulators/scratch persist across batches; a second
    // batch over the same actions must reproduce the first exactly.
    auto env = GetParam().make();
    env->setBatchWorkers(2);
    Rng rng(3);
    const std::vector<Action> actions = randomBatch(*env, 6, rng);
    const std::vector<StepResult> first = env->stepBatch(actions);
    const std::vector<StepResult> second = env->stepBatch(actions);
    ASSERT_EQ(first.size(), second.size());
    for (std::size_t i = 0; i < first.size(); ++i)
        expectSameResult(second[i], first[i], GetParam().name);
    EXPECT_EQ(env->sampleCount(), 2 * actions.size());
}

TEST_P(BatchEquivalence, NestedInvocationFallsBackToSerial)
{
    // stepBatch from inside a pool task (the runSweepParallel
    // situation) must not deadlock on nested parallelFor, and must
    // still produce the contract results.
    auto serialEnv = GetParam().make();
    auto env = GetParam().make();
    Rng rng(17);
    const std::vector<Action> actions = randomBatch(*env, 4, rng);
    std::vector<StepResult> expected;
    for (const Action &a : actions)
        expected.push_back(serialEnv->step(a));

    std::vector<StepResult> got;
    std::atomic<int> arrived{0};
    WorkerPool::shared().parallelFor(
        2,
        [&](std::size_t, std::size_t) {
            // Rendezvous: the caller participates in parallelFor as
            // slot 0, so a single-index loop would run inline on the
            // test thread. Forcing both executors into the loop
            // guarantees exactly one body sits on a genuine pool
            // thread — that one performs the nested batch.
            arrived.fetch_add(1);
            while (arrived.load() < 2)
                std::this_thread::yield();
            if (!WorkerPool::onWorkerThread())
                return;
            got = env->stepBatch(actions);
        },
        /*slots=*/2, /*chunk=*/1);
    ASSERT_EQ(got.size(), expected.size());
    for (std::size_t i = 0; i < got.size(); ++i)
        expectSameResult(got[i], expected[i], GetParam().name);
    EXPECT_EQ(env->sampleCount(), actions.size());
}

INSTANTIATE_TEST_SUITE_P(
    AllFamilies, BatchEquivalence, ::testing::ValuesIn(batchEnvCases()),
    [](const ::testing::TestParamInfo<BatchEnvCase> &info) {
        return info.param.name;
    });

// --------------------------------------------------------------------
// Serial default for environments without an override
// --------------------------------------------------------------------

TEST(BatchDefault, ToyEnvUsesSerialFallback)
{
    OneMaxEnv serial(8), batched(8);
    batched.setBatchWorkers(8);  // ignored by the default implementation
    Rng rng(5);
    const std::vector<Action> actions = randomBatch(serial, 7, rng);
    const std::vector<StepResult> got = batched.stepBatch(actions);
    ASSERT_EQ(got.size(), actions.size());
    for (std::size_t i = 0; i < actions.size(); ++i) {
        const StepResult expected = serial.step(actions[i]);
        EXPECT_EQ(got[i].observation, expected.observation);
        EXPECT_EQ(got[i].reward, expected.reward);
    }
    EXPECT_EQ(batched.sampleCount(), actions.size());
}

// --------------------------------------------------------------------
// End-to-end: batched search through the driver on a real environment
// --------------------------------------------------------------------

TEST(BatchDriver, GaSearchOnDramGymBitIdenticalToPerStep)
{
    DramGymEnv::Options o;
    o.traceLength = 96;
    const HyperParams hp{{"population_size", 10}, {"elite_count", 2}};

    RunConfig perStepCfg;
    perStepCfg.maxSamples = 65;  // not a multiple of the population
    perStepCfg.logTrajectory = true;
    RunConfig batchCfg = perStepCfg;
    batchCfg.batchEval = true;

    DramGymEnv perStepEnv(o);
    GeneticAlgorithmAgent perStepAgent(perStepEnv.actionSpace(), hp, 91);
    const RunResult expected =
        runSearch(perStepEnv, perStepAgent, perStepCfg);

    for (const std::size_t workers : {1u, 2u, 8u}) {
        DramGymEnv env(o);
        env.setBatchWorkers(workers);
        GeneticAlgorithmAgent agent(env.actionSpace(), hp, 91);
        const RunResult got = runSearch(env, agent, batchCfg);
        EXPECT_EQ(got.samplesUsed, expected.samplesUsed);
        EXPECT_EQ(got.rewardHistory, expected.rewardHistory);
        EXPECT_EQ(got.bestReward, expected.bestReward);
        EXPECT_EQ(got.bestAction, expected.bestAction);
        EXPECT_EQ(got.bestSampleIndex, expected.bestSampleIndex);
        ASSERT_EQ(got.trajectory.size(), expected.trajectory.size());
        for (std::size_t i = 0; i < got.trajectory.size(); ++i) {
            EXPECT_EQ(got.trajectory[i].action,
                      expected.trajectory[i].action)
                << "workers=" << workers << " i=" << i;
        }
    }
}

TEST(BatchDriver, BoAndRlSearchOnFarsiGymBitIdenticalToPerStep)
{
    // BO (warmup batched, then model-driven batches of one) and RL
    // (accumulation-batch draining) on the batchEval path: the
    // recorded trajectory must reproduce the per-step run exactly at
    // every worker count, budget chosen to truncate the final batch.
    struct AgentUnderTest
    {
        std::string name;
        HyperParams hp;
        std::size_t maxSamples;
    };
    const std::vector<AgentUnderTest> cases = {
        {"BO",
         {{"num_candidates", 32}, {"max_history", 32}, {"n_init", 6}},
         45},
        {"RL", {{"batch_size", 8}}, 43},
    };
    for (const auto &c : cases) {
        FarsiGymEnv perStepEnv;
        auto perStepAgent =
            makeAgent(c.name, perStepEnv.actionSpace(), c.hp, 37);
        RunConfig perStepCfg;
        perStepCfg.maxSamples = c.maxSamples;
        perStepCfg.logTrajectory = true;
        const RunResult expected =
            runSearch(perStepEnv, *perStepAgent, perStepCfg);

        RunConfig batchCfg = perStepCfg;
        batchCfg.batchEval = true;
        for (const std::size_t workers : {1u, 2u, 8u}) {
            FarsiGymEnv env;
            env.setBatchWorkers(workers);
            auto agent = makeAgent(c.name, env.actionSpace(), c.hp, 37);
            const RunResult got = runSearch(env, *agent, batchCfg);
            const std::string what =
                c.name + " workers=" + std::to_string(workers);
            EXPECT_EQ(got.samplesUsed, expected.samplesUsed) << what;
            EXPECT_EQ(got.rewardHistory, expected.rewardHistory) << what;
            EXPECT_EQ(got.bestReward, expected.bestReward) << what;
            EXPECT_EQ(got.bestAction, expected.bestAction) << what;
            ASSERT_EQ(got.trajectory.size(), expected.trajectory.size())
                << what;
            for (std::size_t i = 0; i < got.trajectory.size(); ++i) {
                EXPECT_EQ(got.trajectory[i].action,
                          expected.trajectory[i].action)
                    << what << " i=" << i;
            }
        }
    }
}

TEST(BatchDriver, BoCohortSearchBitIdenticalAcrossWorkerCounts)
{
    // The batch acquisition modes (ThompsonBatch / BatchEI) emit whole
    // cohorts through selectActionBatch, fanned out over stepBatch.
    // Worker count must not leak into the search: the trajectory at 2
    // and 8 workers must reproduce the 1-worker run bit for bit. The
    // budget leaves a truncated final cohort (warmup 6, then cohorts
    // of 8 with 47-6=41 model-driven samples = 5 cohorts + 1). Both
    // GP kernels run, each through its own vector kernel map.
    for (const auto &[mode, kernel] :
         {std::pair{3, 0}, std::pair{3, 1}, std::pair{4, 0},
          std::pair{4, 1}}) {
        const HyperParams hp{{"acquisition", mode},
                             {"kernel", kernel},
                             {"num_candidates", 32},
                             {"max_history", 32},
                             {"cohort", 8},
                             {"n_init", 6}};
        RunConfig cfg;
        cfg.maxSamples = 47;
        cfg.batchEval = true;
        cfg.logTrajectory = true;

        FarsiGymEnv refEnv;
        refEnv.setBatchWorkers(1);
        auto refAgent = makeAgent("BO", refEnv.actionSpace(), hp, 71);
        const RunResult expected = runSearch(refEnv, *refAgent, cfg);
        EXPECT_EQ(expected.samplesUsed, 47u);

        for (const std::size_t workers : {2u, 8u}) {
            FarsiGymEnv env;
            env.setBatchWorkers(workers);
            auto agent = makeAgent("BO", env.actionSpace(), hp, 71);
            const RunResult got = runSearch(env, *agent, cfg);
            const std::string what = "mode=" + std::to_string(mode) +
                                     " kernel=" + std::to_string(kernel) +
                                     " workers=" +
                                     std::to_string(workers);
            EXPECT_EQ(got.samplesUsed, expected.samplesUsed) << what;
            EXPECT_EQ(got.rewardHistory, expected.rewardHistory) << what;
            EXPECT_EQ(got.bestReward, expected.bestReward) << what;
            EXPECT_EQ(got.bestAction, expected.bestAction) << what;
            ASSERT_EQ(got.trajectory.size(), expected.trajectory.size())
                << what;
            for (std::size_t i = 0; i < got.trajectory.size(); ++i) {
                EXPECT_EQ(got.trajectory[i].action,
                          expected.trajectory[i].action)
                    << what << " i=" << i;
            }
        }
    }
}

TEST(BatchDriver, BatchedSweepInsidePoolMatchesSerialSweep)
{
    // batchEval under runSweepParallel: stepBatch degrades to serial on
    // the pool workers, and sweep results stay bit-identical to the
    // plain serial sweep.
    const auto builder = [](const ParamSpace &space, const HyperParams &hp,
                            std::uint64_t seed) {
        return std::unique_ptr<Agent>(
            std::make_unique<GeneticAlgorithmAgent>(space, hp, seed));
    };
    std::vector<HyperParams> configs = {
        HyperParams{{"population_size", 6}},
        HyperParams{{"population_size", 8}, {"elite_count", 2}},
        HyperParams{{"population_size", 5}, {"selection", 1}},
    };
    RunConfig cfg;
    cfg.maxSamples = 30;
    cfg.batchEval = true;

    FarsiGymEnv serialEnv;
    RunConfig serialCfg = cfg;
    serialCfg.batchEval = false;
    const SweepResult expected =
        runSweep(serialEnv, "GA", builder, configs, serialCfg, 3);

    const SweepResult got = runSweepParallel(
        [] {
            return std::unique_ptr<Environment>(
                std::make_unique<FarsiGymEnv>());
        },
        "GA", builder, configs, cfg, 3, 2);
    ASSERT_EQ(got.bestRewards.size(), expected.bestRewards.size());
    for (std::size_t i = 0; i < got.bestRewards.size(); ++i) {
        EXPECT_EQ(got.bestRewards[i], expected.bestRewards[i]) << i;
        EXPECT_EQ(got.runs[i].rewardHistory,
                  expected.runs[i].rewardHistory)
            << i;
    }
}

} // namespace
} // namespace archgym
