/**
 * @file
 * Unit tests for the core framework: parameter spaces, objectives,
 * hyperparameter grids, trajectory/dataset infrastructure, toy
 * environments, and the experiment driver.
 */

#include <gtest/gtest.h>

#include <bit>
#include <cerrno>
#include <cmath>
#include <filesystem>
#include <fstream>
#include <iterator>
#include <limits>
#include <mutex>
#include <numeric>
#include <set>
#include <sstream>
#include <stdexcept>
#include <system_error>
#include <thread>

#include <unistd.h>

#include "core/driver.h"
#include "core/fsio.h"
#include "core/hyperparams.h"
#include "core/jsonio.h"
#include "core/objective.h"
#include "core/param_space.h"
#include "core/toy_envs.h"
#include "core/trajectory.h"
#include "core/worker_pool.h"
#include "envs/dram_gym_env.h"
#include "envs/farsi_gym_env.h"

namespace archgym {
namespace {

ParamSpace
makeMixedSpace()
{
    ParamSpace space;
    space.add(ParamDesc::categorical("policy", {"Open", "Closed", "Auto"}))
        .add(ParamDesc::integer("bufsize", 1, 8))
        .add(ParamDesc::real("scale", 0.0, 1.0, 0.25))
        .add(ParamDesc::powerOfTwo("pes", 4, 64));
    return space;
}

// --------------------------------------------------------------------
// ParamDesc / ParamSpace
// --------------------------------------------------------------------

TEST(ParamDesc, CategoricalLevels)
{
    const auto d = ParamDesc::categorical("p", {"a", "b", "c"});
    EXPECT_EQ(d.levels(), 3u);
    EXPECT_DOUBLE_EQ(d.levelToValue(1), 1.0);
    EXPECT_EQ(d.valueToLevel(2.2), 2u);
    EXPECT_EQ(d.valueName(1.0), "b");
}

TEST(ParamDesc, IntegerGrid)
{
    const auto d = ParamDesc::integer("n", 2, 10, 2);
    EXPECT_EQ(d.levels(), 5u);
    EXPECT_DOUBLE_EQ(d.levelToValue(0), 2.0);
    EXPECT_DOUBLE_EQ(d.levelToValue(4), 10.0);
    EXPECT_EQ(d.valueToLevel(6.9), 2u);  // nearest grid point is 6
    EXPECT_EQ(d.valueName(6.0), "6");
}

TEST(ParamDesc, RealGrid)
{
    const auto d = ParamDesc::real("x", 0.0, 1.0, 0.25);
    EXPECT_EQ(d.levels(), 5u);
    EXPECT_DOUBLE_EQ(d.levelToValue(3), 0.75);
    EXPECT_EQ(d.valueToLevel(0.6), 2u);  // 0.5 is nearest
}

TEST(ParamDesc, RealGridNeverExceedsBounds)
{
    // Regression: min + level * step drifts above max in floating point
    // (0.4 + 8 * 0.2 = 2.0000000000000004) — grid values must be
    // clamped to [min, max].
    const auto freq = ParamDesc::real("FrequencyGhz", 0.4, 2.0, 0.2);
    ASSERT_EQ(freq.levels(), 9u);
    for (std::size_t l = 0; l < freq.levels(); ++l) {
        const double v = freq.levelToValue(l);
        EXPECT_GE(v, 0.4) << "level " << l;
        EXPECT_LE(v, 2.0) << "level " << l;
    }
    EXPECT_DOUBLE_EQ(freq.levelToValue(freq.levels() - 1), 2.0);

    // Step-0.1 grids hit the same accumulation drift.
    const auto tenth = ParamDesc::real("x", 0.1, 1.3, 0.1);
    for (std::size_t l = 0; l < tenth.levels(); ++l) {
        const double v = tenth.levelToValue(l);
        EXPECT_GE(v, 0.1) << "level " << l;
        EXPECT_LE(v, 1.3) << "level " << l;
    }
    EXPECT_DOUBLE_EQ(tenth.levelToValue(tenth.levels() - 1), 1.3);

    // Clamping keeps the level <-> value round trip intact.
    for (std::size_t l = 0; l < freq.levels(); ++l)
        EXPECT_EQ(freq.valueToLevel(freq.levelToValue(l)), l);
}

TEST(ParamDesc, PowerOfTwoGrid)
{
    const auto d = ParamDesc::powerOfTwo("pes", 4, 64);
    EXPECT_EQ(d.levels(), 5u);  // 4 8 16 32 64
    EXPECT_DOUBLE_EQ(d.levelToValue(0), 4.0);
    EXPECT_DOUBLE_EQ(d.levelToValue(4), 64.0);
    EXPECT_EQ(d.valueToLevel(20.0), 2u);  // nearest is 16
}

TEST(ParamDesc, UnitMappingRoundTrips)
{
    const auto d = ParamDesc::integer("n", 0, 9);
    for (std::size_t l = 0; l < d.levels(); ++l)
        EXPECT_EQ(d.unitToLevel(d.levelToUnit(l)), l);
    EXPECT_EQ(d.unitToLevel(0.0), 0u);
    EXPECT_EQ(d.unitToLevel(1.0), 9u);
    EXPECT_EQ(d.unitToLevel(-3.0), 0u);   // clamped
    EXPECT_EQ(d.unitToLevel(7.0), 9u);    // clamped
}

TEST(ParamSpace, CardinalityIsProduct)
{
    const auto space = makeMixedSpace();
    EXPECT_DOUBLE_EQ(space.cardinality(), 3.0 * 8.0 * 5.0 * 5.0);
}

TEST(ParamSpace, SampleIsAlwaysContained)
{
    const auto space = makeMixedSpace();
    Rng rng(5);
    for (int i = 0; i < 200; ++i)
        EXPECT_TRUE(space.contains(space.sample(rng)));
}

TEST(ParamSpace, LevelRoundTrip)
{
    const auto space = makeMixedSpace();
    Rng rng(6);
    for (int i = 0; i < 100; ++i) {
        const Action a = space.sample(rng);
        EXPECT_EQ(space.fromLevels(space.toLevels(a)), a);
    }
}

TEST(ParamSpace, UnitRoundTrip)
{
    const auto space = makeMixedSpace();
    Rng rng(7);
    for (int i = 0; i < 100; ++i) {
        const Action a = space.sample(rng);
        EXPECT_EQ(space.fromUnit(space.toUnit(a)), a);
    }
}

TEST(ParamSpace, QuantizeSnapsOffGridValues)
{
    const auto space = makeMixedSpace();
    const Action raw = {1.4, 3.7, 0.6, 20.0};
    const Action snapped = space.quantize(raw);
    EXPECT_TRUE(space.contains(snapped));
    EXPECT_DOUBLE_EQ(snapped[0], 1.0);
    EXPECT_DOUBLE_EQ(snapped[1], 4.0);
    EXPECT_DOUBLE_EQ(snapped[2], 0.5);
    EXPECT_DOUBLE_EQ(snapped[3], 16.0);
}

TEST(ParamSpace, IndexOfAndDescribe)
{
    const auto space = makeMixedSpace();
    EXPECT_EQ(space.indexOf("scale"), 2u);
    EXPECT_THROW(space.indexOf("nope"), std::out_of_range);
    const Action a = {0.0, 3.0, 0.5, 8.0};
    const std::string desc = space.describe(a);
    EXPECT_NE(desc.find("policy=Open"), std::string::npos);
    EXPECT_NE(desc.find("bufsize=3"), std::string::npos);
    EXPECT_NE(desc.find("pes=8"), std::string::npos);
}

TEST(ParamSpace, HeaderCsv)
{
    const auto space = makeMixedSpace();
    EXPECT_EQ(space.headerCsv(), "policy,bufsize,scale,pes");
}

// --------------------------------------------------------------------
// Objectives (Table 3)
// --------------------------------------------------------------------

TEST(TargetObjective, RewardGrowsAsTargetApproached)
{
    TargetObjective obj({TargetTerm{0, 10.0, 1.0, "lat"}});
    EXPECT_LT(obj.reward({30.0}), obj.reward({15.0}));
    EXPECT_LT(obj.reward({15.0}), obj.reward({11.0}));
    // Exact formula: target / |target - obs|.
    EXPECT_DOUBLE_EQ(obj.reward({15.0}), 10.0 / 5.0);
}

TEST(TargetObjective, RewardCappedAtExactTarget)
{
    TargetObjective obj({TargetTerm{0, 10.0, 1.0, "lat"}}, 1e6);
    EXPECT_DOUBLE_EQ(obj.reward({10.0}), 1e6);
    EXPECT_TRUE(std::isfinite(obj.reward({10.0})));
}

TEST(TargetObjective, JointObjectiveAveragesTerms)
{
    TargetObjective obj({TargetTerm{0, 10.0, 1.0, "lat"},
                         TargetTerm{1, 2.0, 1.0, "pow"}});
    // lat term: 10/10 = 1; pow term: 2/2 = 1 -> mean 1.
    EXPECT_DOUBLE_EQ(obj.reward({20.0, 4.0}), 1.0);
}

TEST(TargetObjective, WeightsBiasTheMean)
{
    TargetObjective obj({TargetTerm{0, 10.0, 3.0, "lat"},
                         TargetTerm{1, 2.0, 1.0, "pow"}});
    // lat reward 1 (w 3), pow reward 2 (w 1) -> (3*1 + 1*2)/4.
    EXPECT_DOUBLE_EQ(obj.reward({20.0, 3.0}), 1.25);
}

TEST(TargetObjective, SatisfiedWithinTolerance)
{
    TargetObjective obj({TargetTerm{0, 100.0, 1.0, "lat"}}, 1e6, 0.05);
    EXPECT_TRUE(obj.satisfied({102.0}));
    EXPECT_FALSE(obj.satisfied({110.0}));
}

TEST(BudgetDistanceObjective, UnderBudgetIsZeroDistance)
{
    BudgetDistanceObjective obj({BudgetTerm{0, 10.0, 1.0, "power"},
                                 BudgetTerm{1, 5.0, 1.0, "area"}});
    EXPECT_DOUBLE_EQ(obj.distance({8.0, 4.0}), 0.0);
    EXPECT_DOUBLE_EQ(obj.reward({8.0, 4.0}), 0.0);
    EXPECT_TRUE(obj.satisfied({8.0, 4.0}));
}

TEST(BudgetDistanceObjective, OvershootAccumulates)
{
    BudgetDistanceObjective obj({BudgetTerm{0, 10.0, 1.0, "power"},
                                 BudgetTerm{1, 5.0, 2.0, "area"}});
    // power over by 50% (alpha 1) + area over by 100% (alpha 2).
    EXPECT_DOUBLE_EQ(obj.distance({15.0, 10.0}), 0.5 + 2.0);
    EXPECT_DOUBLE_EQ(obj.reward({15.0, 10.0}), -2.5);
    EXPECT_FALSE(obj.satisfied({15.0, 10.0}));
}

TEST(InverseObjective, ReciprocalOfMetric)
{
    InverseObjective obj(1, "runtime");
    EXPECT_DOUBLE_EQ(obj.reward({9.0, 4.0}), 0.25);
    EXPECT_DOUBLE_EQ(obj.reward({9.0, 0.0}), 0.0);  // guarded
}

// --------------------------------------------------------------------
// HyperParams / HyperGrid
// --------------------------------------------------------------------

TEST(HyperParams, GetWithFallback)
{
    HyperParams hp{{"lr", 0.1}};
    EXPECT_DOUBLE_EQ(hp.get("lr", 0.5), 0.1);
    EXPECT_DOUBLE_EQ(hp.get("missing", 0.5), 0.5);
    EXPECT_EQ(hp.getInt("lr", 7), 0);
    EXPECT_EQ(hp.getInt("missing", 7), 7);
    EXPECT_TRUE(hp.has("lr"));
    EXPECT_FALSE(hp.has("missing"));
}

TEST(HyperParams, StrRendering)
{
    HyperParams hp{{"a", 1.0}, {"b", 2.5}};
    EXPECT_EQ(hp.str(), "a=1,b=2.5");
}

TEST(HyperGrid, EnumerateFullProduct)
{
    HyperGrid grid;
    grid.add("a", {1, 2, 3}).add("b", {10, 20});
    EXPECT_EQ(grid.gridSize(), 6u);
    const auto configs = grid.enumerate();
    ASSERT_EQ(configs.size(), 6u);
    std::set<std::pair<double, double>> seen;
    for (const auto &hp : configs)
        seen.emplace(hp.get("a", -1), hp.get("b", -1));
    EXPECT_EQ(seen.size(), 6u);
}

TEST(HyperGrid, RandomSampleDrawsFromAxes)
{
    HyperGrid grid;
    grid.add("a", {1, 2}).add("b", {5});
    Rng rng(3);
    const auto configs = grid.randomSample(20, rng);
    ASSERT_EQ(configs.size(), 20u);
    for (const auto &hp : configs) {
        const double a = hp.get("a", -1);
        EXPECT_TRUE(a == 1.0 || a == 2.0);
        EXPECT_DOUBLE_EQ(hp.get("b", -1), 5.0);
    }
}

// --------------------------------------------------------------------
// Trajectory / Dataset
// --------------------------------------------------------------------

TEST(TrajectoryLog, CsvRoundTrip)
{
    ParamSpace space;
    space.add(ParamDesc::integer("x", 0, 7))
        .add(ParamDesc::integer("y", 0, 7));
    TrajectoryLog log("ToyEnv", "GA", "pop=4");
    log.append(Transition{{1.0, 2.0}, {10.0, 0.5, 3.0}, 0.9});
    log.append(Transition{{3.0, 4.0}, {20.0, 0.7, 6.0}, 0.4});

    std::stringstream ss;
    log.writeCsv(ss, space, {"lat", "pow", "en"});
    const TrajectoryLog back = TrajectoryLog::readCsv(ss);
    EXPECT_EQ(back.envName(), "ToyEnv");
    EXPECT_EQ(back.agentName(), "GA");
    EXPECT_EQ(back.hyperParams(), "pop=4");
    ASSERT_EQ(back.size(), 2u);
    EXPECT_EQ(back[0].action, (Action{1.0, 2.0}));
    EXPECT_EQ(back[1].observation, (Metrics{20.0, 0.7, 6.0}));
    EXPECT_DOUBLE_EQ(back[1].reward, 0.4);
}

Dataset
makeDataset()
{
    Dataset ds;
    for (const std::string agent : {"ACO", "GA", "RW"}) {
        TrajectoryLog log("Env", agent, "");
        for (int i = 0; i < 10; ++i) {
            log.append(Transition{{static_cast<double>(i)},
                                  {static_cast<double>(i) * 2.0},
                                  0.1 * i});
        }
        ds.add(std::move(log));
    }
    return ds;
}

TEST(Dataset, CountsAndAgentNames)
{
    const Dataset ds = makeDataset();
    EXPECT_EQ(ds.logCount(), 3u);
    EXPECT_EQ(ds.transitionCount(), 30u);
    EXPECT_EQ(ds.agentNames(),
              (std::vector<std::string>{"ACO", "GA", "RW"}));
}

TEST(Dataset, FlattenAgentFilters)
{
    const Dataset ds = makeDataset();
    EXPECT_EQ(ds.flattenAgent("GA").size(), 10u);
    EXPECT_EQ(ds.flattenAgent("nope").size(), 0u);
    EXPECT_EQ(ds.flatten().size(), 30u);
}

TEST(Dataset, SampleWithoutReplacementWhenPossible)
{
    const Dataset ds = makeDataset();
    Rng rng(9);
    const auto s = ds.sample(30, rng);
    EXPECT_EQ(s.size(), 30u);
    // With replacement only when oversampling.
    const auto big = ds.sample(100, rng);
    EXPECT_EQ(big.size(), 100u);
}

TEST(Dataset, SampleDiverseSplitsEvenly)
{
    const Dataset ds = makeDataset();
    Rng rng(10);
    const auto s = ds.sampleDiverse(9, {"ACO", "GA", "RW"}, rng);
    EXPECT_EQ(s.size(), 9u);
}

/** The draw rule over a flattened pool: the first n of a shuffled index
 *  without replacement, n below(size) draws with it. */
std::vector<Transition>
referenceDraw(const std::vector<Transition> &pool, std::size_t n, Rng &rng)
{
    std::vector<Transition> out;
    if (pool.empty())
        return out;
    if (n <= pool.size()) {
        std::vector<std::size_t> idx(pool.size());
        std::iota(idx.begin(), idx.end(), 0);
        rng.shuffle(idx);
        for (std::size_t i = 0; i < n; ++i)
            out.push_back(pool[idx[i]]);
    } else {
        for (std::size_t i = 0; i < n; ++i)
            out.push_back(pool[rng.below(pool.size())]);
    }
    return out;
}

void
expectSameBits(const std::vector<Transition> &got,
               const std::vector<Transition> &want)
{
    const auto bits = [](const Transition &t) {
        std::vector<std::uint64_t> out;
        for (const double v : t.action)
            out.push_back(std::bit_cast<std::uint64_t>(v));
        for (const double v : t.observation)
            out.push_back(std::bit_cast<std::uint64_t>(v));
        out.push_back(std::bit_cast<std::uint64_t>(t.reward));
        return out;
    };
    ASSERT_EQ(got.size(), want.size());
    for (std::size_t i = 0; i < got.size(); ++i)
        EXPECT_EQ(bits(got[i]), bits(want[i])) << "draw " << i;
}

TEST(Dataset, SeededDrawsMatchTheFlattenedPool)
{
    // Logs of unequal lengths, one of them empty, from three agents;
    // every row holds distinct values.
    Dataset ds;
    const std::pair<const char *, int> shape[] = {
        {"ACO", 7}, {"GA", 0}, {"RW", 13}, {"ACO", 4}, {"GA", 9}};
    double v = 0.0;
    for (const auto &[agent, rows] : shape) {
        TrajectoryLog log("Env", agent, "");
        for (int r = 0; r < rows; ++r, v += 1.0)
            log.append(Transition{{v, -v}, {0.5 * v, -0.0, 1.0 / (v + 3.0)},
                                  0.25 * v});
        ds.add(std::move(log));
    }
    const std::size_t rows = ds.transitionCount();
    ASSERT_EQ(rows, 33u);

    // The seeded draw and what it leaves of the Rng stream are the
    // reference's, below, at and above the row count.
    for (const std::size_t n : {std::size_t{0}, std::size_t{10}, rows,
                                rows + 7}) {
        Rng got(41), want(41);
        expectSameBits(ds.sample(n, got),
                       referenceDraw(ds.flatten(), n, want));
        EXPECT_EQ(got(), want()) << "n=" << n;
    }

    // Per agent in the given order, the last absorbing the remainder;
    // "BO" has no logs and draws nothing. At n = 36 GA's share equals
    // its row count; at n = 60 every share oversamples.
    const std::vector<std::string> agents = {"GA", "BO", "ACO", "RW"};
    for (const std::size_t n : {std::size_t{8}, std::size_t{36},
                                std::size_t{60}}) {
        Rng got(42), want(42);
        std::vector<Transition> ref;
        for (std::size_t i = 0; i < agents.size(); ++i) {
            const std::size_t share = i + 1 == agents.size()
                                          ? n - ref.size()
                                          : n / agents.size();
            for (auto &t :
                 referenceDraw(ds.flattenAgent(agents[i]), share, want))
                ref.push_back(std::move(t));
        }
        expectSameBits(ds.sampleDiverse(n, agents, got), ref);
        EXPECT_EQ(got(), want()) << "n=" << n;
    }

    // An empty dataset draws nothing and leaves the Rng untouched.
    Rng got(43), want(43);
    EXPECT_TRUE(Dataset().sample(5, got).empty());
    EXPECT_EQ(got(), want());
}

TEST(Dataset, DirectoryRoundTrip)
{
    ParamSpace space;
    space.add(ParamDesc::integer("x", 0, 9));
    const Dataset ds = makeDataset();
    const std::string dir = ::testing::TempDir() + "/archgym_ds_rt";
    ds.saveDirectory(dir, space, {"m"});

    const Dataset back = Dataset::loadDirectory(dir);
    EXPECT_EQ(back.logCount(), ds.logCount());
    EXPECT_EQ(back.transitionCount(), ds.transitionCount());
    EXPECT_EQ(back.agentNames(), ds.agentNames());
    // Spot-check transition fidelity on the first log.
    ASSERT_GT(back.log(0).size(), 0u);
    EXPECT_EQ(back.log(0)[3].action, ds.log(0)[3].action);
    EXPECT_EQ(back.log(0)[3].observation, ds.log(0)[3].observation);
    EXPECT_DOUBLE_EQ(back.log(0)[3].reward, ds.log(0)[3].reward);
}

TEST(Dataset, DirectoryRoundTripKeepsOrderPastAThousandLogs)
{
    // Regression: indices were padded to 3 digits, so 1000_A.csv sorted
    // before 100_A.csv and a reloaded dataset of more than 1,000 logs
    // came back reordered, drawing other seeded samples.
    namespace fs = std::filesystem;
    ParamSpace space;
    space.add(ParamDesc::integer("x", 0, 9));
    Dataset ds;
    for (int k = 0; k < 1002; ++k) {
        TrajectoryLog log("Env", "A", "run=" + std::to_string(k));
        log.append(Transition{{static_cast<double>(k)}, {2.0 * k}, 0.5});
        ds.add(std::move(log));
    }
    const std::string dir = ::testing::TempDir() + "/archgym_ds_1002";
    fs::remove_all(dir);
    ds.saveDirectory(dir, space, {"m"});
    EXPECT_TRUE(fs::exists(fs::path(dir) / "0000_A.csv"));
    EXPECT_TRUE(fs::exists(fs::path(dir) / "1001_A.csv"));

    const Dataset back = Dataset::loadDirectory(dir);
    ASSERT_EQ(back.logCount(), ds.logCount());
    for (std::size_t k = 0; k < ds.logCount(); ++k)
        ASSERT_EQ(back.log(k).hyperParams(), ds.log(k).hyperParams());
    Rng rngA(5), rngB(5);
    const auto drawA = ds.sample(64, rngA);
    const auto drawB = back.sample(64, rngB);
    ASSERT_EQ(drawA.size(), drawB.size());
    for (std::size_t i = 0; i < drawA.size(); ++i)
        EXPECT_EQ(drawA[i].action, drawB[i].action) << i;
    fs::remove_all(dir);

    // Up to 1,000 logs the names keep their 3 digits.
    const std::string small = ::testing::TempDir() + "/archgym_ds_3";
    fs::remove_all(small);
    makeDataset().saveDirectory(small, space, {"m"});
    EXPECT_TRUE(fs::exists(fs::path(small) / "002_RW.csv"));
    fs::remove_all(small);
}

TEST(Dataset, FourMetricCsvRoundTripsViaActionDimsHint)
{
    // MaestroGym-shaped logs (4 metrics) need the explicit action_dims
    // header to split columns correctly.
    ParamSpace space;
    space.add(ParamDesc::integer("a", 0, 9))
        .add(ParamDesc::integer("b", 0, 9));
    TrajectoryLog log("Env4", "GA", "");
    log.append(Transition{{1.0, 2.0}, {10.0, 20.0, 30.0, 40.0}, 0.5});
    std::stringstream ss;
    log.writeCsv(ss, space, {"m1", "m2", "m3", "m4"});
    const TrajectoryLog back = TrajectoryLog::readCsv(ss);
    ASSERT_EQ(back.size(), 1u);
    EXPECT_EQ(back[0].action, (Action{1.0, 2.0}));
    EXPECT_EQ(back[0].observation,
              (Metrics{10.0, 20.0, 30.0, 40.0}));
}

TEST(TrajectoryLog, ReadCsvThrowsOnShortRowWithLineNumber)
{
    // Regression: a data row with fewer cells than the header used to
    // run out-of-bounds iterator arithmetic (row.begin() + actionDims
    // past row.end(), row.end() - 1 on an empty row) instead of
    // failing cleanly.
    std::stringstream ss("# env=E\n# agent=A\n# action_dims=2\n"
                         "x,y,m,reward\n"
                         "1,2,3,0.5\n"
                         "1,2\n");
    try {
        TrajectoryLog::readCsv(ss);
        FAIL() << "expected std::runtime_error";
    } catch (const std::runtime_error &e) {
        const std::string what = e.what();
        EXPECT_NE(what.find("line 6"), std::string::npos) << what;
        EXPECT_NE(what.find("expected 4"), std::string::npos) << what;
    }
}

TEST(TrajectoryLog, ReadCsvThrowsOnWideRowWithLineNumber)
{
    std::stringstream ss("# env=E\n# action_dims=1\n"
                         "x,m,reward\n"
                         "1,2,3,4,5\n");
    try {
        TrajectoryLog::readCsv(ss);
        FAIL() << "expected std::runtime_error";
    } catch (const std::runtime_error &e) {
        EXPECT_NE(std::string(e.what()).find("line 4"),
                  std::string::npos)
            << e.what();
    }
}

TEST(TrajectoryLog, ReadCsvThrowsOnNonNumericCell)
{
    // Regression: std::stod on a non-numeric cell used to escape as an
    // uncaught std::invalid_argument; partial parses ("1.5abc") were
    // silently truncated.
    std::stringstream junk("# env=E\n# action_dims=1\n"
                           "x,m,reward\n"
                           "1,bogus,0.5\n");
    try {
        TrajectoryLog::readCsv(junk);
        FAIL() << "expected std::runtime_error";
    } catch (const std::runtime_error &e) {
        const std::string what = e.what();
        EXPECT_NE(what.find("line 4"), std::string::npos) << what;
        EXPECT_NE(what.find("bogus"), std::string::npos) << what;
    }

    std::stringstream partial("# env=E\n# action_dims=1\n"
                              "x,m,reward\n"
                              "1,2.5abc,0.5\n");
    EXPECT_THROW(TrajectoryLog::readCsv(partial), std::runtime_error);
}

TEST(TrajectoryLog, ReadCsvThrowsOnOversizedActionDimsHint)
{
    std::stringstream ss("# env=E\n# action_dims=7\n"
                         "x,m,reward\n"
                         "1,2,0.5\n");
    EXPECT_THROW(TrajectoryLog::readCsv(ss), std::runtime_error);
}

TEST(TrajectoryLog, ReadCsvThrowsOnGarbageActionDimsHint)
{
    // `# action_dims=abc` must be a line-numbered runtime_error, not a
    // std::invalid_argument escaping from std::stoul.
    std::stringstream ss("# env=E\n# action_dims=abc\n"
                         "x,m,reward\n"
                         "1,2,0.5\n");
    try {
        TrajectoryLog::readCsv(ss);
        FAIL() << "expected std::runtime_error";
    } catch (const std::runtime_error &e) {
        EXPECT_NE(std::string(e.what()).find("line 2"),
                  std::string::npos)
            << e.what();
    }
}

TEST(TrajectoryLog, ReadCsvToleratesCrlfLineEndings)
{
    std::stringstream ss("# env=E\r\n# agent=A\r\n# action_dims=1\r\n"
                         "x,m,reward\r\n"
                         "1,2,0.5\r\n");
    const TrajectoryLog log = TrajectoryLog::readCsv(ss);
    EXPECT_EQ(log.envName(), "E");
    ASSERT_EQ(log.size(), 1u);
    EXPECT_EQ(log[0].action, (Action{1.0}));
    EXPECT_EQ(log[0].observation, (Metrics{2.0}));
    EXPECT_DOUBLE_EQ(log[0].reward, 0.5);
}

TEST(TrajectoryLog, ReadCsvAllSplitsMultiBlockFiles)
{
    // Shard CSVs stream many trajectories into one file; each `# env=`
    // after a header row starts the next block.
    ParamSpace space;
    space.add(ParamDesc::integer("x", 0, 9));
    std::stringstream ss;
    for (int b = 0; b < 3; ++b) {
        TrajectoryLog log("Env" + std::to_string(b),
                          "Agent" + std::to_string(b), "k=1");
        for (int t = 0; t <= b; ++t)
            log.append(Transition{{static_cast<double>(t)},
                                  {static_cast<double>(10 * b + t)},
                                  0.25 * t});
        log.writeCsv(ss, space, {"m"});
    }
    const auto logs = TrajectoryLog::readCsvAll(ss);
    ASSERT_EQ(logs.size(), 3u);
    for (int b = 0; b < 3; ++b) {
        EXPECT_EQ(logs[b].envName(), "Env" + std::to_string(b));
        EXPECT_EQ(logs[b].agentName(), "Agent" + std::to_string(b));
        ASSERT_EQ(logs[b].size(), static_cast<std::size_t>(b + 1));
        EXPECT_EQ(logs[b][b].observation,
                  (Metrics{static_cast<double>(10 * b + b)}));
    }
}

TEST(TrajectoryLog, ReadCsvRejectsAnEmptyTrailingCell)
{
    // Regression: the row reader dropped an empty last cell, so
    // `1,2,3,4,` under a 4-column header read as a valid 4-cell row.
    std::stringstream ss("# env=E\n# action_dims=2\n"
                         "x,y,m,reward\n"
                         "1,2,3,4\n"
                         "1,2,3,4,\n");
    try {
        TrajectoryLog::readCsv(ss);
        FAIL() << "expected std::runtime_error";
    } catch (const std::runtime_error &e) {
        const std::string what = e.what();
        EXPECT_NE(what.find("line 5"), std::string::npos) << what;
        EXPECT_NE(what.find("expected 4 cells (from header), got 5"),
                  std::string::npos)
            << what;
    }
}

TEST(TrajectoryLog, EmptyEnvNameStillStartsANewBlock)
{
    // Regression: an `# env=` line with an empty value was ignored, so
    // the second block's header row was parsed as data.
    ParamSpace space;
    space.add(ParamDesc::integer("x", 0, 9));
    std::stringstream ss;
    for (int b = 0; b < 2; ++b) {
        TrajectoryLog log("", "", "");
        log.append(Transition{{static_cast<double>(b)}, {2.0 * b}, 0.5});
        log.writeCsv(ss, space, {"m"});
    }
    const auto logs = TrajectoryLog::readCsvAll(ss);
    ASSERT_EQ(logs.size(), 2u);
    for (int b = 0; b < 2; ++b) {
        EXPECT_EQ(logs[b].envName(), "");
        ASSERT_EQ(logs[b].size(), 1u);
        EXPECT_EQ(logs[b][0].action, (Action{static_cast<double>(b)}));
        EXPECT_EQ(logs[b][0].observation, (Metrics{2.0 * b}));
    }
}

TEST(TrajectoryLog, AppendRejectsARowOfAnotherWidth)
{
    TrajectoryLog log("Env", "A", "");
    log.append(Transition{{1.0, 2.0}, {3.0, 4.0, 5.0}, 0.5});
    for (const Transition &bad :
         {Transition{{1.0}, {3.0, 4.0, 5.0}, 0.5},
          Transition{{1.0, 2.0}, {3.0, 4.0}, 0.5}}) {
        try {
            log.append(bad);
            FAIL() << "a row of another width was appended";
        } catch (const std::invalid_argument &e) {
            const std::string what = e.what();
            const std::string got = std::to_string(bad.action.size()) +
                                    " action + " +
                                    std::to_string(bad.observation.size());
            EXPECT_NE(what.find(got), std::string::npos) << what;
            EXPECT_NE(what.find("have 2 + 3"), std::string::npos) << what;
        }
    }
    ASSERT_EQ(log.size(), 1u);
    EXPECT_EQ(log.actionDims(), 2u);
    EXPECT_EQ(log.metricDims(), 3u);
    const std::vector<double> row(log.row(0).begin(), log.row(0).end());
    EXPECT_EQ(row, (std::vector<double>{1.0, 2.0, 3.0, 4.0, 5.0, 0.5}));
}

/** A double for the round-trip property: edge values or random bits. */
double
roundTripValue(Rng &rng)
{
    constexpr double kInf = std::numeric_limits<double>::infinity();
    constexpr double kNan = std::numeric_limits<double>::quiet_NaN();
    constexpr double kEdges[] = {
        0.0,     -0.0,    std::numeric_limits<double>::denorm_min(),
        -std::numeric_limits<double>::denorm_min(),
        2.5e-310, -3.3e-315, kInf, -kInf, kNan, -kNan, 1e308, -1e308,
        std::numeric_limits<double>::max(),
        std::numeric_limits<double>::min(), 0.1, -7.0};
    if (rng.below(3) == 0)
        return kEdges[rng.below(std::size(kEdges))];
    // Text carries a NaN's sign but not its payload.
    const double v = std::bit_cast<double>(rng());
    return std::isnan(v) ? std::copysign(kNan, v) : v;
}

/** Expect `back` to hold `logs` field for field and bit for bit. */
void
expectBitIdenticalLogs(const std::vector<TrajectoryLog> &back,
                       const std::vector<TrajectoryLog> &logs,
                       const std::string &what)
{
    ASSERT_EQ(back.size(), logs.size()) << what;
    for (std::size_t k = 0; k < logs.size(); ++k) {
        const std::string where = what + " log " + std::to_string(k);
        EXPECT_EQ(back[k].envName(), logs[k].envName()) << where;
        EXPECT_EQ(back[k].agentName(), logs[k].agentName()) << where;
        EXPECT_EQ(back[k].hyperParams(), logs[k].hyperParams()) << where;
        ASSERT_EQ(back[k].size(), logs[k].size()) << where;
        EXPECT_EQ(back[k].actionDims(), logs[k].actionDims()) << where;
        EXPECT_EQ(back[k].metricDims(), logs[k].metricDims()) << where;
        for (std::size_t i = 0; i < logs[k].size(); ++i) {
            const auto got = back[k].row(i), want = logs[k].row(i);
            ASSERT_EQ(got.size(), want.size()) << where;
            for (std::size_t c = 0; c < want.size(); ++c)
                ASSERT_EQ(std::bit_cast<std::uint64_t>(got[c]),
                          std::bit_cast<std::uint64_t>(want[c]))
                    << where << " row " << i << " cell " << c;
        }
    }
}

TEST(TrajectoryLog, RandomMultiBlockStreamsRoundTripBitExact)
{
    // Property: any stream of writeCsv blocks (widths differing from
    // log to log, empty names and empty logs included) reads back as
    // the same logs, bit for bit, with LF and with CRLF line endings.
    Rng rng(2306);
    const std::string nameChars = "abcXYZ019 =,;._-";
    const auto randomName = [&] {
        std::string s(rng.below(6), ' ');
        for (char &c : s)
            c = nameChars[rng.below(nameChars.size())];
        return s;
    };
    const auto columnName = [](char prefix, std::size_t i) {
        std::string s(1, prefix);
        s += std::to_string(i);
        return s;
    };
    for (int stream = 0; stream < 150; ++stream) {
        std::vector<TrajectoryLog> logs;
        std::stringstream csv;
        const std::size_t blocks = 1 + rng.below(5);
        for (std::size_t k = 0; k < blocks; ++k) {
            ParamSpace space;
            const std::size_t actionDims = 1 + rng.below(4);
            for (std::size_t d = 0; d < actionDims; ++d)
                space.add(ParamDesc::integer(columnName('p', d), 0, 9));
            std::vector<std::string> metrics(rng.below(5));
            for (std::size_t m = 0; m < metrics.size(); ++m)
                metrics[m] = columnName('m', m);
            TrajectoryLog log(randomName(), randomName(), randomName());
            const std::size_t rows = rng.below(7);
            for (std::size_t i = 0; i < rows; ++i) {
                Transition t;
                for (std::size_t d = 0; d < actionDims; ++d)
                    t.action.push_back(roundTripValue(rng));
                for (std::size_t m = 0; m < metrics.size(); ++m)
                    t.observation.push_back(roundTripValue(rng));
                t.reward = roundTripValue(rng);
                log.append(t);
            }
            log.writeCsv(csv, space, metrics);
            logs.push_back(std::move(log));
        }
        const std::string lf = csv.str();
        const std::string what = "stream " + std::to_string(stream);
        expectBitIdenticalLogs(TrajectoryLog::readCsvAll(csv), logs,
                               what + " (LF)");

        std::string crlf;
        for (const char c : lf) {
            if (c == '\n')
                crlf += '\r';
            crlf += c;
        }
        std::stringstream crlfStream(crlf);
        expectBitIdenticalLogs(TrajectoryLog::readCsvAll(crlfStream), logs,
                               what + " (CRLF)");
    }
}

TEST(Dataset, LoadDirectoryDeterministicAcrossCreationOrder)
{
    // Regression: loads must be ordered by sorted path, never by
    // filesystem-iteration order, or the same seeded sample() draws
    // different transitions on different machines. Create files in
    // shuffled order (creation order drives iteration order on many
    // filesystems), load twice, and require identical logs and draws.
    namespace fs = std::filesystem;
    ParamSpace space;
    space.add(ParamDesc::integer("x", 0, 99));
    const std::string dir = ::testing::TempDir() + "/archgym_ds_order";
    fs::remove_all(dir);
    fs::create_directories(dir);
    const std::vector<std::string> names = {"003_b.csv", "000_a.csv",
                                            "002_d.csv", "001_c.csv"};
    for (std::size_t k = 0; k < names.size(); ++k) {
        TrajectoryLog log("Env", "A" + std::to_string(k), "");
        for (int t = 0; t < 5; ++t)
            log.append(Transition{{static_cast<double>(k)},
                                  {static_cast<double>(10 * k + t)},
                                  0.1 * t});
        std::ofstream out(fs::path(dir) / names[k]);
        log.writeCsv(out, space, {"m"});
    }

    const Dataset first = Dataset::loadDirectory(dir);
    const Dataset second = Dataset::loadDirectory(dir);
    ASSERT_EQ(first.logCount(), 4u);
    // Sorted by filename: 000_a (k=1), 001_c (k=3), 002_d (k=2),
    // 003_b (k=0).
    EXPECT_EQ(first.log(0).agentName(), "A1");
    EXPECT_EQ(first.log(1).agentName(), "A3");
    EXPECT_EQ(first.log(2).agentName(), "A2");
    EXPECT_EQ(first.log(3).agentName(), "A0");
    for (std::size_t i = 0; i < first.logCount(); ++i) {
        EXPECT_EQ(second.log(i).agentName(), first.log(i).agentName());
        ASSERT_EQ(second.log(i).size(), first.log(i).size());
    }

    Rng rngA(77), rngB(77);
    const auto drawA = first.sample(12, rngA);
    const auto drawB = second.sample(12, rngB);
    ASSERT_EQ(drawA.size(), drawB.size());
    for (std::size_t i = 0; i < drawA.size(); ++i) {
        EXPECT_EQ(drawA[i].action, drawB[i].action);
        EXPECT_EQ(drawA[i].observation, drawB[i].observation);
        EXPECT_EQ(drawA[i].reward, drawB[i].reward);
    }
}

TEST(Dataset, LoadDirectoryRecursesIntoSubdirectoriesSorted)
{
    namespace fs = std::filesystem;
    ParamSpace space;
    space.add(ParamDesc::integer("x", 0, 9));
    const std::string dir = ::testing::TempDir() + "/archgym_ds_rec";
    fs::remove_all(dir);
    fs::create_directories(fs::path(dir) / "bb");
    fs::create_directories(fs::path(dir) / "aa");
    const auto write = [&](const fs::path &p, const std::string &agent) {
        TrajectoryLog log("Env", agent, "");
        log.append(Transition{{1.0}, {2.0}, 0.5});
        std::ofstream out(p);
        log.writeCsv(out, space, {"m"});
    };
    write(fs::path(dir) / "top.csv", "TOP");
    write(fs::path(dir) / "bb" / "x.csv", "BB");
    write(fs::path(dir) / "aa" / "x.csv", "AA");

    const Dataset ds = Dataset::loadDirectory(dir);
    ASSERT_EQ(ds.logCount(), 3u);
    // Top-level files first, then subdirectories in sorted order.
    EXPECT_EQ(ds.log(0).agentName(), "TOP");
    EXPECT_EQ(ds.log(1).agentName(), "AA");
    EXPECT_EQ(ds.log(2).agentName(), "BB");
}

TEST(Dataset, LoadDirectoryNamesTheCorruptFileAndLine)
{
    // A corrupt shard CSV must not be skipped silently, and the error
    // must carry enough context (file path + line) to find the damage
    // in a directory of hundreds of shards.
    namespace fs = std::filesystem;
    ParamSpace space;
    space.add(ParamDesc::integer("x", 0, 9));
    const std::string dir = ::testing::TempDir() + "/archgym_ds_corrupt";
    fs::remove_all(dir);
    fs::create_directories(dir);

    TrajectoryLog good("Env", "GOOD", "");
    good.append(Transition{{1.0}, {2.0}, 0.5});
    {
        std::ofstream out(fs::path(dir) / "aaa_good.csv");
        good.writeCsv(out, space, {"m"});
    }
    {
        // Data row with fewer cells than the header promises.
        std::ofstream out(fs::path(dir) / "bbb_bad.csv");
        out << "# env=Env\n# agent=BAD\n# hyperparams=\n"
            << "# action_dims=1\nx,m,reward\n1,2\n";
    }

    try {
        Dataset::loadDirectory(dir);
        FAIL() << "corrupt CSV did not throw";
    } catch (const std::runtime_error &e) {
        const std::string what = e.what();
        EXPECT_NE(what.find("bbb_bad.csv"), std::string::npos) << what;
        EXPECT_NE(what.find("line 6"), std::string::npos) << what;
    }
}

TEST(Dataset, LoadDirectoryThrowsOnUnreadableFile)
{
    // An unopenable CSV used to be skipped silently — a dataset served
    // with missing trajectories and no diagnostic. Now it throws with
    // the path.
    namespace fs = std::filesystem;
    const std::string dir = ::testing::TempDir() + "/archgym_ds_unread";
    fs::remove_all(dir);
    fs::create_directories(dir);
    const fs::path locked = fs::path(dir) / "locked.csv";
    { std::ofstream out(locked); out << "# env=E\n"; }
    fs::permissions(locked, fs::perms::none);
    if (::geteuid() == 0) {
        // root ignores permission bits; the silent-skip regression
        // cannot be reproduced this way.
        fs::permissions(locked, fs::perms::owner_all);
        GTEST_SKIP() << "running as root, chmod 000 is not enforced";
    }
    try {
        Dataset::loadDirectory(dir);
        FAIL() << "unreadable CSV did not throw";
    } catch (const std::runtime_error &e) {
        EXPECT_NE(std::string(e.what()).find("locked.csv"),
                  std::string::npos)
            << e.what();
    }
    fs::permissions(locked, fs::perms::owner_all);  // allow cleanup
}

TEST(Dataset, SaveDirectoryThrowsNamingAnUnwritableFile)
{
    // A stream that failed to open used to be written to and dropped
    // unchecked: the save returned normally having written nothing.
    namespace fs = std::filesystem;
    const std::string dir = ::testing::TempDir() + "/archgym_ds_unwritable";
    fs::remove_all(dir);
    fs::create_directories(fs::path(dir) / "000_A.csv");
    ParamSpace space;
    space.add(ParamDesc::integer("x", 0, 9));
    Dataset ds;
    TrajectoryLog log("Env", "A", "");
    log.append(Transition{{1.0}, {2.0}, 0.5});
    ds.add(std::move(log));
    try {
        ds.saveDirectory(dir, space, {"m"});
        FAIL() << "save over a directory did not throw";
    } catch (const std::runtime_error &e) {
        EXPECT_NE(std::string(e.what()).find("000_A.csv"),
                  std::string::npos)
            << e.what();
    }
}

TEST(Fsio, WriteErrorThrowsNamingThePathAndErrno)
{
    // /dev/full opens like a file and fails every write with ENOSPC.
    if (!std::filesystem::exists("/dev/full"))
        GTEST_SKIP() << "no /dev/full on this system";
    fsio::File file = fsio::File::create("/dev/full");
    try {
        file.write("x");
        FAIL() << "a failed write did not throw";
    } catch (const std::system_error &e) {
        EXPECT_EQ(e.code().value(), ENOSPC);
        EXPECT_NE(std::string(e.what()).find("/dev/full"), std::string::npos)
            << e.what();
    }
}

// --------------------------------------------------------------------
// jsonio: the metadata readers accept only whole values
// --------------------------------------------------------------------

/** `fn` throws std::runtime_error naming the context and the key. */
template <typename Fn>
void
expectRejected(Fn &&fn, const std::string &key)
{
    try {
        fn();
        FAIL() << "accepted a torn value for '" << key << "'";
    } catch (const std::runtime_error &e) {
        const std::string what = e.what();
        EXPECT_NE(what.find("ctx"), std::string::npos) << what;
        EXPECT_NE(what.find("'" + key + "'"), std::string::npos) << what;
    }
}

TEST(JsonIo, WholeValuesParse)
{
    const std::string text = "{\"env\":\"DRAM\\\"Gym\",\"xs\":[1.5,-2],"
                             "\"ns\":[3,4],\"empty\":[]}";
    EXPECT_EQ(jsonio::stringField(text, "env", "ctx"), "DRAM\"Gym");
    EXPECT_EQ(jsonio::doubleArrayField(text, "xs", "ctx"),
              (std::vector<double>{1.5, -2.0}));
    EXPECT_EQ(jsonio::uintArrayField(text, "ns", "ctx"),
              (std::vector<std::uint64_t>{3, 4}));
    EXPECT_TRUE(jsonio::uintArrayField(text, "empty", "ctx").empty());
}

TEST(JsonIo, UnterminatedStringThrows)
{
    for (const std::string text :
         {"{\"env\":\"DRAMGy", "{\"env\":\"", "{\"env\":\"DRAM\\"})
        expectRejected([&] { jsonio::stringField(text, "env", "ctx"); },
                       "env");
}

TEST(JsonIo, ControlBytesRoundTrip)
{
    const std::string raw = "a\nb\r\t\x01\"\\";
    const std::string escaped = jsonio::escape(raw);
    for (const char c : escaped)
        EXPECT_GE(static_cast<unsigned char>(c), 0x20) << escaped;
    const std::string text = "{\"s\":\"" + escaped + "\",\"n\":1}";
    EXPECT_EQ(jsonio::stringField(text, "s", "ctx"), raw);
}

TEST(JsonIo, EscapesItNeverWritesThrow)
{
    for (const std::string text :
         {"{\"env\":\"a\\qb\"}", "{\"env\":\"a\\u0041\"}",
          "{\"env\":\"a\\u00g1\"}", "{\"env\":\"a\\u00"})
        expectRejected([&] { jsonio::stringField(text, "env", "ctx"); },
                       "env");
}

TEST(JsonIo, UnterminatedArraysThrow)
{
    for (const std::string text :
         {"{\"a\":[1,2", "{\"a\":[1,2,", "{\"a\":["}) {
        expectRejected([&] { jsonio::doubleArrayField(text, "a", "ctx"); },
                       "a");
        expectRejected([&] { jsonio::uintArrayField(text, "a", "ctx"); },
                       "a");
    }
}

// --------------------------------------------------------------------
// Toy environments
// --------------------------------------------------------------------

TEST(QuadraticEnv, RewardPeaksAtOptimum)
{
    QuadraticEnv env({5.0, 7.0});
    const auto atOpt = env.step({5.0, 7.0});
    EXPECT_DOUBLE_EQ(atOpt.reward, 1.0);
    EXPECT_TRUE(atOpt.done);
    const auto off = env.step({6.0, 7.0});
    EXPECT_DOUBLE_EQ(off.reward, 0.5);
    EXPECT_FALSE(off.done);
    EXPECT_EQ(env.sampleCount(), 2u);
}

TEST(OneMaxEnv, CountsOnes)
{
    OneMaxEnv env(4);
    EXPECT_DOUBLE_EQ(env.step({1, 1, 0, 0}).reward, 0.5);
    const auto full = env.step({1, 1, 1, 1});
    EXPECT_DOUBLE_EQ(full.reward, 1.0);
    EXPECT_TRUE(full.done);
}

TEST(RastriginEnv, OriginIsGlobalOptimum)
{
    RastriginEnv env(3);
    const auto origin = env.step({0.0, 0.0, 0.0});
    EXPECT_NEAR(origin.reward, 0.0, 1e-9);
    const auto off = env.step({1.0, 1.0, 1.0});
    EXPECT_LT(off.reward, origin.reward);
}

// --------------------------------------------------------------------
// Driver
// --------------------------------------------------------------------

/** Minimal deterministic agent for driver tests. */
class ScriptedAgent : public Agent
{
  public:
    ScriptedAgent(const ParamSpace &space, std::uint64_t seed)
        : Agent("Scripted", space, {}), rng_(seed)
    {}

    Action selectAction() override { return space_.sample(rng_); }
    void observe(const Action &, const Metrics &, double reward) override
    {
        lastReward_ = reward;
        ++observeCalls_;
    }
    void reset() override {}

    double lastReward_ = 0.0;
    std::size_t observeCalls_ = 0;

  private:
    Rng rng_;
};

TEST(Driver, RespectsSampleBudget)
{
    QuadraticEnv env({3.0, 3.0});
    ScriptedAgent agent(env.actionSpace(), 1);
    RunConfig cfg;
    cfg.maxSamples = 57;
    const RunResult r = runSearch(env, agent, cfg);
    EXPECT_EQ(r.samplesUsed, 57u);
    EXPECT_EQ(env.sampleCount(), 57u);
    EXPECT_EQ(agent.observeCalls_, 57u);
    EXPECT_EQ(r.rewardHistory.size(), 57u);
}

TEST(Driver, TracksBestRewardAndAction)
{
    QuadraticEnv env({3.0, 3.0});
    ScriptedAgent agent(env.actionSpace(), 2);
    RunConfig cfg;
    cfg.maxSamples = 500;
    const RunResult r = runSearch(env, agent, cfg);
    EXPECT_GT(r.bestReward, 0.0);
    const auto check = env.step(r.bestAction);
    EXPECT_DOUBLE_EQ(check.reward, r.bestReward);
    EXPECT_LT(r.bestSampleIndex, r.samplesUsed);
}

TEST(Driver, BestSoFarIsMonotone)
{
    QuadraticEnv env({1.0, 2.0});
    ScriptedAgent agent(env.actionSpace(), 3);
    RunConfig cfg;
    cfg.maxSamples = 100;
    const RunResult r = runSearch(env, agent, cfg);
    const auto curve = r.bestSoFar();
    for (std::size_t i = 1; i < curve.size(); ++i)
        EXPECT_GE(curve[i], curve[i - 1]);
    EXPECT_DOUBLE_EQ(curve.back(), r.bestReward);
}

TEST(Driver, LogsTrajectoryWhenAsked)
{
    QuadraticEnv env({1.0, 2.0});
    ScriptedAgent agent(env.actionSpace(), 4);
    RunConfig cfg;
    cfg.maxSamples = 20;
    cfg.logTrajectory = true;
    const RunResult r = runSearch(env, agent, cfg);
    EXPECT_EQ(r.trajectory.size(), 20u);
    EXPECT_EQ(r.trajectory.envName(), "QuadraticEnv");
    EXPECT_EQ(r.trajectory.agentName(), "Scripted");
}

TEST(Driver, StopsEarlyWhenSatisfied)
{
    OneMaxEnv env(2);  // tiny space: quickly hits all-ones
    ScriptedAgent agent(env.actionSpace(), 5);
    RunConfig cfg;
    cfg.maxSamples = 1000;
    cfg.stopWhenSatisfied = true;
    const RunResult r = runSearch(env, agent, cfg);
    EXPECT_LT(r.samplesUsed, 1000u);
    EXPECT_DOUBLE_EQ(r.bestReward, 1.0);
}

TEST(Driver, SweepProducesOneResultPerConfig)
{
    QuadraticEnv env({2.0, 2.0});
    HyperGrid grid;
    grid.add("dummy", {1, 2, 3});
    const auto configs = grid.enumerate();
    const auto builder = [](const ParamSpace &space, const HyperParams &,
                            std::uint64_t seed) {
        return std::unique_ptr<Agent>(
            std::make_unique<ScriptedAgent>(space, seed));
    };
    RunConfig cfg;
    cfg.maxSamples = 50;
    const SweepResult sweep =
        runSweep(env, "Scripted", builder, configs, cfg);
    EXPECT_EQ(sweep.bestRewards.size(), 3u);
    EXPECT_EQ(sweep.runs.size(), 3u);
    for (double r : sweep.bestRewards)
        EXPECT_GT(r, 0.0);
}

TEST(Driver, ParallelSweepMatchesSerialExactly)
{
    HyperGrid grid;
    grid.add("dummy", {1, 2, 3, 4, 5, 6, 7});
    const auto configs = grid.enumerate();
    const auto builder = [](const ParamSpace &space, const HyperParams &,
                            std::uint64_t seed) {
        return std::unique_ptr<Agent>(
            std::make_unique<ScriptedAgent>(space, seed));
    };
    RunConfig cfg;
    cfg.maxSamples = 40;

    QuadraticEnv serialEnv({3.0, 8.0});
    const SweepResult serial =
        runSweep(serialEnv, "S", builder, configs, cfg, 7);

    const EnvFactory factory = [] {
        return std::unique_ptr<Environment>(
            std::make_unique<QuadraticEnv>(
                std::vector<double>{3.0, 8.0}));
    };
    for (std::size_t threads : {1u, 4u}) {
        const SweepResult parallel = runSweepParallel(
            factory, "S", builder, configs, cfg, 7, threads);
        EXPECT_EQ(parallel.bestRewards, serial.bestRewards)
            << threads << " threads";
        ASSERT_EQ(parallel.runs.size(), serial.runs.size());
        for (std::size_t i = 0; i < serial.runs.size(); ++i) {
            EXPECT_EQ(parallel.runs[i].rewardHistory,
                      serial.runs[i].rewardHistory);
        }
    }
}

/** Environment whose step throws after a fixed number of samples. */
class ThrowingEnv : public Environment
{
  public:
    explicit ThrowingEnv(std::size_t throw_at) : throwAt_(throw_at)
    {
        space_.add(ParamDesc::integer("x", 0, 7));
    }

    const std::string &name() const override { return name_; }
    const ParamSpace &actionSpace() const override { return space_; }
    const std::vector<std::string> &metricNames() const override
    {
        return metricNames_;
    }
    StepResult step(const Action &action) override
    {
        recordSample();
        if (sampleCount() >= throwAt_)
            throw std::runtime_error("simulator exploded");
        StepResult sr;
        sr.observation = {action[0]};
        sr.reward = action[0];
        return sr;
    }

  private:
    std::string name_ = "ThrowingEnv";
    std::vector<std::string> metricNames_{"x"};
    ParamSpace space_;
    std::size_t throwAt_;
};

TEST(Driver, ParallelSweepRethrowsWorkerStepException)
{
    // An exception in a worker used to hit the std::thread boundary and
    // call std::terminate; it must surface on the calling thread.
    HyperGrid grid;
    grid.add("dummy", {1, 2, 3, 4});
    const auto configs = grid.enumerate();
    const auto builder = [](const ParamSpace &space, const HyperParams &,
                            std::uint64_t seed) {
        return std::unique_ptr<Agent>(
            std::make_unique<ScriptedAgent>(space, seed));
    };
    RunConfig cfg;
    cfg.maxSamples = 20;
    const EnvFactory factory = [] {
        return std::unique_ptr<Environment>(
            std::make_unique<ThrowingEnv>(10));
    };
    EXPECT_THROW(
        runSweepParallel(factory, "S", builder, configs, cfg, 1, 2),
        std::runtime_error);
}

TEST(Driver, ParallelSweepRethrowsEnvFactoryException)
{
    HyperGrid grid;
    grid.add("dummy", {1, 2});
    const auto configs = grid.enumerate();
    const auto builder = [](const ParamSpace &space, const HyperParams &,
                            std::uint64_t seed) {
        return std::unique_ptr<Agent>(
            std::make_unique<ScriptedAgent>(space, seed));
    };
    RunConfig cfg;
    cfg.maxSamples = 5;
    const EnvFactory factory = []() -> std::unique_ptr<Environment> {
        throw std::runtime_error("no simulator license");
    };
    EXPECT_THROW(
        runSweepParallel(factory, "S", builder, configs, cfg, 1, 2),
        std::runtime_error);
}

/** Environment that records which thread each instance was built on. */
class ThreadTrackingEnv : public QuadraticEnv
{
  public:
    ThreadTrackingEnv(std::mutex &mu, std::set<std::thread::id> &ids)
        : QuadraticEnv({1.0, 2.0})
    {
        std::lock_guard<std::mutex> lock(mu);
        ids.insert(std::this_thread::get_id());
    }
};

TEST(Driver, ParallelSweepReusesPooledWorkersAcrossSweeps)
{
    HyperGrid grid;
    grid.add("dummy", {1, 2, 3, 4, 5, 6});
    const auto configs = grid.enumerate();
    const auto builder = [](const ParamSpace &space, const HyperParams &,
                            std::uint64_t seed) {
        return std::unique_ptr<Agent>(
            std::make_unique<ScriptedAgent>(space, seed));
    };
    RunConfig cfg;
    cfg.maxSamples = 10;

    const auto poolIdsBefore = WorkerPool::shared().threadIds();
    std::set<std::thread::id> allowed(poolIdsBefore.begin(),
                                      poolIdsBefore.end());
    // The sweep caller participates in parallelFor as slot 0, so its
    // thread is a legitimate executor alongside the stable pool.
    allowed.insert(std::this_thread::get_id());

    std::mutex mu;
    std::set<std::thread::id> workerIds;
    const EnvFactory factory = [&] {
        return std::unique_ptr<Environment>(
            std::make_unique<ThreadTrackingEnv>(mu, workerIds));
    };
    for (int sweep = 0; sweep < 3; ++sweep)
        runSweepParallel(factory, "S", builder, configs, cfg, 7, 2);

    // Every environment was built on a pooled worker thread or the
    // participating caller (never a foreign thread), and consecutive
    // sweeps saw the same stable pool.
    ASSERT_FALSE(workerIds.empty());
    for (const auto &id : workerIds)
        EXPECT_EQ(allowed.count(id), 1u)
            << "sweep work ran on a foreign thread";
    EXPECT_EQ(WorkerPool::shared().threadIds(), poolIdsBefore);
}

/**
 * Cross-thread determinism on the real simulator-backed environments:
 * the parallel sweep must be bit-identical to the serial one on DRAM
 * and FARSI regardless of the thread count.
 */
template <typename MakeEnv>
void
expectParallelMatchesSerial(MakeEnv make_env)
{
    HyperGrid grid;
    grid.add("dummy", {1, 2, 3, 4, 5});
    const auto configs = grid.enumerate();
    const auto builder = [](const ParamSpace &space, const HyperParams &,
                            std::uint64_t seed) {
        return std::unique_ptr<Agent>(
            std::make_unique<ScriptedAgent>(space, seed));
    };
    RunConfig cfg;
    cfg.maxSamples = 25;

    auto serialEnv = make_env();
    const SweepResult serial =
        runSweep(*serialEnv, "S", builder, configs, cfg, 11);

    const EnvFactory factory = [&] {
        return std::unique_ptr<Environment>(make_env());
    };
    for (std::size_t threads : {1u, 2u, 8u}) {
        const SweepResult parallel = runSweepParallel(
            factory, "S", builder, configs, cfg, 11, threads);
        ASSERT_EQ(parallel.runs.size(), serial.runs.size());
        EXPECT_EQ(parallel.bestRewards, serial.bestRewards)
            << threads << " threads";
        for (std::size_t i = 0; i < serial.runs.size(); ++i) {
            EXPECT_EQ(parallel.runs[i].bestAction,
                      serial.runs[i].bestAction)
                << threads << " threads, config " << i;
            EXPECT_EQ(parallel.runs[i].rewardHistory,
                      serial.runs[i].rewardHistory)
                << threads << " threads, config " << i;
        }
    }
}

TEST(Driver, ParallelSweepBitIdenticalOnDramEnv)
{
    expectParallelMatchesSerial([] {
        DramGymEnv::Options o;
        o.traceLength = 128;
        return std::make_unique<DramGymEnv>(o);
    });
}

TEST(Driver, ParallelSweepBitIdenticalOnFarsiEnv)
{
    expectParallelMatchesSerial(
        [] { return std::make_unique<FarsiGymEnv>(); });
}

TEST(Driver, SweepIsDeterministic)
{
    QuadraticEnv env({2.0, 2.0});
    HyperGrid grid;
    grid.add("dummy", {1, 2});
    const auto configs = grid.enumerate();
    const auto builder = [](const ParamSpace &space, const HyperParams &,
                            std::uint64_t seed) {
        return std::unique_ptr<Agent>(
            std::make_unique<ScriptedAgent>(space, seed));
    };
    RunConfig cfg;
    cfg.maxSamples = 30;
    const auto s1 = runSweep(env, "S", builder, configs, cfg, 99);
    const auto s2 = runSweep(env, "S", builder, configs, cfg, 99);
    EXPECT_EQ(s1.bestRewards, s2.bestRewards);
}

} // namespace
} // namespace archgym
