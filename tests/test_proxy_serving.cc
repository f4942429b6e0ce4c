/**
 * @file
 * Tests for the columnar proxy serving path (docs/proxy_serving.md):
 *
 *  - columnar writer/reader equivalence against the reference
 *    Dataset::loadDirectory reader (bit-exact — binary doubles both
 *    ways), minibatch sampling determinism and coverage, trajectory
 *    round-trips through toDataset(), and index/data validation;
 *  - RandomForest edge cases (single-sample fit, minSamplesLeaf
 *    boundary) and bit-identity of the SoA predictBatch kernel to the
 *    scalar oracle on randomized forests and awkward cohort sizes;
 *  - ProxyAccuracy NaN sentinels for degenerate inputs and their "n/a"
 *    rendering;
 *  - the proxy-screened sweep: determinism across runs, screen.json
 *    reuse on resume, frontier == top-K of the recorded ranking, and
 *    mismatch detection.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <filesystem>
#include <fstream>
#include <memory>
#include <vector>

#include "core/agent.h"
#include "core/columnar.h"
#include "core/driver.h"
#include "core/objective.h"
#include "core/toy_envs.h"
#include "core/trajectory.h"
#include "proxy/proxy_model.h"
#include "proxy/proxy_screen.h"
#include "proxy/random_forest.h"

namespace archgym {
namespace {

namespace fs = std::filesystem;

std::string
tempDir(const std::string &name)
{
    const fs::path dir = fs::path(::testing::TempDir()) / name;
    fs::remove_all(dir);
    fs::create_directories(dir);
    return dir.string();
}

const std::vector<std::string> kMetrics = {"lat", "pow"};

ParamSpace
smallSpace()
{
    ParamSpace space;
    space.add(ParamDesc::integer("a", 0, 15));
    space.add(ParamDesc::real("b", 0.0, 1.0, 0.125));
    return space;
}

/** Deterministic synthetic trajectories with irregular lengths. */
std::vector<TrajectoryLog>
syntheticLogs(const ParamSpace &space, const std::vector<std::size_t> &sizes)
{
    Rng rng(31);
    std::vector<TrajectoryLog> logs;
    for (std::size_t i = 0; i < sizes.size(); ++i) {
        TrajectoryLog log("SynthEnv", i % 2 ? "GA" : "ACO",
                          "run=" + std::to_string(i));
        for (std::size_t r = 0; r < sizes[i]; ++r) {
            Transition t;
            t.action = space.sample(rng);
            t.observation = {t.action[0] * 3.0 + t.action[1],
                             t.action[0] - t.action[1]};
            t.reward = -t.observation[0];
            log.append(std::move(t));
        }
        logs.push_back(std::move(log));
    }
    return logs;
}

/** Write logs as one reference CSV shard under dir; return the dir. */
std::string
writeCsvPool(const std::string &dir, const ParamSpace &space,
             const std::vector<TrajectoryLog> &logs)
{
    std::ofstream out(fs::path(dir) / "pool.csv", std::ios::binary);
    for (const auto &log : logs)
        log.writeCsv(out, space, kMetrics);
    return dir;
}

void
expectSameTransitions(const std::vector<Transition> &a,
                      const std::vector<Transition> &b)
{
    ASSERT_EQ(a.size(), b.size());
    for (std::size_t i = 0; i < a.size(); ++i) {
        EXPECT_EQ(a[i].action, b[i].action) << "row " << i;
        EXPECT_EQ(a[i].observation, b[i].observation) << "row " << i;
        EXPECT_EQ(a[i].reward, b[i].reward) << "row " << i;
    }
}

// --------------------------------------------------------------------
// Columnar format vs the reference reader
// --------------------------------------------------------------------

TEST(Columnar, ConvertedDirectoryIsBitIdenticalToReferenceReader)
{
    const std::string dir = tempDir("columnar_equiv");
    const ParamSpace space = smallSpace();
    writeCsvPool(dir, space, syntheticLogs(space, {9, 1, 30, 4}));

    const std::string stem = (fs::path(dir) / "col").string();
    const std::size_t rows =
        writeColumnarFromCsvDirectory(dir, stem, space, kMetrics,
                                      /*rows_per_group=*/8);
    const Dataset reference = Dataset::loadDirectory(dir);
    EXPECT_EQ(rows, reference.transitionCount());

    const auto reader = ColumnarDatasetReader::open(stem);
    EXPECT_EQ(reader.rowCount(), reference.transitionCount());
    EXPECT_EQ(reader.actionDims(), space.size());
    EXPECT_EQ(reader.metricNames(), kMetrics);
    expectSameTransitions(reader.loadAllTransitions(),
                          reference.flatten());
}

TEST(Columnar, ToDatasetRestoresTrajectoryStructure)
{
    const std::string dir = tempDir("columnar_todataset");
    const ParamSpace space = smallSpace();
    // 30 > rows_per_group forces continuation groups; 1-row logs check
    // the boundary flags.
    writeCsvPool(dir, space, syntheticLogs(space, {9, 1, 30, 4}));
    const std::string stem = (fs::path(dir) / "col").string();
    writeColumnarFromCsvDirectory(dir, stem, space, kMetrics, 8);

    const Dataset reference = Dataset::loadDirectory(dir);
    const Dataset round =
        ColumnarDatasetReader::open(stem).toDataset();
    ASSERT_EQ(round.logCount(), reference.logCount());
    for (std::size_t i = 0; i < round.logCount(); ++i) {
        EXPECT_EQ(round.log(i).envName(), reference.log(i).envName());
        EXPECT_EQ(round.log(i).agentName(), reference.log(i).agentName());
        EXPECT_EQ(round.log(i).hyperParams(),
                  reference.log(i).hyperParams());
        expectSameTransitions(round.log(i).toTransitions(),
                              reference.log(i).toTransitions());
    }
}

TEST(Columnar, DirectWriterMatchesCsvConversion)
{
    const ParamSpace space = smallSpace();
    const auto logs = syntheticLogs(space, {5, 17, 2});

    const std::string dirA = tempDir("columnar_direct");
    const std::string stemA = (fs::path(dirA) / "col").string();
    {
        ColumnarDatasetWriter writer(stemA, space, kMetrics, 8);
        for (const auto &log : logs)
            writer.append(log);
        writer.close();
        EXPECT_EQ(writer.rowsWritten(), 5u + 17u + 2u);
    }

    const std::string dirB = tempDir("columnar_via_csv");
    writeCsvPool(dirB, space, logs);
    const std::string stemB = (fs::path(dirB) / "col").string();
    writeColumnarFromCsvDirectory(dirB, stemB, space, kMetrics, 8);

    // Same trajectories through either entry point -> same bytes.
    const auto bytes = [](const std::string &path) {
        std::ifstream in(path, std::ios::binary);
        return std::string(std::istreambuf_iterator<char>(in), {});
    };
    EXPECT_EQ(bytes(ColumnarDatasetWriter::dataPath(stemA)),
              bytes(ColumnarDatasetWriter::dataPath(stemB)));
    expectSameTransitions(
        ColumnarDatasetReader::open(stemA).loadAllTransitions(),
        ColumnarDatasetReader::open(stemB).loadAllTransitions());
}

TEST(Columnar, MetricNamesWithControlBytesRoundTrip)
{
    const std::string dir = tempDir("columnar_names");
    const ParamSpace space = smallSpace();
    const std::vector<std::string> names = {"lat\nency", "p\"o\\w\r\t\x01"};
    const std::string stem = (fs::path(dir) / "col").string();
    {
        ColumnarDatasetWriter writer(stem, space, names, 8);
        for (const auto &log : syntheticLogs(space, {3}))
            writer.append(log);
        writer.close();
    }
    EXPECT_EQ(ColumnarDatasetReader::open(stem).metricNames(), names);
}

TEST(Columnar, GatherRowsReturnsRequestedRowsInOrder)
{
    const std::string dir = tempDir("columnar_gather");
    const ParamSpace space = smallSpace();
    writeCsvPool(dir, space, syntheticLogs(space, {6, 11, 3}));
    const std::string stem = (fs::path(dir) / "col").string();
    writeColumnarFromCsvDirectory(dir, stem, space, kMetrics, 4);

    const auto reader = ColumnarDatasetReader::open(stem);
    const auto all = reader.loadAllTransitions();
    const std::vector<std::size_t> want = {19, 0, 7, 7, 12};
    const TransitionColumns got = reader.gatherRows(want);
    ASSERT_EQ(got.rows, want.size());
    for (std::size_t r = 0; r < want.size(); ++r) {
        const Transition &ref = all[want[r]];
        for (std::size_t d = 0; d < space.size(); ++d)
            EXPECT_EQ(got.action(r, d), ref.action[d]);
        for (std::size_t m = 0; m < kMetrics.size(); ++m)
            EXPECT_EQ(got.observation(r, m), ref.observation[m]);
        EXPECT_EQ(got.rewards[r], ref.reward);
    }
}

TEST(Columnar, MinibatchIsDeterministicAndWithoutReplacement)
{
    const std::string dir = tempDir("columnar_minibatch");
    const ParamSpace space = smallSpace();
    writeCsvPool(dir, space, syntheticLogs(space, {8, 8, 8}));
    const std::string stem = (fs::path(dir) / "col").string();
    writeColumnarFromCsvDirectory(dir, stem, space, kMetrics, 5);
    const auto reader = ColumnarDatasetReader::open(stem);

    // Same seed -> same draw, bit-identically.
    Rng a(77), b(77);
    const auto drawA = reader.sampleTransitions(10, a);
    const auto drawB = reader.sampleTransitions(10, b);
    expectSameTransitions(drawA, drawB);

    // n == rowCount draws every row exactly once (order aside).
    Rng c(5);
    const auto full = reader.sampleTransitions(reader.rowCount(), c);
    auto gotRewards = std::vector<double>();
    for (const auto &t : full)
        gotRewards.push_back(t.reward);
    auto wantRewards = std::vector<double>();
    for (const auto &t : reader.loadAllTransitions())
        wantRewards.push_back(t.reward);
    std::sort(gotRewards.begin(), gotRewards.end());
    std::sort(wantRewards.begin(), wantRewards.end());
    EXPECT_EQ(gotRewards, wantRewards);

    // Oversampling falls back to with-replacement, same as
    // Dataset::sample.
    Rng d(6);
    EXPECT_EQ(reader.sampleTransitions(reader.rowCount() + 10, d).size(),
              reader.rowCount() + 10);
}

TEST(Columnar, MissingIndexAndCorruptDataAreRejected)
{
    const std::string dir = tempDir("columnar_validation");
    const ParamSpace space = smallSpace();
    writeCsvPool(dir, space, syntheticLogs(space, {12}));
    const std::string stem = (fs::path(dir) / "col").string();
    writeColumnarFromCsvDirectory(dir, stem, space, kMetrics, 4);

    EXPECT_THROW(
        ColumnarDatasetReader::open((fs::path(dir) / "nope").string()),
        std::runtime_error);

    // Flip one byte of the data file: the group checksum must catch it.
    {
        std::fstream f(ColumnarDatasetWriter::dataPath(stem),
                       std::ios::in | std::ios::out | std::ios::binary);
        f.seekg(3);
        const char byte = static_cast<char>(f.get());
        f.seekp(3);
        f.put(static_cast<char>(byte ^ 0x5a));
    }
    const auto reader = ColumnarDatasetReader::open(stem);
    EXPECT_THROW(reader.loadGroup(0), std::runtime_error);

    // A truncated index is rejected at open().
    {
        std::ofstream f(ColumnarDatasetWriter::indexPath(stem),
                        std::ios::trunc);
        f << "{\"format\":1,\"actionDims\":2";
    }
    EXPECT_THROW(ColumnarDatasetReader::open(stem), std::runtime_error);
}

// --------------------------------------------------------------------
// RandomForest edge cases + batched-kernel bit-identity
// --------------------------------------------------------------------

TEST(RandomForest, SingleSampleFitPredictsThatTarget)
{
    ForestConfig cfg;
    cfg.numTrees = 7;
    RandomForest forest(cfg);
    forest.fit({{0.3, 0.7}}, {42.5});
    EXPECT_EQ(forest.predict({0.3, 0.7}), 42.5);
    EXPECT_EQ(forest.predict({100.0, -3.0}), 42.5);
}

TEST(RandomForest, MinSamplesLeafAtDatasetSizeYieldsConstantModel)
{
    Rng rng(9);
    std::vector<std::vector<double>> xs;
    std::vector<double> ys;
    for (std::size_t i = 0; i < 32; ++i) {
        xs.push_back({rng.uniform(), rng.uniform()});
        ys.push_back(rng.uniform(-5.0, 5.0));
    }
    ForestConfig cfg;
    cfg.numTrees = 5;
    cfg.minSamplesLeaf = xs.size();  // no split can satisfy the floor
    cfg.bootstrap = false;
    RandomForest forest(cfg);
    forest.fit(xs, ys);
    const double first = forest.predict(xs[0]);
    for (const auto &x : xs)
        EXPECT_EQ(forest.predict(x), first);
    const auto [lo, hi] = std::minmax_element(ys.begin(), ys.end());
    EXPECT_GE(first, *lo);
    EXPECT_LE(first, *hi);
}

TEST(RandomForest, PredictBatchBitIdenticalToScalarOracle)
{
    Rng rng(123);
    for (const std::size_t trees : {1u, 4u, 30u}) {
        std::vector<std::vector<double>> xs;
        std::vector<double> ys;
        for (std::size_t i = 0; i < 300; ++i) {
            xs.push_back({rng.uniform(), rng.uniform(), rng.uniform(),
                          rng.uniform()});
            ys.push_back(xs.back()[0] * 7.0 - xs.back()[2] +
                         rng.uniform(-0.1, 0.1));
        }
        ForestConfig cfg;
        cfg.numTrees = trees;
        cfg.maxDepth = 9;
        cfg.seed = 1000 + trees;
        RandomForest forest(cfg);
        forest.fit(xs, ys);

        // Empty, single-row, odd, and block-crossing cohort sizes (the
        // kernel unrolls 4 walkers and blocks rows at 1024).
        for (const std::size_t cohort : {0u, 1u, 3u, 7u, 64u, 1027u}) {
            std::vector<std::vector<double>> queries;
            for (std::size_t q = 0; q < cohort; ++q)
                queries.push_back({rng.uniform(), rng.uniform(),
                                   rng.uniform(), rng.uniform()});
            const std::vector<double> batch =
                forest.predictBatch(queries);
            ASSERT_EQ(batch.size(), cohort);
            for (std::size_t q = 0; q < cohort; ++q)
                EXPECT_EQ(batch[q], forest.predict(queries[q]))
                    << "trees=" << trees << " cohort=" << cohort
                    << " row=" << q;
        }
    }
}

TEST(ProxyCostModel, PredictBatchColumnMajorMatchesScalarPredict)
{
    const ParamSpace space = smallSpace();
    const auto logs = syntheticLogs(space, {64, 64});
    std::vector<Transition> train;
    for (const auto &log : logs)
        for (const auto &t : log.toTransitions())
            train.push_back(t);

    ForestConfig cfg;
    cfg.numTrees = 10;
    ProxyCostModel model(space, kMetrics, cfg);
    model.train(train);

    Rng rng(8);
    std::vector<Action> cohort;
    for (std::size_t i = 0; i < 33; ++i)
        cohort.push_back(space.sample(rng));
    const std::vector<double> batch = model.predictBatch(cohort);
    ASSERT_EQ(batch.size(), cohort.size() * kMetrics.size());
    for (std::size_t r = 0; r < cohort.size(); ++r) {
        const Metrics scalar = model.predict(cohort[r]);
        for (std::size_t m = 0; m < kMetrics.size(); ++m)
            EXPECT_EQ(batch[m * cohort.size() + r], scalar[m])
                << "row=" << r << " metric=" << m;
    }
}

// --------------------------------------------------------------------
// ProxyAccuracy degenerate inputs -> NaN sentinels, not lies
// --------------------------------------------------------------------

TEST(ProxyAccuracy, DegenerateInputsReportNaNNotZero)
{
    const ParamSpace space = smallSpace();
    // Constant targets: the forest predicts a constant, so Pearson
    // correlation is undefined — it must surface as NaN, not a fake 0.
    std::vector<Transition> train;
    Rng rng(4);
    for (std::size_t i = 0; i < 40; ++i) {
        Transition t;
        t.action = space.sample(rng);
        t.observation = {5.0, 0.0};  // constant metric + zero-mean metric
        t.reward = 0.0;
        train.push_back(std::move(t));
    }
    ProxyCostModel model(space, kMetrics, {});
    model.train(train);
    const ProxyAccuracy acc = model.evaluate(train);

    EXPECT_TRUE(std::isnan(acc.correlation[0]));
    EXPECT_TRUE(std::isnan(acc.correlation[1]));
    // Metric 1 is identically zero: relative RMSE divides by mean |y|.
    EXPECT_TRUE(std::isnan(acc.relativeRmse[1]));
    // Metric 0 is constant but nonzero: relative RMSE is defined (0).
    EXPECT_EQ(acc.relativeRmse[0], 0.0);
    // The mean skips NaN entries instead of poisoning the summary.
    EXPECT_EQ(acc.meanRelativeRmse(), 0.0);
}

TEST(ProxyAccuracy, RenderValueFormatsNaNAsNa)
{
    EXPECT_EQ(ProxyAccuracy::renderValue(
                  std::numeric_limits<double>::quiet_NaN()),
              "n/a");
    EXPECT_EQ(ProxyAccuracy::renderValue(0.25), "0.2500");
}

// --------------------------------------------------------------------
// Proxy-screened sweep
// --------------------------------------------------------------------

/** Deterministic agent for screen tests (same shape as test_core's). */
class ScriptedAgent : public Agent
{
  public:
    ScriptedAgent(const ParamSpace &space, std::uint64_t seed)
        : Agent("Scripted", space, {}), rng_(seed)
    {}

    Action selectAction() override { return space_.sample(rng_); }
    void observe(const Action &, const Metrics &, double) override {}
    void reset() override {}

  private:
    Rng rng_;
};

/** reward = -metrics[0]; minimizing the quadratic error. */
class NegFirstMetricObjective : public Objective
{
  public:
    double reward(const Metrics &metrics) const override
    {
        return -metrics[0];
    }
    std::string describe() const override { return "-m0"; }
};

struct ScreenFixture
{
    EnvFactory factory = [] {
        return std::unique_ptr<Environment>(
            std::make_unique<QuadraticEnv>(
                std::vector<double>{3.0, 8.0}));
    };
    AgentBuilder builder = [](const ParamSpace &space, const HyperParams &,
                              std::uint64_t seed) {
        return std::unique_ptr<Agent>(
            std::make_unique<ScriptedAgent>(space, seed));
    };
    std::vector<HyperParams> configs;
    RunConfig runCfg;
    NegFirstMetricObjective objective;

    ScreenFixture()
    {
        HyperGrid grid;
        grid.add("dummy",
                 {1.0, 2.0, 3.0, 4.0, 5.0, 6.0, 7.0, 8.0, 9.0, 10.0});
        configs = grid.enumerate();
        runCfg.maxSamples = 12;
    }

    ProxyScreenOptions options(const std::string &dir) const
    {
        ProxyScreenOptions o;
        o.directory = dir;
        o.objective = &objective;
        o.pilotConfigs = 3;
        o.screenTopK = 2;
        o.shardSize = 2;
        o.numThreads = 1;
        o.forest.numTrees = 5;
        o.forest.maxDepth = 5;
        return o;
    }
};

TEST(ProxyScreen, DeterministicAcrossIndependentRuns)
{
    ScreenFixture fx;
    const auto a = runSweepProxyScreened(
        fx.factory, "Scripted", fx.builder, fx.configs, fx.runCfg,
        fx.options(tempDir("screen_det_a")), 21);
    const auto b = runSweepProxyScreened(
        fx.factory, "Scripted", fx.builder, fx.configs, fx.runCfg,
        fx.options(tempDir("screen_det_b")), 21);

    EXPECT_FALSE(a.screenReused);
    EXPECT_EQ(a.ranking, b.ranking);
    EXPECT_EQ(a.screenRewards, b.screenRewards);
    EXPECT_EQ(a.frontier, b.frontier);
    EXPECT_EQ(a.pilot.bestRewards, b.pilot.bestRewards);
    EXPECT_EQ(a.frontierSweep.bestRewards, b.frontierSweep.bestRewards);
    EXPECT_EQ(a.frontierSweep.bestActions, b.frontierSweep.bestActions);

    // Every screened config is ranked, ranking is sorted by reward.
    EXPECT_EQ(a.ranking.size(), fx.configs.size() - 3);
    for (std::size_t i = 1; i < a.screenRewards.size(); ++i)
        EXPECT_GE(a.screenRewards[i - 1], a.screenRewards[i]);
}

TEST(ProxyScreen, ResumeReusesRecordedScreenAndFrontierMatchesRanking)
{
    ScreenFixture fx;
    const std::string dir = tempDir("screen_resume");
    const auto first = runSweepProxyScreened(fx.factory, "Scripted",
                                             fx.builder, fx.configs,
                                             fx.runCfg, fx.options(dir),
                                             21);
    ASSERT_FALSE(first.screenReused);
    ASSERT_TRUE(fs::exists(fs::path(dir) / "screen.json"));

    const auto resumed = runSweepProxyScreened(fx.factory, "Scripted",
                                               fx.builder, fx.configs,
                                               fx.runCfg, fx.options(dir),
                                               21);
    EXPECT_TRUE(resumed.screenReused);
    EXPECT_EQ(resumed.ranking, first.ranking);
    EXPECT_EQ(resumed.screenRewards, first.screenRewards);
    EXPECT_EQ(resumed.frontier, first.frontier);
    EXPECT_EQ(resumed.frontierSweep.bestRewards,
              first.frontierSweep.bestRewards);

    // frontier is exactly the top-K prefix of the ranking, and the
    // frontier sweep simulated those configs in ranking order.
    ASSERT_EQ(first.frontier.size(), 2u);
    EXPECT_EQ(first.frontier[0], first.ranking[0]);
    EXPECT_EQ(first.frontier[1], first.ranking[1]);
    ASSERT_EQ(first.frontierSweep.configs.size(), 2u);
    EXPECT_EQ(first.frontierSweep.configs[0].str(),
              fx.configs[first.ranking[0]].str());
    EXPECT_EQ(first.frontierSweep.configs[1].str(),
              fx.configs[first.ranking[1]].str());
}

TEST(ProxyScreen, MismatchedScreenRecordThrows)
{
    ScreenFixture fx;
    const std::string dir = tempDir("screen_mismatch");
    runSweepProxyScreened(fx.factory, "Scripted", fx.builder, fx.configs,
                          fx.runCfg, fx.options(dir), 21);

    // Different base seed would invalidate every recorded decision.
    EXPECT_THROW(runSweepProxyScreened(fx.factory, "Scripted", fx.builder,
                                       fx.configs, fx.runCfg,
                                       fx.options(dir), 22),
                 std::runtime_error);

    // So would a different top-K.
    auto opts = fx.options(dir);
    opts.screenTopK = 3;
    EXPECT_THROW(runSweepProxyScreened(fx.factory, "Scripted", fx.builder,
                                       fx.configs, fx.runCfg, opts, 21),
                 std::runtime_error);
}

TEST(ProxyScreen, ColumnarAndCsvTrainingProduceTheSameRanking)
{
    ScreenFixture fx;
    auto colOpts = fx.options(tempDir("screen_columnar"));
    colOpts.columnar = true;
    const auto viaColumnar = runSweepProxyScreened(
        fx.factory, "Scripted", fx.builder, fx.configs, fx.runCfg,
        colOpts, 21);

    auto csvOpts = fx.options(tempDir("screen_csv"));
    csvOpts.columnar = false;
    const auto viaCsv = runSweepProxyScreened(
        fx.factory, "Scripted", fx.builder, fx.configs, fx.runCfg,
        csvOpts, 21);

    // The columnar reader feeds the forest the same rows in the same
    // order as the reference reader, so training — and therefore the
    // whole screen — is bit-identical.
    EXPECT_EQ(viaColumnar.ranking, viaCsv.ranking);
    EXPECT_EQ(viaColumnar.screenRewards, viaCsv.screenRewards);
    EXPECT_EQ(viaColumnar.frontier, viaCsv.frontier);
    EXPECT_EQ(viaColumnar.trainRowCount, viaCsv.trainRowCount);
}

} // namespace
} // namespace archgym
