/**
 * @file
 * Tests for the sharded, resumable sweep engine (runSweepSharded) and
 * its dataset export path: interruption/resume bit-identity at several
 * worker counts, manifest validation and shard re-ingestion.
 */

#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <condition_variable>
#include <cstdint>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <limits>
#include <mutex>
#include <sstream>
#include <stdexcept>

#include "core/agent.h"
#include "core/driver.h"
#include "core/toy_envs.h"
#include "core/trajectory.h"
#include "envs/farsi_gym_env.h"
#include "fault_injection.h"

namespace archgym {
namespace {

namespace fs = std::filesystem;
using testing::FaultHookGuard;

/** Minimal deterministic agent (same shape as test_core's). */
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

AgentBuilder
scriptedBuilder()
{
    return [](const ParamSpace &space, const HyperParams &,
              std::uint64_t seed) {
        return std::unique_ptr<Agent>(
            std::make_unique<ScriptedAgent>(space, seed));
    };
}

std::vector<HyperParams>
dummyConfigs(std::size_t n)
{
    HyperGrid grid;
    std::vector<double> values;
    for (std::size_t i = 0; i < n; ++i)
        values.push_back(static_cast<double>(i + 1));
    grid.add("dummy", values);
    return grid.enumerate();
}

EnvFactory
quadraticFactory()
{
    return [] {
        return std::unique_ptr<Environment>(std::make_unique<QuadraticEnv>(
            std::vector<double>{3.0, 8.0}));
    };
}

std::string
tempDir(const std::string &name)
{
    const fs::path dir = fs::path(::testing::TempDir()) / name;
    fs::remove_all(dir);
    return dir.string();
}

std::string
fileBytes(const fs::path &path)
{
    std::ifstream in(path, std::ios::binary);
    std::ostringstream os;
    os << in.rdbuf();
    return os.str();
}

/** All shard files (sorted by name) -> concatenated bytes. */
std::string
shardBytes(const std::string &dir, const std::string &extension)
{
    std::vector<fs::path> files;
    for (const auto &entry : fs::directory_iterator(dir))
        if (entry.path().extension() == extension &&
            entry.path().filename().string().rfind("shard_", 0) == 0)
            files.push_back(entry.path());
    std::sort(files.begin(), files.end());
    std::string bytes;
    for (const auto &f : files) {
        bytes += f.filename().string();
        bytes += '\n';
        bytes += fileBytes(f);
    }
    return bytes;
}

void
expectSameResult(const ShardedSweepResult &a, const ShardedSweepResult &b)
{
    EXPECT_EQ(a.agentName, b.agentName);
    EXPECT_EQ(a.bestRewards, b.bestRewards);
    EXPECT_EQ(a.bestActions, b.bestActions);
    EXPECT_EQ(a.samplesUsed, b.samplesUsed);
    EXPECT_EQ(a.seeds, b.seeds);
    EXPECT_EQ(a.shardCount, b.shardCount);
}

// --------------------------------------------------------------------
// Equivalence with the unsharded engines
// --------------------------------------------------------------------

TEST(ShardedSweep, MatchesUnshardedSweepExactly)
{
    const auto configs = dummyConfigs(11);
    RunConfig cfg;
    cfg.maxSamples = 30;

    QuadraticEnv serialEnv({3.0, 8.0});
    const SweepResult serial = runSweep(serialEnv, "Scripted",
                                        scriptedBuilder(), configs, cfg,
                                        7);

    ShardedSweepOptions opts;
    opts.directory = tempDir("sharded_vs_serial");
    opts.shardSize = 4;  // 3 shards, last one ragged
    opts.exportDataset = true;
    const ShardedSweepResult sharded =
        runSweepSharded(quadraticFactory(), "Scripted", scriptedBuilder(),
                        configs, cfg, opts, 7);

    EXPECT_TRUE(sharded.complete);
    EXPECT_EQ(sharded.shardCount, 3u);
    EXPECT_EQ(sharded.shardsRun, 3u);
    EXPECT_EQ(sharded.bestRewards, serial.bestRewards);
    ASSERT_EQ(sharded.bestActions.size(), serial.runs.size());
    for (std::size_t i = 0; i < serial.runs.size(); ++i) {
        EXPECT_EQ(sharded.bestActions[i], serial.runs[i].bestAction);
        EXPECT_EQ(sharded.samplesUsed[i], serial.runs[i].samplesUsed);
    }
}

// --------------------------------------------------------------------
// Interruption / resume
// --------------------------------------------------------------------

TEST(ShardedSweep, InterruptResumeBitIdenticalAtAnyWorkerCount)
{
    const auto configs = dummyConfigs(10);  // 4 shards of 3,3,3,1
    RunConfig cfg;
    cfg.maxSamples = 25;

    // Reference: one uninterrupted run (single worker).
    ShardedSweepOptions refOpts;
    refOpts.directory = tempDir("resume_ref");
    refOpts.shardSize = 3;
    refOpts.numThreads = 1;
    refOpts.exportDataset = true;
    const ShardedSweepResult ref =
        runSweepSharded(quadraticFactory(), "Scripted", scriptedBuilder(),
                        configs, cfg, refOpts, 11);
    ASSERT_TRUE(ref.complete);
    const std::string refCsv = shardBytes(refOpts.directory, ".csv");
    const std::string refJsonl = shardBytes(refOpts.directory, ".jsonl");
    ASSERT_FALSE(refCsv.empty());

    for (const std::size_t threads : {1u, 2u, 8u}) {
        ShardedSweepOptions opts;
        opts.directory = tempDir("resume_t" + std::to_string(threads));
        opts.shardSize = 3;
        opts.numThreads = threads;
        opts.exportDataset = true;

        // "Kill" the sweep after 2 of 4 shards...
        auto interrupted = opts;
        interrupted.maxShards = 2;
        const ShardedSweepResult partial = runSweepSharded(
            quadraticFactory(), "Scripted", scriptedBuilder(), configs,
            cfg, interrupted, 11);
        EXPECT_FALSE(partial.complete);
        EXPECT_EQ(partial.shardsRun, 2u);

        // ... leave half-written in-flight files behind, as a real
        // interruption mid-shard would ...
        {
            std::ofstream garbage(fs::path(opts.directory) /
                                  "shard_0002.jsonl.tmp");
            garbage << "{\"config\":torn";
            std::ofstream torn(fs::path(opts.directory) /
                               "shard_0002.csv.tmp");
            torn << "# env=Quadratic\n1,2,3";
        }

        // ... and resume: completed shards re-ingest, the rest re-run.
        const ShardedSweepResult resumed = runSweepSharded(
            quadraticFactory(), "Scripted", scriptedBuilder(), configs,
            cfg, opts, 11);
        EXPECT_TRUE(resumed.complete);
        EXPECT_EQ(resumed.shardsSkipped, 2u) << threads << " threads";
        EXPECT_EQ(resumed.shardsRun, 2u) << threads << " threads";
        expectSameResult(resumed, ref);
        // The exported dataset and the per-config result records are
        // byte-identical to the uninterrupted run's.
        EXPECT_EQ(shardBytes(opts.directory, ".csv"), refCsv)
            << threads << " threads";
        EXPECT_EQ(shardBytes(opts.directory, ".jsonl"), refJsonl)
            << threads << " threads";
        // No stray in-flight files survive a completed resume.
        for (const auto &entry :
             fs::directory_iterator(opts.directory))
            EXPECT_NE(entry.path().extension(), ".tmp");
    }
}

TEST(ShardedSweep, ClaimKeepsStagingFilesOfShardsSharingItsPrefix)
{
    // 1,001 one-config shards: shard 1000's stem "shard_1000" is a
    // prefix of shard 10000's. Shards 0-999 are already final, so the
    // sweep claims and runs shard 1000 alone.
    const std::size_t n = 1001;
    const std::uint64_t baseSeed = 4;
    const auto configs = dummyConfigs(n);
    const std::string dir = tempDir("staging_prefix");
    fs::create_directories(dir);
    for (std::size_t i = 0; i + 1 < n; ++i) {
        char name[32];
        std::snprintf(name, sizeof(name), "shard_%04zu.jsonl", i);
        std::ofstream out(fs::path(dir) / name);
        out << "{\"config\":" << i
            << ",\"seed\":" << sweepConfigSeed(baseSeed, i)
            << ",\"bestReward\":0.5,\"bestSampleIndex\":0,"
               "\"samplesUsed\":1,\"bestAction\":[],\"hyper\":\"h\"}\n";
    }
    // Stands in for the staging file of shard 10000 in a sweep of over
    // 10,000 shards, which a live peer may be about to rename into place.
    const fs::path peer = fs::path(dir) / "shard_10000.csv.tmp.77.1";
    std::ofstream(peer) << "# env=peer\n";

    RunConfig cfg;
    cfg.maxSamples = 5;
    ShardedSweepOptions opts;
    opts.directory = dir;
    opts.shardSize = 1;
    const ShardedSweepResult result =
        runSweepSharded(quadraticFactory(), "Scripted", scriptedBuilder(),
                        configs, cfg, opts, baseSeed);
    EXPECT_TRUE(result.complete);
    EXPECT_EQ(result.shardsSkipped, n - 1);
    EXPECT_EQ(result.shardsRun, 1u);
    EXPECT_EQ(result.samplesUsed[n - 1], 5u);
    EXPECT_TRUE(fs::exists(peer));
}

/**
 * Gate of a straggling run: config 0's first step parks until a run of
 * shard 1 begins, or until a timeout passes.
 */
struct StragglerGate
{
    std::mutex mutex;
    std::condition_variable cv;
    bool shard1Started = false;
    bool parked = false;
    bool signalled = false;  ///< the park ended by the signal, not timeout
};

/** Config the calling worker thread is running (set by beforeRun). */
thread_local std::size_t t_config = std::numeric_limits<std::size_t>::max();

/** The quadratic bowl, with config 0's first step parked on the gate. */
class StragglingEnv : public QuadraticEnv
{
  public:
    explicit StragglingEnv(StragglerGate &gate)
        : QuadraticEnv({3.0, 8.0}), gate_(gate)
    {}

    StepResult step(const Action &action) override
    {
        if (t_config == 0) {
            std::unique_lock<std::mutex> lock(gate_.mutex);
            if (!gate_.parked) {
                gate_.parked = true;
                gate_.signalled =
                    gate_.cv.wait_for(lock, std::chrono::seconds(5),
                                      [this] { return gate_.shard1Started; });
            }
        }
        return QuadraticEnv::step(action);
    }

  private:
    StragglerGate &gate_;
};

TEST(ShardedSweep, IdleWorkerRunsTheNextShardPastAStraggler)
{
    const auto configs = dummyConfigs(4);  // shards {0,1} and {2,3}
    RunConfig cfg;
    cfg.maxSamples = 10;

    ShardedSweepOptions refOpts;
    refOpts.directory = tempDir("straggler_ref");
    refOpts.shardSize = 2;
    refOpts.numThreads = 1;
    refOpts.exportDataset = true;
    const ShardedSweepResult ref =
        runSweepSharded(quadraticFactory(), "Scripted", scriptedBuilder(),
                        configs, cfg, refOpts, 19);

    // While config 0 straggles, the other worker must finish config 1,
    // claim shard 1 and start its runs — the straggler waits for that.
    FaultHookGuard guard;
    StragglerGate gate;
    faultHooks().beforeRun = [&gate](const std::string &, std::size_t shard,
                                     std::size_t config) {
        t_config = config;
        if (shard == 1) {
            {
                std::lock_guard<std::mutex> lock(gate.mutex);
                gate.shard1Started = true;
            }
            gate.cv.notify_all();
        }
    };
    const EnvFactory straggling = [&gate] {
        return std::unique_ptr<Environment>(
            std::make_unique<StragglingEnv>(gate));
    };
    ShardedSweepOptions opts = refOpts;
    opts.directory = tempDir("straggler");
    opts.numThreads = 2;
    const ShardedSweepResult result = runSweepSharded(
        straggling, "Scripted", scriptedBuilder(), configs, cfg, opts, 19);

    EXPECT_TRUE(gate.parked);
    EXPECT_TRUE(gate.signalled)
        << "the straggler timed out: shard 1 never started while it ran";
    EXPECT_TRUE(result.complete);
    EXPECT_EQ(result.shardsRun, 2u);
    expectSameResult(result, ref);
    EXPECT_EQ(shardBytes(opts.directory, ".jsonl"),
              shardBytes(refOpts.directory, ".jsonl"));
    EXPECT_EQ(shardBytes(opts.directory, ".csv"),
              shardBytes(refOpts.directory, ".csv"));
}

TEST(ShardedSweep, FullResumeRunsNothing)
{
    const auto configs = dummyConfigs(8);
    RunConfig cfg;
    cfg.maxSamples = 20;
    ShardedSweepOptions opts;
    opts.directory = tempDir("full_resume");
    opts.shardSize = 3;

    std::atomic<std::size_t> factoryCalls{0};  // pool threads build envs
    const EnvFactory countingFactory = [&factoryCalls] {
        ++factoryCalls;
        return std::unique_ptr<Environment>(std::make_unique<QuadraticEnv>(
            std::vector<double>{3.0, 8.0}));
    };
    const ShardedSweepResult first =
        runSweepSharded(countingFactory, "Scripted", scriptedBuilder(),
                        configs, cfg, opts, 3);
    ASSERT_TRUE(first.complete);
    const std::size_t callsAfterFirst = factoryCalls;

    const ShardedSweepResult second =
        runSweepSharded(countingFactory, "Scripted", scriptedBuilder(),
                        configs, cfg, opts, 3);
    EXPECT_TRUE(second.complete);
    EXPECT_EQ(second.shardsSkipped, second.shardCount);
    EXPECT_EQ(second.shardsRun, 0u);
    // Pure re-ingest: only the metadata environment (manifest identity
    // check) is built, no per-worker evaluation environments.
    EXPECT_EQ(factoryCalls.load(), callsAfterFirst + 1);
    expectSameResult(second, first);
}

TEST(ShardedSweep, PartialResultMarksIncompleteConfigs)
{
    const auto configs = dummyConfigs(9);
    RunConfig cfg;
    cfg.maxSamples = 10;
    ShardedSweepOptions opts;
    opts.directory = tempDir("partial");
    opts.shardSize = 3;
    opts.maxShards = 1;
    const ShardedSweepResult partial =
        runSweepSharded(quadraticFactory(), "Scripted", scriptedBuilder(),
                        configs, cfg, opts, 5);
    EXPECT_FALSE(partial.complete);
    EXPECT_EQ(partial.shardsRun, 1u);
    for (std::size_t i = 0; i < 3; ++i) {
        EXPECT_GT(partial.bestRewards[i], 0.0);
        EXPECT_EQ(partial.samplesUsed[i], 10u);
    }
    for (std::size_t i = 3; i < 9; ++i) {
        EXPECT_EQ(partial.bestRewards[i],
                  -std::numeric_limits<double>::infinity());
        EXPECT_EQ(partial.samplesUsed[i], 0u);
    }
}

TEST(ShardedSweep, ManifestMismatchThrows)
{
    const auto configs = dummyConfigs(6);
    RunConfig cfg;
    cfg.maxSamples = 15;
    ShardedSweepOptions opts;
    opts.directory = tempDir("mismatch");
    opts.shardSize = 2;
    runSweepSharded(quadraticFactory(), "Scripted", scriptedBuilder(),
                    configs, cfg, opts, 9);

    // Different base seed: different sweep, must not silently mix.
    EXPECT_THROW(runSweepSharded(quadraticFactory(), "Scripted",
                                 scriptedBuilder(), configs, cfg, opts,
                                 10),
                 std::runtime_error);
    // Different environment family: foreign results must not re-ingest.
    const EnvFactory otherEnv = [] {
        return std::unique_ptr<Environment>(
            std::make_unique<OneMaxEnv>(4));
    };
    EXPECT_THROW(runSweepSharded(otherEnv, "Scripted", scriptedBuilder(),
                                 configs, cfg, opts, 9),
                 std::runtime_error);
    // Different stopping rule.
    RunConfig stopCfg = cfg;
    stopCfg.stopWhenSatisfied = true;
    EXPECT_THROW(runSweepSharded(quadraticFactory(), "Scripted",
                                 scriptedBuilder(), configs, stopCfg,
                                 opts, 9),
                 std::runtime_error);
    // Different agent name.
    EXPECT_THROW(runSweepSharded(quadraticFactory(), "Other",
                                 scriptedBuilder(), configs, cfg, opts,
                                 9),
                 std::runtime_error);
    // Different shard partitioning.
    auto badShard = opts;
    badShard.shardSize = 3;
    EXPECT_THROW(runSweepSharded(quadraticFactory(), "Scripted",
                                 scriptedBuilder(), configs, cfg,
                                 badShard, 9),
                 std::runtime_error);
    // Different configuration list (hash mismatch).
    auto otherConfigs = configs;
    otherConfigs.back().set("dummy", 99.0);
    EXPECT_THROW(runSweepSharded(quadraticFactory(), "Scripted",
                                 scriptedBuilder(), otherConfigs, cfg,
                                 opts, 9),
                 std::runtime_error);
    // Different sample budget.
    RunConfig otherCfg = cfg;
    otherCfg.maxSamples = 16;
    EXPECT_THROW(runSweepSharded(quadraticFactory(), "Scripted",
                                 scriptedBuilder(), configs, otherCfg,
                                 opts, 9),
                 std::runtime_error);
    // The matching sweep still resumes fine after all those rejections.
    const ShardedSweepResult ok =
        runSweepSharded(quadraticFactory(), "Scripted", scriptedBuilder(),
                        configs, cfg, opts, 9);
    EXPECT_TRUE(ok.complete);
    EXPECT_EQ(ok.shardsRun, 0u);
}

/**
 * Expect `fn` to throw a std::runtime_error whose message contains
 * every given fragment — the per-field manifest-mismatch contract:
 * name the field and show both values.
 */
template <typename Fn>
void
expectThrowContaining(Fn &&fn, const std::vector<std::string> &fragments)
{
    try {
        fn();
        FAIL() << "expected std::runtime_error";
    } catch (const std::runtime_error &e) {
        const std::string what = e.what();
        for (const auto &fragment : fragments)
            EXPECT_NE(what.find(fragment), std::string::npos)
                << "message lacks \"" << fragment << "\": " << what;
    }
}

TEST(ShardedSweep, ManifestMismatchNamesFieldAndBothValues)
{
    const auto configs = dummyConfigs(6);
    RunConfig cfg;
    cfg.maxSamples = 15;
    ShardedSweepOptions opts;
    opts.directory = tempDir("mismatch_fields");
    opts.shardSize = 2;
    runSweepSharded(quadraticFactory(), "Scripted", scriptedBuilder(),
                    configs, cfg, opts, 9);

    const auto rerun = [&](const std::string &agent,
                           const std::vector<HyperParams> &cs,
                           const RunConfig &c,
                           const ShardedSweepOptions &o,
                           std::uint64_t seed) {
        return [=] {
            runSweepSharded(quadraticFactory(), agent, scriptedBuilder(),
                            cs, c, o, seed);
        };
    };

    expectThrowContaining(rerun("Scripted", configs, cfg, opts, 10),
                          {"'baseSeed'", "9", "10"});
    expectThrowContaining(rerun("Other", configs, cfg, opts, 9),
                          {"'agent'", "\"Scripted\"", "\"Other\""});
    const EnvFactory otherEnv = [] {
        return std::unique_ptr<Environment>(std::make_unique<OneMaxEnv>(4));
    };
    QuadraticEnv quadratic({3.0, 8.0});
    OneMaxEnv onemax(4);
    expectThrowContaining(
        [&] {
            runSweepSharded(otherEnv, "Scripted", scriptedBuilder(),
                            configs, cfg, opts, 9);
        },
        {"'env'", "\"" + quadratic.name() + "\"",
         "\"" + onemax.name() + "\""});

    expectThrowContaining(rerun("Scripted", dummyConfigs(7), cfg, opts, 9),
                          {"'configCount'", "6", "7"});
    auto badShard = opts;
    badShard.shardSize = 3;
    expectThrowContaining(rerun("Scripted", configs, cfg, badShard, 9),
                          {"'shardSize'", "2", "3"});
    RunConfig moreSamples = cfg;
    moreSamples.maxSamples = 16;
    expectThrowContaining(rerun("Scripted", configs, moreSamples, opts, 9),
                          {"'maxSamples'", "15", "16"});
    RunConfig stopCfg = cfg;
    stopCfg.stopWhenSatisfied = true;
    expectThrowContaining(rerun("Scripted", configs, stopCfg, opts, 9),
                          {"'stopWhenSatisfied'", "0", "1"});
    RunConfig batchCfg = cfg;
    batchCfg.batchEval = true;
    expectThrowContaining(rerun("Scripted", configs, batchCfg, opts, 9),
                          {"'batchEval'", "0", "1"});
    auto exported = opts;
    exported.exportDataset = true;
    expectThrowContaining(rerun("Scripted", configs, cfg, exported, 9),
                          {"'exportDataset'", "0", "1"});
    auto otherConfigs = configs;
    otherConfigs.back().set("dummy", 99.0);
    expectThrowContaining(rerun("Scripted", otherConfigs, cfg, opts, 9),
                          {"'configsHash'"});
}

// --------------------------------------------------------------------
// Corrupted on-disk state on the resume path
// --------------------------------------------------------------------

/** A completed 2-shard sweep to corrupt, plus its resume callable. */
struct ResumableSweep
{
    std::vector<HyperParams> configs = dummyConfigs(6);
    RunConfig cfg;
    ShardedSweepOptions opts;

    explicit ResumableSweep(const std::string &name)
    {
        cfg.maxSamples = 10;
        opts.directory = tempDir(name);
        opts.shardSize = 3;
        const auto done =
            runSweepSharded(quadraticFactory(), "Scripted",
                            scriptedBuilder(), configs, cfg, opts, 9);
        EXPECT_TRUE(done.complete);
    }

    void resume() const
    {
        runSweepSharded(quadraticFactory(), "Scripted", scriptedBuilder(),
                        configs, cfg, opts, 9);
    }

    fs::path path(const std::string &file) const
    {
        return fs::path(opts.directory) / file;
    }
};

TEST(ShardedSweep, TruncatedFinalShardFailsWithLineNumber)
{
    const ResumableSweep sweep("corrupt_truncated");
    // Chop into the last result line: a structurally torn record must
    // fail naming file and line, never ingest a shortened bestAction.
    const fs::path shard = sweep.path("shard_0000.jsonl");
    const auto size = fs::file_size(shard);
    fs::resize_file(shard, size - 4);
    expectThrowContaining([&] { sweep.resume(); },
                          {"shard_0000.jsonl:3", "truncated"});
}

TEST(ShardedSweep, MissingTrailingLinesFailWithCount)
{
    const ResumableSweep sweep("corrupt_short");
    // Drop the whole last line (clean truncation at a line boundary).
    const std::string bytes = fileBytes(sweep.path("shard_0000.jsonl"));
    const auto cut = bytes.rfind('\n', bytes.size() - 2);
    ASSERT_NE(cut, std::string::npos);
    std::ofstream out(sweep.path("shard_0000.jsonl"),
                      std::ios::binary | std::ios::trunc);
    out << bytes.substr(0, cut + 1);
    out.close();
    expectThrowContaining([&] { sweep.resume(); },
                          {"shard_0000.jsonl", "holds 2 of 3"});
}

TEST(ShardedSweep, GarbageTrailingBytesFailWithLineNumber)
{
    const ResumableSweep sweep("corrupt_garbage");
    {
        std::ofstream out(sweep.path("shard_0001.jsonl"),
                          std::ios::binary | std::ios::app);
        out << "{not a result line}\n";
    }
    expectThrowContaining([&] { sweep.resume(); },
                          {"shard_0001.jsonl:4", "config"});
}

TEST(ShardedSweep, EmptyManifestFailsWithClearError)
{
    const ResumableSweep sweep("corrupt_manifest");
    {
        std::ofstream out(sweep.path("manifest.json"),
                          std::ios::binary | std::ios::trunc);
    }
    expectThrowContaining([&] { sweep.resume(); },
                          {"manifest", "empty"});
}

// --------------------------------------------------------------------
// Streaming dataset export
// --------------------------------------------------------------------

TEST(ShardedSweep, ExportedDatasetMatchesDirectRuns)
{
    const auto configs = dummyConfigs(5);
    RunConfig cfg;
    cfg.maxSamples = 12;
    ShardedSweepOptions opts;
    opts.directory = tempDir("exported");
    opts.shardSize = 2;
    opts.exportDataset = true;
    const ShardedSweepResult sweep =
        runSweepSharded(quadraticFactory(), "Scripted", scriptedBuilder(),
                        configs, cfg, opts, 13);
    ASSERT_TRUE(sweep.complete);

    const Dataset dataset = Dataset::loadDirectory(opts.directory);
    EXPECT_EQ(dataset.logCount(), configs.size());
    EXPECT_EQ(dataset.transitionCount(), configs.size() * 12);

    // Every streamed trajectory is value-exact (shortest round-trip
    // doubles) against a direct re-run of the same config and seed.
    QuadraticEnv env({3.0, 8.0});
    RunConfig direct = cfg;
    direct.logTrajectory = true;
    for (std::size_t k = 0; k < configs.size(); ++k) {
        ScriptedAgent agent(env.actionSpace(), sweep.seeds[k]);
        const RunResult run = runSearch(env, agent, direct);
        const TrajectoryLog &streamed = dataset.log(k);
        ASSERT_EQ(streamed.size(), run.trajectory.size());
        for (std::size_t t = 0; t < run.trajectory.size(); ++t) {
            EXPECT_EQ(streamed[t].action, run.trajectory[t].action);
            EXPECT_EQ(streamed[t].observation,
                      run.trajectory[t].observation);
            EXPECT_EQ(streamed[t].reward, run.trajectory[t].reward);
        }
    }
}

TEST(ShardedSweep, WorksOnSimulatorBackedEnvironment)
{
    // FARSI: a real cost model through the full path — sharded engine,
    // export, resume — matching runSweepParallel bit-exactly.
    const auto configs = dummyConfigs(5);
    RunConfig cfg;
    cfg.maxSamples = 15;
    const EnvFactory factory = [] {
        return std::unique_ptr<Environment>(
            std::make_unique<FarsiGymEnv>());
    };
    const SweepResult parallel =
        runSweepParallel(factory, "Scripted", scriptedBuilder(), configs,
                         cfg, 17, 2);

    ShardedSweepOptions opts;
    opts.directory = tempDir("farsi_sharded");
    opts.shardSize = 2;
    opts.exportDataset = true;
    opts.numThreads = 2;
    const ShardedSweepResult sharded =
        runSweepSharded(factory, "Scripted", scriptedBuilder(), configs,
                        cfg, opts, 17);
    EXPECT_EQ(sharded.bestRewards, parallel.bestRewards);
    const Dataset ds = Dataset::loadDirectory(opts.directory);
    EXPECT_EQ(ds.transitionCount(), configs.size() * 15);
}

} // namespace
} // namespace archgym
