/**
 * @file
 * Tests for the cooperative multi-worker sweep service: lease-based
 * shard claiming, heartbeat expiry and stealing, run-granular crash
 * repair from checksummed partial files, and byte-identity of the
 * final results and exported datasets across every injected failure
 * at 1, 2 and 8 cooperating workers — plus one real multi-process
 * smoke test through `archgym_cli --sweep-worker`.
 */

#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <cmath>
#include <condition_variable>
#include <cstdint>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <future>
#include <limits>
#include <mutex>
#include <sstream>
#include <thread>
#include <vector>

#include "core/agent.h"
#include "core/driver.h"
#include "core/jsonio.h"
#include "core/lease.h"
#include "core/resilience.h"
#include "core/toy_envs.h"
#include "core/trajectory.h"
#include "fault_injection.h"

namespace archgym {
namespace {

namespace fs = std::filesystem;
using testing::BlockRunOnce;
using testing::FaultHookGuard;
using testing::InjectedClock;
using testing::KillAfterRuns;
using testing::PoisonConfigs;
using testing::StallHeartbeats;

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

/**
 * Like shardBytes, but only the *final* artifacts: quarantine ledgers
 * (shard_NNNN.quarantine.jsonl) are deliberately excluded — they are
 * durable post-mortem records that carry worker ids and attempt
 * schedules, so their bytes legitimately differ across worker counts
 * while the finals must not.
 */
std::string
finalShardBytes(const std::string &dir, const std::string &extension)
{
    std::vector<fs::path> files;
    for (const auto &entry : fs::directory_iterator(dir)) {
        const std::string name = entry.path().filename().string();
        if (entry.path().extension() == extension &&
            name.rfind("shard_", 0) == 0 &&
            name.find(".quarantine.") == std::string::npos)
            files.push_back(entry.path());
    }
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
    EXPECT_EQ(a.quarantined, b.quarantined);
    EXPECT_EQ(a.shardCount, b.shardCount);
}

/** The canonical small sweep used throughout; 10 configs, 4 shards. */
struct Fixture
{
    std::vector<HyperParams> configs = dummyConfigs(10);
    RunConfig cfg;
    std::uint64_t baseSeed = 21;

    Fixture() { cfg.maxSamples = 10; }

    ShardedSweepOptions options(const std::string &dir,
                                const std::string &worker) const
    {
        ShardedSweepOptions opts;
        opts.directory = dir;
        opts.shardSize = 3;
        opts.numThreads = 1;
        opts.exportDataset = true;
        opts.workerId = worker;
        opts.pollMs = 2;
        return opts;
    }

    ShardedSweepResult run(const ShardedSweepOptions &opts) const
    {
        return runSweepSharded(quadraticFactory(), "Scripted",
                               scriptedBuilder(), configs, cfg, opts,
                               baseSeed);
    }

    /** Uninterrupted single-worker reference run in its own dir. */
    ShardedSweepResult reference(const std::string &dir) const
    {
        return run(options(dir, "ref"));
    }
};

// --------------------------------------------------------------------
// Cooperative execution without faults
// --------------------------------------------------------------------

TEST(SweepService, CooperatingWorkersProduceByteIdenticalResults)
{
    const Fixture fx;
    const std::string refDir = tempDir("svc_ref");
    const ShardedSweepResult ref = fx.reference(refDir);
    ASSERT_TRUE(ref.complete);
    const std::string refJsonl = shardBytes(refDir, ".jsonl");
    const std::string refCsv = shardBytes(refDir, ".csv");

    for (const std::size_t workers : {1u, 2u, 8u}) {
        const std::string dir =
            tempDir("svc_coop_" + std::to_string(workers));
        std::vector<ShardedSweepResult> results(workers);
        std::vector<std::thread> threads;
        for (std::size_t w = 0; w < workers; ++w)
            threads.emplace_back([&, w] {
                results[w] =
                    fx.run(fx.options(dir, "w" + std::to_string(w)));
            });
        for (auto &t : threads)
            t.join();

        std::size_t totalRun = 0;
        for (std::size_t w = 0; w < workers; ++w) {
            EXPECT_TRUE(results[w].complete) << workers << " workers";
            // Every worker either ran or re-ingested each shard.
            EXPECT_EQ(results[w].shardsRun + results[w].shardsSkipped,
                      results[w].shardCount);
            EXPECT_EQ(results[w].shardsStolen, 0u);
            EXPECT_EQ(results[w].runsRepaired, 0u);
            expectSameResult(results[w], ref);
            totalRun += results[w].shardsRun;
        }
        // No faults: each shard is executed exactly once fleet-wide.
        EXPECT_EQ(totalRun, ref.shardCount) << workers << " workers";
        EXPECT_EQ(shardBytes(dir, ".jsonl"), refJsonl)
            << workers << " workers";
        EXPECT_EQ(shardBytes(dir, ".csv"), refCsv)
            << workers << " workers";
    }
}

// --------------------------------------------------------------------
// Crash, steal, repair
// --------------------------------------------------------------------

TEST(SweepService, KilledWorkerShardIsStolenAndRepairedRunGranular)
{
    const Fixture fx;
    const std::string refDir = tempDir("svc_kill_ref");
    const ShardedSweepResult ref = fx.reference(refDir);

    const std::string dir = tempDir("svc_kill");
    FaultHookGuard guard;
    InjectedClock clock;

    auto opts = fx.options(dir, "victim");
    opts.leaseTtlMs = 1000;
    {
        KillAfterRuns kill("victim", 2);
        EXPECT_THROW(fx.run(opts), WorkerKilled);
        EXPECT_TRUE(kill.fired());
    }

    // SIGKILL aftermath: the lease survives (stale once the TTL
    // passes) and the two persisted runs sit in the partial file.
    EXPECT_TRUE(fs::exists(fs::path(dir) / "shard_0000.lease"));
    EXPECT_TRUE(fs::exists(fs::path(dir) / "shard_0000.partial"));
    EXPECT_FALSE(fs::exists(fs::path(dir) / "shard_0000.jsonl"));

    InjectedClock::advanceMs(2000);  // let the victim's lease go stale

    auto peer = fx.options(dir, "peer");
    peer.leaseTtlMs = 1000;
    const ShardedSweepResult repaired = fx.run(peer);
    EXPECT_TRUE(repaired.complete);
    EXPECT_EQ(repaired.shardsStolen, 1u);
    EXPECT_EQ(repaired.runsRepaired, 2u);  // run-granular, not shard
    expectSameResult(repaired, ref);
    EXPECT_EQ(shardBytes(dir, ".jsonl"), shardBytes(refDir, ".jsonl"));
    EXPECT_EQ(shardBytes(dir, ".csv"), shardBytes(refDir, ".csv"));
    // The repair consumed the dead worker's leftovers.
    EXPECT_FALSE(fs::exists(fs::path(dir) / "shard_0000.lease"));
    EXPECT_FALSE(fs::exists(fs::path(dir) / "shard_0000.partial"));
}

TEST(SweepService, CrashWithTwoShardsOpenRepairsEveryPersistedRun)
{
    const Fixture fx;
    const std::string refDir = tempDir("svc_two_open_ref");
    fx.reference(refDir);

    const std::string dir = tempDir("svc_two_open");
    FaultHookGuard guard;
    InjectedClock clock;

    // Latches, not timing: config 0 (shard 0) parks until a run of
    // shard 1 is durable — the other slot persisted configs 1 and 2,
    // claimed shard 1 and persisted config 3 meanwhile — then kills the
    // worker. Runs that start after that point die unpersisted too.
    std::mutex mutex;
    std::condition_variable cv;
    bool shard1Persisted = false, killed = false, parkSignalled = false;
    std::size_t persisted = 0;
    faultHooks().afterRunPersisted = [&](const std::string &,
                                         std::size_t shard, std::size_t) {
        {
            std::lock_guard<std::mutex> lock(mutex);
            ++persisted;
            shard1Persisted = shard1Persisted || shard == 1;
        }
        cv.notify_all();
    };
    faultHooks().beforeRun = [&](const std::string &worker, std::size_t,
                                 std::size_t config) {
        std::unique_lock<std::mutex> lock(mutex);
        if (config == 0) {
            parkSignalled = cv.wait_for(lock, std::chrono::seconds(5),
                                        [&] { return shard1Persisted; });
            killed = true;
            cv.notify_all();
            throw WorkerKilled(worker);
        }
        if (shard1Persisted) {
            cv.wait(lock, [&] { return killed; });
            throw WorkerKilled(worker);
        }
    };

    auto victim = fx.options(dir, "victim");
    victim.numThreads = 2;
    victim.leaseTtlMs = 1000;
    EXPECT_THROW(fx.run(victim), WorkerKilled);
    faultHooks().clear();
    ASSERT_TRUE(parkSignalled) << "shard 1 never opened while shard 0 ran";
    EXPECT_EQ(persisted, 3u);

    // Crash aftermath of both open shards: leases and partials stay.
    for (const std::string stem : {"shard_0000", "shard_0001"}) {
        EXPECT_TRUE(fs::exists(fs::path(dir) / (stem + ".lease"))) << stem;
        EXPECT_TRUE(fs::exists(fs::path(dir) / (stem + ".partial")))
            << stem;
        EXPECT_FALSE(fs::exists(fs::path(dir) / (stem + ".jsonl"))) << stem;
    }

    InjectedClock::advanceMs(2000);  // both dead leases go stale
    for (const std::size_t workers : {1u, 2u}) {
        const std::string resumeDir =
            tempDir("svc_two_open_" + std::to_string(workers));
        fs::copy(dir, resumeDir, fs::copy_options::recursive);
        std::vector<ShardedSweepResult> results(workers);
        std::vector<std::thread> threads;
        for (std::size_t w = 0; w < workers; ++w)
            threads.emplace_back([&, w] {
                auto opts = fx.options(resumeDir, "medic" + std::to_string(w));
                opts.leaseTtlMs = 1000;
                results[w] = fx.run(opts);
            });
        for (auto &t : threads)
            t.join();

        std::size_t stolen = 0, repaired = 0;
        for (const auto &r : results) {
            EXPECT_TRUE(r.complete) << workers << " workers";
            stolen += r.shardsStolen;
            repaired += r.runsRepaired;
        }
        EXPECT_EQ(stolen, 2u) << workers << " workers";
        EXPECT_EQ(repaired, persisted) << workers << " workers";
        EXPECT_EQ(finalShardBytes(resumeDir, ".jsonl"),
                  finalShardBytes(refDir, ".jsonl"))
            << workers << " workers";
        EXPECT_EQ(finalShardBytes(resumeDir, ".csv"),
                  finalShardBytes(refDir, ".csv"))
            << workers << " workers";
    }
}

TEST(SweepService, TruncatedPartialTailDiscardsOnlyTheTornRun)
{
    const Fixture fx;
    const std::string refDir = tempDir("svc_torn_ref");
    const ShardedSweepResult ref = fx.reference(refDir);

    const std::string dir = tempDir("svc_torn");
    FaultHookGuard guard;
    InjectedClock clock;

    auto opts = fx.options(dir, "victim");
    opts.leaseTtlMs = 1000;
    {
        KillAfterRuns kill("victim", 2);
        EXPECT_THROW(fx.run(opts), WorkerKilled);
    }

    // Tear the second record mid-frame, as a crash inside a non-atomic
    // page flush would: its frame no longer fits the file, so only the
    // first run stays durable.
    testing::truncateTail(
        (fs::path(dir) / "shard_0000.partial").string(), 3);

    InjectedClock::advanceMs(2000);
    auto peer = fx.options(dir, "peer");
    peer.leaseTtlMs = 1000;
    const ShardedSweepResult repaired = fx.run(peer);
    EXPECT_TRUE(repaired.complete);
    EXPECT_EQ(repaired.runsRepaired, 1u);  // torn run re-executed
    expectSameResult(repaired, ref);
    EXPECT_EQ(shardBytes(dir, ".jsonl"), shardBytes(refDir, ".jsonl"));
    EXPECT_EQ(shardBytes(dir, ".csv"), shardBytes(refDir, ".csv"));
}

TEST(SweepService, GarbageAfterValidPartialRecordsIsDiscarded)
{
    const Fixture fx;
    const std::string refDir = tempDir("svc_garbage_ref");
    const ShardedSweepResult ref = fx.reference(refDir);

    const std::string dir = tempDir("svc_garbage");
    FaultHookGuard guard;
    InjectedClock clock;

    auto opts = fx.options(dir, "victim");
    opts.leaseTtlMs = 1000;
    {
        KillAfterRuns kill("victim", 2);
        EXPECT_THROW(fx.run(opts), WorkerKilled);
    }
    testing::appendGarbage(
        (fs::path(dir) / "shard_0000.partial").string());

    InjectedClock::advanceMs(2000);
    auto peer = fx.options(dir, "peer");
    peer.leaseTtlMs = 1000;
    const ShardedSweepResult repaired = fx.run(peer);
    EXPECT_TRUE(repaired.complete);
    EXPECT_EQ(repaired.runsRepaired, 2u);  // valid prefix kept whole
    expectSameResult(repaired, ref);
    EXPECT_EQ(shardBytes(dir, ".jsonl"), shardBytes(refDir, ".jsonl"));
}

TEST(SweepService, PartialFrameClaimingAHugeLengthIsATornTail)
{
    const Fixture fx;
    const std::string refDir = tempDir("svc_huge_frame_ref");
    const ShardedSweepResult ref = fx.reference(refDir);

    // 2^64 - 1 payload bytes: `start + bytes` wraps past the file size,
    // so only a reader that compares with the bytes left sees the tear.
    const std::string dir = tempDir("svc_huge_frame");
    fs::create_directories(dir);
    std::ofstream(fs::path(dir) / "shard_0000.partial", std::ios::binary)
        << "#@run 0 18446744073709551615 123\n{\"config\":0}\n";

    const ShardedSweepResult result = fx.run(fx.options(dir, "next"));
    EXPECT_TRUE(result.complete);
    EXPECT_EQ(result.runsRepaired, 0u);
    expectSameResult(result, ref);
    EXPECT_EQ(shardBytes(dir, ".jsonl"), shardBytes(refDir, ".jsonl"));
    EXPECT_EQ(shardBytes(dir, ".csv"), shardBytes(refDir, ".csv"));
}

TEST(SweepService, FinalizeWithARecordMissingPublishesNothing)
{
    const Fixture fx;
    const std::string refDir = tempDir("svc_missing_record_ref");
    const ShardedSweepResult ref = fx.reference(refDir);

    const std::string dir = tempDir("svc_missing_record");
    const fs::path partial = fs::path(dir) / "shard_0000.partial";
    FaultHookGuard guard;
    InjectedClock clock;
    // Shard 0 runs configs 0, 1, 2 in order on one thread. Once the
    // last one is durable, flip a byte of config 0's frame: finalize
    // then finds no intact record of config 0.
    faultHooks().afterRunPersisted = [&](const std::string &,
                                         std::size_t shard,
                                         std::size_t config) {
        if (shard != 0 || config != 2)
            return;
        std::string bytes = fileBytes(partial);
        const std::size_t pos = bytes.find('\n') + 3;  // in the payload
        bytes[pos] ^= 0x20;
        std::ofstream(partial, std::ios::binary | std::ios::trunc) << bytes;
    };

    auto opts = fx.options(dir, "victim");
    opts.leaseTtlMs = 1000;
    try {
        fx.run(opts);
        FAIL() << "finalize published a shard with a record missing";
    } catch (const std::runtime_error &e) {
        const std::string what = e.what();
        EXPECT_NE(what.find("shard_0000.partial"), std::string::npos)
            << what;
        EXPECT_NE(what.find("config 0 "), std::string::npos) << what;
    }
    faultHooks().clear();
    // Nothing of shard 0 is published; lease and partial stay as a
    // crash leaves them.
    EXPECT_FALSE(fs::exists(fs::path(dir) / "shard_0000.jsonl"));
    EXPECT_FALSE(fs::exists(fs::path(dir) / "shard_0000.csv"));
    EXPECT_TRUE(fs::exists(partial));
    EXPECT_TRUE(fs::exists(fs::path(dir) / "shard_0000.lease"));
    for (const auto &entry : fs::directory_iterator(dir))
        EXPECT_EQ(entry.path().string().find(".tmp"), std::string::npos)
            << entry.path();

    InjectedClock::advanceMs(2000);
    auto peer = fx.options(dir, "peer");
    peer.leaseTtlMs = 1000;
    const ShardedSweepResult repaired = fx.run(peer);
    EXPECT_TRUE(repaired.complete);
    EXPECT_EQ(repaired.shardsStolen, 1u);
    EXPECT_EQ(repaired.runsRepaired, 0u);  // the bad frame was the first
    expectSameResult(repaired, ref);
    EXPECT_EQ(shardBytes(dir, ".jsonl"), shardBytes(refDir, ".jsonl"));
    EXPECT_EQ(shardBytes(dir, ".csv"), shardBytes(refDir, ".csv"));
}

TEST(SweepService, CorruptLeaseIsTreatedAsStaleAndStolen)
{
    const Fixture fx;
    const std::string dir = tempDir("svc_corrupt_lease");
    fs::create_directories(dir);
    testing::corruptFile((fs::path(dir) / "shard_0000.lease").string());

    const ShardedSweepResult result = fx.run(fx.options(dir, "w"));
    EXPECT_TRUE(result.complete);
    EXPECT_EQ(result.shardsStolen, 1u);

    const std::string refDir = tempDir("svc_corrupt_lease_ref");
    fx.reference(refDir);
    EXPECT_EQ(shardBytes(dir, ".jsonl"), shardBytes(refDir, ".jsonl"));
}

TEST(SweepService, StalledOwnerIsFencedWhilePeerCompletesTheSweep)
{
    const Fixture fx;
    const std::string refDir = tempDir("svc_stall_ref");
    const ShardedSweepResult ref = fx.reference(refDir);

    const std::string dir = tempDir("svc_stall");
    FaultHookGuard guard;
    InjectedClock clock;
    StallHeartbeats stall({"slow"});

    // Block the stalled worker right after it claims its first shard
    // (on its own thread — never inside the shared pool), so its lease
    // ages without refreshing while it is "busy".
    std::promise<void> claimedPromise;
    auto claimed = claimedPromise.get_future();
    std::atomic<bool> resume{false};
    std::atomic<bool> signalled{false};
    faultHooks().afterShardClaimed = [&](const std::string &worker,
                                         std::size_t) {
        if (worker != "slow")
            return;
        if (!signalled.exchange(true))
            claimedPromise.set_value();
        while (!resume.load())
            std::this_thread::sleep_for(std::chrono::milliseconds(1));
    };

    auto slowOpts = fx.options(dir, "slow");
    slowOpts.leaseTtlMs = 1000;
    ShardedSweepResult slowResult;
    std::thread slow([&] { slowResult = fx.run(slowOpts); });
    claimed.wait();

    InjectedClock::advanceMs(2000);  // stalled heartbeat -> stale lease

    auto peerOpts = fx.options(dir, "peer");
    peerOpts.leaseTtlMs = 1000;
    const ShardedSweepResult peer = fx.run(peerOpts);
    EXPECT_TRUE(peer.complete);
    EXPECT_EQ(peer.shardsStolen, 1u);

    resume.store(true);
    slow.join();
    // The fenced worker finds every shard already final and re-ingests
    // instead of clobbering (or failing on) the thief's results.
    EXPECT_TRUE(slowResult.complete);
    EXPECT_EQ(slowResult.shardsRun, 0u);
    EXPECT_EQ(slowResult.shardsSkipped, slowResult.shardCount);
    expectSameResult(peer, ref);
    expectSameResult(slowResult, ref);
    EXPECT_EQ(shardBytes(dir, ".jsonl"), shardBytes(refDir, ".jsonl"));
    EXPECT_EQ(shardBytes(dir, ".csv"), shardBytes(refDir, ".csv"));
}

TEST(SweepService, EightWorkersWithTwoKillsConvergeByteIdentically)
{
    const Fixture fx;
    const std::string refDir = tempDir("svc_multi_ref");
    const ShardedSweepResult ref = fx.reference(refDir);
    const std::string dir = tempDir("svc_multi");

    // Kill the first two distinct workers that persist a run (fixed
    // victim names would be flaky: on a small machine one worker can
    // finish the whole sweep before a named victim gets any work).
    FaultHookGuard guard;  // real clock: TTLs small enough to expire
    std::mutex killMutex;
    std::set<std::string> killedWorkers;
    faultHooks().afterRunPersisted = [&](const std::string &worker,
                                         std::size_t, std::size_t) {
        std::unique_lock<std::mutex> lock(killMutex);
        if (killedWorkers.size() >= 2 || killedWorkers.count(worker))
            return;
        killedWorkers.insert(worker);
        lock.unlock();
        throw WorkerKilled(worker);
    };

    constexpr std::size_t kWorkers = 8;
    std::vector<ShardedSweepResult> results(kWorkers);
    std::vector<char> died(kWorkers, 0);
    std::vector<std::thread> threads;
    for (std::size_t w = 0; w < kWorkers; ++w)
        threads.emplace_back([&, w] {
            auto opts = fx.options(dir, "w" + std::to_string(w));
            opts.leaseTtlMs = 400;
            opts.heartbeatMs = 20;
            try {
                results[w] = fx.run(opts);
            } catch (const WorkerKilled &) {
                died[w] = 1;
            }
        });
    for (auto &t : threads)
        t.join();

    EXPECT_EQ(killedWorkers.size(), 2u);
    std::size_t survivors = 0, stolen = 0, repaired = 0;
    for (std::size_t w = 0; w < kWorkers; ++w) {
        if (died[w])
            continue;
        ++survivors;
        EXPECT_TRUE(results[w].complete) << "worker " << w;
        expectSameResult(results[w], ref);
        stolen += results[w].shardsStolen;
        repaired += results[w].runsRepaired;
    }
    EXPECT_EQ(survivors, kWorkers - 2);
    // Each victim died holding a lease mid-shard with a persisted run:
    // the sweep can only complete through stealing and repair. (The
    // exact survivor-visible counts vary — the second victim may
    // itself have been the first thief, taking its counters with it —
    // but at least the final steal chain ends at a survivor.)
    EXPECT_GE(stolen, 1u);
    EXPECT_GE(repaired, 1u);
    EXPECT_EQ(shardBytes(dir, ".jsonl"), shardBytes(refDir, ".jsonl"));
    EXPECT_EQ(shardBytes(dir, ".csv"), shardBytes(refDir, ".csv"));
}

// --------------------------------------------------------------------
// Lease protocol details
// --------------------------------------------------------------------

TEST(SweepService, LeaseBusyForLivePeerAndRefreshedByHeartbeat)
{
    const std::string dir = tempDir("svc_lease_unit");
    fs::create_directories(dir);
    FaultHookGuard guard;

    LeaseOptions a;
    a.workerId = "a";
    a.ttlMs = 10000;
    a.heartbeatMs = 5;
    auto lease = ShardLease::tryAcquire(dir, 0, a);
    ASSERT_NE(lease, nullptr);
    EXPECT_FALSE(lease->stolen());

    // Live owner: a second claimer is refused.
    LeaseOptions b = a;
    b.workerId = "b";
    EXPECT_EQ(ShardLease::tryAcquire(dir, 0, b), nullptr);

    // The heartbeat thread refreshes the on-disk record.
    LeaseRecord before;
    ASSERT_TRUE(readLeaseRecord(lease->path(), before));
    const auto deadline =
        std::chrono::steady_clock::now() + std::chrono::seconds(5);
    LeaseRecord after = before;
    while (after.sequence == before.sequence &&
           std::chrono::steady_clock::now() < deadline) {
        std::this_thread::sleep_for(std::chrono::milliseconds(5));
        ASSERT_TRUE(readLeaseRecord(lease->path(), after));
    }
    EXPECT_GT(after.sequence, before.sequence);
    EXPECT_EQ(after.workerId, "a");
    EXPECT_EQ(after.nonce, before.nonce);

    // Release unlinks; the shard is then claimable afresh.
    lease->release();
    EXPECT_FALSE(fs::exists(fs::path(dir) / "shard_0000.lease"));
    auto second = ShardLease::tryAcquire(dir, 0, b);
    ASSERT_NE(second, nullptr);
    EXPECT_FALSE(second->stolen());
    second->release();
}

TEST(SweepService, TornLeaseRecordIsStaleAtEveryPrefix)
{
    // A crash mid-create leaves a strict prefix of the lease record.
    // Cut inside the heartbeat digits, such a prefix used to parse,
    // with a heartbeat of 1, 12, 123, ... judged fresh or stale by the
    // host's uptime; every prefix must instead read as corrupt and be
    // stolen.
    const std::string dir = tempDir("svc_torn_lease");
    fs::create_directories(dir);
    const std::string path = (fs::path(dir) / "shard_0000.lease").string();
    LeaseOptions opts;
    opts.workerId = "w";
    opts.ttlMs = 3600 * 1000;        // the real heartbeat stays fresh
    opts.heartbeatMs = 3600 * 1000;  // and is never refreshed
    std::string record;
    {
        const auto lease = ShardLease::tryAcquire(dir, 0, opts);
        ASSERT_NE(lease, nullptr);
        record = fileBytes(path);
    }  // dropped unreleased: the file stays, as after a crash
    ASSERT_GE(record.size(), 2u);
    ASSERT_EQ(record.substr(record.size() - 2), "}\n");

    const auto writePrefix = [&](std::size_t len) {
        std::ofstream(path, std::ios::binary | std::ios::trunc)
            << record.substr(0, len);
    };
    // Every prefix shorter than the one that ends in '}'.
    for (std::size_t len = 0; len + 1 < record.size(); ++len) {
        SCOPED_TRACE("lease prefix of " + std::to_string(len) + " bytes");
        writePrefix(len);
        LeaseRecord rec;
        EXPECT_FALSE(readLeaseRecord(path, rec));
        const auto thief = ShardLease::tryAcquire(dir, 0, opts);
        ASSERT_NE(thief, nullptr);
        EXPECT_TRUE(thief->stolen());
    }

    // The whole record is a live owner's.
    writePrefix(record.size());
    LeaseRecord rec;
    ASSERT_TRUE(readLeaseRecord(path, rec));
    EXPECT_EQ(rec.workerId, "w");
    EXPECT_EQ(ShardLease::tryAcquire(dir, 0, opts), nullptr);
}

// --------------------------------------------------------------------
// Fault isolation: retries, deadlines, quarantine
// --------------------------------------------------------------------

TEST(SweepService, TransientFailureIsRetriedAndMatchesFaultFreeRun)
{
    const Fixture fx;
    const std::string refDir = tempDir("svc_retry_ref");
    const ShardedSweepResult ref = fx.reference(refDir);

    const std::string dir = tempDir("svc_retry");
    FaultHookGuard guard;
    // Config 4 fails exactly once — a transient glitch, not a poison.
    std::atomic<std::size_t> glitches{0};
    faultHooks().beforeRun = [&](const std::string &, std::size_t,
                                 std::size_t config) {
        if (config == 4 && glitches.fetch_add(1) == 0)
            throw std::runtime_error("transient glitch");
    };

    auto opts = fx.options(dir, "w");
    opts.attempts.maxAttempts = 3;
    opts.attempts.backoffBaseMs = 0;  // no sleeps in tests
    const ShardedSweepResult result = fx.run(opts);

    EXPECT_TRUE(result.complete);
    EXPECT_EQ(result.runsQuarantined, 0u);
    EXPECT_EQ(glitches.load(), 2u);  // failed once, succeeded once
    expectSameResult(result, ref);
    // The retry leaves no trace in the finals (the attempt record
    // lives in the ledger, which is excluded by design).
    EXPECT_EQ(finalShardBytes(dir, ".jsonl"),
              finalShardBytes(refDir, ".jsonl"));
    EXPECT_EQ(finalShardBytes(dir, ".csv"),
              finalShardBytes(refDir, ".csv"));
    // ... but the ledger holds the durable attempt for the post-mortem.
    EXPECT_TRUE(
        fs::exists(fs::path(dir) / "shard_0001.quarantine.jsonl"));
}

TEST(SweepService, ExhaustedAttemptsFailTheSweepUnlessQuarantined)
{
    const Fixture fx;
    const std::string dir = tempDir("svc_exhaust");
    FaultHookGuard guard;
    InjectedClock clock;
    PoisonConfigs poison({3});

    auto opts = fx.options(dir, "first");
    opts.leaseTtlMs = 1000;
    opts.attempts.maxAttempts = 2;
    opts.attempts.backoffBaseMs = 0;

    // Without quarantine, exhaustion kills the sweep — but only after
    // the configured retries, and with the failure named.
    try {
        fx.run(opts);
        FAIL() << "poisoned sweep did not throw";
    } catch (const std::exception &e) {
        const std::string what = e.what();
        EXPECT_NE(what.find("failed after 2 attempts (throw)"),
                  std::string::npos)
            << what;
        EXPECT_NE(what.find("injected poison config 3"),
                  std::string::npos)
            << what;
    }
    EXPECT_EQ(poison.attempts(3), 2u);

    // Resume with quarantine enabled: the durable ledger shows the
    // budget is already spent, so the config is quarantined with NO
    // further attempts — poison budgets are fleet-wide, not per-owner.
    InjectedClock::advanceMs(2000);  // dead worker's lease goes stale
    auto retry = fx.options(dir, "second");
    retry.leaseTtlMs = 1000;
    retry.attempts = opts.attempts;
    retry.attempts.quarantine = true;
    const ShardedSweepResult result = fx.run(retry);

    EXPECT_TRUE(result.complete);
    EXPECT_EQ(result.shardsStolen, 1u);
    EXPECT_EQ(result.runsQuarantined, 1u);
    ASSERT_EQ(result.quarantined.size(), 10u);
    EXPECT_EQ(result.quarantined[3], 1);
    EXPECT_EQ(poison.attempts(3), 2u);  // budget NOT restarted
    EXPECT_EQ(result.bestRewards[3],
              -std::numeric_limits<double>::infinity());
    EXPECT_EQ(result.samplesUsed[3], 0u);

    // A fresh degraded run (same policy, nothing to resume) produces
    // byte-identical finals: gap records carry no worker identity.
    const std::string freshDir = tempDir("svc_exhaust_fresh");
    auto fresh = fx.options(freshDir, "solo");
    fresh.attempts = retry.attempts;
    const ShardedSweepResult freshResult = fx.run(fresh);
    EXPECT_TRUE(freshResult.complete);
    expectSameResult(result, freshResult);
    EXPECT_EQ(finalShardBytes(dir, ".jsonl"),
              finalShardBytes(freshDir, ".jsonl"));
    EXPECT_EQ(finalShardBytes(dir, ".csv"),
              finalShardBytes(freshDir, ".csv"));
}

TEST(SweepService, PoisonSweepQuarantinesExactlyOnceAcrossWorkerCounts)
{
    const Fixture fx;
    FaultHookGuard guard;
    InjectedClock clock;
    // Configs 2 and 7 throw on every attempt; config 5 hangs at a
    // cooperative checkpoint until its injected deadline fires.
    PoisonConfigs poison({2, 7}, {5}, /*hang_advance_ms=*/25);

    RunAttemptPolicy pol;
    pol.maxAttempts = 3;
    pol.backoffBaseMs = 0;
    pol.runDeadlineMs = 100;
    pol.quarantine = true;

    const auto poisonOpts = [&](const std::string &dir,
                                const std::string &worker) {
        auto opts = fx.options(dir, worker);
        // Hang spins advance the shared injected clock; a generous TTL
        // keeps that from aging any live lease into staleness.
        opts.leaseTtlMs = 1000000;
        opts.attempts = pol;
        return opts;
    };

    const std::string refDir = tempDir("svc_poison_ref");
    const ShardedSweepResult ref = fx.run(poisonOpts(refDir, "ref"));
    ASSERT_TRUE(ref.complete);
    EXPECT_EQ(ref.runsQuarantined, 3u);
    std::vector<std::uint8_t> expected(10, 0);
    expected[2] = expected[5] = expected[7] = 1;
    EXPECT_EQ(ref.quarantined, expected);
    // Healthy configs keep real results.
    EXPECT_GT(ref.samplesUsed[0], 0u);
    EXPECT_TRUE(std::isfinite(ref.bestRewards[0]));

    for (const std::size_t workers : {1u, 2u, 8u}) {
        const std::string dir =
            tempDir("svc_poison_" + std::to_string(workers));
        std::vector<ShardedSweepResult> results(workers);
        std::vector<std::thread> threads;
        for (std::size_t w = 0; w < workers; ++w)
            threads.emplace_back([&, w] {
                results[w] = fx.run(
                    poisonOpts(dir, "w" + std::to_string(w)));
            });
        for (auto &t : threads)
            t.join();

        for (std::size_t w = 0; w < workers; ++w) {
            EXPECT_TRUE(results[w].complete)
                << workers << " workers, worker " << w;
            EXPECT_EQ(results[w].runsQuarantined, 3u)
                << workers << " workers, worker " << w;
            expectSameResult(results[w], ref);
        }
        EXPECT_EQ(finalShardBytes(dir, ".jsonl"),
                  finalShardBytes(refDir, ".jsonl"))
            << workers << " workers";
        EXPECT_EQ(finalShardBytes(dir, ".csv"),
                  finalShardBytes(refDir, ".csv"))
            << workers << " workers";
    }

    // Exactly-once fleet-wide: every sweep directory paid each poison
    // config exactly maxAttempts attempts, no matter how many workers
    // cooperated (4 sweeps ran in total above).
    EXPECT_EQ(poison.attempts(2), 12u);
    EXPECT_EQ(poison.attempts(5), 12u);
    EXPECT_EQ(poison.attempts(7), 12u);

    // Gap records are explicit in the exported dataset: every config
    // contributes a block, quarantined ones just carry no transitions.
    const Dataset dataset = Dataset::loadDirectory(refDir);
    EXPECT_EQ(dataset.logCount(), 10u);
    EXPECT_EQ(dataset.transitionCount(), 7u * fx.cfg.maxSamples);
}

TEST(SweepService, QuarantineAttemptBudgetSurvivesKillAndResume)
{
    const Fixture fx;
    FaultHookGuard guard;
    InjectedClock clock;
    PoisonConfigs poison({1});

    RunAttemptPolicy pol;
    pol.maxAttempts = 3;
    pol.backoffBaseMs = 0;
    pol.quarantine = true;

    const std::string dir = tempDir("svc_qkill");
    auto victim = fx.options(dir, "victim");
    victim.leaseTtlMs = 1000;
    victim.attempts = pol;
    {
        // Shard 0 runs configs 0,1,2 in order on one thread: the kill
        // fires on the second durable record — config 0's result, then
        // poison config 1's first attempt record. Mid-retry SIGKILL.
        KillAfterRuns kill("victim", 2);
        EXPECT_THROW(fx.run(victim), WorkerKilled);
        EXPECT_TRUE(kill.fired());
    }
    EXPECT_EQ(poison.attempts(1), 1u);
    EXPECT_TRUE(
        fs::exists(fs::path(dir) / "shard_0000.quarantine.jsonl"));

    InjectedClock::advanceMs(2000);
    auto medic = fx.options(dir, "medic");
    medic.leaseTtlMs = 1000;
    medic.attempts = pol;
    const ShardedSweepResult repaired = fx.run(medic);

    EXPECT_TRUE(repaired.complete);
    EXPECT_EQ(repaired.shardsStolen, 1u);
    EXPECT_EQ(repaired.runsRepaired, 1u);   // config 0, run-granular
    EXPECT_EQ(repaired.runsQuarantined, 1u);
    ASSERT_EQ(repaired.quarantined.size(), 10u);
    EXPECT_EQ(repaired.quarantined[1], 1);
    // The victim paid attempt 1; the medic resumed at 2 and 3 — the
    // durable ledger carried the count across worker identities.
    EXPECT_EQ(poison.attempts(1), 3u);

    // Byte-identical to a fresh uninterrupted degraded sweep.
    const std::string freshDir = tempDir("svc_qkill_fresh");
    auto fresh = fx.options(freshDir, "solo");
    fresh.attempts = pol;
    const ShardedSweepResult freshResult = fx.run(fresh);
    EXPECT_TRUE(freshResult.complete);
    expectSameResult(repaired, freshResult);
    EXPECT_EQ(finalShardBytes(dir, ".jsonl"),
              finalShardBytes(freshDir, ".jsonl"));
    EXPECT_EQ(finalShardBytes(dir, ".csv"),
              finalShardBytes(freshDir, ".csv"));
    // The gap line names the failure; it is part of the finals.
    EXPECT_NE(finalShardBytes(dir, ".jsonl")
                  .find("\"failureClass\":\"throw\""),
              std::string::npos);
    EXPECT_NE(finalShardBytes(dir, ".jsonl")
                  .find("injected poison config 1"),
              std::string::npos);
}

TEST(SweepService, QuarantinedErrorWithControlBytesResumes)
{
    // The failure text lands in the gap line of the finals and in the
    // ledger's crc line, so a raw newline in it used to split both:
    // resume threw on the torn gap line, and the ledger lost every
    // attempt record from that line on.
    const Fixture fx;
    FaultHookGuard guard;
    PoisonConfigs poison({1}, {}, 0, "first line\nsecond line\t\x01");

    RunAttemptPolicy pol;
    pol.maxAttempts = 1;
    pol.backoffBaseMs = 0;
    pol.quarantine = true;

    const std::string dir = tempDir("svc_quarantine_newline");
    auto opts = fx.options(dir, "w");
    opts.attempts = pol;
    const ShardedSweepResult first = fx.run(opts);
    ASSERT_TRUE(first.complete);
    EXPECT_EQ(first.runsQuarantined, 1u);

    const ShardedSweepResult resumed = fx.run(opts);
    EXPECT_TRUE(resumed.complete);
    EXPECT_EQ(resumed.shardsSkipped, resumed.shardCount);
    EXPECT_EQ(resumed.runsQuarantined, 1u);
    expectSameResult(resumed, first);
    EXPECT_EQ(poison.attempts(1), 1u);

    const fs::path ledger = fs::path(dir) / "shard_0000.quarantine.jsonl";
    const CrcLineReadResult read = readCrcLines(ledger.string());
    ASSERT_EQ(read.records.size(), 1u);
    EXPECT_EQ(read.validBytes, fileBytes(ledger).size());
    EXPECT_EQ(jsonio::stringField(read.records[0].line, "error", "ledger"),
              "first line\nsecond line\t\x01 1");
}

TEST(SweepService, HungRunStopsHeartbeatSoPeerStealsTheShard)
{
    const Fixture fx;
    const std::string refDir = tempDir("svc_hung_ref");
    const ShardedSweepResult ref = fx.reference(refDir);

    const std::string dir = tempDir("svc_hung");
    FaultHookGuard guard;
    InjectedClock clock;
    BlockRunOnce block("wedged");

    // The wedged worker's first run parks inside the attempt (after
    // its deadline is armed) and never reaches a checkpoint — the
    // watchdog, not cooperative cancellation, must expose it.
    auto wedgedOpts = fx.options(dir, "wedged");
    wedgedOpts.leaseTtlMs = 1000;
    wedgedOpts.heartbeatMs = 5;
    wedgedOpts.attempts.runDeadlineMs = 500;
    wedgedOpts.attempts.quarantine = true;
    wedgedOpts.attempts.backoffBaseMs = 0;
    ShardedSweepResult wedgedResult;
    std::thread wedged([&] { wedgedResult = fx.run(wedgedOpts); });
    block.waitUntilBlocked();

    // Past the run deadline: the watchdog reports the overstay and the
    // heartbeat thread stops refreshing the lease.
    InjectedClock::advanceMs(2000);
    std::this_thread::sleep_for(std::chrono::milliseconds(50));
    EXPECT_TRUE(resilience::workerHasExpiredRun("wedged"));
    // A refresh that raced the first advance could have stamped a
    // fresh heartbeat; a second advance makes any such stamp stale
    // too, so the steal below cannot flake.
    InjectedClock::advanceMs(2000);

    auto peerOpts = fx.options(dir, "peer");
    peerOpts.leaseTtlMs = 1000;
    const ShardedSweepResult peer = fx.run(peerOpts);
    EXPECT_TRUE(peer.complete);
    EXPECT_EQ(peer.shardsStolen, 1u);  // the wedged worker's shard
    EXPECT_EQ(peer.runsQuarantined, 0u);

    block.release();
    wedged.join();

    // The fenced worker's own timed-out attempt is discarded: it
    // yields to the thief's finals (where the run SUCCEEDED — only
    // the wedged worker was blocked) and re-ingests them.
    EXPECT_TRUE(wedgedResult.complete);
    EXPECT_EQ(wedgedResult.runsQuarantined, 0u);
    expectSameResult(peer, ref);
    expectSameResult(wedgedResult, ref);
    EXPECT_EQ(finalShardBytes(dir, ".jsonl"),
              finalShardBytes(refDir, ".jsonl"));
    EXPECT_EQ(finalShardBytes(dir, ".csv"),
              finalShardBytes(refDir, ".csv"));
}

// --------------------------------------------------------------------
// Multi-process smoke test through the CLI
// --------------------------------------------------------------------

TEST(SweepService, MultiProcessWorkersCooperateThroughTheCli)
{
    // ctest runs from the build directory, next to the example
    // binaries; skip (not fail) when the CLI is not built.
    const std::string cli = "./example_archgym_cli";
    if (!fs::exists(cli))
        GTEST_SKIP() << "example_archgym_cli not found in CWD";

    const std::string dir = tempDir("svc_cli");
    const auto command = [&](const std::string &worker) {
        return cli +
               " --env dram-cloud1 --agent RW --sweep 6 --samples 5"
               " --shard-size 2 --seed 3 --sweep-dir " + dir +
               " --sweep-worker --worker-id " + worker +
               " --lease-ttl 8000 > " + dir + "_" + worker + ".out 2>&1";
    };

    std::vector<int> codes(2, -1);
    std::thread wa([&] { codes[0] = std::system(command("procA").c_str()); });
    std::thread wb([&] { codes[1] = std::system(command("procB").c_str()); });
    wa.join();
    wb.join();
    EXPECT_EQ(codes[0], 0);
    EXPECT_EQ(codes[1], 0);

    // Both processes report a complete cooperative sweep...
    for (const std::string worker : {"procA", "procB"}) {
        const std::string out = fileBytes(dir + "_" + worker + ".out");
        EXPECT_NE(out.find("sweep complete"), std::string::npos)
            << worker << " output:\n" << out;
    }
    // ... and the directory holds exactly the finalized artifacts
    // (classify by full name: debris shares the finals' shard_ stem).
    std::size_t jsonl = 0, csv = 0, leftovers = 0;
    for (const auto &entry : fs::directory_iterator(dir)) {
        const std::string name = entry.path().filename().string();
        if (name.rfind("shard_", 0) != 0)
            continue;
        if (name.find(".partial") != std::string::npos ||
            name.find(".lease") != std::string::npos ||
            name.find(".tmp") != std::string::npos)
            ++leftovers;  // dead-worker debris must all be consumed
        else if (entry.path().extension() == ".jsonl")
            ++jsonl;
        else if (entry.path().extension() == ".csv")
            ++csv;
    }
    EXPECT_EQ(jsonl, 3u);
    EXPECT_EQ(csv, 3u);
    EXPECT_EQ(leftovers, 0u);
}

} // namespace
} // namespace archgym
