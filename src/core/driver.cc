#include "driver.h"

#include <algorithm>
#include <chrono>
#include <condition_variable>
#include <deque>
#include <filesystem>
#include <fstream>
#include <map>
#include <mutex>
#include <sstream>
#include <stdexcept>
#include <thread>
#include <utility>

#include <unistd.h>

#include "core/fault_hooks.h"
#include "core/fsio.h"
#include "core/jsonio.h"
#include "core/lease.h"
#include "core/worker_pool.h"

namespace archgym {

std::vector<double>
RunResult::bestSoFar() const
{
    std::vector<double> out(rewardHistory.size());
    double best = -std::numeric_limits<double>::infinity();
    for (std::size_t i = 0; i < rewardHistory.size(); ++i) {
        if (rewardHistory[i] > best)
            best = rewardHistory[i];
        out[i] = best;
    }
    return out;
}

RunResult
runSearch(Environment &env, Agent &agent, const RunConfig &config)
{
    RunResult result;
    result.trajectory = TrajectoryLog(env.name(), agent.name(),
                                      agent.hyperParams().str());
    if (config.recordRewardHistory)
        result.rewardHistory.reserve(config.maxSamples);

    // Shared per-sample bookkeeping so the per-step and batched loops
    // record trajectories identically. Returns true when the search
    // should stop (objective satisfied).
    const auto record = [&](const Action &action, const StepResult &sr,
                            std::size_t index) {
        if (config.recordRewardHistory)
            result.rewardHistory.push_back(sr.reward);
        if (sr.reward > result.bestReward) {
            result.bestReward = sr.reward;
            result.bestAction = action;
            result.bestMetrics = sr.observation;
            result.bestSampleIndex = index;
        }
        if (config.logTrajectory) {
            result.trajectory.append(action, sr.observation, sr.reward);
            // The first row fixed the row width: make room for the run.
            if (result.trajectory.size() == 1)
                result.trajectory.reserve(config.maxSamples);
        }
        ++result.samplesUsed;
        return config.stopWhenSatisfied && sr.done;
    };

    env.reset();
    const auto start = std::chrono::steady_clock::now();
    if (config.batchEval) {
        std::size_t i = 0;
        while (i < config.maxSamples) {
            resilience::checkpoint();
            const std::vector<Action> actions =
                agent.selectActionBatch(config.maxSamples - i);
            if (actions.empty())
                break;  // defensive: a batch agent with nothing to ask
            const std::vector<StepResult> results =
                env.stepBatch(actions);
            agent.observeBatch(actions, results);
            bool stop = false;
            for (std::size_t j = 0; j < results.size() && !stop; ++j)
                stop = record(actions[j], results[j], i++);
            if (stop)
                break;
        }
    } else {
        for (std::size_t i = 0; i < config.maxSamples; ++i) {
            // Per-sample cancellation point: even an environment whose
            // own loops carry no checkpoints (toy envs, foreign cost
            // models) honours the run deadline at sample granularity.
            resilience::checkpoint();
            const Action action = agent.selectAction();
            const StepResult sr = env.step(action);
            agent.observe(action, sr.observation, sr.reward);
            if (record(action, sr, i))
                break;
        }
    }
    const auto end = std::chrono::steady_clock::now();
    result.wallSeconds =
        std::chrono::duration<double>(end - start).count();
    return result;
}

SweepResult
runSweep(Environment &env, const std::string &agent_name,
         const AgentBuilder &builder, const std::vector<HyperParams> &configs,
         const RunConfig &run_config, std::uint64_t base_seed)
{
    SweepResult sweep;
    sweep.agentName = agent_name;
    sweep.configs = configs;
    sweep.bestRewards.reserve(configs.size());
    sweep.runs.reserve(configs.size());
    for (std::size_t i = 0; i < configs.size(); ++i) {
        // Deterministic per-configuration seed so individual sweep points
        // can be reproduced in isolation.
        const std::uint64_t seed = sweepConfigSeed(base_seed, i);
        auto agent = builder(env.actionSpace(), configs[i], seed);
        RunResult run = runSearch(env, *agent, run_config);
        sweep.bestRewards.push_back(run.bestReward);
        sweep.runs.push_back(std::move(run));
    }
    return sweep;
}

SweepResult
runSweepParallel(const EnvFactory &env_factory,
                 const std::string &agent_name, const AgentBuilder &builder,
                 const std::vector<HyperParams> &configs,
                 const RunConfig &run_config, std::uint64_t base_seed,
                 std::size_t num_threads)
{
    SweepResult sweep;
    sweep.agentName = agent_name;
    sweep.configs = configs;
    sweep.bestRewards.assign(configs.size(), 0.0);
    sweep.runs.resize(configs.size());

    if (num_threads == 0)
        num_threads = std::max(1u, std::thread::hardware_concurrency());
    num_threads = std::min(num_threads, std::max<std::size_t>(
                                            1, configs.size()));

    // One private environment per logical worker slot, built lazily on
    // the slot's first configuration and reused for all of them; agents
    // stay per run. Results are keyed by configuration index and seeds
    // depend only on the index, so the outcome is independent of how the
    // pool schedules slots onto threads.
    std::vector<std::unique_ptr<Environment>> envs(num_threads);

    // Search runs are heavyweight (maxSamples cost-model calls each), so
    // chunk = 1 is usually right; only very large sweeps of very small
    // runs benefit from coarser chunks that spare the shared counter.
    const std::size_t chunk = std::max<std::size_t>(
        1, configs.size() / (num_threads * 64));

    WorkerPool::shared().parallelFor(
        configs.size(),
        [&](std::size_t slot, std::size_t i) {
            auto &env = envs[slot];
            if (!env)
                env = env_factory();
            const std::uint64_t seed = sweepConfigSeed(base_seed, i);
            auto agent = builder(env->actionSpace(), configs[i], seed);
            RunResult run = runSearch(*env, *agent, run_config);
            sweep.bestRewards[i] = run.bestReward;
            sweep.runs[i] = std::move(run);
        },
        num_threads, chunk);
    return sweep;
}

// ---------------------------------------------------------------------
// Sharded, resumable sweep engine
// ---------------------------------------------------------------------

std::uint64_t
sweepConfigSeed(std::uint64_t base_seed, std::size_t index)
{
    return base_seed * 0x9e3779b97f4a7c15ULL +
           static_cast<std::uint64_t>(index);
}

std::uint64_t
sweepConfigsHash(const std::vector<HyperParams> &configs)
{
    std::uint64_t h = 0xcbf29ce484222325ULL;
    const auto mix = [&h](const std::string &s) {
        for (unsigned char c : s) {
            h ^= c;
            h *= 0x100000001b3ULL;
        }
        h ^= static_cast<unsigned char>(';');
        h *= 0x100000001b3ULL;
    };
    for (const auto &hp : configs)
        mix(hp.str());
    return h;
}

namespace {

namespace fs = std::filesystem;

struct ManifestFields
{
    std::string env;
    std::string agent;
    std::uint64_t configCount = 0;
    std::uint64_t shardSize = 0;
    std::uint64_t baseSeed = 0;
    std::uint64_t maxSamples = 0;
    std::uint64_t stopWhenSatisfied = 0;
    std::uint64_t batchEval = 0;
    std::uint64_t exportDataset = 0;
    std::uint64_t hash = 0;
};

std::string
renderManifest(const ManifestFields &m)
{
    std::ostringstream os;
    os << "{\"format\":1,\"env\":\"" << jsonio::escape(m.env)
       << "\",\"agent\":\"" << jsonio::escape(m.agent)
       << "\",\"configCount\":" << m.configCount
       << ",\"shardSize\":" << m.shardSize << ",\"baseSeed\":"
       << m.baseSeed << ",\"maxSamples\":" << m.maxSamples
       << ",\"stopWhenSatisfied\":" << m.stopWhenSatisfied
       << ",\"batchEval\":" << m.batchEval
       << ",\"exportDataset\":" << m.exportDataset << ",\"configsHash\":"
       << m.hash << "}\n";
    return os.str();
}

/**
 * Validate-or-write the manifest: resuming a directory that belongs to a
 * *different* sweep must fail loudly, never mix results. Every mismatch
 * names the offending field and both values.
 */
void
pinManifest(const fs::path &manifestPath, const ManifestFields &manifest)
{
    if (!fs::exists(manifestPath)) {
        // Durable atomic create. Two workers racing here both render
        // identical bytes, so the second rename is a no-op overwrite.
        fsio::atomicWriteFile(manifestPath.string(),
                              renderManifest(manifest));
        return;
    }
    const std::string text = fsio::readFileIfExists(manifestPath.string());
    const std::string ctx = "manifest " + manifestPath.string();
    if (text.empty())
        throw std::runtime_error(
            ctx + ": file is empty (torn or zeroed write) — delete "
                  "it to restart the sweep");
    const auto check = [&](const std::string &key, std::uint64_t expected) {
        const std::uint64_t got = jsonio::uintField(text, key, ctx);
        if (got != expected)
            throw std::runtime_error(
                ctx + ": '" + key + "' is " + std::to_string(got) +
                ", requested sweep has " + std::to_string(expected) +
                " — not the same sweep");
    };
    const auto checkString = [&](const std::string &key,
                                 const std::string &expected) {
        const std::string got = jsonio::stringField(text, key, ctx);
        if (got != expected)
            throw std::runtime_error(
                ctx + ": '" + key + "' is \"" + got +
                "\", requested sweep has \"" + expected +
                "\" — not the same sweep");
    };
    checkString("env", manifest.env);
    checkString("agent", manifest.agent);
    check("configCount", manifest.configCount);
    check("shardSize", manifest.shardSize);
    check("baseSeed", manifest.baseSeed);
    check("maxSamples", manifest.maxSamples);
    check("stopWhenSatisfied", manifest.stopWhenSatisfied);
    check("batchEval", manifest.batchEval);
    check("exportDataset", manifest.exportDataset);
    check("configsHash", manifest.hash);
}

/** One per-configuration result line of a shard .jsonl file. */
std::string
renderResultLine(std::size_t config_index, std::uint64_t seed,
                 const HyperParams &hp, const RunResult &run)
{
    std::string line = "{\"config\":";
    line += std::to_string(config_index);
    line += ",\"seed\":";
    line += std::to_string(seed);
    line += ",\"bestReward\":";
    jsonio::appendDouble(line, run.bestReward);
    line += ",\"bestSampleIndex\":";
    line += std::to_string(run.bestSampleIndex);
    line += ",\"samplesUsed\":";
    line += std::to_string(run.samplesUsed);
    line += ",\"bestAction\":[";
    for (std::size_t i = 0; i < run.bestAction.size(); ++i) {
        if (i)
            line.push_back(',');
        jsonio::appendDouble(line, run.bestAction[i]);
    }
    line += "],\"hyper\":\"";
    line += jsonio::escape(hp.str());
    line += "\"}\n";
    return line;
}

/**
 * Final-format gap line of a quarantined configuration. Deliberately
 * deterministic: class and error come from the configuration's own
 * failure (identical on every worker), never from worker identity,
 * timestamps, or measured durations — so finals stay byte-identical
 * at any worker count and across any steal/resume schedule.
 */
std::string
renderGapLine(std::size_t config_index, std::uint64_t seed,
              const HyperParams &hp, std::size_t attempts,
              const std::string &failure_class, const std::string &error)
{
    std::string line = "{\"config\":";
    line += std::to_string(config_index);
    line += ",\"seed\":";
    line += std::to_string(seed);
    line += ",\"bestReward\":";
    jsonio::appendDouble(line,
                         -std::numeric_limits<double>::infinity());
    line += ",\"bestSampleIndex\":0,\"samplesUsed\":0,\"bestAction\":[]";
    line += ",\"quarantined\":1,\"attempts\":";
    line += std::to_string(attempts);
    line += ",\"failureClass\":\"";
    line += jsonio::escape(failure_class);
    line += "\",\"error\":\"";
    line += jsonio::escape(error);
    line += "\",\"hyper\":\"";
    line += jsonio::escape(hp.str());
    line += "\"}\n";
    return line;
}

/** One attempt record of the durable quarantine ledger. */
std::string
renderAttemptLine(std::size_t config_index, std::uint64_t seed,
                  std::size_t attempt, const std::string &failure_class,
                  const std::string &error, const std::string &worker)
{
    std::string line = "{\"config\":";
    line += std::to_string(config_index);
    line += ",\"seed\":";
    line += std::to_string(seed);
    line += ",\"attempt\":";
    line += std::to_string(attempt);
    line += ",\"class\":\"";
    line += jsonio::escape(failure_class);
    line += "\",\"error\":\"";
    line += jsonio::escape(error);
    line += "\",\"worker\":\"";
    line += jsonio::escape(worker);
    line += "\"}\n";
    return line;
}

/**
 * Ingest the per-run fields of one final-format result line (a shard
 * final's or a repaired partial's) into the result arrays at `config`.
 * The caller has checked the line's config and seed.
 */
void
ingestResultLine(ShardedSweepResult &result, std::size_t config,
                 const std::string &line, const std::string &ctx)
{
    result.bestRewards[config] = jsonio::doubleField(line, "bestReward", ctx);
    result.samplesUsed[config] = static_cast<std::size_t>(
        jsonio::uintField(line, "samplesUsed", ctx));
    result.bestActions[config] =
        jsonio::doubleArrayField(line, "bestAction", ctx);
    // Only gap records carry the field. A durable gap record ingests
    // like any other run: its owner already paid the attempts.
    result.quarantined[config] =
        line.find("\"quarantined\":") != std::string::npos &&
                jsonio::uintField(line, "quarantined", ctx) != 0
            ? 1
            : 0;
}

/**
 * Shard stem of a rename-staging file name (`shard_NNNN.<file>.tmp*`),
 * or "" for any other name. The stem ends at the first '.', so a claim
 * of shard_1000 never matches — and deletes — shard_10000's files.
 */
std::string
stagingStem(const std::string &name)
{
    const auto dot = name.find('.');
    if (name.rfind("shard_", 0) != 0 || dot == std::string::npos ||
        name.find(".tmp", dot) == std::string::npos)
        return {};
    return name.substr(0, dot);
}

/** Per-config attempt history recovered from a quarantine ledger. */
struct LedgerEntry
{
    std::size_t attempts = 0;   ///< highest durable attempt number
    std::string failureClass;   ///< of the latest attempt
    std::string error;          ///< of the latest attempt
};

/** A claimed shard, from open to finalize. */
struct OpenShard
{
    std::size_t shard = 0;
    std::size_t lo = 0;  ///< first config
    std::size_t hi = 0;  ///< one past the last config
    std::unique_ptr<ShardLease> lease;
    fs::path jsonlPath;
    fs::path csvPath;
    fs::path partialPath;
    std::unique_ptr<ShardPartialWriter> partial;

    /** Durable attempt history of this shard's poison candidates. */
    std::map<std::size_t, LedgerEntry> ledger;
    fs::path quarantinePath;
    std::size_t ledgerValidBytes = 0;
    std::mutex ledgerMutex;
    fsio::File ledgerFile;  ///< lazily opened

    std::vector<std::size_t> missing;  ///< configs to run, ascending
    // Guarded by the pipeline mutex.
    std::size_t started = 0;  ///< missing[0, started) taken by a slot
    std::size_t settled = 0;  ///< of those, persisted or skipped
};

/**
 * The shard pipeline of one runSweepSharded invocation. Every worker
 * slot runs work(): it takes the next unstarted run of the oldest open
 * shard; when no open shard has one, a single slot claims and opens the
 * next shard while the others keep running; the slot that settles a
 * shard's last run finalizes and releases it. Runs are pulled, never
 * pre-assigned, so a slot the pool never schedules holds no work.
 *
 * A failure on any slot stops every slot and leaves each open shard's
 * lease and partial file in place, exactly as a crash would.
 */
class ShardPipeline
{
  public:
    ShardPipeline(const EnvFactory &env_factory, const AgentBuilder &builder,
                  const std::vector<HyperParams> &configs,
                  const RunConfig &run_config,
                  const ShardedSweepOptions &options,
                  const Environment &meta_env, const std::string &agent_name,
                  std::size_t num_threads, ShardedSweepResult &result)
        : envFactory_(env_factory), builder_(builder), configs_(configs),
          options_(options), metaEnv_(meta_env), agentName_(agent_name),
          dir_(options.directory), result_(result),
          shardCount_(result.shardCount), envs_(num_threads),
          state_(shardCount_, ShardState::Unclaimed),
          unclaimed_(shardCount_)
    {
        // A run's trajectory lives only until its partial frame is
        // written; retaining per-run curves/logs in memory would defeat
        // the bounded-memory contract.
        runConfig_ = run_config;
        runConfig_.recordRewardHistory = false;
        runConfig_.logTrajectory = options.exportDataset;

        leaseOpts_.workerId = options.workerId.empty()
                                  ? "pid:" + std::to_string(::getpid())
                                  : options.workerId;
        leaseOpts_.ttlMs = options.leaseTtlMs;
        leaseOpts_.heartbeatMs = options.heartbeatMs;

        // One listing per invocation finds the rename-staging files that
        // dead owners left behind; each claim removes its own shard's.
        for (const auto &entry : fs::directory_iterator(dir_))
            if (std::string stem =
                    stagingStem(entry.path().filename().string());
                !stem.empty())
                staging_[stem].push_back(entry.path());
    }

    /** One worker slot's loop; returns once no work is left for it. */
    void work(std::size_t slot);

    /** Every shard finalized (here or by a peer)? */
    bool complete() const
    {
        return std::all_of(state_.begin(), state_.end(), [](ShardState s) {
            return s == ShardState::Done;
        });
    }

  private:
    enum class ShardState : std::uint8_t { Unclaimed, Open, Done };

    struct Claim
    {
        std::unique_ptr<OpenShard> shard;  ///< null unless one opened
        bool capReached = false;  ///< stopped at options.maxShards
    };

    Claim claimNext();
    std::unique_ptr<OpenShard> openShard(std::size_t shard,
                                         std::unique_ptr<ShardLease> lease);
    void runConfig(OpenShard &s, std::size_t slot, std::size_t config);
    bool finalizeShard(OpenShard &s);

    void ingestFinal(std::size_t shard);
    void checkRecord(const OpenShard &s, std::size_t config,
                     const std::string &line, const std::string &ctx,
                     const char *files) const;
    std::string csvBlock(const TrajectoryLog &log) const;
    void settle(std::unique_lock<std::mutex> &lock, OpenShard &s);
    void close(const OpenShard &s, bool finalized);
    bool finalsExist(std::size_t shard) const;

    /** Run `fn`; on a throw, stop every slot before rethrowing. */
    template <typename Fn>
    auto guarded(Fn &&fn) -> decltype(fn())
    {
        try {
            return fn();
        } catch (...) {
            {
                std::lock_guard<std::mutex> lock(mutex_);
                stopped_ = true;
            }
            wake_.notify_all();
            throw;
        }
    }

    std::size_t lo(std::size_t shard) const
    {
        return shard * options_.shardSize;
    }
    std::size_t hi(std::size_t shard) const
    {
        return std::min(configs_.size(), lo(shard) + options_.shardSize);
    }
    fs::path shardFile(std::size_t shard, const char *suffix) const
    {
        return dir_ / (shardStem(shard) + suffix);
    }

    const EnvFactory &envFactory_;
    const AgentBuilder &builder_;
    const std::vector<HyperParams> &configs_;
    const ShardedSweepOptions &options_;
    const Environment &metaEnv_;
    const std::string &agentName_;
    const fs::path dir_;
    ShardedSweepResult &result_;
    const std::size_t shardCount_;
    RunConfig runConfig_;
    LeaseOptions leaseOpts_;

    /** One private environment per slot, built on its first run and
     *  reused across every shard (same determinism argument as
     *  runSweepParallel). */
    std::vector<std::unique_ptr<Environment>> envs_;

    // Touched only by the single in-flight claimer.
    std::map<std::string, std::vector<fs::path>> staging_;
    std::size_t cursor_ = 0;       ///< next shard the claim scan visits
    bool passProgress_ = false;    ///< this scan pass ingested or opened

    std::mutex mutex_;
    std::condition_variable wake_;
    std::vector<ShardState> state_;
    std::deque<std::unique_ptr<OpenShard>> open_;  ///< oldest claim first
    std::size_t unclaimed_;
    bool claiming_ = false;
    bool capped_ = false;      ///< maxShards reached, nothing open
    bool capBlocked_ = false;  ///< maxShards reached by open shards
    std::chrono::steady_clock::time_point retryAt_{};  ///< claim back-off
    bool stopped_ = false;
};

bool
ShardPipeline::finalsExist(std::size_t shard) const
{
    return fs::exists(shardFile(shard, ".jsonl")) &&
           (!options_.exportDataset || fs::exists(shardFile(shard, ".csv")));
}

/**
 * Ingest a completed shard's final .jsonl into the result arrays and
 * mark the shard done. Corruption (truncation, appended garbage,
 * foreign results) fails loudly with the offending line number — never
 * a silent mis-resume.
 */
void
ShardPipeline::ingestFinal(std::size_t shard)
{
    const fs::path jsonlPath = shardFile(shard, ".jsonl");
    const std::size_t first = lo(shard), last = hi(shard);
    std::ifstream in(jsonlPath);
    std::string line;
    std::size_t next = first;
    std::size_t lineno = 0;
    while (std::getline(in, line)) {
        ++lineno;
        const std::string ctx = "shard results " + jsonlPath.string() +
                                ":" + std::to_string(lineno);
        if (line.empty())
            throw std::runtime_error(
                ctx + ": empty line (truncated write?) — delete "
                      "the shard files to re-run it");
        // A structurally whole record ends in '}'; a mid-line
        // truncation otherwise parses as a silently shorter bestAction
        // array.
        if (line.back() != '}')
            throw std::runtime_error(
                ctx + ": line does not end in '}' (truncated write?) — "
                      "delete the shard files to re-run it");
        const std::uint64_t idx = jsonio::uintField(line, "config", ctx);
        if (next >= last || idx != next)
            throw std::runtime_error(
                ctx + ": unexpected config index " + std::to_string(idx) +
                " (expected " +
                (next >= last ? std::string("end of shard")
                              : std::to_string(next)) +
                ") — delete the shard files to re-run it");
        const std::uint64_t seed = jsonio::uintField(line, "seed", ctx);
        if (seed != result_.seeds[idx])
            throw std::runtime_error(
                ctx + ": seed is " + std::to_string(seed) + ", expected " +
                std::to_string(result_.seeds[idx]) + " at config " +
                std::to_string(idx) +
                " — delete the shard files to re-run it");
        ingestResultLine(result_, idx, line, ctx);
        ++next;
    }
    if (next != last)
        throw std::runtime_error(
            "shard results " + jsonlPath.string() + ":" +
            std::to_string(lineno) + ": holds " +
            std::to_string(next - first) + " of " +
            std::to_string(last - first) +
            " configs — delete the shard files to re-run it");

    // Sweep up leftovers of a worker that died after its final rename.
    std::error_code ec;
    fs::remove(shardFile(shard, ".partial"), ec);

    std::lock_guard<std::mutex> lock(mutex_);
    state_[shard] = ShardState::Done;
    --unclaimed_;
    ++result_.shardsSkipped;
}

/**
 * Claim step: scan on from the cursor for the next shard this worker
 * can own, re-ingesting shards that peers (or earlier invocations)
 * finished on the way, and claim its lease. Runs on one slot at a time,
 * outside the pipeline mutex.
 */
ShardPipeline::Claim
ShardPipeline::claimNext()
{
    for (;; ++cursor_) {
        if (cursor_ == shardCount_) {
            // End of a pass: rescan at once while passes make progress;
            // otherwise every remaining shard is open here or leased by
            // a live peer, and the caller backs off.
            cursor_ = 0;
            if (!std::exchange(passProgress_, false))
                return {};
        }
        const std::size_t shard = cursor_;
        {
            std::lock_guard<std::mutex> lock(mutex_);
            if (state_[shard] != ShardState::Unclaimed)
                continue;
        }
        if (finalsExist(shard)) {
            ingestFinal(shard);
            std::error_code ec;
            fs::remove(shardFile(shard, ".lease"), ec);
            passProgress_ = true;
            continue;
        }
        if (options_.maxShards != 0) {
            std::lock_guard<std::mutex> lock(mutex_);
            if (result_.shardsRun + open_.size() >= options_.maxShards)
                return {nullptr, true};  // interrupted by request
        }

        auto lease = ShardLease::tryAcquire(options_.directory, shard,
                                            leaseOpts_);
        if (!lease)
            continue;  // a live peer owns it; move on
        if (lease->stolen())
            ++result_.shardsStolen;
        if (faultHooks().afterShardClaimed)
            faultHooks().afterShardClaimed(leaseOpts_.workerId, shard);
        passProgress_ = true;

        // A peer may have finished and released between our scan and
        // the claim; re-check under ownership.
        if (finalsExist(shard)) {
            ingestFinal(shard);
            lease->release();
            continue;
        }
        ++cursor_;
        return {openShard(shard, std::move(lease))};
    }
}

/**
 * Open/repair step: clean the previous owner's staging files, find
 * every run it durably appended, and open the partial writer for the
 * configs still missing.
 */
std::unique_ptr<OpenShard>
ShardPipeline::openShard(std::size_t shard,
                         std::unique_ptr<ShardLease> lease)
{
    auto s = std::make_unique<OpenShard>();
    s->shard = shard;
    s->lo = lo(shard);
    s->hi = hi(shard);
    s->lease = std::move(lease);
    s->jsonlPath = shardFile(shard, ".jsonl");
    s->csvPath = shardFile(shard, ".csv");
    s->partialPath = shardFile(shard, ".partial");

    // Discard the previous owners' half-written rename staging files.
    // The listing taken at start-up has every one a released or absent
    // lease can leave; a stolen lease's owner may have staged more since.
    const std::string stem = shardStem(shard);
    std::error_code ec;
    if (s->lease->stolen()) {
        for (const auto &entry : fs::directory_iterator(dir_))
            if (stagingStem(entry.path().filename().string()) == stem)
                fs::remove(entry.path(), ec);
    } else if (const auto it = staging_.find(stem); it != staging_.end()) {
        for (const auto &path : it->second)
            fs::remove(path, ec);
    }
    staging_.erase(stem);
    // exportDataset with a .jsonl but no .csv (manual deletion): drop
    // the orphan marker and re-run the shard whole.
    if (fs::exists(s->jsonlPath) && !finalsExist(shard))
        fs::remove(s->jsonlPath);

    // Repair pass: a run is durable when the previous owners' partial
    // holds an intact record of it; finalize writes it from there.
    // Truncate the torn tail and keep appending where they stopped.
    const std::string ctx = "shard partial " + s->partialPath.string();
    std::vector<std::uint8_t> durable(s->hi - s->lo, 0);
    std::size_t repaired = 0;
    const std::size_t validBytes = readPartial(
        s->partialPath.string(),
        [&](std::size_t config, std::string_view line, std::string_view) {
            checkRecord(*s, config, std::string(line), ctx, "partial file");
            // A duplicate from a double-execution race counts once.
            if (!std::exchange(durable[config - s->lo], 1))
                ++repaired;
        });
    result_.runsRepaired += repaired;
    s->partial = std::make_unique<ShardPartialWriter>(
        s->partialPath.string(), validBytes);

    // Durable attempt history of this shard's poison candidates: what
    // previous owners already tried, by config. The ledger outlives
    // steals *and* shard completion (it is the quarantine post-mortem
    // record), so attempt budgets are fleet-wide.
    s->quarantinePath = shardFile(shard, ".quarantine.jsonl");
    if (options_.attempts.isolated()) {
        const CrcLineReadResult qr =
            readCrcLines(s->quarantinePath.string());
        s->ledgerValidBytes = qr.validBytes;
        const std::string ledgerCtx =
            "shard quarantine " + s->quarantinePath.string();
        for (const auto &rec : qr.records) {
            checkRecord(*s, rec.config, rec.line, ledgerCtx, "ledger");
            const auto attempt = static_cast<std::size_t>(
                jsonio::uintField(rec.line, "attempt", ledgerCtx));
            LedgerEntry &entry = s->ledger[rec.config];
            if (attempt > entry.attempts) {
                entry.attempts = attempt;
                entry.failureClass =
                    jsonio::stringField(rec.line, "class", ledgerCtx);
                entry.error =
                    jsonio::stringField(rec.line, "error", ledgerCtx);
            }
        }
    }

    s->missing.reserve(s->hi - s->lo - repaired);
    for (std::size_t i = s->lo; i < s->hi; ++i)
        if (!durable[i - s->lo])
            s->missing.push_back(i);
    return s;
}

/**
 * A record recovered from a shard's partial file or ledger must belong
 * to the shard and to this sweep; otherwise fail naming `ctx` and the
 * files to delete.
 */
void
ShardPipeline::checkRecord(const OpenShard &s, std::size_t config,
                           const std::string &line, const std::string &ctx,
                           const char *files) const
{
    const std::string remedy =
        std::string(" — delete the ") + files + " to re-run it";
    if (config < s.lo || config >= s.hi)
        throw std::runtime_error(
            ctx + ": config index " + std::to_string(config) +
            " is outside this shard [" + std::to_string(s.lo) + ", " +
            std::to_string(s.hi) + ")" + remedy);
    const std::uint64_t seed = jsonio::uintField(line, "seed", ctx);
    if (seed != result_.seeds[config])
        throw std::runtime_error(
            ctx + ": seed is " + std::to_string(seed) + ", expected " +
            std::to_string(result_.seeds[config]) + " at config " +
            std::to_string(config) + remedy);
}

/** One trajectory's block of the shard CSV (see core/trajectory.h). */
std::string
ShardPipeline::csvBlock(const TrajectoryLog &log) const
{
    std::ostringstream block;
    log.writeCsv(block, metaEnv_.actionSpace(), metaEnv_.metricNames());
    return block.str();
}

/**
 * Run-one-config step: execute one configuration of an open shard under
 * the attempt policy (isolation, retries, quarantine) and persist it.
 */
void
ShardPipeline::runConfig(OpenShard &s, std::size_t slot, std::size_t i)
{
    // Fenced while mid-shard (a peer judged us dead and stole the
    // lease): stop burning work, the finalize step yields to the
    // thief's results.
    if (s.lease->lost())
        return;
    const std::uint64_t seed = result_.seeds[i];
    const RunAttemptPolicy &pol = options_.attempts;
    const std::size_t maxAttempts = std::max<std::size_t>(1, pol.maxAttempts);
    const bool isolated = pol.isolated();
    const auto persisted = [&] {
        if (faultHooks().afterRunPersisted)
            faultHooks().afterRunPersisted(leaseOpts_.workerId, s.shard, i);
    };

    // The ledger is only read when isolated, so it is empty otherwise.
    std::size_t attempt = 0;
    std::string failClass, failError;
    if (const auto it = s.ledger.find(i); it != s.ledger.end()) {
        attempt = it->second.attempts;
        failClass = it->second.failureClass;
        failError = it->second.error;
    }

    bool succeeded = false;
    RunResult run;
    while (attempt < maxAttempts) {
        if (attempt > 0) {
            const std::uint64_t delayMs =
                attemptBackoffMs(pol, seed, attempt);
            if (delayMs)
                std::this_thread::sleep_for(
                    std::chrono::milliseconds(delayMs));
        }
        bool ok = false;
        try {
            // Arm the deadline before anything the attempt executes
            // (including the beforeRun hook): a hang anywhere inside the
            // attempt counts against it, and the lease watchdog sees the
            // overstay even if no checkpoint ever runs.
            resilience::CancelScope scope(leaseOpts_.workerId,
                                          isolated ? pol.runDeadlineMs : 0);
            if (faultHooks().beforeRun)
                faultHooks().beforeRun(leaseOpts_.workerId, s.shard, i);
            auto &env = envs_[slot];
            if (!env)
                env = envFactory_();
            auto agent = builder_(env->actionSpace(), configs_[i], seed);
            run = runSearch(*env, *agent, runConfig_);
            ok = true;
        } catch (const WorkerKilled &) {
            throw;  // injected SIGKILL: never isolated
        } catch (const RunTimeout &e) {
            if (!isolated)
                throw;
            failClass = "timeout";
            failError = e.what();
        } catch (const std::exception &e) {
            if (!isolated)
                throw;
            failClass = "throw";
            failError = e.what();
        }
        if (ok) {
            succeeded = true;
            break;
        }
        ++attempt;
        // The attempt count becomes durable *before* any retry: a thief
        // that steals this shard resumes the count where it stands —
        // without this, every thief restarts the budget and a poison
        // config livelocks the fleet.
        {
            std::lock_guard<std::mutex> lock(s.ledgerMutex);
            if (!s.ledgerFile)
                s.ledgerFile = fsio::File::appendAfter(
                    s.quarantinePath.string(), s.ledgerValidBytes);
            s.ledgerFile.write(crcLine(renderAttemptLine(
                i, seed, attempt, failClass, failError,
                leaseOpts_.workerId)));
        }
        persisted();
    }

    std::string line, block;
    if (succeeded) {
        line = renderResultLine(i, seed, configs_[i], run);
        if (options_.exportDataset)
            block = csvBlock(run.trajectory);
    } else {
        if (!pol.quarantine)
            throw std::runtime_error(
                "sweep config " + std::to_string(i) + " failed after " +
                std::to_string(attempt) + " attempts (" + failClass +
                "): " + failError);
        // Quarantine: the configuration is accounted for with a
        // deterministic gap record (result line + empty dataset block),
        // so the sweep completes degraded and the finals stay
        // byte-identical on every worker.
        line = renderGapLine(i, seed, configs_[i], attempt, failClass,
                             failError);
        if (options_.exportDataset)
            block = csvBlock(TrajectoryLog(metaEnv_.name(), agentName_,
                                           configs_[i].str())) +
                    "# quarantined=1\n";
    }
    // Run-granular durability: persist before reporting. The partial
    // record is the run's only copy until finalize.
    s.partial->append(i, line, block);
    persisted();
}

/**
 * Finalize step: build the shard's finals from its partial, rename them
 * into place and release its lease. Returns false when this worker was
 * fenced (a peer stole the lease and finishes, or finished, the shard);
 * the shard's finals are then the peer's to write, and a later scan
 * ingests them.
 */
bool
ShardPipeline::finalizeShard(OpenShard &s)
{
    const auto yielded = [&] {
        return s.lease->lost() || finalsExist(s.shard);
    };
    // A fenced stale owner must never reach the renames at all:
    // historically both sides produced byte-identical shards, but an
    // isolated run that overstays its deadline here while the thief
    // *succeeds* on the same config would finalize a gap record over
    // the thief's real result. Yield first.
    if (yielded()) {
        s.lease->release();  // ownership-checked no-op if stolen
        return false;
    }

    // The finals come from the partial, through the reader the repair
    // pass uses: each config's first intact record gives its result
    // line and CSV block, and the same lines fill the result arrays.
    // Atomic completion: write, fsync and rename the CSV first, then
    // the .jsonl — its presence marks the shard done. Both renames land
    // from unique tmp names, so even a fenced stale owner racing the
    // thief only ever renames records that passed their checksum.
    const std::string csvTmp =
        options_.exportDataset ? fsio::uniqueTmpPath(s.csvPath.string())
                               : std::string();
    try {
        const std::string ctx = "shard partial " + s.partialPath.string();
        fsio::File csv;
        if (!csvTmp.empty())
            csv = fsio::File::create(csvTmp);
        std::string jsonl;
        std::size_t next = s.lo;  ///< lowest config not yet written
        const auto take = [&](const std::string &line,
                              std::string_view block) {
            ingestResultLine(result_, next++, line, ctx);
            jsonl += line;
            if (csv)
                csv.write(block);
        };
        // Records come in completion order; one read ahead of its turn
        // waits here until every lower config's record is written.
        std::map<std::size_t, std::pair<std::string, std::string>> ahead;
        readPartial(s.partialPath.string(), [&](std::size_t config,
                                                std::string_view view,
                                                std::string_view block) {
            std::string line(view);
            checkRecord(s, config, line, ctx, "partial file");
            if (config < next || ahead.count(config))
                return;  // not the config's first record
            if (config > next) {
                ahead.emplace(config,
                              std::pair(std::move(line), std::string(block)));
                return;
            }
            take(line, block);
            for (auto it = ahead.begin();
                 it != ahead.end() && it->first == next;
                 it = ahead.erase(it))
                take(it->second.first, it->second.second);
        });
        // A record can go missing only when a fenced owner was killed
        // mid-write while its thief appended to the same file. Publish
        // nothing: lease and partial stay as a crash leaves them, and
        // the next owner's repair truncates at the bad record.
        if (next != s.hi)
            throw std::runtime_error(
                ctx + ": no intact record of config " +
                std::to_string(next) +
                " — the shard's next owner re-runs it");
        if (csv) {
            csv.sync();
            csv.close();
            fs::rename(csvTmp, s.csvPath);
        }
        fsio::atomicWriteFile(s.jsonlPath.string(), jsonl);
    } catch (const std::exception &) {
        if (!csvTmp.empty())
            ::unlink(csvTmp.c_str());  // ENOENT fine: renamed or never made
        // A peer that stole our stale lease may have removed our staging
        // files; if it finished the shard (or our lease is gone), yield
        // to it.
        if (yielded()) {
            s.lease->release();
            return false;
        }
        throw;
    }
    s.partial->closeAndRemove();
    s.lease->release();
    return true;
}

/** With `lock` held: finalize `s` if its last run just settled. */
void
ShardPipeline::settle(std::unique_lock<std::mutex> &lock, OpenShard &s)
{
    if (stopped_ || s.settled != s.missing.size())
        return;
    lock.unlock();
    const bool finalized = guarded([&] { return finalizeShard(s); });
    lock.lock();
    close(s, finalized);
}

/** With the mutex held: retire an open shard after its finalize step. */
void
ShardPipeline::close(const OpenShard &s, bool finalized)
{
    if (finalized) {
        state_[s.shard] = ShardState::Done;
        ++result_.shardsRun;
    } else {
        state_[s.shard] = ShardState::Unclaimed;  // a later scan ingests
        ++unclaimed_;
    }
    open_.erase(std::find_if(open_.begin(), open_.end(),
                             [&](const auto &o) { return o.get() == &s; }));
    capBlocked_ = false;
    wake_.notify_all();
}

void
ShardPipeline::work(std::size_t slot)
{
    std::unique_lock<std::mutex> lock(mutex_);
    while (!stopped_) {
        // 1. The next unstarted run of the oldest open shard.
        const auto unstarted = std::find_if(
            open_.begin(), open_.end(),
            [](const auto &s) { return s->started < s->missing.size(); });
        if (unstarted != open_.end()) {
            OpenShard &s = **unstarted;
            const std::size_t config = s.missing[s.started++];
            lock.unlock();
            guarded([&] { runConfig(s, slot, config); });
            lock.lock();
            ++s.settled;
            settle(lock, s);
            continue;
        }

        // 2. None: claim and open the next shard, one claim at a time.
        const auto now = std::chrono::steady_clock::now();
        if (!claiming_ && !capped_ && !capBlocked_ && unclaimed_ > 0 &&
            now >= retryAt_) {
            claiming_ = true;
            lock.unlock();
            Claim claim = guarded([&] { return claimNext(); });
            lock.lock();
            claiming_ = false;
            wake_.notify_all();
            if (claim.shard) {
                OpenShard &s = *claim.shard;
                state_[s.shard] = ShardState::Open;
                --unclaimed_;
                open_.push_back(std::move(claim.shard));
                settle(lock, s);  // a wholly repaired shard is done now
            } else if (!claim.capReached) {
                retryAt_ = now + std::chrono::milliseconds(options_.pollMs);
            } else if (result_.shardsRun + open_.size() >=
                       options_.maxShards) {
                // Re-judged under the lock: a shard that closed since the
                // scan may have freed the cap. Open shards may still yield
                // theirs back; with none open, the cap is final.
                if (open_.empty())
                    capped_ = true;
                else
                    capBlocked_ = true;
            }
            continue;
        }

        // 3. Nothing to run or claim now: leave once no claim can ever
        //    add work, else wait for a claim, a close or the back-off.
        if (!claiming_ && (capped_ || unclaimed_ == 0))
            return;
        if (!claiming_ && !capBlocked_ && now < retryAt_)
            wake_.wait_until(lock, retryAt_);
        else
            wake_.wait(lock);
    }
}

} // namespace

ShardedSweepResult
runSweepSharded(const EnvFactory &env_factory,
                const std::string &agent_name, const AgentBuilder &builder,
                const std::vector<HyperParams> &configs,
                const RunConfig &run_config,
                const ShardedSweepOptions &options, std::uint64_t base_seed)
{
    if (options.directory.empty())
        throw std::invalid_argument(
            "runSweepSharded: options.directory is empty");
    if (options.shardSize == 0)
        throw std::invalid_argument(
            "runSweepSharded: options.shardSize is zero");

    const fs::path dir(options.directory);
    fs::create_directories(dir);

    // One metadata environment per invocation: its name() anchors the
    // manifest to the environment family (resuming a directory that
    // belongs to another environment must fail, not re-ingest foreign
    // results), and it supplies the action space / metric names for
    // the trajectory CSV blocks.
    const std::unique_ptr<Environment> metaEnv = env_factory();

    ManifestFields manifest;
    manifest.env = metaEnv->name();
    manifest.agent = agent_name;
    manifest.configCount = configs.size();
    manifest.shardSize = options.shardSize;
    manifest.baseSeed = base_seed;
    manifest.maxSamples = run_config.maxSamples;
    manifest.stopWhenSatisfied = run_config.stopWhenSatisfied ? 1 : 0;
    manifest.batchEval = run_config.batchEval ? 1 : 0;
    manifest.exportDataset = options.exportDataset ? 1 : 0;
    manifest.hash = sweepConfigsHash(configs);
    pinManifest(dir / "manifest.json", manifest);

    ShardedSweepResult result;
    result.agentName = agent_name;
    result.configs = configs;
    result.bestRewards.assign(configs.size(),
                              -std::numeric_limits<double>::infinity());
    result.bestActions.resize(configs.size());
    result.samplesUsed.assign(configs.size(), 0);
    result.quarantined.assign(configs.size(), 0);
    result.seeds.resize(configs.size());
    result.shardCount =
        (configs.size() + options.shardSize - 1) / options.shardSize;
    for (std::size_t i = 0; i < configs.size(); ++i)
        result.seeds[i] = sweepConfigSeed(base_seed, i);

    // Runs of every open shard feed every slot, so any slot count keeps
    // them all busy, whatever the shard size.
    const std::size_t numThreads =
        options.numThreads != 0
            ? options.numThreads
            : std::max(1u, std::thread::hardware_concurrency());
    ShardPipeline pipeline(env_factory, builder, configs, run_config,
                           options, *metaEnv, agent_name, numThreads,
                           result);
    WorkerPool::shared().parallelFor(
        numThreads,
        [&pipeline](std::size_t slot, std::size_t) { pipeline.work(slot); },
        numThreads);

    result.complete = pipeline.complete();
    for (const std::uint8_t q : result.quarantined)
        if (q)
            ++result.runsQuarantined;
    return result;
}

} // namespace archgym
