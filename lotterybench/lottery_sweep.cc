/**
 * @file
 * lottery_sweep — one hyperparameter-lottery sweep, issued the way
 * `archgym_cli --sweep` issues it, in a fresh process, plus the
 * measurements and output checks of the lottery-sweep benchmark.
 * lotterybench/run.py drives it; lotterybench/RATIONALE.md says why
 * each workload and metric was chosen.
 *
 * Usage:
 *   lottery_sweep gen-trace --out FILE --len N --seed S
 *       Stream N "emb" (DLRM embedding-gather) requests seeded by S to
 *       FILE in the parseTrace text format, as `archgym_cli
 *       --trace-pattern emb --trace-out FILE --trace-len N --seed S`
 *       does.
 *
 *   lottery_sweep profile --trace-in FILE --out CDF [--setup-reps R]
 *       Parse and profile FILE and save its stack-distance CDF to CDF,
 *       as `archgym_cli --trace-profile FILE --trace-out CDF` does; R
 *       times over, each timed. Prints {"profile_s": [...]}.
 *
 *   lottery_sweep sweep --env E --agent A --configs N --samples S
 *                 --seed S --dir DIR [--cdf CDF --trace-len L]
 *                 [--setup-reps R] [--check-configs K] [--traced]
 *                 [--tamper best-reward|dataset-row]
 *       1. Set-up, R times over (default 1), each timed:
 *          sampleLotteryConfigs and the environment, which with --cdf
 *          replays the profile as `--trace-pattern sd:CDF
 *          --trace-len L`.
 *       2. runSweepSharded into DIR/sweep with dataset export on,
 *          shard size 16 and one thread per core (the CLI defaults).
 *       3. The summary: Dataset::loadDirectory(DIR/sweep).
 *       4. Output checks, untimed: the sweep is complete with no stolen
 *          shard and no repaired or quarantined run; every config used
 *          its whole budget; the summary holds one trajectory of S rows
 *          per config; and K seed-chosen configs re-run through
 *          runSearch reproduce their best reward and best action bit
 *          for bit.
 *       Prints one JSON object on stdout.
 *
 *   lottery_sweep build-info
 *       Print the compiler, build type and compile flags as JSON.
 *
 * --traced wraps every EnvFactory/AgentBuilder product in a timing
 * decorator and installs the public faultHooks(), so every layer is
 * timed from outside the library; an untraced sweep installs none of
 * it. --tamper corrupts one output on purpose (the best reward of the
 * first checked config, or the last dataset row of shard 0) so the
 * benchmark's tests can show that the checks count it as a failure.
 */

#include <algorithm>
#include <bit>
#include <chrono>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <deque>
#include <filesystem>
#include <fstream>
#include <iterator>
#include <map>
#include <memory>
#include <mutex>
#include <numeric>
#include <optional>
#include <stdexcept>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include <malloc.h>
#include <sys/resource.h>

#include "agents/registry.h"
#include "build_info.h"
#include "core/driver.h"
#include "core/fault_hooks.h"
#include "core/trajectory.h"
#include "dramsys/trace_gen.h"
#include "dramsys/trace_profile.h"
#include "envs/dram_gym_env.h"
#include "envs/farsi_gym_env.h"
#include "envs/timeloop_gym_env.h"
#include "mathutil/rng.h"
#include "mathutil/stats.h"

namespace {

using namespace archgym;
namespace fs = std::filesystem;

/** archgym_cli's default --shard-size. */
constexpr std::size_t kShardSize = 16;

std::int64_t
nowNs()
{
    return std::chrono::duration_cast<std::chrono::nanoseconds>(
               std::chrono::steady_clock::now().time_since_epoch())
        .count();
}

double
ms(std::int64_t ns)
{
    return static_cast<double>(ns) * 1e-6;
}

// ---------------------------------------------------------------------
// JSON output
// ---------------------------------------------------------------------

std::string
jsonNumber(double v)
{
    if (!std::isfinite(v))
        return "null";
    char buf[32];
    std::snprintf(buf, sizeof buf, "%.17g", v);
    return buf;
}

std::string
jsonString(const std::string &s)
{
    std::string out = "\"";
    for (const char c : s) {
        if (c == '"' || c == '\\')
            out.push_back('\\');
        if (static_cast<unsigned char>(c) >= 0x20)
            out.push_back(c);
    }
    return out + "\"";
}

/** A flat JSON object whose fields keep their insertion order. */
class JsonObject
{
  public:
    JsonObject &
    add(const std::string &key, double v)
    {
        return raw(key, jsonNumber(v));
    }

    JsonObject &
    add(const std::string &key, const std::string &v)
    {
        return raw(key, jsonString(v));
    }

    JsonObject &
    add(const std::string &key, const std::vector<double> &v)
    {
        std::string out = "[";
        for (std::size_t i = 0; i < v.size(); ++i) {
            if (i)
                out += ',';
            out += jsonNumber(v[i]);
        }
        return raw(key, out + "]");
    }

    JsonObject &
    add(const std::string &key, const JsonObject &v)
    {
        return raw(key, v.str());
    }

    std::string
    str() const
    {
        std::string out = "{";
        for (std::size_t i = 0; i < fields_.size(); ++i) {
            if (i)
                out += ',';
            out += jsonString(fields_[i].first);
            out += ':';
            out += fields_[i].second;
        }
        return out + "}";
    }

  private:
    JsonObject &
    raw(const std::string &key, std::string rendered)
    {
        fields_.emplace_back(key, std::move(rendered));
        return *this;
    }

    std::vector<std::pair<std::string, std::string>> fields_;
};

// ---------------------------------------------------------------------
// Process counters
// ---------------------------------------------------------------------

/** The getrusage(RUSAGE_SELF) fields the benchmark reads. */
struct Usage
{
    double cpuS = 0.0;       ///< user + system CPU
    long volSwitches = 0;    ///< voluntary context switches
    double maxRssMb = 0.0;   ///< peak resident set so far
};

Usage
usage()
{
    rusage ru{};
    getrusage(RUSAGE_SELF, &ru);
    const auto sec = [](const timeval &tv) {
        return static_cast<double>(tv.tv_sec) +
               static_cast<double>(tv.tv_usec) * 1e-6;
    };
    return {sec(ru.ru_utime) + sec(ru.ru_stime), ru.ru_nvcsw,
            static_cast<double>(ru.ru_maxrss) / 1024.0};
}

/** Heap bytes in use, in MB. Unlike the resident set it grows with
 *  every allocation, even one that reuses pages freed earlier. */
double
heapInUseMb()
{
    const struct mallinfo2 mi = mallinfo2();
    return static_cast<double>(mi.uordblks + mi.hblkhd) / (1024.0 * 1024.0);
}

/** /proc/self/io: rchar/wchar count bytes through read/write calls,
 *  syscr/syscw the calls, whatever the filesystem caches. */
std::map<std::string, double>
procIo()
{
    std::map<std::string, double> io;
    std::ifstream in("/proc/self/io");
    std::string key;
    double value = 0.0;
    while (in >> key >> value)
        io[key.substr(0, key.size() - 1)] = value;  // drop the ':'
    return io;
}

// ---------------------------------------------------------------------
// The CLI's environments
// ---------------------------------------------------------------------

/**
 * archgym_cli's makeEnv for the environments the benchmark sweeps,
 * with the same options, so each sweep runs the CLI's exact workload.
 */
std::unique_ptr<Environment>
makeEnv(const std::string &name, const dram::TraceSpec *trace_override)
{
    if (name == "dram-cloud2") {
        DramGymEnv::Options o;
        o.pattern = dram::TracePattern::Cloud2;
        o.objective = DramObjective::LatencyAndPower;
        o.latencyTargetNs = 150.0;
        o.traceLength = 256;
        if (trace_override)
            o.trace = *trace_override;
        return std::make_unique<DramGymEnv>(o);
    }
    if (name == "timeloop-resnet50") {
        TimeloopGymEnv::Options o;
        o.network = timeloop::resNet50();
        return std::make_unique<TimeloopGymEnv>(o);
    }
    if (name == "farsi-edge") {
        FarsiGymEnv::Options o;
        o.graph = farsi::edgeDetection();
        return std::make_unique<FarsiGymEnv>(o);
    }
    throw std::invalid_argument("unsupported --env '" + name +
                                "' (dram-cloud2, timeloop-resnet50, "
                                "farsi-edge)");
}

// ---------------------------------------------------------------------
// Tracing: decorators and fault hooks, timed from outside the library
// ---------------------------------------------------------------------

/** One run as the fault hooks and the agent decorator saw it. */
struct RunSpan
{
    std::size_t shard = 0;
    std::int64_t start = 0;        ///< beforeRun
    std::int64_t lastObserve = 0;  ///< end of the run's last observe
    std::int64_t persisted = 0;    ///< afterRunPersisted
};

/**
 * Accumulators of one thread. Only their own thread writes them, so the
 * timed path takes no lock and shares no cache line with other workers;
 * the main thread reads them after runSweepSharded has returned, when
 * every pool task has finished.
 */
struct alignas(64) ThreadTrace
{
    std::int64_t agentNs = 0;
    std::uint64_t agentSamples = 0;
    std::int64_t envNs = 0;
    std::uint64_t envSteps = 0;
    std::vector<std::int64_t> constructNs;
    std::vector<std::pair<std::int64_t, std::size_t>> claims;  ///< at, shard
    std::vector<RunSpan> runs;
    RunSpan current;
};

std::mutex traceMutex;
std::deque<ThreadTrace> traces;  ///< stable addresses; guarded on insert

ThreadTrace &
threadTrace()
{
    thread_local ThreadTrace *mine = nullptr;
    if (mine == nullptr) {
        std::lock_guard<std::mutex> lock(traceMutex);
        mine = &traces.emplace_back();
    }
    return *mine;
}

/** Times step/stepBatch of the environment it owns. */
class TimedEnvironment final : public Environment
{
  public:
    explicit TimedEnvironment(std::unique_ptr<Environment> inner)
        : inner_(std::move(inner))
    {}

    const std::string &name() const override { return inner_->name(); }
    const ParamSpace &
    actionSpace() const override
    {
        return inner_->actionSpace();
    }
    const std::vector<std::string> &
    metricNames() const override
    {
        return inner_->metricNames();
    }
    void reset() override { inner_->reset(); }

    StepResult
    step(const Action &action) override
    {
        const std::int64_t t0 = nowNs();
        StepResult r = inner_->step(action);
        record(t0, 1);
        return r;
    }

    std::vector<StepResult>
    stepBatch(const std::vector<Action> &actions) override
    {
        const std::int64_t t0 = nowNs();
        std::vector<StepResult> r = inner_->stepBatch(actions);
        record(t0, actions.size());
        return r;
    }

  private:
    static void
    record(std::int64_t t0, std::size_t steps)
    {
        ThreadTrace &t = threadTrace();
        t.envNs += nowNs() - t0;
        t.envSteps += steps;
    }

    std::unique_ptr<Environment> inner_;
};

/** Times selectAction/observe (and their batch forms) of its agent. */
class TimedAgent final : public Agent
{
  public:
    explicit TimedAgent(std::unique_ptr<Agent> inner)
        : Agent(inner->name(), inner->space(), inner->hyperParams()),
          inner_(std::move(inner))
    {}

    Action
    selectAction() override
    {
        const std::int64_t t0 = nowNs();
        Action a = inner_->selectAction();
        threadTrace().agentNs += nowNs() - t0;
        return a;
    }

    void
    observe(const Action &action, const Metrics &metrics,
            double reward) override
    {
        const std::int64_t t0 = nowNs();
        inner_->observe(action, metrics, reward);
        observed(t0, 1);
    }

    std::vector<Action>
    selectActionBatch(std::size_t maxActions) override
    {
        const std::int64_t t0 = nowNs();
        std::vector<Action> a = inner_->selectActionBatch(maxActions);
        threadTrace().agentNs += nowNs() - t0;
        return a;
    }

    void
    observeBatch(const std::vector<Action> &actions,
                 const std::vector<StepResult> &results) override
    {
        const std::int64_t t0 = nowNs();
        inner_->observeBatch(actions, results);
        observed(t0, actions.size());
    }

    void reset() override { inner_->reset(); }

  private:
    static void
    observed(std::int64_t t0, std::size_t samples)
    {
        const std::int64_t t1 = nowNs();
        ThreadTrace &t = threadTrace();
        t.agentNs += t1 - t0;
        t.agentSamples += samples;
        t.current.lastObserve = t1;
    }

    std::unique_ptr<Agent> inner_;
};

/** The three public hook points, recording timestamps per thread. */
void
installHooks()
{
    FaultHooks &h = faultHooks();
    h.afterShardClaimed = [](const std::string &, std::size_t shard) {
        threadTrace().claims.emplace_back(nowNs(), shard);
    };
    h.beforeRun = [](const std::string &, std::size_t shard, std::size_t) {
        threadTrace().current = RunSpan{shard, nowNs(), 0, 0};
    };
    h.afterRunPersisted = [](const std::string &, std::size_t,
                             std::size_t) {
        ThreadTrace &t = threadTrace();
        t.current.persisted = nowNs();
        t.runs.push_back(t.current);
    };
}

/**
 * Layer metrics of one traced sweep that ran from `entry` to `done` on
 * `threads` workers. Busy shares are fractions of worker capacity
 * (threads x sweep wall time).
 */
JsonObject
layerMetrics(std::int64_t entry, std::int64_t done, std::size_t threads)
{
    std::int64_t agentNs = 0, envNs = 0, runNs = 0, persistNs = 0;
    std::uint64_t samples = 0, steps = 0;
    std::vector<double> constructMs, runMs, persistMs;
    std::vector<std::pair<std::int64_t, std::size_t>> claims;
    /** shard -> (first beforeRun, last afterRunPersisted) */
    std::map<std::size_t, std::pair<std::int64_t, std::int64_t>> shards;
    {
        std::lock_guard<std::mutex> lock(traceMutex);
        for (const ThreadTrace &t : traces) {
            agentNs += t.agentNs;
            samples += t.agentSamples;
            envNs += t.envNs;
            steps += t.envSteps;
            for (const std::int64_t ns : t.constructNs)
                constructMs.push_back(ms(ns));
            claims.insert(claims.end(), t.claims.begin(), t.claims.end());
            for (const RunSpan &r : t.runs) {
                const std::int64_t observed =
                    std::max(r.lastObserve, r.start);
                runNs += r.persisted - r.start;
                persistNs += r.persisted - observed;
                runMs.push_back(ms(r.persisted - r.start));
                persistMs.push_back(ms(r.persisted - observed));
                const auto [it, fresh] =
                    shards.try_emplace(r.shard, r.start, r.persisted);
                if (!fresh) {
                    it->second.first = std::min(it->second.first, r.start);
                    it->second.second =
                        std::max(it->second.second, r.persisted);
                }
            }
        }
    }
    if (claims.empty() || runMs.empty() || samples == 0 || steps == 0)
        throw std::runtime_error("traced sweep recorded no runs");

    // Claims all happen on the sweep's calling thread, one shard at a
    // time: a shard closes when the next claim (or the return) starts.
    std::sort(claims.begin(), claims.end());
    std::vector<double> openMs, closeMs;
    for (std::size_t k = 0; k < claims.size(); ++k) {
        const auto &[first, last] = shards.at(claims[k].second);
        const std::int64_t next =
            k + 1 < claims.size() ? claims[k + 1].first : done;
        openMs.push_back(ms(first - claims[k].first));
        closeMs.push_back(ms(next - last));
    }

    const double capacityNs =
        static_cast<double>(threads) * static_cast<double>(done - entry);
    const auto share = [capacityNs](std::int64_t ns) {
        return static_cast<double>(ns) / capacityNs;
    };
    JsonObject out;
    out.add("agents.busy_share", share(agentNs))
        .add("agents.us_per_sample",
             ms(agentNs) * 1e3 / static_cast<double>(samples))
        .add("envs.busy_share", share(envNs))
        .add("envs.us_per_step",
             ms(envNs) * 1e3 / static_cast<double>(steps))
        .add("envs.steps", static_cast<double>(steps))
        .add("envs.construct_ms", percentile(constructMs, 50))
        .add("driver.run_ms_p50", percentile(runMs, 50))
        .add("driver.run_ms_p90", percentile(runMs, 90))
        .add("trajectory.persist_ms_p50", percentile(persistMs, 50))
        .add("trajectory.persist_share",
             static_cast<double>(persistNs) / static_cast<double>(runNs))
        .add("worker_pool.busy_share", share(runNs))
        .add("driver.sweep_open_ms", ms(claims.front().first - entry))
        .add("driver.shard_open_ms_p50", percentile(openMs, 50))
        .add("driver.shard_open_ms_p90", percentile(openMs, 90))
        .add("driver.shard_close_ms_p50", percentile(closeMs, 50))
        .add("driver.shard_close_ms_p90", percentile(closeMs, 90));
    return out;
}

// ---------------------------------------------------------------------
// Output checks
// ---------------------------------------------------------------------

/** K distinct config indices drawn from the workload seed, ascending. */
std::vector<std::size_t>
checkSample(std::uint64_t seed, std::size_t n, std::size_t k)
{
    std::vector<std::size_t> idx(n);
    std::iota(idx.begin(), idx.end(), std::size_t{0});
    // Salted so the draw is independent of the lottery's own Rng(seed).
    Rng rng(seed ^ 0x6c6f7474657279ULL);
    std::shuffle(idx.begin(), idx.end(), rng);
    idx.resize(std::min(k, n));
    std::sort(idx.begin(), idx.end());
    return idx;
}

bool
sameBits(double a, double b)
{
    return std::bit_cast<std::uint64_t>(a) == std::bit_cast<std::uint64_t>(b);
}

bool
sameBits(const Action &a, const Action &b)
{
    return a.size() == b.size() &&
           std::equal(a.begin(), a.end(), b.begin(),
                      [](double x, double y) { return sameBits(x, y); });
}

/** Remove the last line of a file: one dataset row, for --tamper. */
void
dropLastLine(const std::string &path)
{
    std::string text;
    {
        std::ifstream in(path, std::ios::binary);
        text.assign(std::istreambuf_iterator<char>(in),
                    std::istreambuf_iterator<char>());
    }
    const std::size_t cut = text.size() < 2
                                ? std::string::npos
                                : text.rfind('\n', text.size() - 2);
    if (cut == std::string::npos)
        throw std::runtime_error(path + ": no row to drop");
    text.resize(cut + 1);
    std::ofstream out(path, std::ios::binary | std::ios::trunc);
    out << text;
    if (!out)
        throw std::runtime_error(path + ": rewrite failed");
}

// ---------------------------------------------------------------------
// Commands
// ---------------------------------------------------------------------

struct Args
{
    std::string env, agent, dir, traceIn, cdf, tamper, out;
    std::size_t configs = 0, samples = 0, traceLen = 2048, len = 0;
    std::size_t setupReps = 1, checkConfigs = 4;
    std::uint64_t seed = 1;
    bool traced = false;
};

Args
parseArgs(int argc, char **argv)
{
    Args a;
    for (int i = 2; i < argc; ++i) {
        const std::string arg = argv[i];
        const auto next = [&]() -> std::string {
            if (i + 1 >= argc)
                throw std::invalid_argument(arg + " needs a value");
            return argv[++i];
        };
        if (arg == "--env")
            a.env = next();
        else if (arg == "--agent")
            a.agent = next();
        else if (arg == "--dir")
            a.dir = next();
        else if (arg == "--trace-in")
            a.traceIn = next();
        else if (arg == "--cdf")
            a.cdf = next();
        else if (arg == "--tamper")
            a.tamper = next();
        else if (arg == "--out")
            a.out = next();
        else if (arg == "--configs")
            a.configs = std::stoul(next());
        else if (arg == "--samples")
            a.samples = std::stoul(next());
        else if (arg == "--trace-len")
            a.traceLen = std::stoul(next());
        else if (arg == "--len")
            a.len = std::stoul(next());
        else if (arg == "--setup-reps")
            a.setupReps = std::max<std::size_t>(1, std::stoul(next()));
        else if (arg == "--check-configs")
            a.checkConfigs = std::stoul(next());
        else if (arg == "--seed")
            a.seed = std::stoull(next());
        else if (arg == "--traced")
            a.traced = true;
        else
            throw std::invalid_argument("unknown option " + arg);
    }
    if (!a.tamper.empty() && a.tamper != "best-reward" &&
        a.tamper != "dataset-row")
        throw std::invalid_argument("--tamper takes best-reward or "
                                    "dataset-row");
    return a;
}

int
genTrace(const Args &a)
{
    if (a.out.empty() || a.len == 0)
        throw std::invalid_argument("gen-trace needs --out and --len");
    dram::TraceSpec spec;
    spec.source = "emb";
    spec.numRequests = a.len;
    spec.seed = a.seed;
    const auto source = dram::makeTraceSource(spec);
    std::ofstream out(a.out);
    if (!out)
        throw std::runtime_error("cannot open " + a.out);
    std::vector<dram::MemoryRequest> chunk;
    for (std::size_t left = spec.numRequests; left > 0;) {
        const std::size_t n = std::min(left, spec.chunkRequests);
        chunk.clear();
        source->next(n, chunk);
        dram::writeTrace(out, chunk, left == spec.numRequests);
        left -= n;
    }
    out.close();
    if (!out)
        throw std::runtime_error("write failed: " + a.out);
    return 0;
}

int
profile(const Args &a)
{
    if (a.traceIn.empty() || a.out.empty())
        throw std::invalid_argument("profile needs --trace-in and --out");
    std::vector<double> profileS;
    for (std::size_t rep = 0; rep < a.setupReps; ++rep) {
        const std::int64_t t0 = nowNs();
        std::ifstream in(a.traceIn);
        if (!in)
            throw std::runtime_error("cannot open " + a.traceIn);
        dram::profileTrace(dram::parseTrace(in)).save(a.out);
        profileS.push_back(ms(nowNs() - t0) * 1e-3);
    }
    std::printf("%s\n", JsonObject().add("profile_s", profileS).str().c_str());
    return 0;
}

int
sweep(const Args &a)
{
    if (a.env.empty() || a.agent.empty() || a.dir.empty() ||
        a.configs == 0 || a.samples == 0)
        throw std::invalid_argument(
            "sweep needs --env, --agent, --dir, --configs and --samples");
    const std::string sweepDir = (fs::path(a.dir) / "sweep").string();
    std::optional<dram::TraceSpec> trace;
    if (!a.cdf.empty())
        trace = dram::TraceSpec{.source = "sd:" + a.cdf,
                                .numRequests = a.traceLen};
    const dram::TraceSpec *tracePtr = trace ? &*trace : nullptr;

    // 1. Set-up: what the CLI does before runSweepSharded. Repeated so
    //    that its median is steady even where one pass takes a
    //    millisecond.
    std::vector<double> setupS, envMs, configsMs;
    std::vector<HyperParams> configs;
    std::unique_ptr<Environment> env;  // held through the sweep, as the
                                       // CLI holds its env
    for (std::size_t rep = 0; rep < a.setupReps; ++rep) {
        env.reset();
        configs.clear();
        const std::int64_t t0 = nowNs();
        configs = sampleLotteryConfigs(a.agent, a.configs, a.seed);
        const std::int64_t t1 = nowNs();
        env = makeEnv(a.env, tracePtr);
        const std::int64_t t2 = nowNs();
        setupS.push_back(ms(t2 - t0) * 1e-3);
        configsMs.push_back(ms(t1 - t0));
        envMs.push_back(ms(t2 - t1));
    }

    // 2. The sweep, with the CLI's options.
    const EnvFactory plainFactory = [&a, tracePtr] {
        return makeEnv(a.env, tracePtr);
    };
    EnvFactory factory = plainFactory;
    AgentBuilder builder = [&a](const ParamSpace &space,
                                const HyperParams &h, std::uint64_t s) {
        return makeAgent(a.agent, space, h, s);
    };
    if (a.traced) {
        factory = [&plainFactory] {
            const std::int64_t t0 = nowNs();
            std::unique_ptr<Environment> inner = plainFactory();
            threadTrace().constructNs.push_back(nowNs() - t0);
            return std::unique_ptr<Environment>(
                std::make_unique<TimedEnvironment>(std::move(inner)));
        };
        builder = [&a](const ParamSpace &space, const HyperParams &h,
                       std::uint64_t s) {
            return std::unique_ptr<Agent>(std::make_unique<TimedAgent>(
                makeAgent(a.agent, space, h, s)));
        };
        installHooks();
    }
    RunConfig cfg;
    cfg.maxSamples = a.samples;
    ShardedSweepOptions opts;
    opts.directory = sweepDir;
    opts.shardSize = kShardSize;
    opts.exportDataset = true;
    // runSweepSharded's own thread count for numThreads = 0.
    const std::size_t threads = std::min<std::size_t>(
        std::max(1u, std::thread::hardware_concurrency()), kShardSize);

    const auto io0 = a.traced ? procIo() : std::map<std::string, double>{};
    const Usage u0 = usage();
    const std::int64_t entry = nowNs();
    ShardedSweepResult result = runSweepSharded(
        factory, a.agent, builder, configs, cfg, opts, a.seed);
    const std::int64_t done = nowNs();
    const Usage u1 = usage();
    faultHooks().clear();

    if (a.tamper == "dataset-row")
        dropLastLine((fs::path(sweepDir) / "shard_0000.csv").string());

    // 3. The CLI's summary.
    const double heap0 = heapInUseMb();
    const std::int64_t l0 = nowNs();
    const Dataset dataset = Dataset::loadDirectory(sweepDir);
    const std::int64_t l1 = nowNs();
    const double loadHeapMb = heapInUseMb() - heap0;
    const Usage u2 = usage();
    const auto io1 = a.traced ? procIo() : std::map<std::string, double>{};

    // 4. Output checks. A single fresh process must never need the
    //    fault-tolerance machinery, so any steal, repair or quarantine
    //    fails the whole sweep.
    const std::size_t n = configs.size();
    const std::vector<std::size_t> checked =
        checkSample(a.seed, n, a.checkConfigs);
    if (a.tamper == "best-reward" && !checked.empty())
        result.bestRewards[checked.front()] = std::nextafter(
            result.bestRewards[checked.front()], HUGE_VAL);
    std::vector<char> bad(n, 0);
    if (!result.complete || result.shardsStolen || result.runsRepaired ||
        result.runsQuarantined || dataset.logCount() != n) {
        std::fprintf(stderr,
                     "check: complete=%d stolen=%zu repaired=%zu "
                     "quarantined=%zu summary trajectories=%zu of %zu\n",
                     result.complete ? 1 : 0, result.shardsStolen,
                     result.runsRepaired, result.runsQuarantined,
                     dataset.logCount(), n);
        std::fill(bad.begin(), bad.end(), 1);
    } else {
        // The summary holds one trajectory per config, in config order.
        for (std::size_t i = 0; i < n; ++i)
            if (result.samplesUsed[i] != a.samples ||
                dataset.log(i).size() != a.samples) {
                std::fprintf(stderr,
                             "check: config %zu used %zu samples, "
                             "summary holds %zu rows, want %zu\n",
                             i, result.samplesUsed[i],
                             dataset.log(i).size(), a.samples);
                bad[i] = 1;
            }
        RunConfig rerun = cfg;
        rerun.recordRewardHistory = false;
        for (const std::size_t i : checked) {
            const auto e = plainFactory();
            const auto agent = makeAgent(a.agent, e->actionSpace(),
                                         configs[i],
                                         sweepConfigSeed(a.seed, i));
            const RunResult run = runSearch(*e, *agent, rerun);
            if (!sameBits(run.bestReward, result.bestRewards[i]) ||
                !sameBits(run.bestAction, result.bestActions[i])) {
                std::fprintf(stderr,
                             "check: config %zu re-run best reward %.17g, "
                             "sweep %.17g\n",
                             i, run.bestReward, result.bestRewards[i]);
                bad[i] = 1;
            }
        }
    }
    const auto failed =
        static_cast<double>(std::count(bad.begin(), bad.end(), 1));

    const double perConfig = 1.0 / static_cast<double>(n);
    JsonObject report;
    report.add("configs", static_cast<double>(n))
        .add("samples", static_cast<double>(a.samples))
        .add("threads", static_cast<double>(threads))
        .add("failed", failed)
        .add("sweep_s", ms(done - entry) * 1e-3)
        .add("cpu_s", u1.cpuS - u0.cpuS)
        .add("peak_rss_mb", u2.maxRssMb)
        .add("setup_s", setupS)
        .add("summary_s", ms(l1 - l0) * 1e-3);
    if (a.traced) {
        JsonObject layers = layerMetrics(entry, done, threads);
        const auto ioDelta = [&](const std::string &key) {
            return (io1.at(key) - io0.at(key)) * perConfig;
        };
        layers.add("driver.shards", static_cast<double>(result.shardCount))
            .add("io.write_bytes_per_config", ioDelta("wchar"))
            .add("io.write_calls_per_config", ioDelta("syscw"))
            .add("io.read_bytes_per_config", ioDelta("rchar"))
            .add("proc.vol_switches_per_config",
                 static_cast<double>(u1.volSwitches - u0.volSwitches) *
                     perConfig)
            .add("trajectory.load_s", ms(l1 - l0) * 1e-3)
            .add("trajectory.load_rows",
                 static_cast<double>(dataset.transitionCount()))
            .add("trajectory.load_heap_mb", loadHeapMb)
            .add("setup.configs_ms", percentile(configsMs, 50))
            .add("setup.workload_ms", percentile(envMs, 50));
        report.add("layers", layers);
    }
    std::printf("%s\n", report.str().c_str());
    return 0;
}

} // namespace

int
main(int argc, char **argv)
{
    const std::string command = argc > 1 ? argv[1] : "";
    try {
        if (command == "build-info") {
            std::printf("%s\n",
                        JsonObject()
                            .add("compiler", LOTTERYBENCH_COMPILER)
                            .add("build_type", LOTTERYBENCH_BUILD_TYPE)
                            .add("cxx_flags", LOTTERYBENCH_CXX_FLAGS)
                            .str()
                            .c_str());
            return 0;
        }
        if (command == "gen-trace")
            return genTrace(parseArgs(argc, argv));
        if (command == "profile")
            return profile(parseArgs(argc, argv));
        if (command == "sweep")
            return sweep(parseArgs(argc, argv));
    } catch (const std::exception &e) {
        std::fprintf(stderr, "lottery_sweep %s: %s\n", command.c_str(),
                     e.what());
        return 1;
    }
    std::fprintf(stderr, "usage: lottery_sweep "
                         "gen-trace|profile|sweep|build-info "
                         "... (see the file header)\n");
    return 2;
}
