#include "proxy_screen.h"

#include <algorithm>
#include <cassert>
#include <filesystem>
#include <stdexcept>

#include "core/fsio.h"
#include "core/jsonio.h"

namespace archgym {

namespace fs = std::filesystem;

ProxyEnvironment::ProxyEnvironment(const ProxyCostModel &proxy,
                                   const ParamSpace &space,
                                   std::vector<std::string> metric_names,
                                   const Objective &objective,
                                   std::string name)
    : proxy_(proxy), space_(space), metricNames_(std::move(metric_names)),
      objective_(objective), name_(std::move(name))
{
    assert(proxy_.trained());
}

StepResult
ProxyEnvironment::step(const Action &action)
{
    StepResult r;
    r.observation = proxy_.predict(action);
    r.reward = objective_.reward(r.observation);
    r.done = objective_.satisfied(r.observation);
    recordSample();
    return r;
}

std::vector<StepResult>
ProxyEnvironment::stepBatch(const std::vector<Action> &actions)
{
    // Serial over the batched kernel: forest inference IS the fast
    // path, so there is nothing to fan out. Bit-identity to the
    // sequential step() path follows from the predictBatch contract.
    const std::size_t rows = actions.size();
    std::vector<StepResult> out(rows);
    if (rows == 0)
        return out;
    const std::vector<double> predicted = proxy_.predictBatch(actions);
    const std::size_t metricCount = metricNames_.size();
    for (std::size_t r = 0; r < rows; ++r) {
        Metrics &obs = out[r].observation;
        obs.resize(metricCount);
        for (std::size_t m = 0; m < metricCount; ++m)
            obs[m] = predicted[m * rows + r];
        out[r].reward = objective_.reward(obs);
        out[r].done = objective_.satisfied(obs);
    }
    recordSamples(rows);
    return out;
}

namespace {

constexpr const char *kScreenFile = "screen.json";

struct ScreenRecord
{
    std::vector<std::size_t> ranking;
    std::vector<double> rewards;
};

std::string
renderScreenRecord(const std::string &agent_name, std::size_t config_count,
                   std::size_t pilot, std::size_t top_k,
                   std::uint64_t base_seed, std::size_t screen_samples,
                   std::uint64_t configs_hash, const ScreenRecord &record)
{
    std::string out = "{\"format\":1,\"agent\":\"";
    out += jsonio::escape(agent_name);
    out += "\",\"configCount\":" + std::to_string(config_count);
    out += ",\"pilot\":" + std::to_string(pilot);
    out += ",\"topK\":" + std::to_string(top_k);
    out += ",\"baseSeed\":" + std::to_string(base_seed);
    out += ",\"screenSamples\":" + std::to_string(screen_samples);
    out += ",\"configsHash\":" + std::to_string(configs_hash);
    out += ",\"ranking\":[";
    for (std::size_t i = 0; i < record.ranking.size(); ++i) {
        if (i)
            out += ',';
        out += std::to_string(record.ranking[i]);
    }
    out += "],\"screenRewards\":[";
    for (std::size_t i = 0; i < record.rewards.size(); ++i) {
        if (i)
            out += ',';
        jsonio::appendDouble(out, record.rewards[i]);
    }
    out += "]}\n";
    return out;
}

/**
 * Validate an existing screen.json against the requested sweep —
 * field-by-field, like the sharded-sweep manifest — and return the
 * recorded ranking. The record, not a recomputation, is authoritative
 * on resume: that is what pins the frontier bit-identically.
 */
ScreenRecord
loadScreenRecord(const std::string &path, const std::string &agent_name,
                 std::size_t config_count, std::size_t pilot,
                 std::size_t top_k, std::uint64_t base_seed,
                 std::size_t screen_samples, std::uint64_t configs_hash)
{
    const std::string text = fsio::readFileIfExists(path);
    const std::string ctx = "screen record " + path;
    if (text.empty())
        throw std::runtime_error(ctx + ": unreadable");
    const auto check = [&](const char *key, std::uint64_t expected) {
        const std::uint64_t got = jsonio::uintField(text, key, ctx);
        if (got != expected)
            throw std::runtime_error(
                ctx + ": field '" + key + "' is " + std::to_string(got) +
                ", requested sweep needs " + std::to_string(expected));
    };
    check("format", 1);
    const std::string agent = jsonio::stringField(text, "agent", ctx);
    if (agent != agent_name)
        throw std::runtime_error(ctx + ": field 'agent' is '" + agent +
                                 "', requested sweep needs '" +
                                 agent_name + "'");
    check("configCount", config_count);
    check("pilot", pilot);
    check("topK", top_k);
    check("baseSeed", base_seed);
    check("screenSamples", screen_samples);
    check("configsHash", configs_hash);

    ScreenRecord record;
    for (std::uint64_t v : jsonio::uintArrayField(text, "ranking", ctx))
        record.ranking.push_back(static_cast<std::size_t>(v));
    record.rewards =
        jsonio::doubleArrayField(text, "screenRewards", ctx);
    if (record.rewards.size() != record.ranking.size())
        throw std::runtime_error(ctx +
                                 ": ranking/screenRewards length mismatch");
    const std::size_t screened = config_count - pilot;
    if (record.ranking.size() != screened)
        throw std::runtime_error(
            ctx + ": ranking holds " +
            std::to_string(record.ranking.size()) + " entries, expected " +
            std::to_string(screened));
    return record;
}

} // namespace

ProxyScreenResult
runSweepProxyScreened(const EnvFactory &env_factory,
                      const std::string &agent_name,
                      const AgentBuilder &builder,
                      const std::vector<HyperParams> &configs,
                      const RunConfig &run_config,
                      const ProxyScreenOptions &options,
                      std::uint64_t base_seed)
{
    if (options.directory.empty())
        throw std::runtime_error(
            "runSweepProxyScreened: options.directory is required");
    if (options.objective == nullptr)
        throw std::runtime_error(
            "runSweepProxyScreened: options.objective is required");
    if (configs.empty())
        throw std::runtime_error(
            "runSweepProxyScreened: empty configuration list");

    const std::size_t pilotCount =
        std::max<std::size_t>(1,
                              std::min(options.pilotConfigs, configs.size()));
    const std::uint64_t configsHash = sweepConfigsHash(configs);
    fs::create_directories(options.directory);

    ProxyScreenResult result;

    // 1. Pilot: a real sharded sweep over the leading configs, with
    // trajectory export — the proxy's training data. Indices [0,
    // pilotCount) coincide with the global grid, so pilot seeds are
    // exactly the seeds a full sweep would have used.
    const std::vector<HyperParams> pilotConfigs(
        configs.begin(),
        configs.begin() + static_cast<std::ptrdiff_t>(pilotCount));
    ShardedSweepOptions pilotOpts;
    pilotOpts.directory =
        (fs::path(options.directory) / "pilot").string();
    pilotOpts.shardSize = options.shardSize;
    pilotOpts.numThreads = options.numThreads;
    pilotOpts.exportDataset = true;
    result.pilot = runSweepSharded(env_factory, agent_name, builder,
                                   pilotConfigs, run_config, pilotOpts,
                                   base_seed);

    const auto env = env_factory();
    const ParamSpace &space = env->actionSpace();
    const std::vector<std::string> metricNames = env->metricNames();

    const std::string screenPath =
        (fs::path(options.directory) / kScreenFile).string();
    const std::size_t screenSamples = options.screenSamples
                                          ? options.screenSamples
                                          : run_config.maxSamples;

    ScreenRecord record;
    if (fs::exists(screenPath)) {
        record = loadScreenRecord(screenPath, agent_name, configs.size(),
                                  pilotCount, options.screenTopK,
                                  base_seed, screenSamples, configsHash);
        result.screenReused = true;
    } else {
        // 2. Train the proxy on every pilot transition, read back from
        // the pilot's shard CSVs.
        const std::vector<Transition> trainRows =
            Dataset::loadDirectory(pilotOpts.directory).flatten();
        if (trainRows.empty())
            throw std::runtime_error(
                "runSweepProxyScreened: pilot produced no transitions "
                "(did the pilot sweep export a dataset?)");
        result.trainRowCount = trainRows.size();

        ProxyCostModel proxy(space, metricNames, options.forest);
        proxy.train(trainRows);

        // 3. Screen every remaining config against the proxy with the
        // batched ask-tell path, using the same per-config seed the
        // real sweep would: the screening reward is what the agent
        // would have believed the config is worth under the proxy.
        ProxyEnvironment proxyEnv(proxy, space, metricNames,
                                  *options.objective,
                                  "proxy:" + env->name());
        RunConfig screenCfg = run_config;
        screenCfg.maxSamples = screenSamples;
        screenCfg.logTrajectory = false;
        screenCfg.recordRewardHistory = false;
        screenCfg.batchEval = true;

        std::vector<std::size_t> order;
        std::vector<double> rewards(configs.size(), 0.0);
        for (std::size_t i = pilotCount; i < configs.size(); ++i) {
            auto agent = builder(space, configs[i],
                                 sweepConfigSeed(base_seed, i));
            const RunResult run = runSearch(proxyEnv, *agent, screenCfg);
            rewards[i] = run.bestReward;
            order.push_back(i);
        }
        result.proxyEvaluations =
            static_cast<std::size_t>(proxyEnv.sampleCount());
        std::stable_sort(order.begin(), order.end(),
                         [&rewards](std::size_t a, std::size_t b) {
                             return rewards[a] > rewards[b];
                         });
        record.ranking = order;
        for (std::size_t i : order)
            record.rewards.push_back(rewards[i]);

        // The screen decision is durable before any frontier work: a
        // crash between here and the frontier sweep resumes onto the
        // identical ranking.
        fsio::atomicWriteFile(
            screenPath,
            renderScreenRecord(agent_name, configs.size(), pilotCount,
                               options.screenTopK, base_seed,
                               screenSamples, configsHash, record));
    }

    result.ranking = record.ranking;
    result.screenRewards = record.rewards;

    // 4. Frontier: simulate the top-K of the ranking for real, again
    // through the resumable sharded engine. Config order is ranking
    // order, so frontierSweep.configs[j] is the j-th best screened
    // config.
    const std::size_t k =
        std::min(options.screenTopK, record.ranking.size());
    std::vector<HyperParams> frontierConfigs;
    for (std::size_t j = 0; j < k; ++j) {
        result.frontier.push_back(record.ranking[j]);
        frontierConfigs.push_back(configs[record.ranking[j]]);
    }
    if (!frontierConfigs.empty()) {
        ShardedSweepOptions frontierOpts;
        frontierOpts.directory =
            (fs::path(options.directory) / "frontier").string();
        frontierOpts.shardSize = options.shardSize;
        frontierOpts.numThreads = options.numThreads;
        result.frontierSweep =
            runSweepSharded(env_factory, agent_name, builder,
                            frontierConfigs, run_config, frontierOpts,
                            base_seed);
    }
    return result;
}

} // namespace archgym
