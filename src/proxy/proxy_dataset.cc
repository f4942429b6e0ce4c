#include "proxy_dataset.h"

#include <filesystem>
#include <memory>

#include "agents/registry.h"
#include "core/driver.h"

namespace archgym {

namespace fs = std::filesystem;

const std::vector<std::string> &
proxyAgents()
{
    static const std::vector<std::string> agents = {"ACO", "GA", "RW",
                                                    "BO"};
    return agents;
}

DramGymEnv::Options
proxyEnvOptions()
{
    DramGymEnv::Options o;
    o.pattern = dram::TracePattern::Cloud1;
    o.objective = DramObjective::LatencyAndPower;
    o.latencyTargetNs = 150.0;
    o.traceLength = 160;
    return o;
}

DramGymEnv
makeProxyEnv()
{
    return DramGymEnv(proxyEnvOptions());
}

Dataset
collectProxyDataset(DramGymEnv &env, std::size_t runs_per_agent,
                    std::size_t samples_per_run)
{
    Dataset dataset;
    Rng rng(701);
    for (const auto &agentName : proxyAgents()) {
        HyperGrid grid = defaultHyperGrid(agentName);
        if (agentName == "BO") {
            grid.add("num_candidates", {48}).add("max_history", {64});
        }
        const auto configs = grid.randomSample(runs_per_agent, rng);
        for (std::size_t c = 0; c < configs.size(); ++c) {
            auto agent = makeAgent(agentName, env.actionSpace(),
                                   configs[c], 7000 + c);
            RunConfig cfg;
            cfg.maxSamples = samples_per_run;
            cfg.logTrajectory = true;
            RunResult r = runSearch(env, *agent, cfg);
            dataset.add(std::move(r.trajectory));
        }
    }
    return dataset;
}

Dataset
collectProxyDatasetStreamed(const std::string &directory,
                            std::size_t runs_per_agent,
                            std::size_t samples_per_run)
{
    fs::remove_all(directory);
    fs::create_directories(directory);
    const EnvFactory factory = [] {
        return std::unique_ptr<Environment>(
            std::make_unique<DramGymEnv>(proxyEnvOptions()));
    };
    Rng rng(701);
    for (const auto &agentName : proxyAgents()) {
        HyperGrid grid = defaultHyperGrid(agentName);
        if (agentName == "BO") {
            grid.add("num_candidates", {48}).add("max_history", {64});
        }
        const auto configs = grid.randomSample(runs_per_agent, rng);
        const AgentBuilder builder =
            [&agentName](const ParamSpace &space, const HyperParams &hp,
                         std::uint64_t s) {
                return makeAgent(agentName, space, hp, s);
            };
        RunConfig cfg;
        cfg.maxSamples = samples_per_run;
        ShardedSweepOptions opts;
        opts.directory = (fs::path(directory) / agentName).string();
        opts.shardSize = 2;
        opts.exportDataset = true;
        runSweepSharded(factory, agentName, builder, configs, cfg, opts,
                        7000);
    }
    return Dataset::loadDirectory(directory);
}

std::vector<Transition>
makeHeldOutSet(Environment &env, std::size_t n, std::uint64_t seed)
{
    std::vector<Transition> test;
    Rng rng(seed);
    for (std::size_t i = 0; i < n; ++i) {
        Transition t;
        t.action = env.actionSpace().sample(rng);
        const StepResult sr = env.step(t.action);
        t.observation = sr.observation;
        t.reward = sr.reward;
        test.push_back(std::move(t));
    }
    return test;
}

} // namespace archgym
