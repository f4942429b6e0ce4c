/**
 * @file
 * archgym_cli — command-line front end for the whole gymnasium: pick an
 * environment and workload, pick an agent, set a simulator budget, and
 * optionally dump the exploration trajectory as CSV for later dataset
 * aggregation.
 *
 * Usage:
 *   archgym_cli [--env NAME] [--agent NAME] [--samples N] [--seed N]
 *               [--hyper k=v[,k=v...]] [--log FILE]
 *               [--sweep N] [--sweep-dir DIR] [--shard-size S]
 *               [--threads T] [--pareto]
 *
 *   --env     dram-streaming | dram-random | dram-cloud1 | dram-cloud2 |
 *             timeloop-resnet50 | timeloop-resnet18 | timeloop-alexnet |
 *             timeloop-mobilenet | farsi-edge | farsi-audio | farsi-ar |
 *             maestro-resnet18 | maestro-vgg16      (default dram-cloud1)
 *   --agent   ACO | BO | GA | RL | RW | SA          (default GA)
 *   --samples simulator budget (per config in sweep mode, default 500)
 *   --seed    agent seed / sweep base seed          (default 1)
 *   --hyper   comma-separated hyperparameter overrides, e.g.
 *             population_size=32,mutation_prob=0.05
 *   --log     write the trajectory CSV to this path
 *
 * Sweep mode (--sweep N): run a sharded, resumable hyperparameter
 * lottery of N configurations drawn from the agent's default grid.
 * Shard manifests, per-config results (JSON lines), and per-shard
 * trajectory CSVs land under --sweep-dir; re-running the
 * same command after an interruption resumes by skipping completed
 * shards (bit-identically — see core/trajectory.h for the contract).
 *
 *   --sweep N        number of lottery configurations
 *   --sweep-dir DIR  shard/manifest directory   (default archgym_sweep)
 *   --shard-size S   configurations per shard   (default 16)
 *   --threads T      worker threads             (default hardware)
 *   --pareto         report the <m0, m1, m2> Pareto frontier (all
 *                    minimized) of the logged/streamed transitions
 *
 * Cooperative worker mode (--sweep-worker, with --sweep N): join the
 * sweep under --sweep-dir as one worker of a fleet. Every process
 * launched with the *same* sweep arguments cooperates through
 * lease-based shard claiming with heartbeats; a worker that dies
 * mid-shard has its shard stolen and repaired (run-granular) by a
 * peer once its lease goes stale. See docs/sweep_service.md.
 *
 *   --sweep-worker   cooperative worker mode: print per-worker stats,
 *                    skip the dataset/pareto summary (peers may still
 *                    be writing)
 *   --worker-id ID   stable worker identity     (default pid:<pid>)
 *   --lease-ttl MS   heartbeat age peers treat as dead (default 10000)
 *   --heartbeat MS   heartbeat refresh cadence  (default lease-ttl/4)
 *
 * Fault isolation (sweep modes; see docs/sweep_service.md):
 *
 *   --max-attempts N   attempts per config before giving up (default 1)
 *   --run-deadline MS  per-run wall-clock deadline; a run past it is
 *                      cancelled at its next cooperative checkpoint
 *                      (default 0 = none)
 *   --quarantine       on exhausted attempts, record the config in the
 *                      shard's quarantine ledger and keep sweeping
 *                      instead of failing the sweep; quarantined runs
 *                      appear as explicit gap records in the results
 *
 * Exit codes: 0 success, 1 runtime error / incomplete worker sweep,
 * 2 usage error, 3 sweep complete but with quarantined configs.
 *
 * Proxy-screened mode (--proxy-screen, with --sweep N): simulate only a
 * pilot slice of the lottery for real, train a random-forest proxy on
 * the pilot trajectories, rank the remaining configurations through
 * batched proxy inference, and submit only the top-K frontier to the
 * simulator — the screen-then-simulate protocol of
 * docs/proxy_serving.md. The screen decision is recorded in
 * <sweep-dir>/screen.json, so re-running resumes onto the identical
 * frontier.
 *
 *   --proxy-screen     enable proxy-screened sweep mode
 *   --screen-top-k K   screened configs promoted to simulation (def. 8)
 *   --pilot N          pilot configs simulated for training  (def. 16)
 *   --columnar         serve datasets through the columnar row-group
 *                      reader (proxy training data in screen mode, the
 *                      summary/pareto dataset in plain sweep mode)
 *
 * Trace tooling (docs/trace_workloads.md):
 *
 *   --trace-profile F  standalone: profile the "cycle: R|W addr" trace
 *                      in F into a stack-distance CDF; write the JSON
 *                      to --trace-out (or stdout) and exit
 *   --trace-pattern S  a trace source name: streaming | random |
 *                      cloud1 | cloud2 | sd:<cdf.json> | emb.
 *                      With --trace-out: standalone, stream --trace-len
 *                      requests (seeded by --seed) to the file in
 *                      chunks and exit. Without: override the trace
 *                      workload of a dram-* environment.
 *   --trace-out F      output file for the two standalone modes above
 *   --trace-len N      requests to generate / env trace length
 *   --trace-streamed   evaluate the dram-* env by chunk-pull streaming
 *                      (flat memory at any --trace-len)
 */

#include <cstdio>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <memory>
#include <optional>
#include <sstream>
#include <string>

#include "agents/registry.h"
#include "core/columnar.h"
#include "core/driver.h"
#include "core/pareto.h"
#include "envs/dram_gym_env.h"
#include "envs/farsi_gym_env.h"
#include "envs/maestro_gym_env.h"
#include "envs/timeloop_gym_env.h"
#include "mathutil/stats.h"
#include "proxy/proxy_screen.h"

namespace {

using namespace archgym;

std::unique_ptr<Environment>
makeEnv(const std::string &name,
        const dram::TraceSpec *trace_override = nullptr)
{
    if (name.rfind("dram-", 0) == 0) {
        DramGymEnv::Options o;
        const std::string trace = name.substr(5);
        if (trace == "streaming")
            o.pattern = dram::TracePattern::Streaming;
        else if (trace == "random")
            o.pattern = dram::TracePattern::Random;
        else if (trace == "cloud1")
            o.pattern = dram::TracePattern::Cloud1;
        else if (trace == "cloud2")
            o.pattern = dram::TracePattern::Cloud2;
        else
            return nullptr;
        o.objective = DramObjective::LatencyAndPower;
        o.latencyTargetNs =
            o.pattern == dram::TracePattern::Random ? 30.0 : 150.0;
        o.traceLength = 256;
        if (trace_override) {
            o.trace = *trace_override;
            // An override with no source keeps the env-name pattern;
            // the env's legacy resolution then reads traceLength.
            if (o.trace.source.empty())
                o.traceLength = o.trace.numRequests;
        }
        return std::make_unique<DramGymEnv>(o);
    }
    if (name.rfind("timeloop-", 0) == 0) {
        TimeloopGymEnv::Options o;
        const std::string net = name.substr(9);
        if (net == "resnet50")
            o.network = timeloop::resNet50();
        else if (net == "resnet18")
            o.network = timeloop::resNet18();
        else if (net == "alexnet")
            o.network = timeloop::alexNet();
        else if (net == "mobilenet")
            o.network = timeloop::mobileNet();
        else
            return nullptr;
        return std::make_unique<TimeloopGymEnv>(o);
    }
    if (name.rfind("farsi-", 0) == 0) {
        FarsiGymEnv::Options o;
        const std::string graph = name.substr(6);
        if (graph == "edge")
            o.graph = farsi::edgeDetection();
        else if (graph == "audio")
            o.graph = farsi::audioDecoder();
        else if (graph == "ar")
            o.graph = farsi::arOverlay();
        else
            return nullptr;
        return std::make_unique<FarsiGymEnv>(o);
    }
    if (name.rfind("maestro-", 0) == 0) {
        MaestroGymEnv::Options o;
        const std::string net = name.substr(8);
        if (net == "resnet18")
            o.network = timeloop::resNet18();
        else if (net == "vgg16")
            o.network = timeloop::vgg16();
        else
            return nullptr;
        return std::make_unique<MaestroGymEnv>(o);
    }
    return nullptr;
}

HyperParams
parseHyper(const std::string &spec)
{
    HyperParams hp;
    std::stringstream ss(spec);
    std::string pair;
    while (std::getline(ss, pair, ',')) {
        const auto eq = pair.find('=');
        if (eq == std::string::npos || eq == 0)
            throw std::invalid_argument("bad --hyper entry: " + pair);
        hp.set(pair.substr(0, eq), std::stod(pair.substr(eq + 1)));
    }
    return hp;
}

/**
 * The environment's own objective, when its concrete type exposes one
 * (the proxy screen scores predicted metrics with it). Environments
 * without an objective accessor cannot run --proxy-screen.
 */
const Objective *
envObjective(const Environment &env)
{
    if (const auto *dram = dynamic_cast<const DramGymEnv *>(&env))
        return &dram->objective();
    if (const auto *farsi = dynamic_cast<const FarsiGymEnv *>(&env))
        return &farsi->objective();
    if (const auto *tl = dynamic_cast<const TimeloopGymEnv *>(&env))
        return &tl->objective();
    return nullptr;
}

/**
 * Print the Pareto frontier of the first three metrics (the paper's
 * native <latency, power, area>-shaped tuples), all minimized.
 */
void
printParetoFront(const std::vector<Transition> &transitions,
                 const std::vector<std::string> &metric_names)
{
    if (metric_names.size() < 3) {
        std::printf("pareto: environment reports %zu metrics, need 3\n",
                    metric_names.size());
        return;
    }
    const std::vector<std::size_t> metrics = {0, 1, 2};
    const std::vector<Sense> senses(3, Sense::Minimize);
    const auto front = paretoFront(transitions, metrics, senses);
    std::printf("pareto frontier <%s, %s, %s> (all minimized): "
                "%zu of %zu transitions\n",
                metric_names[0].c_str(), metric_names[1].c_str(),
                metric_names[2].c_str(), front.size(),
                transitions.size());
    const std::size_t show = front.size() < 10 ? front.size() : 10;
    for (std::size_t k = 0; k < show; ++k) {
        const Metrics &obs = transitions[front[k]].observation;
        std::printf("  #%-6zu %12.6g %12.6g %12.6g\n", front[k], obs[0],
                    obs[1], obs[2]);
    }
    if (show < front.size())
        std::printf("  ... %zu more\n", front.size() - show);
}

} // namespace

int
main(int argc, char **argv)
{
    std::string envName = "dram-cloud1";
    std::string agentName = "GA";
    std::size_t samples = 500;
    std::uint64_t seed = 1;
    std::string hyperSpec;
    std::string logPath;
    std::size_t sweepConfigs = 0;
    std::string sweepDir = "archgym_sweep";
    std::size_t shardSize = 16;
    std::size_t threads = 0;
    bool pareto = false;
    bool sweepWorker = false;
    std::string workerId;
    std::uint64_t leaseTtl = 10000;
    std::uint64_t heartbeat = 0;
    RunAttemptPolicy attempts;
    bool proxyScreen = false;
    std::size_t screenTopK = 8;
    std::size_t pilotConfigs = 16;
    bool columnar = false;
    std::string traceProfilePath;
    std::string tracePattern;
    std::string traceOut;
    std::size_t traceLen = 0;  ///< 0 = mode-dependent default
    bool traceStreamed = false;

    for (int i = 1; i < argc; ++i) {
        const std::string arg = argv[i];
        auto next = [&]() -> std::string {
            if (i + 1 >= argc) {
                std::fprintf(stderr, "%s needs a value\n", arg.c_str());
                std::exit(2);
            }
            return argv[++i];
        };
        if (arg == "--env")
            envName = next();
        else if (arg == "--agent")
            agentName = next();
        else if (arg == "--samples")
            samples = std::stoul(next());
        else if (arg == "--seed")
            seed = std::stoull(next());
        else if (arg == "--hyper")
            hyperSpec = next();
        else if (arg == "--log")
            logPath = next();
        else if (arg == "--sweep")
            sweepConfigs = std::stoul(next());
        else if (arg == "--sweep-dir")
            sweepDir = next();
        else if (arg == "--shard-size")
            shardSize = std::stoul(next());
        else if (arg == "--threads")
            threads = std::stoul(next());
        else if (arg == "--pareto")
            pareto = true;
        else if (arg == "--sweep-worker")
            sweepWorker = true;
        else if (arg == "--worker-id")
            workerId = next();
        else if (arg == "--lease-ttl")
            leaseTtl = std::stoull(next());
        else if (arg == "--heartbeat")
            heartbeat = std::stoull(next());
        else if (arg == "--max-attempts")
            attempts.maxAttempts = std::stoul(next());
        else if (arg == "--run-deadline")
            attempts.runDeadlineMs = std::stoull(next());
        else if (arg == "--quarantine")
            attempts.quarantine = true;
        else if (arg == "--proxy-screen")
            proxyScreen = true;
        else if (arg == "--screen-top-k")
            screenTopK = std::stoul(next());
        else if (arg == "--pilot")
            pilotConfigs = std::stoul(next());
        else if (arg == "--columnar")
            columnar = true;
        else if (arg == "--trace-profile")
            traceProfilePath = next();
        else if (arg == "--trace-pattern")
            tracePattern = next();
        else if (arg == "--trace-out")
            traceOut = next();
        else if (arg == "--trace-len")
            traceLen = std::stoul(next());
        else if (arg == "--trace-streamed")
            traceStreamed = true;
        else {
            std::fprintf(stderr,
                         "unknown option %s (see file header for usage)\n",
                         arg.c_str());
            return 2;
        }
    }

    if (!traceProfilePath.empty()) {
        // Standalone profile mode: trace file -> stack-distance CDF.
        std::ifstream in(traceProfilePath);
        if (!in) {
            std::fprintf(stderr, "cannot open %s\n",
                         traceProfilePath.c_str());
            return 1;
        }
        try {
            const auto trace = dram::parseTrace(in);
            const auto cdf = dram::profileTrace(trace);
            if (traceOut.empty()) {
                std::printf("%s\n", cdf.toJson().c_str());
            } else {
                cdf.save(traceOut);
                std::printf("profiled %llu accesses (%.1f%% cold, "
                            "%.1f%% overflow) -> %s\n",
                            static_cast<unsigned long long>(
                                cdf.totalAccesses),
                            100.0 * static_cast<double>(cdf.coldAccesses) /
                                static_cast<double>(cdf.totalAccesses),
                            100.0 *
                                static_cast<double>(cdf.overflowAccesses) /
                                static_cast<double>(cdf.totalAccesses),
                            traceOut.c_str());
            }
        } catch (const std::exception &e) {
            std::fprintf(stderr, "%s\n", e.what());
            return 1;
        }
        return 0;
    }

    if (!tracePattern.empty() && !traceOut.empty()) {
        // Standalone generate mode: stream a synthetic trace to a file
        // in bounded chunks (flat memory at any length).
        dram::TraceSpec spec;
        spec.source = tracePattern;
        spec.numRequests = traceLen ? traceLen : 20000;
        spec.seed = seed;
        try {
            const auto source = dram::makeTraceSource(spec);
            std::ofstream out(traceOut);
            if (!out) {
                std::fprintf(stderr, "cannot open %s\n", traceOut.c_str());
                return 1;
            }
            std::vector<dram::MemoryRequest> chunk;
            std::size_t remaining = spec.numRequests;
            bool first = true;
            while (remaining > 0) {
                const std::size_t n =
                    remaining < spec.chunkRequests ? remaining
                                                   : spec.chunkRequests;
                chunk.clear();
                source->next(n, chunk);
                dram::writeTrace(out, chunk, first);
                first = false;
                remaining -= n;
            }
            std::printf("generated %zu '%s' requests -> %s\n",
                        spec.numRequests, tracePattern.c_str(),
                        traceOut.c_str());
        } catch (const std::exception &e) {
            std::fprintf(stderr, "%s\n", e.what());
            return 1;
        }
        return 0;
    }

    std::optional<dram::TraceSpec> traceOverride;
    if (!tracePattern.empty() || traceStreamed || traceLen > 0) {
        dram::TraceSpec spec;
        spec.source = tracePattern;  // empty = keep the env-name pattern
        spec.numRequests = traceLen ? traceLen : 256;
        spec.streamed = traceStreamed;
        traceOverride = spec;
        if (envName.rfind("dram-", 0) != 0) {
            std::fprintf(stderr,
                         "--trace-pattern/--trace-streamed/--trace-len "
                         "apply to dram-* environments (or add "
                         "--trace-out for standalone generation)\n");
            return 2;
        }
    }
    const dram::TraceSpec *tracePtr =
        traceOverride ? &*traceOverride : nullptr;

    std::unique_ptr<Environment> env;
    try {
        env = makeEnv(envName, tracePtr);
    } catch (const std::exception &e) {
        std::fprintf(stderr, "%s\n", e.what());
        return 2;
    }
    if (!env) {
        std::fprintf(stderr, "unknown environment '%s'\n",
                     envName.c_str());
        return 2;
    }

    if (sweepWorker && sweepConfigs == 0) {
        std::fprintf(stderr, "--sweep-worker requires --sweep N\n");
        return 2;
    }
    if (proxyScreen && sweepConfigs == 0) {
        std::fprintf(stderr, "--proxy-screen requires --sweep N\n");
        return 2;
    }
    if (proxyScreen && sweepWorker) {
        std::fprintf(stderr,
                     "--proxy-screen and --sweep-worker are exclusive "
                     "(the pilot/frontier stages are single-process "
                     "sweeps; point workers at those directories "
                     "instead)\n");
        return 2;
    }

    if (sweepConfigs > 0) {
        // Sharded lottery mode: N configs from the agent's default
        // grid, persisted (and resumable) under --sweep-dir.
        const auto configs =
            sampleLotteryConfigs(agentName, sweepConfigs, seed);
        const AgentBuilder builder =
            [&agentName](const ParamSpace &space, const HyperParams &h,
                         std::uint64_t s) {
                return makeAgent(agentName, space, h, s);
            };
        const EnvFactory factory = [&envName, tracePtr] {
            return makeEnv(envName, tracePtr);
        };

        RunConfig cfg;
        cfg.maxSamples = samples;

        if (proxyScreen) {
            const Objective *objective = envObjective(*env);
            if (objective == nullptr) {
                std::fprintf(stderr,
                             "--proxy-screen: environment '%s' does not "
                             "expose an objective\n",
                             envName.c_str());
                return 2;
            }
            ProxyScreenOptions popts;
            popts.directory = sweepDir;
            popts.objective = objective;
            popts.pilotConfigs = pilotConfigs;
            popts.screenTopK = screenTopK;
            popts.columnar = columnar;
            popts.shardSize = shardSize;
            popts.numThreads = threads;

            std::printf("proxy-screened lottery: env=%s agent=%s "
                        "configs=%zu pilot=%zu top-k=%zu samples=%zu "
                        "dir=%s (%s training reader)\n",
                        envName.c_str(), agentName.c_str(), sweepConfigs,
                        pilotConfigs, screenTopK, samples,
                        sweepDir.c_str(),
                        columnar ? "columnar" : "CSV");
            ProxyScreenResult screen;
            try {
                screen = runSweepProxyScreened(factory, agentName,
                                               builder, configs, cfg,
                                               popts, seed);
            } catch (const std::exception &e) {
                std::fprintf(stderr, "%s\n", e.what());
                return 1;
            }
            std::printf("pilot: %zu configs simulated, best reward %s\n",
                        screen.pilot.configs.size(),
                        summarize(screen.pilot.bestRewards)
                            .str()
                            .c_str());
            if (screen.screenReused)
                std::printf("screen: ranking reused from screen.json\n");
            else
                std::printf("screen: proxy trained on %zu transitions, "
                            "%zu proxy evaluations spent ranking %zu "
                            "configs\n",
                            screen.trainRowCount, screen.proxyEvaluations,
                            screen.ranking.size());
            std::printf("frontier (top %zu by proxy reward):\n",
                        screen.frontier.size());
            for (std::size_t j = 0; j < screen.frontier.size(); ++j) {
                std::printf("  config #%-5zu proxy %.6g   simulated "
                            "%.6g\n",
                            screen.frontier[j], screen.screenRewards[j],
                            screen.frontierSweep.bestRewards[j]);
            }
            const std::size_t simulated = screen.pilot.configs.size() +
                                          screen.frontier.size();
            std::printf("simulator budget: %zu of %zu configs simulated "
                        "(%.1f%%), rest screened by proxy\n",
                        simulated, sweepConfigs,
                        100.0 * static_cast<double>(simulated) /
                            static_cast<double>(sweepConfigs));
            return 0;
        }

        ShardedSweepOptions opts;
        opts.directory = sweepDir;
        opts.shardSize = shardSize;
        opts.numThreads = threads;
        opts.exportDataset = true;
        opts.workerId = workerId;
        opts.leaseTtlMs = leaseTtl;
        opts.heartbeatMs = heartbeat;
        opts.attempts = attempts;

        std::printf("sharded lottery: env=%s agent=%s configs=%zu "
                    "samples=%zu shard-size=%zu dir=%s%s%s\n",
                    envName.c_str(), agentName.c_str(), sweepConfigs,
                    samples, shardSize, sweepDir.c_str(),
                    sweepWorker ? " worker=" : "",
                    sweepWorker
                        ? (workerId.empty() ? "pid" : workerId.c_str())
                        : "");
        ShardedSweepResult sweep;
        try {
            sweep = runSweepSharded(factory, agentName, builder, configs,
                                    cfg, opts, seed);
        } catch (const std::exception &e) {
            std::fprintf(stderr, "%s\n", e.what());
            return 1;
        }
        std::printf("shards: %zu total, %zu resumed from disk, %zu run\n",
                    sweep.shardCount, sweep.shardsSkipped,
                    sweep.shardsRun);
        if (sweep.runsQuarantined > 0)
            std::printf("quarantined: %zu of %zu configs gave up after "
                        "repeated failures (see shard_*.quarantine.jsonl "
                        "under %s)\n",
                        sweep.runsQuarantined, sweep.configs.size(),
                        sweepDir.c_str());
        if (sweepWorker) {
            // Worker-centric exit report; the fleet-level dataset
            // summary is for whoever aggregates after every worker
            // (this one included) reports complete.
            std::printf("worker: %zu shards stolen from stale leases, "
                        "%zu runs repaired from partials, sweep %s\n",
                        sweep.shardsStolen, sweep.runsRepaired,
                        sweep.complete ? "complete" : "incomplete");
            if (!sweep.complete)
                return 1;
            return sweep.runsQuarantined > 0 ? 3 : 0;
        }
        std::printf("best reward per config: %s\n",
                    summarize(sweep.bestRewards).str().c_str());

        Dataset dataset;
        if (columnar) {
            // Serve the summary through the columnar reader: convert
            // the shard CSVs once (skipped when the index already
            // exists) and re-ingest from the row-group pair.
            const std::string stem =
                (std::filesystem::path(sweepDir) / "columnar").string();
            if (!std::filesystem::exists(
                    ColumnarDatasetWriter::indexPath(stem)))
                writeColumnarFromCsvDirectory(sweepDir, stem,
                                              env->actionSpace(),
                                              env->metricNames());
            dataset = ColumnarDatasetReader::open(stem).toDataset();
        } else {
            dataset = Dataset::loadDirectory(sweepDir);
        }
        std::printf("streamed dataset: %zu trajectories, %zu "
                    "transitions (%s reader)\n",
                    dataset.logCount(), dataset.transitionCount(),
                    columnar ? "columnar" : "CSV");
        if (pareto)
            printParetoFront(dataset.flatten(), env->metricNames());
        return sweep.runsQuarantined > 0 ? 3 : 0;
    }

    HyperParams hp;
    try {
        hp = parseHyper(hyperSpec);
    } catch (const std::exception &e) {
        std::fprintf(stderr, "%s\n", e.what());
        return 2;
    }
    if (agentName == "BO" && !hp.has("max_history"))
        hp.set("max_history", 96).set("num_candidates", 96);

    std::unique_ptr<Agent> agent;
    try {
        agent = makeAgent(agentName, env->actionSpace(), hp, seed);
    } catch (const std::exception &e) {
        std::fprintf(stderr, "%s\n", e.what());
        return 2;
    }

    std::printf("env=%s agent=%s samples=%zu seed=%llu hyper={%s}\n",
                envName.c_str(), agentName.c_str(), samples,
                static_cast<unsigned long long>(seed),
                agent->hyperParams().str().c_str());

    RunConfig cfg;
    cfg.maxSamples = samples;
    cfg.logTrajectory = !logPath.empty() || pareto;
    const RunResult r = runSearch(*env, *agent, cfg);

    std::printf("best reward %.6g at sample %zu (%.3f s wall)\n",
                r.bestReward, r.bestSampleIndex, r.wallSeconds);
    std::printf("best design: %s\n",
                env->actionSpace().describe(r.bestAction).c_str());
    for (std::size_t m = 0; m < env->metricNames().size(); ++m) {
        std::printf("  %-24s %.6g\n", env->metricNames()[m].c_str(),
                    r.bestMetrics[m]);
    }

    if (!logPath.empty()) {
        std::ofstream out(logPath);
        if (!out) {
            std::fprintf(stderr, "cannot open %s\n", logPath.c_str());
            return 1;
        }
        r.trajectory.writeCsv(out, env->actionSpace(),
                              env->metricNames());
        std::printf("trajectory (%zu transitions) -> %s\n",
                    r.trajectory.size(), logPath.c_str());
    }
    if (pareto)
        printParetoFront(r.trajectory.toTransitions(),
                         env->metricNames());
    return 0;
}
