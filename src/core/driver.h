/**
 * @file
 * The experiment driver: the single search loop shared by every agent and
 * environment, plus sweep utilities that power the hyperparameter-lottery
 * studies.
 *
 * Because Q1/Q2/Q3 standardize the agent interface, this loop is the whole
 * of ArchGym's runtime: ask the agent for an action, step the environment,
 * tell the agent the result, optionally log the transition.
 */

#ifndef ARCHGYM_CORE_DRIVER_H
#define ARCHGYM_CORE_DRIVER_H

#include <cstdint>
#include <functional>
#include <limits>
#include <string>
#include <vector>

#include "core/agent.h"
#include "core/environment.h"
#include "core/hyperparams.h"
#include "core/resilience.h"
#include "core/trajectory.h"

namespace archgym {

/** Search-run configuration. */
struct RunConfig
{
    std::size_t maxSamples = 1000;  ///< simulator sample budget
    bool logTrajectory = false;     ///< record all transitions
    bool stopWhenSatisfied = false; ///< stop early when objective met
    /**
     * Record the per-sample reward curve in RunResult::rewardHistory.
     * Lottery-scale sweeps only consume SweepResult::bestRewards, so
     * they turn this off to avoid retaining maxSamples doubles for every
     * one of thousands of configurations.
     */
    bool recordRewardHistory = true;
    /**
     * Evaluate through the batched ask-tell interface: the agent
     * proposes a cohort (a whole GA generation / ACO cohort) via
     * selectActionBatch, the environment evaluates it in one
     * Environment::stepBatch call (parallel on the four gym families),
     * and feedback arrives via observeBatch. The recorded trajectory
     * (reward history, best action/reward, transitions) is bit-identical
     * to the per-step path at any Environment::setBatchWorkers setting.
     *
     * With stopWhenSatisfied, the run still stops at the first
     * satisfying sample of the batch and later results are discarded
     * from the recorded trajectory, which therefore matches the
     * per-step path. The environment and the agent, however, both see
     * up to one batch beyond the stopping point: sampleCount() may
     * exceed samplesUsed, and observeBatch has already fed the whole
     * batch's feedback to the agent (the ask-tell contract answers
     * every proposal), so post-run agent diagnostics can differ from a
     * per-step run that stopped mid-generation.
     */
    bool batchEval = false;
};

/** Outcome of one search run. */
struct RunResult
{
    double bestReward = -std::numeric_limits<double>::infinity();
    Action bestAction;
    Metrics bestMetrics;
    std::size_t bestSampleIndex = 0;   ///< sample at which best was found
    std::size_t samplesUsed = 0;
    double wallSeconds = 0.0;
    std::vector<double> rewardHistory; ///< reward of every sample, in order
    TrajectoryLog trajectory;          ///< empty unless logTrajectory

    /** Running maximum of rewardHistory (convergence curves). */
    std::vector<double> bestSoFar() const;
};

/** Run one agent against one environment under a sample budget. */
RunResult runSearch(Environment &env, Agent &agent, const RunConfig &config);

/**
 * Outcome of a hyperparameter sweep of one agent family: the best reward
 * of each configuration, feeding the lottery box plots.
 */
struct SweepResult
{
    std::string agentName;
    std::vector<HyperParams> configs;
    std::vector<double> bestRewards;   ///< one per configuration
    std::vector<RunResult> runs;       ///< full results, same order
};

/** Builder callback: fresh agent for a hyperparameter point. */
using AgentBuilder =
    std::function<std::unique_ptr<Agent>(const ParamSpace &,
                                         const HyperParams &,
                                         std::uint64_t seed)>;

/**
 * Evaluate every hyperparameter configuration with a fresh agent and a
 * deterministic per-configuration seed.
 *
 * With run_config.batchEval, each run evaluates generation-at-a-time
 * through Environment::stepBatch — the batched sweep path: a single
 * search run then saturates the worker pool even when the sweep itself
 * is serial. Results are bit-identical either way.
 */
SweepResult runSweep(Environment &env, const std::string &agent_name,
                     const AgentBuilder &builder,
                     const std::vector<HyperParams> &configs,
                     const RunConfig &run_config,
                     std::uint64_t base_seed = 1);

/** Factory producing an independent environment instance per worker. */
using EnvFactory = std::function<std::unique_ptr<Environment>()>;

/**
 * Per-configuration agent seed shared by every sweep engine
 * (runSweep/runSweepParallel/runSweepSharded) and by the proxy-screened
 * mode's screening runs: it depends only on (base_seed, index), never
 * on scheduling, which is what makes sweep results bit-identical across
 * engines, thread counts, and resume schedules.
 */
std::uint64_t sweepConfigSeed(std::uint64_t base_seed, std::size_t index);

/**
 * FNV-1a identity hash over a configuration list's renderings — the
 * cheap guard the sharded-sweep manifest (and the proxy screen record)
 * stores against resuming with a different configuration list.
 */
std::uint64_t sweepConfigsHash(const std::vector<HyperParams> &configs);

/**
 * Parallel sweep: identical semantics and results to runSweep (the
 * per-configuration seeds do not depend on scheduling), but
 * configurations are distributed over worker threads, each with its own
 * environment instance from the factory. This is how lottery-scale
 * studies (the paper's 21,600 experiments) stay tractable.
 *
 * Each worker constructs its environment once and reuses it across all
 * configurations it processes, so per-environment startup cost (trace
 * generation and decoding, simulator allocation) is paid per worker,
 * not per configuration, and the environment's internal buffers stay
 * warm across runs.
 *
 * Work is submitted to the process-wide WorkerPool::shared(), so
 * consecutive sweeps reuse the same pooled threads instead of
 * spawning/joining a fresh set each call. If the environment factory,
 * the agent builder, or a step throws, the first exception is rethrown
 * here on the calling thread (the sweep result is then abandoned).
 *
 * run_config.batchEval is safe here: stepBatch detects that it is
 * already running on a pool worker and evaluates serially instead of
 * deadlocking on nested parallelFor, so configuration-level parallelism
 * wins (results stay bit-identical).
 *
 * @param num_threads  logical workers (environment instances);
 *                     0 = hardware concurrency. Values above the shared
 *                     pool's size still get that many environments, but
 *                     they multiplex onto the pool's threads, so OS-level
 *                     parallelism is capped at hardware concurrency.
 */
SweepResult runSweepParallel(const EnvFactory &env_factory,
                             const std::string &agent_name,
                             const AgentBuilder &builder,
                             const std::vector<HyperParams> &configs,
                             const RunConfig &run_config,
                             std::uint64_t base_seed = 1,
                             std::size_t num_threads = 0);

/** Options of the sharded, resumable, cooperative sweep engine. */
struct ShardedSweepOptions
{
    /**
     * Directory holding manifest.json + shard_NNNN.{jsonl,csv} plus
     * the cooperative-service files (shard_NNNN.lease,
     * shard_NNNN.partial, sweep.lock). See
     * core/trajectory.h for the layout and docs/sweep_service.md for
     * the lease/heartbeat protocol and the repair pass.
     */
    std::string directory;

    /**
     * Stable identity of this worker in the cooperative service (it
     * is written into lease files and shown in peer diagnostics).
     * Empty = "pid:<pid>", which is unique per process but NOT per
     * thread — in-process cooperating workers must pass distinct ids.
     */
    std::string workerId;

    /**
     * Lease heartbeat age after which peers may presume this worker
     * dead and steal its shard. Must comfortably exceed heartbeatMs;
     * see docs/sweep_service.md for tuning (including the cross-host
     * monotonic-clock caveat).
     */
    std::uint64_t leaseTtlMs = 10000;

    /** Heartbeat refresh cadence; 0 = leaseTtlMs / 4. */
    std::uint64_t heartbeatMs = 0;

    /**
     * Idle back-off while every remaining shard is leased by live
     * peers: sleep this long between claim scans.
     */
    std::uint64_t pollMs = 50;

    /** Configurations per shard (the resume granularity). */
    std::size_t shardSize = 64;

    /** Worker threads of this worker, shared by all of its open shards
     *  (so any value may exceed shardSize); 0 = hardware concurrency.
     *  The setting never affects results, only wall clock. */
    std::size_t numThreads = 0;

    /**
     * Export each run's trajectory into the shard's multi-block CSV. A
     * trajectory stays in memory only while its run executes: it then
     * goes into the run's partial frame, and finalize copies the frames
     * into the CSV one at a time. A frame read ahead of a lower
     * config's waits in memory until that one is written, so peak sweep
     * memory is the in-flight runs' trajectories plus, per finalizing
     * shard, the blocks that completed before a lower config did —
     * never the whole sweep's.
     */
    bool exportDataset = false;

    /**
     * Stop after completing this many shards in this invocation
     * (0 = run to completion): no shard is claimed while the completed
     * and open ones already reach the cap. Lets tests — and callers
     * with external time budgets — exercise the interruption/resume
     * path deterministically; the returned result has complete ==
     * false.
     */
    std::size_t maxShards = 0;

    /**
     * Per-run fault isolation (core/resilience.h). The default policy
     * is pass-through: one attempt, no deadline, a throwing run
     * unwinds the whole sweep exactly as before. With isolation on,
     * failures are classified (throw / timeout — an injected
     * WorkerKilled is never caught), retried with backoff, recorded
     * attempt-by-attempt in the shard's durable
     * shard_NNNN.quarantine.jsonl ledger (so attempt counts survive
     * steals and resumes), and — with attempts.quarantine — exhausted
     * configurations become deterministic gap records in the final
     * results and dataset instead of killing the fleet.
     */
    RunAttemptPolicy attempts;
};

/**
 * Outcome of a sharded sweep: per-configuration scalars only — full
 * RunResults (reward curves, trajectories) are intentionally NOT
 * retained, so peak memory no longer scales with retained trajectories;
 * trajectories go to disk when exportDataset is set.
 *
 * Entries of configurations whose shard has not run yet (interrupted
 * sweep) hold bestReward == -inf and samplesUsed == 0.
 */
struct ShardedSweepResult
{
    std::string agentName;
    std::vector<HyperParams> configs;
    std::vector<double> bestRewards;        ///< one per configuration
    std::vector<Action> bestActions;        ///< one per configuration
    std::vector<std::size_t> samplesUsed;   ///< one per configuration
    std::vector<std::uint64_t> seeds;       ///< per-config agent seeds
    /**
     * 1 where the configuration exhausted its attempt budget and was
     * quarantined (bestReward stays -inf, samplesUsed 0): the explicit
     * gap records of a degraded-but-complete sweep.
     */
    std::vector<std::uint8_t> quarantined;
    std::size_t shardCount = 0;
    std::size_t shardsSkipped = 0;  ///< resumed from completed files
    std::size_t shardsRun = 0;      ///< executed in this invocation
    std::size_t shardsStolen = 0;   ///< claims that evicted a stale lease
    std::size_t runsRepaired = 0;   ///< runs re-ingested from partials
    std::size_t runsQuarantined = 0; ///< gap records, fleet-wide
    bool complete = false;          ///< every shard done
};

/**
 * Sharded, resumable variant of runSweepParallel for lottery-scale
 * sweeps. Configurations are partitioned into deterministic
 * config-range shards; each completed shard persists its
 * per-configuration results (JSON lines) and — with exportDataset — its
 * trajectories (multi-block CSV) atomically under options.directory.
 * Per-configuration seeds use the same index-only formula as
 * runSweep/runSweepParallel, so results are bit-identical to those
 * engines and independent of thread count.
 *
 * Shards move through a pipeline on the shared WorkerPool: each of the
 * numThreads slots takes the next unstarted run of the oldest open
 * shard; when no open shard has one, a single slot claims and opens the
 * next shard while the others keep running, and the slot that persists
 * a shard's last run finalizes and releases it. No slot waits for a
 * shard's slowest run or idles through another shard's open or
 * finalize. A throwing run stops every slot and leaves each open
 * shard's lease and partial file in place, as a crash would.
 *
 * Invoked again on the same directory, the engine validates the
 * manifest against the requested sweep (agent, configs, shard size,
 * base seed, budget — a mismatch throws std::runtime_error naming the
 * offending field and both values), re-ingests completed shards from
 * disk instead of re-running them, discards any half-written in-flight
 * shard, and runs only what is missing: an interrupted lottery resumes
 * to a ShardedSweepResult and exported dataset bit-identical to an
 * uninterrupted run's.
 *
 * The engine is also a cooperative multi-worker service: any number of
 * processes (or threads with distinct ShardedSweepOptions::workerId)
 * may point at the same directory concurrently. Each shard execution
 * is guarded by a heartbeat-refreshed lease (core/lease.h); a worker
 * that dies mid-shard leaves a lease whose heartbeat goes stale past
 * leaseTtlMs, after which a peer steals the shard, re-ingests every
 * run the dead worker had durably appended to the shard's checksummed
 * partial file (resume granularity: single run, not whole shard), and
 * runs only the remainder. Results are bit-identical at any worker
 * count and across any kill/steal/repair schedule. Protocol details
 * and TTL tuning: docs/sweep_service.md.
 */
ShardedSweepResult runSweepSharded(const EnvFactory &env_factory,
                                   const std::string &agent_name,
                                   const AgentBuilder &builder,
                                   const std::vector<HyperParams> &configs,
                                   const RunConfig &run_config,
                                   const ShardedSweepOptions &options,
                                   std::uint64_t base_seed = 1);

} // namespace archgym

#endif // ARCHGYM_CORE_DRIVER_H
