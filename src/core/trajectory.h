/**
 * @file
 * Trajectory recording and the ArchGym Dataset (paper §3.4, §7.1).
 *
 * Because every agent talks to every environment through the same
 * interface, each (action, observation, reward) exchange can be logged
 * uniformly. Accumulated trajectories form standardized datasets that are
 * merged (for size) or sampled by agent type (for diversity) to train
 * proxy cost models.
 *
 * ## Dataset CSV schema
 *
 * One trajectory serializes (writeCsv) as a *block*:
 *
 *     # env=<environment name>
 *     # agent=<agent name>
 *     # hyperparams=<HyperParams::str(), e.g. "lr=0.1,pop=32">
 *     # action_dims=<number of action columns>
 *     <param>,<param>,...,<metric>,<metric>,...,reward      <- header row
 *     1,4,0.5,...                                           <- data rows
 *
 * The comment-header keys are `env`, `agent`, `hyperparams`, and
 * `action_dims`; `action_dims` is the authoritative split between the
 * action columns and the metric columns (readers fall back to assuming
 * three metrics + reward only for foreign CSVs without the hint).
 * Doubles are written in shortest round-trip form (std::to_chars), so a
 * CSV round trip is value-exact. A file may hold many blocks back to
 * back — each `# env=` line after a header row starts a new trajectory —
 * which is how per-shard CSVs stream many runs into one file.
 *
 * ## Shard / manifest layout and the resume contract
 *
 * A sharded sweep directory (see runSweepSharded in core/driver.h) is:
 *
 *     <dir>/manifest.json       sweep identity: agent, configCount,
 *                               shardSize, baseSeed, maxSamples,
 *                               exportDataset, configsHash
 *     <dir>/shard_0000.jsonl    one JSON line per configuration:
 *                               config index, seed, bestReward,
 *                               bestSampleIndex, samplesUsed,
 *                               bestAction, hyper
 *     <dir>/shard_0000.csv      that shard's trajectories (multi-block
 *                               CSV, present when exportDataset)
 *     ...                       shard_0001.*, shard_0002.*, ...
 *
 * Shards are deterministic config-range partitions ([0,S), [S,2S), ...)
 * and per-config seeds depend only on the config index, so any shard
 * re-runs bit-identically in isolation. Both shard files are written to
 * unique `.tmp.*` names and renamed only once the whole shard is done —
 * the rename of the .jsonl is the shard's atomic completion marker.
 * Resume therefore: validates the manifest against the requested sweep
 * (mismatch throws), re-ingests completed shards from their .jsonl, and
 * re-runs only the missing ones, yielding results and dataset files
 * bit-identical to an uninterrupted run at any worker count.
 * Dataset::loadDirectory ingests such directories transparently (it
 * reads every *.csv, recursing into subdirectories, in sorted order).
 *
 * ## Run-granular durability: the partial files and the repair pass
 *
 * While a claimed shard is executing, every finished run is appended
 * immediately to checksummed partial files next to the shard:
 *
 *     <dir>/shard_0000.partial.jsonl   one result line per finished
 *                                      run, in completion order, each
 *                                      with a trailing "crc" field
 *     <dir>/shard_0000.partial.csvf    framed CSV blocks (exportDataset
 *                                      only): `#@run <config> <bytes>
 *                                      <crc>` header + the block bytes
 *
 * A worker that claims a shard left behind by a dead peer runs a
 * *repair pass* first: it re-reads both partial files through the
 * validating readers below (a torn or corrupt record — e.g. a write
 * cut mid-line by SIGKILL — fails its checksum and discards the tail
 * from that point), re-ingests every intact run, and re-runs only the
 * rest. Resume granularity is therefore a single run, not a shard,
 * and because result lines and CSV blocks are deterministic for a
 * (config, seed) pair, the repaired shard's final files are
 * byte-identical to an uninterrupted worker's. The `.csvf` extension
 * is deliberate: frames are not valid CSV, so Dataset::loadDirectory
 * never confuses them with finished shard exports. Both partial files
 * are deleted when the shard's final files are renamed into place.
 * See docs/sweep_service.md for the full cooperative protocol.
 */

#ifndef ARCHGYM_CORE_TRAJECTORY_H
#define ARCHGYM_CORE_TRAJECTORY_H

#include <iosfwd>
#include <map>
#include <mutex>
#include <string>
#include <vector>

#include "core/environment.h"
#include "core/fsio.h"
#include "core/param_space.h"
#include "mathutil/rng.h"

namespace archgym {

/** One logged agent-environment exchange. */
struct Transition
{
    Action action;
    Metrics observation;
    double reward = 0.0;
};

/**
 * Ordered record of one search run: metadata (which agent, which
 * environment, which hyperparameters) plus all transitions.
 */
class TrajectoryLog
{
  public:
    TrajectoryLog() = default;
    TrajectoryLog(std::string env_name, std::string agent_name,
                  std::string hyperparams)
        : envName_(std::move(env_name)), agentName_(std::move(agent_name)),
          hyperParams_(std::move(hyperparams))
    {}

    const std::string &envName() const { return envName_; }
    const std::string &agentName() const { return agentName_; }
    const std::string &hyperParams() const { return hyperParams_; }

    void append(Transition t) { transitions_.push_back(std::move(t)); }

    std::size_t size() const { return transitions_.size(); }
    bool empty() const { return transitions_.empty(); }
    const Transition &operator[](std::size_t i) const
    {
        return transitions_[i];
    }
    const std::vector<Transition> &transitions() const
    {
        return transitions_;
    }

    /**
     * CSV serialization: one block of the schema documented in the file
     * header (comment metadata, header row, one row per transition).
     * Doubles are shortest-round-trip, so read-back is value-exact.
     */
    void writeCsv(std::ostream &os, const ParamSpace &space,
                  const std::vector<std::string> &metric_names) const;

    /**
     * Parse the first block of a CSV previously produced by writeCsv().
     *
     * Malformed input throws std::runtime_error with a 1-based line
     * number: a data row whose cell count differs from the header row's,
     * a non-numeric (or partially numeric) cell, or an `action_dims`
     * hint that is not smaller than the column count.
     */
    static TrajectoryLog readCsv(std::istream &is);

    /** Parse every block of a (possibly multi-trajectory) CSV. */
    static std::vector<TrajectoryLog> readCsvAll(std::istream &is);

  private:
    std::string envName_;
    std::string agentName_;
    std::string hyperParams_;
    std::vector<Transition> transitions_;
};

/**
 * The ArchGym Dataset: a pool of trajectories from possibly many agents.
 * Supports the two aggregation axes of §7: merging (size) and per-agent
 * composition control (diversity).
 */
class Dataset
{
  public:
    void add(TrajectoryLog log) { logs_.push_back(std::move(log)); }

    std::size_t logCount() const { return logs_.size(); }
    const TrajectoryLog &log(std::size_t i) const { return logs_[i]; }

    /** Total number of transitions across all trajectories. */
    std::size_t transitionCount() const;

    /** Distinct agent names contributing to the dataset. */
    std::vector<std::string> agentNames() const;

    /** Flatten all transitions from all (or one agent's) trajectories. */
    std::vector<Transition> flatten() const;
    std::vector<Transition> flattenAgent(const std::string &agent) const;

    /**
     * Draw n transitions uniformly at random (without replacement when
     * n <= available, with replacement otherwise).
     */
    std::vector<Transition> sample(std::size_t n, Rng &rng) const;

    /**
     * Draw n transitions restricted to the given agents, split evenly —
     * the §7.1 "Diverse dataset" construction.
     */
    std::vector<Transition>
    sampleDiverse(std::size_t n, const std::vector<std::string> &agents,
                  Rng &rng) const;

    /**
     * Persist every trajectory as one CSV per log under `directory`
     * (created if absent) — the shareable-artifact side of §3.4. Files
     * are named NNN_<agent>.csv.
     */
    void saveDirectory(const std::string &directory,
                       const ParamSpace &space,
                       const std::vector<std::string> &metric_names) const;

    /**
     * Load every *.csv under `directory` (including multi-block shard
     * CSVs from a sharded sweep), recursing into subdirectories.
     * Entries are visited in sorted path order, never in raw
     * filesystem-iteration order, so the log order — and therefore
     * every seeded sample()/sampleDiverse() draw — is identical across
     * machines and filesystems for the same directory contents.
     */
    static Dataset loadDirectory(const std::string &directory);

  private:
    static std::vector<Transition>
    drawFrom(const std::vector<Transition> &pool, std::size_t n, Rng &rng);

    std::vector<TrajectoryLog> logs_;
};

/**
 * Streams finished trajectories into one multi-block CSV, in run-index
 * order, as runs complete — the bounded-memory export path of the
 * sharded sweep engine: a sweep no longer retains every trajectory
 * until the end, it retains at most the few blocks that finished ahead
 * of the next index to write.
 *
 * append() is thread-safe and may be called from worker threads in any
 * completion order; blocks are buffered (serialized, not as live logs)
 * until their index is next, so the file bytes depend only on the runs
 * themselves, never on scheduling. close() fsyncs and closes the
 * file; it throws if indices in [first_index, first_index + count)
 * are still missing, since a gap means the shard is incomplete.
 */
class StreamingDatasetWriter
{
  public:
    /**
     * @param path          output CSV (created/truncated)
     * @param space         action space, for the CSV header
     * @param metric_names  observation names, for the CSV header
     * @param first_index   first run index of this file's range
     * @param count         number of runs this file will hold
     */
    StreamingDatasetWriter(const std::string &path, const ParamSpace &space,
                           std::vector<std::string> metric_names,
                           std::size_t first_index, std::size_t count);

    StreamingDatasetWriter(const StreamingDatasetWriter &) = delete;
    StreamingDatasetWriter &
    operator=(const StreamingDatasetWriter &) = delete;

    /** Queue run `index`'s trajectory; writes it (and any unblocked
     *  successors) once every earlier index has been written. */
    void append(std::size_t index, const TrajectoryLog &log);

    /** append() with the block already serialized (e.g. a block
     *  recovered by the repair pass from a partial file). */
    void appendSerialized(std::size_t index, std::string bytes);

    /** Serialize one trajectory exactly as append() would write it. */
    std::string serializeBlock(const TrajectoryLog &log) const;

    /** fsync and close; throws on a missing index. */
    void close();

    /** Runs written to the file so far (not merely queued). */
    std::size_t written() const;

  private:
    const ParamSpace &space_;
    const std::vector<std::string> metricNames_;
    fsio::File out_;
    mutable std::mutex mutex_;
    std::size_t next_;                          ///< next index to write
    std::size_t end_;                           ///< one past last index
    std::map<std::size_t, std::string> pending_; ///< serialized blocks
};

/**
 * Run-granular durability log of one executing shard (see the file
 * header): appends each finished run's result line — and, when the
 * sweep exports trajectories, its serialized CSV block — to the
 * shard's partial files the moment the run completes, so a crashed
 * worker strands at most the single run it was executing.
 *
 * Appends are thread-safe and ordered for durability: the CSV frame
 * is written before the result line, so a validated result line
 * implies its block is on disk too. Each record goes out as one
 * O_APPEND write, flushed to the OS immediately — durable against
 * process death; against power loss the checksums in the record
 * formats let the repair pass discard a torn tail and re-run those
 * configs (the *final* shard files are the fsync'ed artifacts).
 *
 * Construction truncates each file to its validated byte count first
 * (as reported by the readers below), so a repaired shard's new
 * appends continue cleanly after the last intact record. Destruction
 * only closes (crash semantics): the files survive for the next
 * owner's repair pass.
 */
class ShardPartialWriter
{
  public:
    /**
     * @param jsonl_path        the shard's .partial.jsonl
     * @param csvf_path         the shard's .partial.csvf ("" = no CSV)
     * @param jsonl_keep_bytes  validated prefix to keep (truncate to)
     * @param csvf_keep_bytes   validated prefix to keep (truncate to)
     */
    ShardPartialWriter(const std::string &jsonl_path,
                       const std::string &csvf_path,
                       std::size_t jsonl_keep_bytes,
                       std::size_t csvf_keep_bytes);

    ShardPartialWriter(const ShardPartialWriter &) = delete;
    ShardPartialWriter &operator=(const ShardPartialWriter &) = delete;

    /**
     * Persist one finished run. `result_line` is the final-format
     * JSONL line (with trailing newline) — the checksummed partial
     * rendering is derived here; `csv_block` is ignored unless the
     * writer was opened with a csvf path.
     */
    void append(std::size_t config, const std::string &result_line,
                const std::string &csv_block);

    /** Close and delete both partial files (shard finalized). */
    void closeAndRemove();

  private:
    std::mutex mutex_;
    fsio::File jsonl_;
    fsio::File csvf_;  ///< closed when the writer has no CSV
};

/** One intact run recovered from a .partial.jsonl. */
struct PartialRunRecord
{
    std::size_t config = 0;
    std::string resultLine; ///< final-format line, trailing newline
};

/** Validated prefix of a .partial.jsonl (see readPartialResultLines). */
struct PartialReadResult
{
    std::vector<PartialRunRecord> records; ///< intact lines, file order
    std::size_t validBytes = 0;  ///< torn/corrupt tail starts here
    bool truncatedTail = false;  ///< bytes past validBytes were dropped
};

/**
 * Validating reader for a shard's .partial.jsonl: returns every line
 * whose trailing crc field matches its payload, stopping at the first
 * line that is torn or corrupt (everything from there on is reported
 * as a truncated tail, never ingested). A missing file reads as empty.
 */
PartialReadResult readPartialResultLines(const std::string &path);

/** One intact CSV block recovered from a .partial.csvf. */
struct PartialCsvRecord
{
    std::size_t config = 0;
    std::string block; ///< bytes exactly as serializeBlock produced
};

/** Validated prefix of a .partial.csvf (see readPartialCsvFrames). */
struct PartialCsvReadResult
{
    std::vector<PartialCsvRecord> records;
    std::size_t validBytes = 0;
    bool truncatedTail = false;
};

/**
 * Validating reader for a shard's .partial.csvf frame stream; same
 * truncate-at-first-corruption contract as readPartialResultLines.
 */
PartialCsvReadResult readPartialCsvFrames(const std::string &path);

} // namespace archgym

#endif // ARCHGYM_CORE_TRAJECTORY_H
