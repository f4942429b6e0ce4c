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
 * CSV round trip is bit-exact (NaNs come back as the default quiet NaN
 * of their sign). A file may hold many blocks back to back — each
 * `# env=` line after a header row, whatever its value, starts a new
 * trajectory — which is how a shard CSV holds one block per run.
 *
 * ## In-memory layout and the reader
 *
 * A TrajectoryLog holds its transitions as one row-major block of
 * doubles: each row is the action values, then the metric values, then
 * the reward, and the first row fixes both widths for the whole log. A
 * transition therefore costs 8 bytes per value and nothing else: 96 B
 * for a 12-column FARSI row, about half of the ~186 B that a Transition
 * with its two heap vectors takes. row(i) views a row in place;
 * operator[] and toTransitions() copy rows out into the Transition
 * shape that agents, pareto and proxy training consume.
 *
 * readCsvAll reads line by line into one reused buffer and parses each
 * data row's cells with std::from_chars straight into a scratch block
 * that is reused across trajectories; each trajectory then gets an
 * exact-size copy of its rows, so a reloaded dataset keeps no capacity
 * slack. A row must have exactly the header row's cell count (an empty
 * cell counts, so `1,2,3,4,` under a 4-column header is a 5-cell row)
 * and every cell must parse whole (no spaces, no hex).
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
 * ## Run-granular durability: the partial file and the repair pass
 *
 * While a claimed shard is executing, every finished run is appended
 * immediately to one checksummed partial file next to the shard:
 *
 *     <dir>/shard_0000.partial   one frame per finished run, in
 *                                completion order:
 *                                `#@run <config> <bytes> <crc>` + '\n'
 *                                + the run's final-format result line
 *                                + its CSV block (exportDataset only)
 *
 * One validating reader (readPartial below) serves both ends of a
 * shard. A worker that claims a shard left behind by a dead peer runs
 * a *repair pass* first: the reader finds every intact run (a torn or
 * corrupt frame — e.g. a write cut short by SIGKILL — fails its
 * checksum and ends the validated prefix), the file is truncated to
 * that prefix, and only the other configs are re-run. Finalize then
 * reads the same file again and writes both shard finals from each
 * config's first record, so resume granularity is a single run, not a
 * shard, and because result lines and CSV blocks are deterministic for
 * a (config, seed) pair, a repaired shard's final files are
 * byte-identical to an uninterrupted worker's. The `.partial` suffix
 * keeps the frames out of Dataset::loadDirectory's `*.csv` scan. The
 * partial file is deleted when the shard's final files are renamed
 * into place. An older binary's pair of partials (a `.partial.jsonl`
 * of result lines and a `.csvf` of CSV frames) is not read: those runs
 * are re-run. See
 * docs/sweep_service.md for the full cooperative protocol.
 */

#ifndef ARCHGYM_CORE_TRAJECTORY_H
#define ARCHGYM_CORE_TRAJECTORY_H

#include <functional>
#include <iosfwd>
#include <mutex>
#include <span>
#include <string>
#include <string_view>
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
 * environment, which hyperparameters) plus all transitions, stored as
 * one row-major block of doubles (see the file header).
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

    /**
     * Append one transition as a row. The first row fixes the action
     * and metric widths; a row of other widths throws
     * std::invalid_argument naming both.
     */
    void append(std::span<const double> action,
                std::span<const double> observation, double reward);
    void append(const Transition &t)
    {
        append(t.action, t.observation, t.reward);
    }

    /** Room for `rows` rows of the width the first row fixed (no-op
     *  before the first row). */
    void reserve(std::size_t rows)
    {
        if (!values_.empty())
            values_.reserve(rows * rowWidth());
    }

    std::size_t size() const { return values_.size() / rowWidth(); }
    bool empty() const { return values_.empty(); }
    std::size_t actionDims() const { return actionDims_; }
    std::size_t metricDims() const { return metricDims_; }

    /** Row i in place: actionDims() action values, metricDims()
     *  metric values, then the reward. */
    std::span<const double> row(std::size_t i) const
    {
        return {values_.data() + i * rowWidth(), rowWidth()};
    }

    /** Row i copied out as a Transition. */
    Transition operator[](std::size_t i) const;

    /** Every row copied out as a Transition, in order. */
    std::vector<Transition> toTransitions() const;

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
     * hint that is not a number smaller than the column count.
     */
    static TrajectoryLog readCsv(std::istream &is);

    /** Parse every block of a (possibly multi-trajectory) CSV. */
    static std::vector<TrajectoryLog> readCsvAll(std::istream &is);

  private:
    std::size_t rowWidth() const { return actionDims_ + metricDims_ + 1; }

    std::string envName_;
    std::string agentName_;
    std::string hyperParams_;
    std::size_t actionDims_ = 0;
    std::size_t metricDims_ = 0;
    std::vector<double> values_;  ///< row-major, rowWidth() per row
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
     * are named <index>_<agent>.csv, the index zero-padded to the digit
     * count of the last one (at least 3), so loadDirectory's sorted
     * walk reloads the logs in this order.
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
 * Run-granular durability log of one executing shard (see the file
 * header): appends each finished run to the shard's partial file the
 * moment the run completes, so a crashed worker strands at most the
 * runs it was executing.
 *
 * Appends are thread-safe, and each frame goes out as one O_APPEND
 * write, flushed to the OS immediately — durable against process
 * death; against power loss the frame checksum lets the reader discard
 * a torn tail and the next owner re-run those configs (the *final*
 * shard files are the fsync'ed artifacts).
 *
 * Construction truncates the file to its validated byte count first
 * (as readPartial reports it), so a repaired shard's new appends
 * continue cleanly after the last intact frame. Destruction only
 * closes (crash semantics): the file survives for the next owner's
 * repair pass.
 */
class ShardPartialWriter
{
  public:
    /**
     * @param path        the shard's .partial file
     * @param keep_bytes  validated prefix to keep (truncate to)
     */
    ShardPartialWriter(const std::string &path, std::size_t keep_bytes);

    ShardPartialWriter(const ShardPartialWriter &) = delete;
    ShardPartialWriter &operator=(const ShardPartialWriter &) = delete;

    /**
     * Persist one finished run as one frame. `result_line` is the
     * final-format JSONL line: exactly one line, ending in "}\n".
     * `csv_block` is its trajectory's CSV block, empty when the sweep
     * exports no dataset.
     */
    void append(std::size_t config, const std::string &result_line,
                const std::string &csv_block);

    /** Close and delete the partial file (shard finalized). */
    void closeAndRemove();

  private:
    std::mutex mutex_;
    fsio::File file_;
};

/**
 * Receives one intact partial record: the result line (with its
 * trailing newline) and the CSV block. The views live until the call
 * returns.
 */
using PartialVisitor =
    std::function<void(std::size_t config, std::string_view result_line,
                       std::string_view csv_block)>;

/**
 * Validating reader of a shard's partial file, shared by the repair
 * pass and finalize. It reads one frame at a time into a reused buffer
 * and calls `visit` for each frame, in file order, whose length fits
 * the file, whose checksum matches, and whose result line names the
 * frame's config. It stops at the first frame that fails, since
 * everything from there on is a torn or corrupt tail, and returns the
 * validated byte count before it. A missing file reads as empty.
 */
std::size_t readPartial(const std::string &path, const PartialVisitor &visit);

/**
 * Crc-line rendering of the quarantine ledger: `line` (one
 * final-format JSON line ending in "}\n") with a trailing
 * `"crc":<fnv1a64 of the rest>` field.
 */
std::string crcLine(const std::string &line);

/** One intact line recovered from a crc-line file. */
struct CrcLineRecord
{
    std::size_t config = 0;
    std::string line;  ///< as passed to crcLine, trailing newline
};

/** Validated prefix of a crc-line file (see readCrcLines). */
struct CrcLineReadResult
{
    std::vector<CrcLineRecord> records;  ///< intact lines, file order
    std::size_t validBytes = 0;          ///< torn/corrupt tail starts here
};

/**
 * Validating reader of a crc-line file (the quarantine ledger):
 * returns every line whose crc field matches its payload, stopping at
 * the first line that is torn or corrupt. A missing file reads as
 * empty.
 */
CrcLineReadResult readCrcLines(const std::string &path);

} // namespace archgym

#endif // ARCHGYM_CORE_TRAJECTORY_H
