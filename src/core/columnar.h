/**
 * @file
 * Columnar dataset format for the proxy serving path.
 *
 * The CSV shard layout of core/trajectory.h is the durable, shareable
 * interchange format, but proxy training re-ingests it row-major and
 * whole-file. This module adds a binary columnar companion built for
 * serving: per-column blocks grouped into *row groups*, plus a JSON
 * row-group index, so training can minibatch-sample without loading
 * every transition. `Dataset::loadDirectory` stays the reference
 * reader — the equivalence suite asserts the columnar view of a
 * converted directory is value-identical to it (binary doubles, so in
 * fact bit-identical).
 *
 * ## On-disk layout
 *
 * A columnar dataset is a `<stem>.colbin` / `<stem>.colidx` pair:
 *
 *  - `<stem>.colbin` — raw little-endian doubles, one *row group* after
 *    another. A row group holds up to rowsPerGroup transitions from a
 *    single trajectory (groups never span trajectories, so each group
 *    has one env/agent/hyperparams identity; long trajectories split
 *    into several groups flagged as continuations). Within a group the
 *    columns are contiguous, in schema order:
 *
 *        action dim 0 (rows doubles), ..., action dim D-1,
 *        metric 0, ..., metric M-1,
 *        reward
 *
 *  - `<stem>.colidx` — JSON index: format version, action dims, metric
 *    names, total rows, and one entry per group (byte offset, row
 *    count, FNV-1a checksum of the group's bytes, env/agent/hyper
 *    metadata, continuation flag). The index is written via
 *    fsio::atomicWriteFile at close() and is the dataset's commit
 *    point: a crash before it leaves only an orphan .colbin that no
 *    reader will touch.
 *
 * The reader parses only the index up front; loadGroup() seeks and
 * checksums one group, and sampleMinibatch() draws row indices first,
 * then reads just the touched groups — cost scales with the minibatch,
 * not the dataset. See docs/proxy_serving.md.
 */

#ifndef ARCHGYM_CORE_COLUMNAR_H
#define ARCHGYM_CORE_COLUMNAR_H

#include <cstdint>
#include <string>
#include <vector>

#include "core/fsio.h"
#include "core/param_space.h"
#include "core/trajectory.h"
#include "mathutil/rng.h"

namespace archgym {

/** Index entry of one row group. */
struct ColumnarGroupMeta
{
    std::uint64_t offset = 0; ///< byte offset into the .colbin
    std::uint64_t rows = 0;
    std::uint64_t crc = 0;    ///< fnv1a64 of the group's bytes
    std::string envName;
    std::string agentName;
    std::string hyperParams;
    /** True when this group continues the previous group's trajectory
     *  (a log longer than rowsPerGroup); false when it starts one. */
    bool continuation = false;
};

/**
 * Column-major slab of transitions — the in-memory shape of one or
 * more row groups (or a minibatch). Column c of `actions` occupies
 * [c * rows, (c+1) * rows), likewise per-metric `observations`.
 */
struct TransitionColumns
{
    std::size_t rows = 0;
    std::size_t actionDims = 0;
    std::vector<std::string> metricNames;
    std::vector<double> actions;      ///< column-major, dims x rows
    std::vector<double> observations; ///< column-major, metrics x rows
    std::vector<double> rewards;      ///< rows

    double action(std::size_t r, std::size_t d) const
    {
        return actions[d * rows + r];
    }
    double observation(std::size_t r, std::size_t m) const
    {
        return observations[m * rows + r];
    }

    /** Row-major view for consumers of the reference Transition shape. */
    std::vector<Transition> toTransitions() const;
};

/**
 * Streams trajectories into a columnar pair. Rows buffer per group and
 * flush as each group fills; close() fsyncs the data file and commits
 * the index atomically. Not thread-safe (one writer per stem).
 */
class ColumnarDatasetWriter
{
  public:
    /**
     * @param stem           output path stem (directory must exist);
     *                       writes <stem>.colbin + <stem>.colidx
     * @param space          action space (fixes the action column count)
     * @param metric_names   observation schema
     * @param rows_per_group maximum transitions per row group
     */
    ColumnarDatasetWriter(const std::string &stem, const ParamSpace &space,
                          std::vector<std::string> metric_names,
                          std::size_t rows_per_group = 1024);
    ~ColumnarDatasetWriter();

    ColumnarDatasetWriter(const ColumnarDatasetWriter &) = delete;
    ColumnarDatasetWriter &operator=(const ColumnarDatasetWriter &) = delete;

    /** Append every transition of one trajectory (empty logs are
     *  skipped). Throws on schema mismatch. */
    void append(const TrajectoryLog &log);

    /** Flush the open group, fsync the data file, atomically write the
     *  index. Idempotent; the destructor calls it if still open. */
    void close();

    std::size_t rowsWritten() const { return totalRows_; }

    static std::string dataPath(const std::string &stem);
    static std::string indexPath(const std::string &stem);

  private:
    void flushGroup();

    const std::string stem_;
    const std::size_t actionDims_;
    const std::vector<std::string> metricNames_;
    const std::size_t rowsPerGroup_;
    fsio::File out_;
    std::vector<ColumnarGroupMeta> groups_;
    std::uint64_t bytesWritten_ = 0;
    std::size_t totalRows_ = 0;
    // Current (unflushed) group.
    std::vector<std::vector<double>> pendingCols_; ///< D+M+1 columns
    std::string pendingEnv_, pendingAgent_, pendingHyper_;
    bool pendingContinuation_ = false;
    bool open_ = true;
};

/**
 * Index-backed reader. open() parses only the .colidx; group data is
 * read (and checksum-validated) on demand, so sampling a minibatch
 * touches only the groups the drawn rows land in.
 */
class ColumnarDatasetReader
{
  public:
    /** Parse <stem>.colidx; throws std::runtime_error when the index is
     *  missing or malformed (naming the offending field). */
    static ColumnarDatasetReader open(const std::string &stem);

    std::size_t rowCount() const { return totalRows_; }
    std::size_t groupCount() const { return groups_.size(); }
    std::size_t actionDims() const { return actionDims_; }
    const std::vector<std::string> &metricNames() const
    {
        return metricNames_;
    }
    const ColumnarGroupMeta &group(std::size_t i) const
    {
        return groups_[i];
    }

    /** Read one row group (seek + one contiguous read + crc check). */
    TransitionColumns loadGroup(std::size_t i) const;

    /**
     * Gather arbitrary global row indices (dataset row order = the
     * reference reader's flatten() order). Each touched group is read
     * once; output row r is global row `rows[r]`.
     */
    TransitionColumns gatherRows(const std::vector<std::size_t> &rows) const;

    /**
     * Draw an n-row minibatch: without replacement when n <= rowCount()
     * (sparse Fisher-Yates — O(n) state, no full-index shuffle), with
     * replacement otherwise, mirroring Dataset::sample's contract. Only
     * the row groups containing drawn rows are read, so the cost scales
     * with n and the groups it touches, not with rowCount().
     */
    TransitionColumns sampleMinibatch(std::size_t n, Rng &rng) const;

    /** sampleMinibatch in the reference Transition shape. */
    std::vector<Transition> sampleTransitions(std::size_t n, Rng &rng) const;

    /** Every transition, in reference (flatten) order. */
    std::vector<Transition> loadAllTransitions() const;

    /**
     * Reassemble the full Dataset (trajectory structure restored from
     * the continuation flags) — for consumers of the per-agent
     * composition APIs (sampleDiverse, flattenAgent).
     */
    Dataset toDataset() const;

  private:
    ColumnarDatasetReader() = default;

    std::string dataPath_;
    std::size_t actionDims_ = 0;
    std::vector<std::string> metricNames_;
    std::vector<ColumnarGroupMeta> groups_;
    std::vector<std::size_t> groupStartRow_; ///< prefix sums, +sentinel
    std::size_t totalRows_ = 0;
};

/**
 * Convert a CSV dataset directory (sharded sweep exports included) into
 * a columnar pair at `stem`, reading through the reference
 * Dataset::loadDirectory so row order matches its flatten() exactly.
 * Returns the number of rows written.
 */
std::size_t
writeColumnarFromCsvDirectory(const std::string &directory,
                              const std::string &stem,
                              const ParamSpace &space,
                              const std::vector<std::string> &metric_names,
                              std::size_t rows_per_group = 1024);

} // namespace archgym

#endif // ARCHGYM_CORE_COLUMNAR_H
