#include "columnar.h"

#include <algorithm>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <stdexcept>
#include <unordered_map>

#include "core/fsio.h"
#include "core/jsonio.h"

namespace archgym {

namespace {

/** Serialize a row group's columns to the on-disk byte layout. */
std::string
renderGroupBytes(const std::vector<std::vector<double>> &cols)
{
    std::size_t rows = cols.empty() ? 0 : cols.front().size();
    std::string bytes;
    bytes.resize(cols.size() * rows * sizeof(double));
    char *dst = bytes.data();
    for (const auto &col : cols) {
        std::memcpy(dst, col.data(), rows * sizeof(double));
        dst += rows * sizeof(double);
    }
    return bytes;
}

} // namespace

std::vector<Transition>
TransitionColumns::toTransitions() const
{
    std::vector<Transition> out;
    out.resize(rows);
    const std::size_t metricCount = metricNames.size();
    for (std::size_t r = 0; r < rows; ++r) {
        Transition &t = out[r];
        t.action.resize(actionDims);
        for (std::size_t d = 0; d < actionDims; ++d)
            t.action[d] = actions[d * rows + r];
        t.observation.resize(metricCount);
        for (std::size_t m = 0; m < metricCount; ++m)
            t.observation[m] = observations[m * rows + r];
        t.reward = rewards[r];
    }
    return out;
}

std::string
ColumnarDatasetWriter::dataPath(const std::string &stem)
{
    return stem + ".colbin";
}

std::string
ColumnarDatasetWriter::indexPath(const std::string &stem)
{
    return stem + ".colidx";
}

ColumnarDatasetWriter::ColumnarDatasetWriter(
    const std::string &stem, const ParamSpace &space,
    std::vector<std::string> metric_names, std::size_t rows_per_group)
    : stem_(stem), actionDims_(space.size()),
      metricNames_(std::move(metric_names)),
      rowsPerGroup_(std::max<std::size_t>(1, rows_per_group)),
      out_(fsio::File::create(dataPath(stem)))
{
    pendingCols_.resize(actionDims_ + metricNames_.size() + 1);
}

ColumnarDatasetWriter::~ColumnarDatasetWriter()
{
    try {
        close();
    } catch (const std::exception &e) {
        // Destructor cleanup must not throw; an explicit close() is the
        // durable path and surfaces errors. A failure here still gets
        // reported (with the file it hit) rather than swallowed — the
        // index on disk is incomplete and whoever reads it should be
        // able to correlate that with this message.
        std::fprintf(stderr,
                     "ColumnarDatasetWriter: discarding close() failure "
                     "for %s: %s\n",
                     indexPath(stem_).c_str(), e.what());
    }
}

void
ColumnarDatasetWriter::flushGroup()
{
    const std::size_t rows = pendingCols_.front().size();
    if (rows == 0)
        return;
    const std::string bytes = renderGroupBytes(pendingCols_);

    ColumnarGroupMeta meta;
    meta.offset = bytesWritten_;
    meta.rows = rows;
    meta.crc = fsio::fnv1a64(bytes);
    meta.envName = pendingEnv_;
    meta.agentName = pendingAgent_;
    meta.hyperParams = pendingHyper_;
    meta.continuation = pendingContinuation_;
    groups_.push_back(std::move(meta));

    out_.write(bytes);
    bytesWritten_ += bytes.size();
    totalRows_ += rows;
    for (auto &col : pendingCols_)
        col.clear();
    // Any further rows of the same trajectory continue it.
    pendingContinuation_ = true;
}

void
ColumnarDatasetWriter::append(const TrajectoryLog &log)
{
    if (!open_)
        throw std::runtime_error("ColumnarDatasetWriter: append after "
                                 "close on " + stem_);
    if (log.empty())
        return;

    // A group never spans trajectories: flush whatever is pending.
    flushGroup();
    pendingEnv_ = log.envName();
    pendingAgent_ = log.agentName();
    pendingHyper_ = log.hyperParams();
    pendingContinuation_ = false;

    if (log.actionDims() != actionDims_ ||
        log.metricDims() != metricNames_.size())
        throw std::runtime_error(
            "ColumnarDatasetWriter: transition shape mismatch in "
            "trajectory for agent " + log.agentName());
    // A log row and a group row share the column order: actions,
    // metrics, reward.
    for (std::size_t i = 0; i < log.size(); ++i) {
        const std::span<const double> row = log.row(i);
        for (std::size_t c = 0; c < row.size(); ++c)
            pendingCols_[c].push_back(row[c]);
        if (pendingCols_.front().size() >= rowsPerGroup_)
            flushGroup();
    }
}

void
ColumnarDatasetWriter::close()
{
    if (!open_)
        return;
    flushGroup();
    open_ = false;
    out_.sync();
    out_.close();

    // The index is the commit point, written atomically last: a crash
    // anywhere earlier leaves no .colidx and therefore no dataset.
    std::string idx = "{\"format\":1,\"actionDims\":";
    idx += std::to_string(actionDims_);
    idx += ",\"rowsPerGroup\":" + std::to_string(rowsPerGroup_);
    idx += ",\"totalRows\":" + std::to_string(totalRows_);
    idx += ",\"metricNames\":[";
    for (std::size_t m = 0; m < metricNames_.size(); ++m) {
        if (m)
            idx += ',';
        idx += '"' + jsonio::escape(metricNames_[m]) + '"';
    }
    idx += "],\"groups\":[\n";
    for (std::size_t g = 0; g < groups_.size(); ++g) {
        const ColumnarGroupMeta &meta = groups_[g];
        if (g)
            idx += ",\n";
        idx += "{\"offset\":" + std::to_string(meta.offset);
        idx += ",\"rows\":" + std::to_string(meta.rows);
        idx += ",\"crc\":" + std::to_string(meta.crc);
        idx += ",\"continuation\":" +
               std::to_string(meta.continuation ? 1 : 0);
        idx += ",\"env\":\"" + jsonio::escape(meta.envName) + '"';
        idx += ",\"agent\":\"" + jsonio::escape(meta.agentName) + '"';
        idx += ",\"hyper\":\"" + jsonio::escape(meta.hyperParams) + "\"}";
    }
    idx += "\n]}\n";
    fsio::atomicWriteFile(indexPath(stem_), idx);
}

ColumnarDatasetReader
ColumnarDatasetReader::open(const std::string &stem)
{
    const std::string path = ColumnarDatasetWriter::indexPath(stem);
    const std::string text = fsio::readFileIfExists(path);
    if (text.empty())
        throw std::runtime_error("ColumnarDatasetReader: missing or "
                                 "empty index " + path);
    const std::string ctx = "columnar index " + path;

    ColumnarDatasetReader reader;
    reader.dataPath_ = ColumnarDatasetWriter::dataPath(stem);
    if (jsonio::uintField(text, "format", ctx) != 1)
        throw std::runtime_error(ctx + ": unsupported format version");
    reader.actionDims_ =
        static_cast<std::size_t>(jsonio::uintField(text, "actionDims", ctx));
    const std::size_t totalRows =
        static_cast<std::size_t>(jsonio::uintField(text, "totalRows", ctx));

    reader.metricNames_ = jsonio::stringArrayField(text, "metricNames", ctx);

    // Group entries: one {...} object per group after "groups":[.
    std::size_t cursor = jsonio::valuePos(text, "groups", ctx);
    std::size_t rowSum = 0;
    reader.groupStartRow_.push_back(0);
    while (true) {
        const std::size_t objPos = text.find('{', cursor);
        const std::size_t endPos = text.find(']', cursor);
        if (objPos == std::string::npos || endPos < objPos)
            break;
        const std::size_t objEnd = text.find('}', objPos);
        if (objEnd == std::string::npos)
            throw std::runtime_error(ctx + ": unterminated group entry");
        const std::string obj = text.substr(objPos, objEnd - objPos + 1);
        const std::string gctx =
            ctx + " group " + std::to_string(reader.groups_.size());
        ColumnarGroupMeta meta;
        meta.offset = jsonio::uintField(obj, "offset", gctx);
        meta.rows = jsonio::uintField(obj, "rows", gctx);
        meta.crc = jsonio::uintField(obj, "crc", gctx);
        meta.continuation =
            jsonio::uintField(obj, "continuation", gctx) != 0;
        meta.envName = jsonio::stringField(obj, "env", gctx);
        meta.agentName = jsonio::stringField(obj, "agent", gctx);
        meta.hyperParams = jsonio::stringField(obj, "hyper", gctx);
        if (meta.rows == 0)
            throw std::runtime_error(gctx + ": empty row group");
        rowSum += static_cast<std::size_t>(meta.rows);
        reader.groupStartRow_.push_back(rowSum);
        reader.groups_.push_back(std::move(meta));
        cursor = objEnd + 1;
    }
    if (rowSum != totalRows)
        throw std::runtime_error(
            ctx + ": totalRows " + std::to_string(totalRows) +
            " does not match group sum " + std::to_string(rowSum));
    reader.totalRows_ = totalRows;
    return reader;
}

TransitionColumns
ColumnarDatasetReader::loadGroup(std::size_t i) const
{
    const ColumnarGroupMeta &meta = groups_.at(i);
    const std::size_t rows = static_cast<std::size_t>(meta.rows);
    const std::size_t metricCount = metricNames_.size();
    const std::size_t cols = actionDims_ + metricCount + 1;
    const std::size_t byteCount = cols * rows * sizeof(double);

    std::ifstream in(dataPath_, std::ios::binary);
    if (!in)
        throw std::runtime_error("ColumnarDatasetReader: cannot open " +
                                 dataPath_);
    in.seekg(static_cast<std::streamoff>(meta.offset));
    std::string bytes(byteCount, '\0');
    in.read(bytes.data(), static_cast<std::streamsize>(byteCount));
    if (in.gcount() != static_cast<std::streamsize>(byteCount))
        throw std::runtime_error(
            "ColumnarDatasetReader: short read of group " +
            std::to_string(i) + " in " + dataPath_);
    if (fsio::fnv1a64(bytes) != meta.crc)
        throw std::runtime_error(
            "ColumnarDatasetReader: checksum mismatch in group " +
            std::to_string(i) + " of " + dataPath_);

    TransitionColumns out;
    out.rows = rows;
    out.actionDims = actionDims_;
    out.metricNames = metricNames_;
    out.actions.resize(actionDims_ * rows);
    out.observations.resize(metricCount * rows);
    out.rewards.resize(rows);
    const char *src = bytes.data();
    std::memcpy(out.actions.data(), src,
                actionDims_ * rows * sizeof(double));
    src += actionDims_ * rows * sizeof(double);
    std::memcpy(out.observations.data(), src,
                metricCount * rows * sizeof(double));
    src += metricCount * rows * sizeof(double);
    std::memcpy(out.rewards.data(), src, rows * sizeof(double));
    return out;
}

TransitionColumns
ColumnarDatasetReader::gatherRows(const std::vector<std::size_t> &rows) const
{
    const std::size_t metricCount = metricNames_.size();
    TransitionColumns out;
    out.rows = rows.size();
    out.actionDims = actionDims_;
    out.metricNames = metricNames_;
    out.actions.resize(actionDims_ * rows.size());
    out.observations.resize(metricCount * rows.size());
    out.rewards.resize(rows.size());

    // Visit rows group-by-group so each touched group is read once.
    std::vector<std::size_t> order(rows.size());
    for (std::size_t i = 0; i < order.size(); ++i)
        order[i] = i;
    std::sort(order.begin(), order.end(),
              [&rows](std::size_t a, std::size_t b) {
                  return rows[a] < rows[b];
              });

    std::size_t g = 0;
    TransitionColumns groupData;
    bool groupLoaded = false;
    for (std::size_t oi : order) {
        const std::size_t global = rows[oi];
        if (global >= totalRows_)
            throw std::runtime_error(
                "ColumnarDatasetReader: row index " +
                std::to_string(global) + " out of range");
        while (g + 1 < groups_.size() && global >= groupStartRow_[g + 1]) {
            ++g;
            groupLoaded = false;
        }
        if (global < groupStartRow_[g]) {
            // Sorted order only moves forward; find the owning group.
            g = static_cast<std::size_t>(
                    std::upper_bound(groupStartRow_.begin(),
                                     groupStartRow_.end(), global) -
                    groupStartRow_.begin()) -
                1;
            groupLoaded = false;
        }
        if (!groupLoaded) {
            groupData = loadGroup(g);
            groupLoaded = true;
        }
        const std::size_t local = global - groupStartRow_[g];
        for (std::size_t d = 0; d < actionDims_; ++d)
            out.actions[d * out.rows + oi] =
                groupData.actions[d * groupData.rows + local];
        for (std::size_t m = 0; m < metricCount; ++m)
            out.observations[m * out.rows + oi] =
                groupData.observations[m * groupData.rows + local];
        out.rewards[oi] = groupData.rewards[local];
    }
    return out;
}

TransitionColumns
ColumnarDatasetReader::sampleMinibatch(std::size_t n, Rng &rng) const
{
    std::vector<std::size_t> draws;
    draws.reserve(n);
    if (totalRows_ == 0)
        return gatherRows(draws);
    if (n <= totalRows_) {
        // Sparse Fisher-Yates: the classic shuffle, but only the O(n)
        // touched slots of the virtual index permutation are
        // materialized — sampling cost is independent of rowCount().
        std::unordered_map<std::size_t, std::size_t> swapped;
        swapped.reserve(n * 2);
        for (std::size_t i = 0; i < n; ++i) {
            const std::size_t j =
                i + static_cast<std::size_t>(
                        rng.below(static_cast<std::uint64_t>(totalRows_ - i)));
            const auto ji = swapped.find(j);
            const std::size_t value =
                ji == swapped.end() ? j : ji->second;
            const auto ii = swapped.find(i);
            const std::size_t slotI =
                ii == swapped.end() ? i : ii->second;
            swapped[j] = slotI;
            draws.push_back(value);
        }
    } else {
        for (std::size_t i = 0; i < n; ++i)
            draws.push_back(static_cast<std::size_t>(
                rng.below(static_cast<std::uint64_t>(totalRows_))));
    }
    return gatherRows(draws);
}

std::vector<Transition>
ColumnarDatasetReader::sampleTransitions(std::size_t n, Rng &rng) const
{
    return sampleMinibatch(n, rng).toTransitions();
}

std::vector<Transition>
ColumnarDatasetReader::loadAllTransitions() const
{
    std::vector<Transition> out;
    out.reserve(totalRows_);
    for (std::size_t g = 0; g < groups_.size(); ++g) {
        auto rows = loadGroup(g).toTransitions();
        for (auto &t : rows)
            out.push_back(std::move(t));
    }
    return out;
}

Dataset
ColumnarDatasetReader::toDataset() const
{
    Dataset dataset;
    TrajectoryLog current;
    bool haveLog = false;
    for (std::size_t g = 0; g < groups_.size(); ++g) {
        const ColumnarGroupMeta &meta = groups_[g];
        if (!meta.continuation) {
            if (haveLog)
                dataset.add(std::move(current));
            current = TrajectoryLog(meta.envName, meta.agentName,
                                    meta.hyperParams);
            haveLog = true;
        }
        for (const Transition &t : loadGroup(g).toTransitions())
            current.append(t);
    }
    if (haveLog)
        dataset.add(std::move(current));
    return dataset;
}

std::size_t
writeColumnarFromCsvDirectory(const std::string &directory,
                              const std::string &stem,
                              const ParamSpace &space,
                              const std::vector<std::string> &metric_names,
                              std::size_t rows_per_group)
{
    const Dataset dataset = Dataset::loadDirectory(directory);
    ColumnarDatasetWriter writer(stem, space, metric_names,
                                 rows_per_group);
    for (std::size_t i = 0; i < dataset.logCount(); ++i)
        writer.append(dataset.log(i));
    writer.close();
    return writer.rowsWritten();
}

} // namespace archgym
