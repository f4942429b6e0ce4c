#include "trajectory.h"

#include <algorithm>
#include <charconv>
#include <filesystem>
#include <fstream>
#include <iomanip>
#include <istream>
#include <numeric>
#include <ostream>
#include <set>
#include <sstream>
#include <stdexcept>
#include <string_view>

#include <unistd.h>

#include "core/fsio.h"
#include "core/jsonio.h"

namespace archgym {

void
TrajectoryLog::append(std::span<const double> action,
                      std::span<const double> observation, double reward)
{
    if (values_.empty()) {
        actionDims_ = action.size();
        metricDims_ = observation.size();
    } else if (action.size() != actionDims_ ||
               observation.size() != metricDims_) {
        throw std::invalid_argument(
            "TrajectoryLog::append: row of " +
            std::to_string(action.size()) + " action + " +
            std::to_string(observation.size()) +
            " metric values, but the log's rows have " +
            std::to_string(actionDims_) + " + " +
            std::to_string(metricDims_));
    }
    values_.insert(values_.end(), action.begin(), action.end());
    values_.insert(values_.end(), observation.begin(), observation.end());
    values_.push_back(reward);
}

Transition
TrajectoryLog::operator[](std::size_t i) const
{
    const std::span<const double> r = row(i);
    const auto action = r.first(actionDims_);
    const auto metrics = r.subspan(actionDims_, metricDims_);
    return Transition{Action(action.begin(), action.end()),
                      Metrics(metrics.begin(), metrics.end()), r.back()};
}

std::vector<Transition>
TrajectoryLog::toTransitions() const
{
    std::vector<Transition> out;
    out.reserve(size());
    for (std::size_t i = 0; i < size(); ++i)
        out.push_back((*this)[i]);
    return out;
}

void
TrajectoryLog::writeCsv(std::ostream &os, const ParamSpace &space,
                        const std::vector<std::string> &metric_names) const
{
    os << "# env=" << envName_ << "\n";
    os << "# agent=" << agentName_ << "\n";
    os << "# hyperparams=" << hyperParams_ << "\n";
    os << "# action_dims=" << space.size() << "\n";
    os << space.headerCsv();
    for (const auto &m : metric_names)
        os << "," << m;
    os << ",reward\n";
    // Row by row through one reused line buffer: rendering the whole
    // block into one string first adds a ~16 KB transient per run, and
    // that cost the sweep measurable system time.
    std::string line;
    for (std::size_t i = 0, n = size(); i < n; ++i) {
        line.clear();
        const std::span<const double> cells = row(i);
        for (std::size_t c = 0; c < cells.size(); ++c) {
            // A comma precedes every cell but the first action value,
            // so a log without action columns starts each row with one.
            if (c != 0 || actionDims_ == 0)
                line.push_back(',');
            jsonio::appendDouble(line, cells[c]);
        }
        line.push_back('\n');
        os << line;
    }
}

namespace {

/** When `line` is the "<prefix><value>" comment, set value and say so. */
bool
commentValue(std::string_view line, std::string_view prefix,
             std::string_view &value)
{
    if (!line.starts_with(prefix))
        return false;
    value = line.substr(prefix.size());
    return true;
}

[[noreturn]] void
throwAtLine(std::size_t line_number, const std::string &what)
{
    throw std::runtime_error("trajectory CSV line " +
                             std::to_string(line_number) + ": " + what);
}

/**
 * Throw for a data row that failed to parse at `cell`. A row of the
 * wrong width reports its width, whatever cell failed first, so an
 * empty trailing cell reads as one cell too many.
 */
[[noreturn]] void
throwBadRow(std::string_view line, const char *cell, std::size_t columns,
            std::size_t line_number)
{
    const std::size_t cells =
        static_cast<std::size_t>(std::count(line.begin(), line.end(), ',')) +
        1;
    if (cells != columns)
        throwAtLine(line_number, "expected " + std::to_string(columns) +
                                     " cells (from header), got " +
                                     std::to_string(cells));
    const char *const end = line.data() + line.size();
    throwAtLine(line_number, "non-numeric cell '" +
                                 std::string(cell, std::find(cell, end, ',')) +
                                 "'");
}

} // namespace

std::vector<TrajectoryLog>
TrajectoryLog::readCsvAll(std::istream &is)
{
    std::vector<TrajectoryLog> logs;
    // The block in hand: its metadata, the `action_dims` hint, the
    // column count its header row fixed, and its rows, parsed row-major
    // into one scratch buffer that every block reuses.
    TrajectoryLog block;
    std::size_t actionDimsHint = 0, columns = 0;
    bool started = false, headerSeen = false;
    std::vector<double> rows;
    const auto finishBlock = [&](std::size_t line_number) {
        if (!rows.empty()) {
            // writeCsv stamps the action/observation split into the
            // header; for foreign CSVs without the hint, fall back to
            // assuming three trailing metric columns plus the reward.
            if (actionDimsHint >= columns && actionDimsHint != 0)
                throwAtLine(line_number,
                            "action_dims=" + std::to_string(actionDimsHint) +
                                " not smaller than column count " +
                                std::to_string(columns));
            std::size_t dims = actionDimsHint;
            if (dims == 0)
                dims = columns > 4 ? columns - 4 : columns - 1;
            block.actionDims_ = dims;
            block.metricDims_ = columns - dims - 1;
            block.values_ = std::vector<double>(rows.begin(), rows.end());
            rows.clear();
        }
        logs.push_back(std::move(block));
        block = TrajectoryLog();
        actionDimsHint = columns = 0;
        started = headerSeen = false;
    };

    std::string line;
    std::size_t lineNumber = 0;
    while (std::getline(is, line)) {
        ++lineNumber;
        // Tolerate CRLF files: getline leaves the '\r', which would
        // otherwise poison the last cell of every row.
        if (!line.empty() && line.back() == '\r')
            line.pop_back();
        if (line.empty())
            continue;
        if (line[0] == '#') {
            std::string_view v;
            if (commentValue(line, "# env=", v)) {
                // An `# env=` after this block's header row starts the
                // next trajectory of a multi-block (shard) CSV.
                if (headerSeen)
                    finishBlock(lineNumber);
                block.envName_ = v;
            } else if (commentValue(line, "# agent=", v)) {
                block.agentName_ = v;
            } else if (commentValue(line, "# hyperparams=", v)) {
                block.hyperParams_ = v;
            } else if (commentValue(line, "# action_dims=", v)) {
                const auto res = std::from_chars(
                    v.data(), v.data() + v.size(), actionDimsHint);
                if (res.ec != std::errc{} || res.ptr != v.data() + v.size())
                    throwAtLine(lineNumber,
                                "bad action_dims '" + std::string(v) + "'");
            } else {
                continue;  // other comments carry nothing the log keeps
            }
            started = true;
            continue;
        }
        started = true;
        if (!headerSeen) {
            // Header: param names, metric names, then "reward". Only the
            // column count is needed here; action_dims splits the row.
            headerSeen = true;
            columns = static_cast<std::size_t>(
                          std::count(line.begin(), line.end(), ',')) +
                      1;
            continue;
        }
        // from_chars stops at the comma that ends a well-formed cell (no
        // number syntax contains one), so a cell is whole when it stops
        // at a comma, or at the line's end for the last cell.
        const char *p = line.data();
        const char *const end = p + line.size();
        for (std::size_t c = 0;; ++c) {
            double value = 0.0;
            const auto res = std::from_chars(p, end, value);
            const bool last = c + 1 == columns;
            if (res.ec != std::errc{} ||
                (last ? res.ptr != end : res.ptr == end || *res.ptr != ','))
                throwBadRow(line, p, columns, lineNumber);
            rows.push_back(value);
            if (last)
                break;
            p = res.ptr + 1;
        }
    }
    if (started)
        finishBlock(lineNumber + 1);
    return logs;
}

TrajectoryLog
TrajectoryLog::readCsv(std::istream &is)
{
    auto logs = readCsvAll(is);
    return logs.empty() ? TrajectoryLog() : std::move(logs.front());
}

std::size_t
Dataset::transitionCount() const
{
    std::size_t n = 0;
    for (const auto &log : logs_)
        n += log.size();
    return n;
}

std::vector<std::string>
Dataset::agentNames() const
{
    std::set<std::string> names;
    for (const auto &log : logs_)
        names.insert(log.agentName());
    return {names.begin(), names.end()};
}

std::vector<Transition>
Dataset::flatten() const
{
    std::vector<Transition> out;
    out.reserve(transitionCount());
    for (const auto &log : logs_)
        for (std::size_t i = 0; i < log.size(); ++i)
            out.push_back(log[i]);
    return out;
}

std::vector<Transition>
Dataset::flattenAgent(const std::string &agent) const
{
    std::vector<Transition> out;
    for (const auto &log : logs_) {
        if (log.agentName() != agent)
            continue;
        for (std::size_t i = 0; i < log.size(); ++i)
            out.push_back(log[i]);
    }
    return out;
}

std::vector<Transition>
Dataset::drawFrom(const std::vector<Transition> &pool, std::size_t n,
                  Rng &rng)
{
    std::vector<Transition> out;
    out.reserve(n);
    if (pool.empty())
        return out;
    if (n <= pool.size()) {
        // Sample without replacement via index shuffle prefix.
        std::vector<std::size_t> idx(pool.size());
        std::iota(idx.begin(), idx.end(), 0);
        rng.shuffle(idx);
        for (std::size_t i = 0; i < n; ++i)
            out.push_back(pool[idx[i]]);
    } else {
        for (std::size_t i = 0; i < n; ++i)
            out.push_back(pool[rng.below(pool.size())]);
    }
    return out;
}

std::vector<Transition>
Dataset::sample(std::size_t n, Rng &rng) const
{
    return drawFrom(flatten(), n, rng);
}

void
Dataset::saveDirectory(const std::string &directory,
                       const ParamSpace &space,
                       const std::vector<std::string> &metric_names) const
{
    namespace fs = std::filesystem;
    fs::create_directories(directory);
    // Pad every index to the last one's digit count: unequal widths
    // would sort 1000_ before 100_ and reload the logs out of order.
    const int digits = std::max<int>(
        3, static_cast<int>(
               std::to_string(logs_.empty() ? 0 : logs_.size() - 1).size()));
    for (std::size_t i = 0; i < logs_.size(); ++i) {
        std::ostringstream name;
        name << std::setw(digits) << std::setfill('0') << i << "_"
             << logs_[i].agentName() << ".csv";
        std::ostringstream csv;
        logs_[i].writeCsv(csv, space, metric_names);
        fsio::File::create((fs::path(directory) / name.str()).string())
            .write(csv.str());
    }
}

namespace {

void
loadDirectoryInto(Dataset &dataset, const std::filesystem::path &directory)
{
    namespace fs = std::filesystem;
    // Sort entries by path before loading: raw directory-iteration
    // order is filesystem- and creation-order-dependent, which would
    // make the same seeded sample() draw different transitions on
    // different machines.
    std::vector<fs::path> files, subdirs;
    for (const auto &entry : fs::directory_iterator(directory)) {
        if (entry.is_directory())
            subdirs.push_back(entry.path());
        else if (entry.path().extension() == ".csv")
            files.push_back(entry.path());
    }
    std::sort(files.begin(), files.end());
    std::sort(subdirs.begin(), subdirs.end());
    for (const auto &file : files) {
        std::ifstream in(file);
        if (!in)
            throw std::runtime_error("Dataset::loadDirectory: cannot "
                                     "open " + file.string());
        try {
            for (auto &log : TrajectoryLog::readCsvAll(in))
                dataset.add(std::move(log));
        } catch (const std::exception &e) {
            // Parse errors carry offsets within the stream; re-anchor
            // them to the file so a corrupt shard CSV is identifiable.
            throw std::runtime_error("Dataset::loadDirectory: " +
                                     file.string() + ": " + e.what());
        }
    }
    for (const auto &sub : subdirs)
        loadDirectoryInto(dataset, sub);
}

} // namespace

Dataset
Dataset::loadDirectory(const std::string &directory)
{
    Dataset dataset;
    loadDirectoryInto(dataset, directory);
    return dataset;
}

std::vector<Transition>
Dataset::sampleDiverse(std::size_t n, const std::vector<std::string> &agents,
                       Rng &rng) const
{
    std::vector<Transition> out;
    if (agents.empty())
        return out;
    const std::size_t share = n / agents.size();
    for (std::size_t i = 0; i < agents.size(); ++i) {
        // The last agent absorbs the rounding remainder.
        const std::size_t want =
            (i + 1 == agents.size()) ? n - out.size() : share;
        auto pool = flattenAgent(agents[i]);
        auto drawn = drawFrom(pool, want, rng);
        out.insert(out.end(), drawn.begin(), drawn.end());
    }
    return out;
}

// ---------------------------------------------------------------------
// Run-granular shard partial file (writer + validating reader)
// ---------------------------------------------------------------------

namespace {

constexpr std::string_view kCrcKey = ",\"crc\":";
constexpr std::string_view kFrameMagic = "#@run ";
/** Longest frame header: the magic, then three numbers of at most 20
 *  digits, each followed by ' ' or '\n'. */
constexpr std::size_t kMaxFrameHeader = kFrameMagic.size() + 3 * 21;

/** Parse the leading `{"config":<n>` of a result line. */
bool
parseConfigIndex(std::string_view line, std::size_t &out)
{
    constexpr std::string_view prefix = "{\"config\":";
    if (line.substr(0, prefix.size()) != prefix)
        return false;
    const char *begin = line.data() + prefix.size();
    const auto res = std::from_chars(begin, line.data() + line.size(), out);
    return res.ec == std::errc{} && res.ptr != begin;
}

} // namespace

ShardPartialWriter::ShardPartialWriter(const std::string &path,
                                       std::size_t keep_bytes)
    : file_(fsio::File::appendAfter(path, keep_bytes))
{}

void
ShardPartialWriter::append(std::size_t config,
                           const std::string &result_line,
                           const std::string &csv_block)
{
    // The reader ends the result line at the payload's first newline;
    // jsonio::escape keeps raw newlines out of the line's strings.
    if (result_line.size() < 2 ||
        result_line.find('\n') != result_line.size() - 1 ||
        result_line[result_line.size() - 2] != '}')
        throw std::logic_error("partial: result line not in final "
                               "format");
    const std::string payload = result_line + csv_block;
    std::string frame(kFrameMagic);
    frame += std::to_string(config);
    frame += ' ';
    frame += std::to_string(payload.size());
    frame += ' ';
    frame += std::to_string(fsio::fnv1a64(payload));
    frame += '\n';
    frame += payload;

    std::lock_guard<std::mutex> lock(mutex_);
    file_.write(frame);
}

void
ShardPartialWriter::closeAndRemove()
{
    std::lock_guard<std::mutex> lock(mutex_);
    file_.close();
    ::unlink(file_.path().c_str());  // ENOENT fine: peer cleaned up
}

std::size_t
readPartial(const std::string &path, const PartialVisitor &visit)
{
    std::ifstream in;
    in.rdbuf()->pubsetbuf(nullptr, 0);  // each read lands in `frame`
    in.open(path, std::ios::binary | std::ios::ate);
    if (!in)
        return 0;  // missing: nothing durable yet
    const auto size = static_cast<std::size_t>(in.tellg());
    std::string frame;  // the frame in hand: header, then payload
    const auto readAt = [&](std::size_t offset, std::size_t bytes) {
        frame.resize(bytes);
        in.seekg(static_cast<std::streamoff>(offset));
        return static_cast<bool>(
            in.read(frame.data(), static_cast<std::streamsize>(bytes)));
    };

    std::size_t pos = 0;
    while (pos < size) {
        // Header: "#@run <config> <bytes> <crc>\n".
        if (!readAt(pos, std::min(kMaxFrameHeader, size - pos)))
            break;
        const std::size_t eol = frame.find('\n');
        if (eol == std::string::npos ||
            frame.compare(0, kFrameMagic.size(), kFrameMagic) != 0)
            break;
        std::size_t config = 0, bytes = 0;
        std::uint64_t crc = 0;
        const char *end = frame.data() + eol;
        auto res =
            std::from_chars(frame.data() + kFrameMagic.size(), end, config);
        if (res.ec != std::errc{} || res.ptr == end || *res.ptr != ' ')
            break;
        res = std::from_chars(res.ptr + 1, end, bytes);
        if (res.ec != std::errc{} || res.ptr == end || *res.ptr != ' ')
            break;
        res = std::from_chars(res.ptr + 1, end, crc);
        if (res.ec != std::errc{} || res.ptr != end)
            break;
        // Compare the length with the bytes left, never `start + bytes`
        // with the size: a corrupt length near 2^64 wraps that sum.
        const std::size_t start = pos + eol + 1;
        if (bytes > size - start || !readAt(start, bytes) ||
            fsio::fnv1a64(frame) != crc)
            break;
        const std::string_view payload(frame);
        const std::size_t lineEnd = payload.find('\n');
        std::size_t lineConfig = 0;
        if (lineEnd == std::string_view::npos ||
            !parseConfigIndex(payload, lineConfig) || lineConfig != config)
            break;
        visit(config, payload.substr(0, lineEnd + 1),
              payload.substr(lineEnd + 1));
        pos = start + bytes;
    }
    return pos;
}

// ---------------------------------------------------------------------
// Crc-line files (the quarantine ledger)
// ---------------------------------------------------------------------

std::string
crcLine(const std::string &line)
{
    // Strip the closing "}\n" and append the crc of what is left; the
    // reader inverts this exactly.
    if (line.size() < 2 || line.compare(line.size() - 2, 2, "}\n") != 0)
        throw std::logic_error("crc line: line not in final format");
    const std::string_view payload(line.data(), line.size() - 2);
    std::string out(payload);
    out += kCrcKey;
    out += std::to_string(fsio::fnv1a64(payload));
    out += "}\n";
    return out;
}

CrcLineReadResult
readCrcLines(const std::string &path)
{
    CrcLineReadResult result;
    const std::string text = fsio::readFileIfExists(path);
    std::size_t pos = 0;
    while (pos < text.size()) {
        const std::size_t eol = text.find('\n', pos);
        if (eol == std::string::npos)
            break;  // no newline: torn trailing line
        const std::string_view line(text.data() + pos, eol - pos);
        // The crc key cannot appear inside the line's JSON strings
        // (their quotes are escaped), so the last occurrence is the
        // authoritative field even in adversarial hyperparam strings.
        const std::size_t crcPos = line.rfind(kCrcKey);
        if (crcPos == std::string_view::npos)
            break;
        const std::string_view payload = line.substr(0, crcPos);
        const char *numBegin = line.data() + crcPos + kCrcKey.size();
        std::uint64_t crc = 0;
        const auto res =
            std::from_chars(numBegin, line.data() + line.size(), crc);
        // The line must end exactly "...,"crc":<n>}" and the checksum
        // must match the payload; anything else is a torn or corrupt
        // record and invalidates the rest of the file.
        if (res.ec != std::errc{} ||
            res.ptr != line.data() + line.size() - 1 ||
            line.back() != '}' || fsio::fnv1a64(payload) != crc)
            break;
        CrcLineRecord rec;
        if (!parseConfigIndex(payload, rec.config))
            break;
        rec.line.assign(payload);
        rec.line += "}\n";
        result.records.push_back(std::move(rec));
        pos = eol + 1;
    }
    result.validBytes = pos;
    return result;
}

} // namespace archgym
