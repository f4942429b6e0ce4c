#include "lease.h"

#include <atomic>
#include <cerrno>
#include <charconv>
#include <chrono>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <sstream>
#include <stdexcept>

#include <fcntl.h>
#include <sys/file.h>
#include <unistd.h>

#include "core/fault_hooks.h"
#include "core/fsio.h"
#include "core/resilience.h"

namespace archgym {

namespace {

/**
 * Exclusive flock on <dir>/sweep.lock for the lifetime of the guard.
 * Serializes lease create/judge/steal/refresh/release across every
 * cooperating process; the lock file itself carries no data.
 */
class SweepDirLock
{
  public:
    explicit SweepDirLock(const std::string &dir)
    {
        const std::string path = dir + "/sweep.lock";
        fd_ = ::open(path.c_str(), O_CREAT | O_RDWR, 0644);
        if (fd_ < 0)
            throw std::runtime_error("lease: cannot open " + path + ": " +
                                     std::strerror(errno));
        if (::flock(fd_, LOCK_EX) != 0) {
            const int err = errno;
            ::close(fd_);
            throw std::runtime_error("lease: flock failed on " + path +
                                     ": " + std::strerror(err));
        }
    }

    ~SweepDirLock()
    {
        ::flock(fd_, LOCK_UN);
        ::close(fd_);
    }

    SweepDirLock(const SweepDirLock &) = delete;
    SweepDirLock &operator=(const SweepDirLock &) = delete;

  private:
    int fd_;
};

std::string
renderLease(const std::string &worker, std::uint64_t pid,
            std::uint64_t nonce, std::uint64_t sequence,
            std::uint64_t heartbeat_ns)
{
    std::ostringstream os;
    os << "{\"worker\":\"";
    for (char c : worker) {
        if (c == '"' || c == '\\')
            os << '\\';
        os << c;
    }
    os << "\",\"pid\":" << pid << ",\"nonce\":" << nonce
       << ",\"seq\":" << sequence << ",\"heartbeatNs\":" << heartbeat_ns
       << "}\n";
    return os.str();
}

/** Parse `"key":<uint>` out of a lease line; false on any mismatch. */
bool
leaseUint(const std::string &text, const char *key, std::uint64_t &out)
{
    const std::string needle = std::string("\"") + key + "\":";
    const auto pos = text.find(needle);
    if (pos == std::string::npos)
        return false;
    const char *begin = text.data() + pos + needle.size();
    const auto res =
        std::from_chars(begin, text.data() + text.size(), out);
    return res.ec == std::errc{} && res.ptr != begin;
}

/** Unique-per-acquisition nonce (distinct even within one process). */
std::uint64_t
nextNonce()
{
    static std::atomic<std::uint64_t> counter{0};
    return (static_cast<std::uint64_t>(::getpid()) << 32) ^
           (counter.fetch_add(1) + 1);
}

/** Write a lease record via unique-tmp + rename (atomic refresh). */
void
writeLeaseFile(const std::string &path, const std::string &bytes)
{
    const std::string tmp = fsio::uniqueTmpPath(path);
    {
        std::ofstream out(tmp, std::ios::binary | std::ios::trunc);
        out << bytes;
        if (!out.flush())
            throw std::runtime_error("lease: cannot write " + tmp);
    }
    if (::rename(tmp.c_str(), path.c_str()) != 0) {
        const int err = errno;
        ::unlink(tmp.c_str());
        throw std::runtime_error("lease: rename failed onto " + path +
                                 ": " + std::strerror(err));
    }
}

} // namespace

std::string
shardStem(std::size_t shard)
{
    char buf[32];
    std::snprintf(buf, sizeof(buf), "shard_%04zu", shard);
    return buf;
}

std::uint64_t
leaseClockNowNs()
{
    if (faultHooks().clockNowNs)
        return faultHooks().clockNowNs();
    return static_cast<std::uint64_t>(
        std::chrono::duration_cast<std::chrono::nanoseconds>(
            std::chrono::steady_clock::now().time_since_epoch())
            .count());
}

bool
readLeaseRecord(const std::string &path, LeaseRecord &out)
{
    std::ifstream in(path, std::ios::binary);
    if (!in)
        return false;
    std::string text((std::istreambuf_iterator<char>(in)),
                     std::istreambuf_iterator<char>());
    const auto workerPos = text.find("\"worker\":\"");
    if (workerPos == std::string::npos)
        return false;
    std::size_t pos = workerPos + std::strlen("\"worker\":\"");
    std::string worker;
    while (pos < text.size() && text[pos] != '"') {
        if (text[pos] == '\\' && pos + 1 < text.size())
            ++pos;
        worker.push_back(text[pos++]);
    }
    if (pos >= text.size())
        return false;  // unterminated string: torn write
    LeaseRecord rec;
    rec.workerId = std::move(worker);
    if (!leaseUint(text, "pid", rec.pid) ||
        !leaseUint(text, "nonce", rec.nonce) ||
        !leaseUint(text, "seq", rec.sequence) ||
        !leaseUint(text, "heartbeatNs", rec.heartbeatNs))
        return false;
    out = std::move(rec);
    return true;
}

std::unique_ptr<ShardLease>
ShardLease::tryAcquire(const std::string &dir, std::size_t shard,
                       const LeaseOptions &opts)
{
    const std::string leasePath = dir + "/" + shardStem(shard) + ".lease";

    SweepDirLock lock(dir);
    bool stolen = false;
    int fd = ::open(leasePath.c_str(), O_CREAT | O_EXCL | O_WRONLY, 0644);
    if (fd < 0) {
        if (errno != EEXIST)
            throw std::runtime_error("lease: cannot create " + leasePath +
                                     ": " + std::strerror(errno));
        LeaseRecord cur;
        const bool parsed = readLeaseRecord(leasePath, cur);
        const std::uint64_t now = leaseClockNowNs();
        const std::uint64_t ttlNs = opts.ttlMs * 1000000ULL;
        const bool stale =
            !parsed ||
            (now > cur.heartbeatNs && now - cur.heartbeatNs > ttlNs);
        if (!stale)
            return nullptr;  // live owner: shard is busy
        ::unlink(leasePath.c_str());
        fd = ::open(leasePath.c_str(), O_CREAT | O_EXCL | O_WRONLY, 0644);
        if (fd < 0)
            throw std::runtime_error("lease: cannot recreate " +
                                     leasePath + ": " +
                                     std::strerror(errno));
        stolen = true;
    }

    const std::uint64_t nonce = nextNonce();
    const std::string bytes =
        renderLease(opts.workerId, static_cast<std::uint64_t>(::getpid()),
                    nonce, 0, leaseClockNowNs());
    const char *data = bytes.data();
    std::size_t left = bytes.size();
    while (left > 0) {
        const ssize_t n = ::write(fd, data, left);
        if (n < 0) {
            if (errno == EINTR)
                continue;
            const int err = errno;
            ::close(fd);
            ::unlink(leasePath.c_str());
            throw std::runtime_error("lease: write failed on " +
                                     leasePath + ": " +
                                     std::strerror(err));
        }
        data += n;
        left -= static_cast<std::size_t>(n);
    }
    ::close(fd);

    return std::unique_ptr<ShardLease>(
        new ShardLease(dir, leasePath, opts, nonce, stolen));
}

ShardLease::ShardLease(std::string dir, std::string lease_path,
                       LeaseOptions opts, std::uint64_t nonce, bool stolen)
    : dir_(std::move(dir)), leasePath_(std::move(lease_path)),
      opts_(std::move(opts)), nonce_(nonce), stolen_(stolen)
{
    if (opts_.heartbeatMs == 0)
        opts_.heartbeatMs = std::max<std::uint64_t>(1, opts_.ttlMs / 4);
    heartbeat_ = std::thread([this] { heartbeatMain(); });
}

ShardLease::~ShardLease()
{
    // Crash semantics: stop the refresher but leave the lease file —
    // an exception unwinding through the engine must look exactly
    // like a dead worker to its peers.
    stopHeartbeat();
}

bool
ShardLease::lost() const
{
    std::lock_guard<std::mutex> lock(mutex_);
    return lost_;
}

void
ShardLease::stopHeartbeat()
{
    {
        std::lock_guard<std::mutex> lock(mutex_);
        stopping_ = true;
    }
    wake_.notify_all();
    if (heartbeat_.joinable())
        heartbeat_.join();
}

void
ShardLease::heartbeatMain()
{
    std::unique_lock<std::mutex> lock(mutex_);
    for (;;) {
        wake_.wait_for(lock,
                       std::chrono::milliseconds(opts_.heartbeatMs),
                       [this] { return stopping_; });
        if (stopping_)
            return;
        const auto &stalled = faultHooks().heartbeatStalled;
        if (stalled && stalled(opts_.workerId))
            continue;  // injected stall: lease goes stale while we live
        // Watchdog: once one of this worker's runs overstays its
        // deadline, stop vouching for the worker. A wedged run that
        // never reaches a cancellation checkpoint would otherwise keep
        // a perfectly fresh lease forever and the shard could never be
        // stolen — the heartbeat is a liveness *and* progress claim.
        if (resilience::workerHasExpiredRun(opts_.workerId))
            continue;
        lock.unlock();
        const bool stillOurs = refreshLocked();
        lock.lock();
        if (!stillOurs) {
            lost_ = true;
            return;  // stolen from under us: stop refreshing
        }
    }
}

bool
ShardLease::refreshLocked()
{
    try {
        SweepDirLock lock(dir_);
        LeaseRecord cur;
        if (!readLeaseRecord(leasePath_, cur) || cur.nonce != nonce_ ||
            cur.workerId != opts_.workerId)
            return false;
        ++sequence_;
        writeLeaseFile(leasePath_,
                       renderLease(opts_.workerId,
                                   static_cast<std::uint64_t>(::getpid()),
                                   nonce_, sequence_, leaseClockNowNs()));
        return true;
    } catch (const std::exception &) {
        // Transient I/O trouble: keep the lease, retry next beat. The
        // TTL is the backstop if the trouble persists.
        return true;
    }
}

void
ShardLease::release()
{
    {
        std::lock_guard<std::mutex> lock(mutex_);
        if (released_)
            return;
        released_ = true;
    }
    stopHeartbeat();
    SweepDirLock lock(dir_);
    LeaseRecord cur;
    if (readLeaseRecord(leasePath_, cur) && cur.nonce == nonce_ &&
        cur.workerId == opts_.workerId)
        ::unlink(leasePath_.c_str());
}

} // namespace archgym
