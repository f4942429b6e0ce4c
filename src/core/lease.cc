#include "lease.h"

#include <atomic>
#include <cerrno>
#include <chrono>
#include <cstdio>
#include <cstring>
#include <optional>
#include <stdexcept>

#include <fcntl.h>
#include <sys/file.h>
#include <unistd.h>

#include "core/fault_hooks.h"
#include "core/fsio.h"
#include "core/jsonio.h"
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
renderLease(const LeaseRecord &rec)
{
    return "{\"worker\":\"" + jsonio::escape(rec.workerId) +
           "\",\"pid\":" + std::to_string(rec.pid) +
           ",\"nonce\":" + std::to_string(rec.nonce) +
           ",\"seq\":" + std::to_string(rec.sequence) +
           ",\"heartbeatNs\":" + std::to_string(rec.heartbeatNs) + "}\n";
}

/** This process's record of acquisition `nonce`, stamped now. */
LeaseRecord
ownRecord(const std::string &worker, std::uint64_t nonce,
          std::uint64_t sequence)
{
    return {worker, static_cast<std::uint64_t>(::getpid()), nonce, sequence,
            leaseClockNowNs()};
}

/** Unique-per-acquisition nonce (distinct even within one process). */
std::uint64_t
nextNonce()
{
    static std::atomic<std::uint64_t> counter{0};
    return (static_cast<std::uint64_t>(::getpid()) << 32) ^
           (counter.fetch_add(1) + 1);
}

/**
 * Replace a lease record via unique-tmp + rename (atomic refresh). No
 * fsync: it would run inside the sweep flock and serialize every
 * peer's claim behind device latency.
 */
void
writeLeaseFile(const std::string &path, const std::string &bytes)
{
    const std::string tmp = fsio::uniqueTmpPath(path);
    fsio::File::create(tmp).write(bytes);
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
    const std::string text = fsio::readFileIfExists(path);
    const std::string ctx = "lease " + path;
    LeaseRecord rec;
    try {
        rec.workerId = jsonio::stringField(text, "worker", ctx);
        rec.pid = jsonio::uintField(text, "pid", ctx);
        rec.nonce = jsonio::uintField(text, "nonce", ctx);
        rec.sequence = jsonio::uintField(text, "seq", ctx);
        rec.heartbeatNs = jsonio::uintField(text, "heartbeatNs", ctx);
    } catch (const std::runtime_error &) {
        return false;
    }
    // A torn write leaves a prefix that can still parse (a heartbeat
    // cut to its leading digits reads as a far older stamp); only a
    // record that renders back to the same bytes is whole.
    if (renderLease(rec) != text)
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
    std::optional<fsio::File> file = fsio::File::createExclusive(leasePath);
    if (!file) {
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
        file = fsio::File::createExclusive(leasePath);
        if (!file)
            throw std::runtime_error("lease: cannot recreate " + leasePath +
                                     ": " + std::strerror(EEXIST));
        stolen = true;
    }

    const std::uint64_t nonce = nextNonce();
    try {
        file->write(renderLease(ownRecord(opts.workerId, nonce, 0)));
    } catch (...) {
        ::unlink(leasePath.c_str());
        throw;
    }

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
        writeLeaseFile(leasePath_, renderLease(ownRecord(
                                       opts_.workerId, nonce_, sequence_)));
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
