/**
 * @file
 * Lease-based shard claiming for the cooperative sweep service.
 *
 * N independent worker processes (or threads) share one sweep
 * directory. A worker claims shard k by creating `shard_NNNN.lease`
 * with O_CREAT|O_EXCL *inside a critical section guarded by an flock
 * on `<dir>/sweep.lock`* — the exclusive-create covers well-behaved
 * local filesystems, the flock covers NFS-hostile ones where O_EXCL
 * is not reliably atomic, and the combination also serializes the
 * read-judge-steal sequence below. The lease file records the owner
 * (worker id, PID, acquisition nonce) and a monotonic heartbeat
 * timestamp that the owner refreshes on a cadence from a background
 * thread.
 *
 * A claimer that finds an existing lease reads it and judges it:
 *
 *  - unparseable (corrupt) lease        -> stale, steal immediately;
 *  - heartbeat older than the TTL       -> owner presumed dead, steal;
 *  - fresh heartbeat                    -> shard is busy, move on.
 *
 * Stealing unlinks the old lease and recreates it under the same
 * flock, so two claimers can never both "win" a steal. A stalled (but
 * live) owner may later discover it lost the lease — every heartbeat
 * re-reads the file under the flock and compares the acquisition
 * nonce; on mismatch the owner stops heartbeating and reports lost().
 * The sweep engine tolerates that race by construction: shard results
 * are deterministic and finalization is atomic-rename, so a doubly
 * executed shard converges to byte-identical files.
 *
 * Heartbeat timestamps come from the steady (monotonic) clock, which
 * on Linux is system-wide — comparisons are valid across processes on
 * one host only: another host's monotonic clock has an unrelated
 * origin, so cross-host staleness judgements are meaningless (see
 * docs/sweep_service.md for TTL tuning).
 *
 * Destruction semantics mirror crash behaviour on purpose: the
 * destructor stops the heartbeat thread but leaves the lease file in
 * place (exactly what a SIGKILL leaves behind), so an exception
 * unwinding through the sweep engine produces the same on-disk state
 * the reclamation path is tested against. Only release() — the
 * explicit happy-path call after the shard's results are renamed into
 * place — verifies ownership and unlinks the file.
 */

#ifndef ARCHGYM_CORE_LEASE_H
#define ARCHGYM_CORE_LEASE_H

#include <condition_variable>
#include <cstdint>
#include <memory>
#include <mutex>
#include <string>
#include <thread>

namespace archgym {

/**
 * Basename stem of every file of shard `shard` in a sweep directory
 * ("shard_0042" -> shard_0042.lease, .jsonl, .csv, .partial.*, ...),
 * zero-padded to at least four digits so listings of up to 10,000
 * shards sort in shard order.
 */
std::string shardStem(std::size_t shard);

/** Claiming/heartbeat knobs of one worker. */
struct LeaseOptions
{
    std::string workerId;          ///< stable cooperative identity
    std::uint64_t ttlMs = 10000;   ///< heartbeat age that means "dead"
    std::uint64_t heartbeatMs = 0; ///< refresh cadence; 0 = ttlMs / 4
};

/** Parsed contents of a lease file. */
struct LeaseRecord
{
    std::string workerId;
    std::uint64_t pid = 0;
    std::uint64_t nonce = 0;       ///< unique per acquisition
    std::uint64_t sequence = 0;    ///< refresh counter
    std::uint64_t heartbeatNs = 0; ///< monotonic, last refresh
};

/**
 * Best-effort lease parse: false on a missing, corrupt or torn file —
 * anything but a whole record, byte for byte as the owner wrote it
 * (claimers treat such a lease as stale).
 */
bool readLeaseRecord(const std::string &path, LeaseRecord &out);

/** Monotonic now() in ns; honours FaultHooks::clockNowNs. */
std::uint64_t leaseClockNowNs();

/**
 * An owned shard lease: holds the heartbeat thread for its lifetime.
 * Obtain via tryAcquire(); it is not copyable or movable (the
 * heartbeat thread captures `this`).
 */
class ShardLease
{
  public:
    /**
     * Attempt to claim shard `shard` of sweep directory `dir`.
     * Returns null when a live peer holds the lease; otherwise the
     * acquired lease (freshly created, or stolen from a stale/corrupt
     * one — see stolen()). Throws std::runtime_error on I/O failure.
     */
    static std::unique_ptr<ShardLease>
    tryAcquire(const std::string &dir, std::size_t shard,
               const LeaseOptions &opts);

    /** Stops the heartbeat; leaves the lease file (crash semantics). */
    ~ShardLease();

    ShardLease(const ShardLease &) = delete;
    ShardLease &operator=(const ShardLease &) = delete;

    /**
     * Happy-path release: stop the heartbeat and unlink the lease,
     * but only if the file still records this acquisition (it may
     * have been stolen while we were stalled — then it is left for
     * its new owner).
     */
    void release();

    /** True when acquisition stole a stale or corrupt lease. */
    bool stolen() const { return stolen_; }

    /** True once a heartbeat found the lease no longer ours. */
    bool lost() const;

    const std::string &path() const { return leasePath_; }
    const std::string &workerId() const { return opts_.workerId; }

  private:
    ShardLease(std::string dir, std::string lease_path, LeaseOptions opts,
               std::uint64_t nonce, bool stolen);

    void heartbeatMain();
    /** Refresh or verify under the sweep flock; false = lease lost. */
    bool refreshLocked();
    void stopHeartbeat();

    std::string dir_;
    std::string leasePath_;
    LeaseOptions opts_;
    std::uint64_t nonce_ = 0;
    std::uint64_t sequence_ = 0;
    bool stolen_ = false;

    mutable std::mutex mutex_;
    std::condition_variable wake_;
    bool stopping_ = false;
    bool lost_ = false;
    bool released_ = false;
    std::thread heartbeat_;
};

} // namespace archgym

#endif // ARCHGYM_CORE_LEASE_H
