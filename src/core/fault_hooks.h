/**
 * @file
 * Fault-injection hook points for the cooperative sweep service.
 *
 * The hooks are compiled in unconditionally (they are a handful of
 * null-checked std::function calls on paths that already do file I/O,
 * so the production cost is negligible) and are only ever *installed*
 * by tests — see tests/fault_injection.h for the RAII installers that
 * drive tests/test_sweep_service.cc. Keeping the hook points in the
 * shipped code means the fault suite exercises the exact binary
 * production runs, not an instrumented twin.
 *
 * Install hooks only while no sweep is running; the sweep engine and
 * lease heartbeat threads read them concurrently without locking.
 */

#ifndef ARCHGYM_CORE_FAULT_HOOKS_H
#define ARCHGYM_CORE_FAULT_HOOKS_H

#include <cstddef>
#include <cstdint>
#include <functional>
#include <stdexcept>
#include <string>

namespace archgym {

/**
 * Process-wide fault-injection callbacks. All default to "not
 * installed" (no-ops). Callbacks receive the worker id so a test can
 * target one worker of a cooperating fleet.
 */
struct FaultHooks
{
    /** Before a claimed shard's run for `config` starts. */
    std::function<void(const std::string &worker, std::size_t shard,
                       std::size_t config)>
        beforeRun;

    /**
     * After the run for `config` was appended to the shard's partial
     * file — the "between any two runs" kill point: throwing
     * WorkerKilled here simulates a SIGKILL after the run became
     * durable but before the shard finished.
     */
    std::function<void(const std::string &worker, std::size_t shard,
                       std::size_t config)>
        afterRunPersisted;

    /** After this worker acquired (or stole) the shard's lease. */
    std::function<void(const std::string &worker, std::size_t shard)>
        afterShardClaimed;

    /**
     * Polled by lease heartbeat threads before each refresh; returning
     * true skips the refresh — a stalled (but live) worker whose lease
     * goes stale and gets stolen.
     */
    std::function<bool(const std::string &worker)> heartbeatStalled;

    /** Lease clock override (monotonic nanoseconds); null = real. */
    std::uint64_t (*clockNowNs)() = nullptr;

    void clear() { *this = FaultHooks{}; }
};

/** The process-wide hook set (default: everything uninstalled). */
FaultHooks &faultHooks();

/**
 * Thrown by an afterRunPersisted hook to simulate killing the worker
 * between two runs. The sweep engine never catches it: it unwinds out
 * of runSweepSharded exactly like a crash — the lease file stays
 * behind with a stale heartbeat, the partial file keeps every
 * persisted run — so peers must detect the death and repair.
 */
class WorkerKilled : public std::runtime_error
{
  public:
    explicit WorkerKilled(const std::string &what)
        : std::runtime_error(what)
    {}
};

} // namespace archgym

#endif // ARCHGYM_CORE_FAULT_HOOKS_H
