/**
 * @file
 * Fault-injection helpers for the cooperative sweep service tests.
 *
 * The engine compiles its hook sites in unconditionally (null-checked
 * std::function calls in core/fault_hooks.h); these helpers install
 * hooks for the duration of a test and restore a clean slate on scope
 * exit, plus a few direct on-disk corruption primitives (truncating a
 * partial file mid-record, corrupting a lease) that simulate torn
 * writes without any cooperation from the engine.
 */

#ifndef ARCHGYM_TESTS_FAULT_INJECTION_H
#define ARCHGYM_TESTS_FAULT_INJECTION_H

#include <atomic>
#include <condition_variable>
#include <cstdint>
#include <fstream>
#include <map>
#include <mutex>
#include <set>
#include <stdexcept>
#include <string>
#include <thread>

#include <unistd.h>

#include "core/fault_hooks.h"
#include "core/resilience.h"

namespace archgym {
namespace testing {

/** Clears every installed hook on construction and destruction. */
class FaultHookGuard
{
  public:
    FaultHookGuard() { faultHooks().clear(); }
    ~FaultHookGuard() { faultHooks().clear(); }
    FaultHookGuard(const FaultHookGuard &) = delete;
    FaultHookGuard &operator=(const FaultHookGuard &) = delete;
};

/**
 * Kill worker `victim` (by throwing WorkerKilled out of the engine,
 * which unwinds exactly like a SIGKILL leaves disk state: lease file
 * present, partial file present, no finals) after it has durably
 * persisted `after_runs` runs. One-shot.
 */
class KillAfterRuns
{
  public:
    KillAfterRuns(std::string victim, std::size_t after_runs)
        : victim_(std::move(victim)), remaining_(after_runs)
    {
        faultHooks().afterRunPersisted =
            [this](const std::string &worker, std::size_t,
                   std::size_t) {
                if (worker != victim_ || fired_.load())
                    return;
                if (remaining_.fetch_sub(1) <= 1) {
                    fired_.store(true);
                    throw WorkerKilled(worker);
                }
            };
    }

    ~KillAfterRuns() { faultHooks().afterRunPersisted = nullptr; }

    bool fired() const { return fired_.load(); }

  private:
    std::string victim_;
    std::atomic<std::size_t> remaining_;
    std::atomic<bool> fired_{false};
};

/**
 * Freeze the heartbeats of a set of workers: their lease files stop
 * refreshing while the workers stay alive, so peers judge them dead
 * once the (injected or real) clock passes the TTL.
 */
class StallHeartbeats
{
  public:
    explicit StallHeartbeats(std::set<std::string> victims)
        : victims_(std::move(victims))
    {
        faultHooks().heartbeatStalled =
            [this](const std::string &worker) {
                std::lock_guard<std::mutex> lock(mutex_);
                return victims_.count(worker) != 0;
            };
    }

    ~StallHeartbeats() { faultHooks().heartbeatStalled = nullptr; }

    void unstall(const std::string &worker)
    {
        std::lock_guard<std::mutex> lock(mutex_);
        victims_.erase(worker);
    }

  private:
    std::mutex mutex_;
    std::set<std::string> victims_;
};

/**
 * Replace the lease clock with a test-controlled counter so staleness
 * is deterministic: tests advance time instead of sleeping TTLs out.
 */
class InjectedClock
{
  public:
    InjectedClock() { faultHooks().clockNowNs = &now; }
    ~InjectedClock() { faultHooks().clockNowNs = nullptr; }

    static void advanceMs(std::uint64_t ms)
    {
        ns_.fetch_add(ms * 1000000ULL);
    }

  private:
    static std::uint64_t now() { return ns_.load(); }
    static inline std::atomic<std::uint64_t> ns_{1};
};

/**
 * Make a set of sweep configs poisonous. Throwing poisons raise a
 * deterministic std::runtime_error ("<message> <config>") from the
 * beforeRun hook on every attempt; hanging poisons spin at a cooperative checkpoint — with a
 * deadline armed they raise RunTimeout once the (usually injected)
 * clock passes it, without one they would wedge forever, which is
 * exactly what the lease-watchdog tests need. Per-config attempt
 * counts are recorded for exactly-once assertions.
 */
class PoisonConfigs
{
  public:
    PoisonConfigs(std::set<std::size_t> throwing,
                  std::set<std::size_t> hanging = {},
                  std::uint64_t hang_advance_ms = 0,
                  std::string message = "injected poison config")
        : throwing_(std::move(throwing)), hanging_(std::move(hanging)),
          hangAdvanceMs_(hang_advance_ms), message_(std::move(message))
    {
        faultHooks().beforeRun = [this](const std::string &,
                                        std::size_t,
                                        std::size_t config) {
            const bool throws = throwing_.count(config) != 0;
            const bool hangs = hanging_.count(config) != 0;
            if (throws || hangs) {
                std::lock_guard<std::mutex> lock(mutex_);
                ++attempts_[config];
            }
            if (throws)
                throw std::runtime_error(message_ + " " +
                                         std::to_string(config));
            if (!hangs)
                return;
            // Cooperative wedge: spin on the checkpoint until the
            // armed deadline fires. Advancing the injected clock from
            // inside the spin lets single-clock tests converge; with
            // no deadline armed the spin is a genuine wedge (the
            // watchdog/steal tests release it via a real kill or by a
            // peer finishing the sweep — see releaseHangs()).
            while (!released_.load()) {
                resilience::checkpoint();
                if (hangAdvanceMs_ > 0 && faultHooks().clockNowNs)
                    InjectedClock::advanceMs(hangAdvanceMs_);
                else
                    std::this_thread::yield();
            }
        };
    }

    ~PoisonConfigs() { faultHooks().beforeRun = nullptr; }

    /** Attempts observed for one config (0 if never tried). */
    std::size_t attempts(std::size_t config) const
    {
        std::lock_guard<std::mutex> lock(mutex_);
        const auto it = attempts_.find(config);
        return it == attempts_.end() ? 0 : it->second;
    }

    /** Total attempts across every poisoned config. */
    std::size_t totalAttempts() const
    {
        std::lock_guard<std::mutex> lock(mutex_);
        std::size_t n = 0;
        for (const auto &kv : attempts_)
            n += kv.second;
        return n;
    }

    /** Let any spinning hang-poison fall through (end-of-test). */
    void releaseHangs() { released_.store(true); }

  private:
    std::set<std::size_t> throwing_;
    std::set<std::size_t> hanging_;
    std::uint64_t hangAdvanceMs_;
    std::string message_;
    mutable std::mutex mutex_;
    std::map<std::size_t, std::size_t> attempts_;
    std::atomic<bool> released_{false};
};

/**
 * Block one worker inside its next run (from the beforeRun hook, i.e.
 * after the run's CancelScope is armed) until release() — a run that
 * is wedged *non-cooperatively* from the engine's point of view, used
 * to prove the lease watchdog stops heartbeating for it so peers can
 * steal the shard. One-shot: only the first matching run blocks.
 */
class BlockRunOnce
{
  public:
    explicit BlockRunOnce(std::string victim)
        : victim_(std::move(victim))
    {
        faultHooks().beforeRun = [this](const std::string &worker,
                                        std::size_t, std::size_t) {
            if (worker != victim_)
                return;
            std::unique_lock<std::mutex> lock(mutex_);
            if (armed_) {
                armed_ = false;
                blocked_ = true;
                blockedCv_.notify_all();
                releaseCv_.wait(lock, [this] { return released_; });
            }
        };
    }

    ~BlockRunOnce() { faultHooks().beforeRun = nullptr; }

    /** Wait until the victim is actually parked inside its run. */
    void waitUntilBlocked()
    {
        std::unique_lock<std::mutex> lock(mutex_);
        blockedCv_.wait(lock, [this] { return blocked_; });
    }

    void release()
    {
        {
            std::lock_guard<std::mutex> lock(mutex_);
            released_ = true;
        }
        releaseCv_.notify_all();
    }

  private:
    std::string victim_;
    std::mutex mutex_;
    std::condition_variable blockedCv_;
    std::condition_variable releaseCv_;
    bool armed_ = true;
    bool blocked_ = false;
    bool released_ = false;
};

/** Chop the last `bytes` bytes off a file (torn trailing record). */
inline void
truncateTail(const std::string &path, std::size_t bytes)
{
    std::ifstream in(path, std::ios::binary | std::ios::ate);
    if (!in)
        throw std::runtime_error("truncateTail: cannot open " + path);
    const auto size = static_cast<std::size_t>(in.tellg());
    in.close();
    const std::size_t keep = size > bytes ? size - bytes : 0;
    if (::truncate(path.c_str(), static_cast<off_t>(keep)) != 0)
        throw std::runtime_error("truncateTail: truncate failed on " +
                                 path);
}

/** Overwrite a file with bytes no reader of ours can parse. */
inline void
corruptFile(const std::string &path)
{
    std::ofstream out(path, std::ios::binary | std::ios::trunc);
    out << "\x7f garbage \x01\x02";
    out.flush();
}

/** Append garbage to a file (trailing corruption after valid data). */
inline void
appendGarbage(const std::string &path)
{
    std::ofstream out(path, std::ios::binary | std::ios::app);
    out << "not json at all\n";
    out.flush();
}

} // namespace testing
} // namespace archgym

#endif // ARCHGYM_TESTS_FAULT_INJECTION_H
