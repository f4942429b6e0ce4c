#include "worker_pool.h"

#include <algorithm>
#include <atomic>
#include <cstdio>
#include <exception>
#include <memory>

#if defined(__linux__)
#include <pthread.h>
#endif

namespace archgym {

namespace {

thread_local bool t_onWorkerThread = false;

/**
 * Shared state of one parallelFor invocation. Heap-allocated and shared
 * with the queued slot tasks: the caller may finish the loop (and
 * destroy the body) before a starved task is ever scheduled, so late
 * tasks must find the loop already drained — they check `cancelled` and
 * the claim counter, both of which live here, before touching `body`.
 */
struct LoopState
{
    std::size_t count = 0;
    std::size_t chunk = 1;
    const std::function<void(std::size_t, std::size_t)> *body = nullptr;

    std::atomic<std::size_t> next{0};
    std::atomic<bool> cancelled{false};

    std::mutex mutex;
    std::condition_variable done;
    std::size_t activeSlots = 0;
    std::exception_ptr error;

    /** Drain chunks as logical worker `slot` until the loop is empty or
     *  cancelled; record the first exception and cancel on throw. */
    void runSlot(std::size_t slot)
    {
        {
            // Registered before any chunk claim: the caller cannot
            // return while a slot that may still dereference `body`
            // is in flight.
            std::lock_guard<std::mutex> lock(mutex);
            ++activeSlots;
        }
        for (;;) {
            if (cancelled.load(std::memory_order_relaxed))
                break;
            const std::size_t begin =
                next.fetch_add(chunk, std::memory_order_relaxed);
            if (begin >= count)
                break;
            const std::size_t end = std::min(begin + chunk, count);
            try {
                for (std::size_t i = begin; i != end; ++i) {
                    if (cancelled.load(std::memory_order_relaxed))
                        break;
                    (*body)(slot, i);
                }
            } catch (...) {
                {
                    std::lock_guard<std::mutex> lock(mutex);
                    if (!error)
                        error = std::current_exception();
                }
                cancelled.store(true, std::memory_order_relaxed);
            }
        }
        {
            std::lock_guard<std::mutex> lock(mutex);
            --activeSlots;
        }
        done.notify_all();
    }

    /** Caller-side completion: every index claimed (or the loop
     *  errored out) and no slot is still inside the body. Slots that
     *  never got scheduled don't count — once the work is drained they
     *  can only no-op. Callers must hold `mutex`. */
    bool finished()
    {
        if (activeSlots != 0)
            return false;
        if (error)
            return true;
        return next.load(std::memory_order_relaxed) >= count;
    }
};

} // namespace

WorkerPool::WorkerPool(std::size_t num_threads)
{
    if (num_threads == 0)
        num_threads = std::max(1u, std::thread::hardware_concurrency());
    threads_.reserve(num_threads);
    for (std::size_t t = 0; t < num_threads; ++t)
        threads_.emplace_back([this, t] { workerMain(t); });
}

WorkerPool::~WorkerPool()
{
    {
        std::lock_guard<std::mutex> lock(mutex_);
        stopping_ = true;
    }
    wake_.notify_all();
    for (auto &t : threads_)
        t.join();
}

std::vector<std::thread::id>
WorkerPool::threadIds() const
{
    std::vector<std::thread::id> ids;
    ids.reserve(threads_.size());
    for (const auto &t : threads_)
        ids.push_back(t.get_id());
    return ids;
}

void
WorkerPool::workerMain(std::size_t worker_index)
{
#if defined(__linux__)
    // Thread names are capped at 15 characters on Linux.
    char name[16];
    std::snprintf(name, sizeof(name), "archgym-w%zu", worker_index);
    pthread_setname_np(pthread_self(), name);
#else
    (void)worker_index;
#endif
    t_onWorkerThread = true;
    for (;;) {
        std::function<void()> task;
        {
            std::unique_lock<std::mutex> lock(mutex_);
            wake_.wait(lock,
                       [this] { return stopping_ || !queue_.empty(); });
            if (stopping_ && queue_.empty())
                return;
            task = std::move(queue_.front());
            queue_.pop_front();
        }
        task();
    }
}

void
WorkerPool::parallelFor(
    std::size_t count,
    const std::function<void(std::size_t, std::size_t)> &body,
    std::size_t slots, std::size_t chunk)
{
    if (count == 0)
        return;
    if (slots == 0)
        slots = size();
    slots = std::max<std::size_t>(1, std::min(slots, count));
    chunk = std::max<std::size_t>(1, chunk);

    auto loop = std::make_shared<LoopState>();
    loop->count = count;
    loop->chunk = chunk;
    loop->body = &body;

    // The caller drains chunks as slot 0 alongside the pool: the loop is
    // guaranteed to make progress even when every pool thread is wedged
    // (e.g. a hung run blocking on a cooperative checkpoint). Queued
    // tasks that only get scheduled after the caller has finished the
    // loop find it drained and no-op — they hold the state alive via
    // the shared_ptr, never the caller's stack.
    if (slots > 1) {
        {
            std::lock_guard<std::mutex> lock(mutex_);
            for (std::size_t s = 1; s < slots; ++s)
                queue_.emplace_back([loop, s] { loop->runSlot(s); });
        }
        if (slots == 2)
            wake_.notify_one();
        else
            wake_.notify_all();
    }
    loop->runSlot(0);

    std::exception_ptr error;
    {
        std::unique_lock<std::mutex> lock(loop->mutex);
        loop->done.wait(lock, [&loop] { return loop->finished(); });
        // Take the error out of the shared state: a late pool task may
        // drop the last reference to `loop` while the caller still
        // handles the rethrown exception, which must then not die with
        // it.
        error = std::move(loop->error);
    }
    if (error)
        std::rethrow_exception(error);
}

WorkerPool &
WorkerPool::shared()
{
    static WorkerPool pool;
    return pool;
}

bool
WorkerPool::onWorkerThread()
{
    return t_onWorkerThread;
}

} // namespace archgym
