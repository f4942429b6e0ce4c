/**
 * @file
 * The DRAM memory controller: the component whose nine parameters form
 * the DRAMGym design space.
 *
 * Pipeline (front to back):
 *   trace -> arbiter -> scheduler buffers -> scheduler -> DRAM device
 *                                     \-> refresh manager
 *   read data -> response queue -> requester
 *
 * The simulation is transaction-level: the scheduler commits one request
 * at a time, and the device's earliest/issue timing protocol naturally
 * pipelines commands across banks and overlaps data bursts. Writes
 * complete when their data burst ends; reads pass through the response
 * queue, where the Fifo policy introduces head-of-line blocking that
 * interacts with the MaxActiveTransactions admission limit.
 *
 * Implementation notes (the incremental-state hot loop):
 *
 * The scheduler state is maintained incrementally instead of re-scanned
 * per round, so one scheduling round costs O(banks) rather than O(Q):
 *
 *  - Queued requests live on intrusive doubly-linked lists threaded
 *    through per-request nodes, ordered by (admitCycle, id) — the exact
 *    age key the FR-FCFS tie-break uses — so every list head is the
 *    oldest eligible candidate. One global list per access kind serves
 *    the oldest-any pick in O(1); one list per (bank, row, read/write)
 *    "row group" (dense ids precomputed by DecodedTrace) serves the
 *    oldest-row-hit pick, scanned only over banks with queued requests
 *    (a bitmask); unlink on service is O(1).
 *  - Cached counters (per-queue size, queued reads/writes, per-bank and
 *    per-row-group pending counts) replace the full-scan queuedOfKind /
 *    pendingRowHitInQueues / OpenAdaptive conflict checks with O(1)
 *    arithmetic.
 *  - `run(const DecodedTrace &)` is zero-copy: the immutable decoded
 *    trace is shared read-only across runs, all per-run mutable state
 *    lives in controller-owned arrays that are reset with assign()
 *    (capacity retained), and `setConfig()` re-points the design vector
 *    without reallocating. After the first run of a given trace, a run
 *    performs no trace copies and no queue (re)allocations.
 *
 * The cycle loop is event-driven: when nothing can be scheduled it
 * jumps `now` to the next cycle at which the next iteration could
 * differ, the earliest of the next retire, the next refresh due and a
 * head arrival that is still in the future. A head arrival that is
 * already due but was refused is not an event of its own: with every
 * queue empty, only the maxActiveTransactions cap can refuse it, and
 * only a retire can lift the cap. This needs maxActiveTransactions >= 1
 * and requestBufferSize >= 1, which the constructor and setConfig()
 * enforce; with either at 0 no request could ever be admitted. At cap
 * 1 on back-to-back traffic the rule cuts the loop from 17-36
 * iterations per request to 2: one to service the request, one to
 * jump to its retire. The exactness argument is spelled out at the
 * rule in run().
 *
 * Behaviour is bit-identical to ReferenceDramController (the seed
 * implementation); tests/test_dramsys.cc enforces this across the full
 * configuration cross-product on all four trace patterns.
 */

#ifndef ARCHGYM_DRAMSYS_CONTROLLER_H
#define ARCHGYM_DRAMSYS_CONTROLLER_H

#include <cstdint>
#include <vector>

#include "dramsys/decoded_trace.h"
#include "dramsys/dram_config.h"
#include "dramsys/dram_device.h"
#include "dramsys/power_model.h"
#include "dramsys/request.h"

namespace archgym::dram {

/** Aggregate outcome of simulating one trace on one controller config. */
struct SimResult
{
    std::uint64_t requests = 0;
    std::uint64_t reads = 0;
    std::uint64_t writes = 0;

    double avgLatencyNs = 0.0;      ///< arrival to response release
    double avgReadLatencyNs = 0.0;
    double maxLatencyNs = 0.0;

    std::uint64_t totalCycles = 0;
    double totalTimeNs = 0.0;
    double bandwidthGBps = 0.0;     ///< useful data moved / total time

    std::uint64_t rowHits = 0;
    std::uint64_t rowMisses = 0;
    double rowHitRate() const
    {
        const auto n = rowHits + rowMisses;
        return n ? static_cast<double>(rowHits) / static_cast<double>(n)
                 : 0.0;
    }

    std::uint64_t refreshes = 0;
    std::uint64_t forcedRefreshes = 0;  ///< issued at the postpone limit

    PowerResult power;
    double totalEnergyPj() const { return power.totalPj(); }
};

class DramController
{
  public:
    /** @throws std::invalid_argument naming the field when
     *  maxActiveTransactions or requestBufferSize is 0. */
    DramController(const MemSpec &spec, const ControllerConfig &config);

    /**
     * Swap in a new design point. All allocations survive; the next
     * run() rebuilds the (cheap) derived queue-capacity state. This is
     * how DramGymEnv evaluates a new action per step without
     * reconstructing the controller.
     * @throws std::invalid_argument as the constructor does; the
     * current config is kept.
     */
    void setConfig(const ControllerConfig &config);

    /**
     * Simulate a pre-decoded trace to completion. Zero-copy: the trace
     * is shared read-only and must outlive the call; per-request mutable
     * state lives in controller-owned arrays.
     */
    SimResult run(const DecodedTrace &trace);

    /**
     * Convenience overload: decodes into an internal scratch trace
     * first. Accepts lvalues and rvalues; does not retain the argument.
     */
    SimResult run(const std::vector<MemoryRequest> &trace);

    /** Address decode (row-bank-column interleave); exposed for tests. */
    DramAddress decode(std::uint64_t address) const
    {
        return addressMap_.decode(address);
    }

    const ControllerConfig &config() const { return config_; }

  private:
    /** Sentinel request index / group id ("null" link). */
    static constexpr std::uint32_t kNone = 0xffffffffu;

    /**
     * Hot per-request scheduler state, kept together so one cache line
     * serves the age comparison and both list traversals.
     */
    struct Node
    {
        std::uint64_t admitCycle = 0;
        std::uint32_t rowNext = kNone;
        std::uint32_t rowPrev = kNone;
        std::uint32_t globNext = kNone;
        std::uint32_t globPrev = kNone;
    };

    /** Intrusive list endpoints; links live in the per-request nodes. */
    struct ListHead
    {
        std::uint32_t head = kNone;
        std::uint32_t tail = kNone;
    };

    /** Pending list for one (bank, row, kind) row group. */
    struct RowList
    {
        ListHead list;
        std::uint32_t count = 0;
    };

    std::size_t queueIndexFor(const DecodedRequest &e) const;
    /** Strict (admitCycle, id) age order: a older than b. */
    bool olderThan(std::uint32_t a, std::uint32_t b) const;
    template <std::uint32_t Node::*Next, std::uint32_t Node::*Prev>
    void insertSorted(ListHead &list, std::uint32_t i);
    template <std::uint32_t Node::*Next, std::uint32_t Node::*Prev>
    void unlink(ListHead &list, std::uint32_t i);
    /** Queued requests to (bank,row) of e, both kinds (e excluded). */
    std::uint32_t rowPending(const DecodedRequest &e) const;

    void admitInto(std::uint32_t request_index, std::uint64_t now);
    void admit(std::uint64_t now);
    /** Index of the next request to service, or kNone. */
    std::uint32_t schedule();
    /** Issue the full command sequence; returns first issue cycle. */
    std::uint64_t service(std::uint32_t request_index, std::uint64_t now);
    void resolveReadCompletion(std::uint32_t request_index);
    void drainRespFifo();
    void retire(std::uint64_t now);
    void accrueRefreshDebt(std::uint64_t now);
    bool refreshForced() const;
    /** Close all banks and refresh; returns completion cycle. */
    std::uint64_t performRefresh(std::uint64_t now);
    void resetRunState(const DecodedTrace &trace);

    MemSpec spec_;
    ControllerConfig config_;
    AddressMap addressMap_;
    DramDevice device_;

    // --- per-run state; reset (allocation-preserving) by run() -------
    const DecodedTrace *trace_ = nullptr;  ///< valid during run() only
    DecodedTrace scratch_;                 ///< for the raw-trace overload

    // Per-request mutable simulation state, indexed by position: the
    // scheduler-hot fields live in nodes_, the completion-path fields
    // in their own arrays (only touched on service/drain/aggregate).
    std::vector<Node> nodes_;
    std::vector<std::uint64_t> dataCycle_;
    std::vector<std::uint64_t> completionCycle_;
    bool tieBreakByIndex_ = true;  ///< ids follow positions this run

    // Indexed scheduler state.
    ListHead globalKind_[2];                 ///< all queued, per kind
    std::vector<RowList> rowLists_;          ///< [rowGroup]
    std::vector<std::uint32_t> openRowGroup_;///< [flatBank * 2 + kind]
    std::vector<std::uint32_t> bankQueued_;  ///< queued count per bank
    std::uint64_t queuedBankMask_ = 0;  ///< bit per bank with queued reqs
    bool useBankMask_ = true;           ///< totalBanks() fits the mask
    std::vector<std::uint32_t> queueSize_;   ///< per scheduler queue
    std::size_t queueCapacity_ = 0;          ///< capacity per queue
    std::size_t queuedReads_ = 0;
    std::size_t queuedWrites_ = 0;
    std::size_t totalQueued_ = 0;

    std::size_t arrivalIndex_ = 0;
    std::uint32_t activeTransactions_ = 0;
    std::vector<std::uint32_t> respFifo_;  ///< admission-ordered read ids
    std::size_t respFifoHead_ = 0;
    std::uint64_t lastRespRelease_ = 0;
    /** Min-heap of completion cycles; retire only counts transactions,
     *  so it does not need to know which request completed. */
    std::vector<std::uint64_t> retireHeap_;
    std::size_t resolvedCount_ = 0;

    std::int64_t refreshOwed_ = 0;
    std::uint64_t nextRefreshDue_ = 0;
    std::uint64_t refreshBusyUntil_ = 0;
    std::uint64_t forcedRefreshes_ = 0;

    bool writeGroupActive_ = false;  ///< FrFcFsGrp current group

    std::uint64_t rowHits_ = 0;
    std::uint64_t rowMisses_ = 0;
};

} // namespace archgym::dram

#endif // ARCHGYM_DRAMSYS_CONTROLLER_H
