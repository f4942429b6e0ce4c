#include "controller.h"

#include <algorithm>
#include <bit>
#include <cassert>
#include <limits>
#include <stdexcept>

#include "core/resilience.h"

namespace archgym::dram {

namespace {

constexpr std::size_t kReorderWindow = 8;
constexpr std::size_t kWriteDrainWatermark = 12;

/** A config that can admit no request would make run() loop forever. */
const ControllerConfig &
checkedConfig(const ControllerConfig &config)
{
    if (config.maxActiveTransactions == 0)
        throw std::invalid_argument(
            "DramController: maxActiveTransactions must be at least 1");
    if (config.requestBufferSize == 0)
        throw std::invalid_argument(
            "DramController: requestBufferSize must be at least 1");
    return config;
}

} // namespace

DramController::DramController(const MemSpec &spec,
                               const ControllerConfig &config)
    : spec_(spec), config_(checkedConfig(config)), addressMap_(spec),
      device_(spec)
{
}

void
DramController::setConfig(const ControllerConfig &config)
{
    config_ = checkedConfig(config);
}

std::size_t
DramController::queueIndexFor(const DecodedRequest &e) const
{
    switch (config_.schedulerBuffer) {
      case BufferOrg::Bankwise:
        return e.flatBank;
      case BufferOrg::ReadWrite:
        return e.isWrite ? 1 : 0;
      case BufferOrg::Shared:
      default:
        return 0;
    }
}

bool
DramController::olderThan(std::uint32_t a, std::uint32_t b) const
{
    if (nodes_[a].admitCycle != nodes_[b].admitCycle)
        return nodes_[a].admitCycle < nodes_[b].admitCycle;
    if (tieBreakByIndex_)
        return a < b;
    return (*trace_)[a].id < (*trace_)[b].id;
}

template <std::uint32_t DramController::Node::*Next,
          std::uint32_t DramController::Node::*Prev>
void
DramController::insertSorted(ListHead &list, std::uint32_t i)
{
    // Admission keys (admitCycle, id) are non-decreasing in admission
    // order except for one Reorder-arbiter corner (the cycle-0 admit
    // bump), so this walk is O(1) amortized: the common case appends at
    // the tail.
    std::uint32_t at = list.tail;
    while (at != kNone && olderThan(i, at))
        at = nodes_[at].*Prev;
    if (at == kNone) {
        nodes_[i].*Next = list.head;
        nodes_[i].*Prev = kNone;
        if (list.head != kNone)
            nodes_[list.head].*Prev = i;
        else
            list.tail = i;
        list.head = i;
    } else {
        nodes_[i].*Next = nodes_[at].*Next;
        nodes_[i].*Prev = at;
        if (nodes_[at].*Next != kNone)
            nodes_[nodes_[at].*Next].*Prev = i;
        else
            list.tail = i;
        nodes_[at].*Next = i;
    }
}

template <std::uint32_t DramController::Node::*Next,
          std::uint32_t DramController::Node::*Prev>
void
DramController::unlink(ListHead &list, std::uint32_t i)
{
    Node &n = nodes_[i];
    if (n.*Prev != kNone)
        nodes_[n.*Prev].*Next = n.*Next;
    else
        list.head = n.*Next;
    if (n.*Next != kNone)
        nodes_[n.*Next].*Prev = n.*Prev;
    else
        list.tail = n.*Prev;
}

std::uint32_t
DramController::rowPending(const DecodedRequest &e) const
{
    std::uint32_t n = rowLists_[e.rowGroup].count;
    if (e.buddyGroup != kNoGroup)
        n += rowLists_[e.buddyGroup].count;
    return n;
}

void
DramController::admitInto(std::uint32_t request_index, std::uint64_t now)
{
    const DecodedRequest &e = (*trace_)[request_index];
    nodes_[request_index].admitCycle = std::max(now, e.arrivalCycle);

    insertSorted<&Node::globNext, &Node::globPrev>(
        globalKind_[e.isWrite], request_index);
    RowList &rl = rowLists_[e.rowGroup];
    insertSorted<&Node::rowNext, &Node::rowPrev>(rl.list, request_index);
    ++rl.count;
    if (bankQueued_[e.flatBank]++ == 0 && useBankMask_)
        queuedBankMask_ |= 1ULL << e.flatBank;
    ++queueSize_[queueIndexFor(e)];
    if (e.isWrite)
        ++queuedWrites_;
    else
        ++queuedReads_;
    ++totalQueued_;

    ++activeTransactions_;
    if (!e.isWrite && config_.respQueue == RespQueuePolicy::Fifo)
        respFifo_.push_back(request_index);
}

void
DramController::admit(std::uint64_t now)
{
    const std::size_t total = trace_->size();
    auto canAdmit = [&](std::size_t idx) {
        return activeTransactions_ < config_.maxActiveTransactions &&
               queueSize_[queueIndexFor((*trace_)[idx])] < queueCapacity_;
    };

    switch (config_.arbiter) {
      case ArbiterPolicy::Simple:
        // Head-only, at most one admission per scheduling round.
        if (arrivalIndex_ < total &&
            (*trace_)[arrivalIndex_].arrivalCycle <= now &&
            canAdmit(arrivalIndex_)) {
            admitInto(static_cast<std::uint32_t>(arrivalIndex_), now);
            ++arrivalIndex_;
        }
        break;
      case ArbiterPolicy::Fifo:
        // In-order admission while the head fits.
        while (arrivalIndex_ < total &&
               (*trace_)[arrivalIndex_].arrivalCycle <= now &&
               canAdmit(arrivalIndex_)) {
            admitInto(static_cast<std::uint32_t>(arrivalIndex_), now);
            ++arrivalIndex_;
        }
        break;
      case ArbiterPolicy::Reorder: {
        // Out-of-order admission within a lookahead window: requests
        // blocked on a full bank queue do not stall younger requests.
        std::size_t scanned = 0;
        for (std::size_t i = arrivalIndex_;
             i < total && scanned < kReorderWindow; ++i, ++scanned) {
            if ((*trace_)[i].arrivalCycle > now)
                break;
            if (nodes_[i].admitCycle != 0 || completionCycle_[i] != 0) {
                continue;  // already admitted out of order
            }
            if (canAdmit(i)) {
                // Mark admission by a non-zero admitCycle; requests at
                // cycle 0 are bumped to 1 to keep the marker valid.
                admitInto(static_cast<std::uint32_t>(i),
                          std::max<std::uint64_t>(now, 1));
            }
        }
        // Advance past the contiguous admitted prefix.
        while (arrivalIndex_ < total &&
               nodes_[arrivalIndex_].admitCycle != 0) {
            ++arrivalIndex_;
        }
        break;
      }
    }
}

std::uint32_t
DramController::schedule()
{
    if (totalQueued_ == 0)
        return kNone;

    // FrFcFsGrp: decide which group (reads or writes) is being drained.
    bool restrictKind = false;
    bool wantWrite = false;
    if (config_.scheduler == SchedulerPolicy::FrFcFsGrp) {
        const std::size_t reads = queuedReads_;
        const std::size_t writes = queuedWrites_;
        if (writeGroupActive_) {
            if (writes == 0)
                writeGroupActive_ = false;
        } else {
            if (reads == 0 || writes >= kWriteDrainWatermark)
                writeGroupActive_ = true;
        }
        restrictKind = (writeGroupActive_ ? writes : reads) > 0;
        wantWrite = writeGroupActive_;
    }

    const bool preferHits =
        config_.scheduler != SchedulerPolicy::Fifo;

    // Every list head is its oldest member and the (admitCycle, id) age
    // key is unique per request, so each pick below selects exactly the
    // request the reference full scan would. Oldest-any comes straight
    // off the global per-kind admission lists; oldest-row-hit is a min
    // over the open-row pending lists of the O(banks) candidate banks.
    std::uint32_t bestAny;
    if (restrictKind) {
        bestAny = globalKind_[wantWrite].head;
    } else {
        const std::uint32_t r = globalKind_[0].head;
        const std::uint32_t w = globalKind_[1].head;
        if (r == kNone)
            bestAny = w;
        else if (w == kNone)
            bestAny = r;
        else
            bestAny = olderThan(r, w) ? r : w;
    }
    if (!preferHits)
        return bestAny;  // Fifo scheduler: strictly oldest-first, O(1)

    std::uint32_t bestHit = kNone;
    auto scanBank = [&](std::uint32_t bank) {
        if (!device_.rowOpen(bank))
            return;
        for (std::uint32_t kind = 0; kind < 2; ++kind) {
            if (restrictKind && (kind != 0) != wantWrite)
                continue;
            const std::uint32_t g = openRowGroup_[bank * 2 + kind];
            if (g == kNoGroup)
                continue;
            const std::uint32_t h = rowLists_[g].list.head;
            if (h != kNone &&
                (bestHit == kNone || olderThan(h, bestHit)))
                bestHit = h;
        }
    };
    if (useBankMask_) {
        // Only banks with queued requests can contribute a hit
        // candidate (their row lists are empty otherwise).
        for (std::uint64_t mask = queuedBankMask_; mask;
             mask &= mask - 1) {
            scanBank(static_cast<std::uint32_t>(std::countr_zero(mask)));
        }
    } else {
        const std::uint32_t banks = spec_.totalBanks();
        for (std::uint32_t bank = 0; bank < banks; ++bank) {
            if (bankQueued_[bank] != 0)
                scanBank(bank);
        }
    }
    if (bestHit != kNone)
        return bestHit;
    return bestAny;
}

void
DramController::resolveReadCompletion(std::uint32_t request_index)
{
    if (config_.respQueue == RespQueuePolicy::Reorder) {
        completionCycle_[request_index] = dataCycle_[request_index];
        ++resolvedCount_;
        retireHeap_.push_back(completionCycle_[request_index]);
        std::push_heap(retireHeap_.begin(), retireHeap_.end(),
                       std::greater<>());
        return;
    }
    drainRespFifo();
}

void
DramController::drainRespFifo()
{
    while (respFifoHead_ < respFifo_.size()) {
        const std::uint32_t idx = respFifo_[respFifoHead_];
        if (dataCycle_[idx] == 0)
            break;  // head not yet serviced: younger responses blocked
        completionCycle_[idx] =
            std::max(dataCycle_[idx], lastRespRelease_);
        lastRespRelease_ = completionCycle_[idx];
        ++resolvedCount_;
        retireHeap_.push_back(completionCycle_[idx]);
        std::push_heap(retireHeap_.begin(), retireHeap_.end(),
                       std::greater<>());
        ++respFifoHead_;
    }
}

void
DramController::retire(std::uint64_t now)
{
    while (!retireHeap_.empty() && retireHeap_.front() <= now) {
        std::pop_heap(retireHeap_.begin(), retireHeap_.end(),
                      std::greater<>());
        retireHeap_.pop_back();
        assert(activeTransactions_ > 0);
        --activeTransactions_;
    }
}

void
DramController::accrueRefreshDebt(std::uint64_t now)
{
    while (now >= nextRefreshDue_) {
        ++refreshOwed_;
        nextRefreshDue_ += spec_.timing.tREFI;
    }
}

bool
DramController::refreshForced() const
{
    return refreshOwed_ >
           static_cast<std::int64_t>(config_.refreshMaxPostponed);
}

std::uint64_t
DramController::performRefresh(std::uint64_t now)
{
    // All banks must be precharged before an all-bank refresh.
    for (std::uint32_t b = 0; b < spec_.totalBanks(); ++b) {
        if (device_.rowOpen(b)) {
            const std::uint64_t t =
                std::max(now, device_.earliestPrecharge(b));
            device_.issuePrecharge(b, t);
        }
    }
    const std::uint64_t start =
        std::max(now, device_.earliestRefresh());
    const std::uint64_t done = device_.issueRefresh(start);
    --refreshOwed_;
    refreshBusyUntil_ = done;
    return done;
}

std::uint64_t
DramController::service(std::uint32_t request_index, std::uint64_t now)
{
    const DecodedRequest &e = (*trace_)[request_index];
    const std::uint32_t bank = e.flatBank;
    const std::uint32_t row = e.row;

    // Remove from the scheduler structures first (the page-policy
    // checks below must not see the request being serviced, matching
    // the reference's erase-then-decide order).
    unlink<&Node::globNext, &Node::globPrev>(globalKind_[e.isWrite],
                                             request_index);
    RowList &rl = rowLists_[e.rowGroup];
    unlink<&Node::rowNext, &Node::rowPrev>(rl.list, request_index);
    --rl.count;
    if (--bankQueued_[bank] == 0 && useBankMask_)
        queuedBankMask_ &= ~(1ULL << bank);
    --queueSize_[queueIndexFor(e)];
    if (e.isWrite)
        --queuedWrites_;
    else
        --queuedReads_;
    --totalQueued_;

    std::uint64_t firstIssue = std::numeric_limits<std::uint64_t>::max();

    const bool hit = device_.rowOpen(bank) &&
                     device_.openRow(bank) == row;
    if (hit) {
        ++rowHits_;
    } else {
        ++rowMisses_;
        if (device_.rowOpen(bank)) {
            const std::uint64_t tPre =
                std::max(now, device_.earliestPrecharge(bank));
            device_.issuePrecharge(bank, tPre);
            firstIssue = std::min(firstIssue, tPre);
        }
        const std::uint64_t tAct =
            std::max(now, device_.earliestActivate(bank));
        device_.issueActivate(bank, row, tAct);
        firstIssue = std::min(firstIssue, tAct);
        // The row groups of (bank, row) are trace-global, so filling the
        // open-row candidate cache at activate time covers every future
        // admit to this row as well.
        openRowGroup_[bank * 2 + e.isWrite] = e.rowGroup;
        openRowGroup_[bank * 2 + !e.isWrite] = e.buddyGroup;
    }

    std::uint64_t tCol, dataEnd;
    if (e.isWrite) {
        tCol = std::max(now, device_.earliestWrite(bank));
        dataEnd = device_.issueWrite(bank, tCol);
    } else {
        tCol = std::max(now, device_.earliestRead(bank));
        dataEnd = device_.issueRead(bank, tCol);
    }
    firstIssue = std::min(firstIssue, tCol);
    dataCycle_[request_index] = dataEnd;

    // Row-buffer management after the column access: the O(Q) conflict
    // scans reduce to O(1) counter arithmetic. A queued conflict on this
    // bank exists iff more requests queue to the bank than to this row.
    bool doPrecharge = false;
    switch (config_.pagePolicy) {
      case PagePolicy::Open:
        break;
      case PagePolicy::Closed:
        doPrecharge = true;
        break;
      case PagePolicy::OpenAdaptive:
        doPrecharge = bankQueued_[bank] > rowPending(e);
        break;
      case PagePolicy::ClosedAdaptive:
        // Close unless another queued request hits this very row.
        doPrecharge = rowPending(e) == 0;
        break;
    }
    if (doPrecharge && device_.rowOpen(bank)) {
        const std::uint64_t tPre =
            std::max(tCol, device_.earliestPrecharge(bank));
        device_.issuePrecharge(bank, tPre);
    }

    // Completion semantics.
    if (e.isWrite) {
        completionCycle_[request_index] = dataEnd;
        ++resolvedCount_;
        retireHeap_.push_back(dataEnd);
        std::push_heap(retireHeap_.begin(), retireHeap_.end(),
                       std::greater<>());
    } else {
        resolveReadCompletion(request_index);
    }
    return firstIssue;
}

void
DramController::resetRunState(const DecodedTrace &trace)
{
    const std::size_t total = trace.size();
    device_.reset();

    // resize() keeps capacity: after the first run of a trace of this
    // size, none of these reallocate. Only state that a run reads
    // before writing needs clearing: the Reorder arbiter uses
    // admitCycle/completionCycle as already-admitted markers, and the
    // Fifo response queue uses dataCycle == 0 as not-yet-serviced.
    // Everything else is written before first read.
    nodes_.resize(total);
    dataCycle_.resize(total);
    completionCycle_.resize(total);
    if (config_.arbiter == ArbiterPolicy::Reorder) {
        std::fill(nodes_.begin(), nodes_.begin() + total, Node{});
        std::fill(completionCycle_.begin(),
                  completionCycle_.begin() + total, 0);
    }
    if (config_.respQueue == RespQueuePolicy::Fifo)
        std::fill(dataCycle_.begin(), dataCycle_.begin() + total, 0);
    tieBreakByIndex_ = trace.idsFollowOrder();

    const std::uint32_t banks = spec_.totalBanks();
    globalKind_[0] = ListHead{};
    globalKind_[1] = ListHead{};
    queuedBankMask_ = 0;
    useBankMask_ = banks <= 64;
    openRowGroup_.assign(banks * 2, kNoGroup);
    bankQueued_.assign(banks, 0);
    rowLists_.assign(trace.numRowGroups(), RowList{});

    switch (config_.schedulerBuffer) {
      case BufferOrg::Bankwise:
        queueSize_.assign(banks, 0);
        queueCapacity_ = config_.requestBufferSize;
        break;
      case BufferOrg::ReadWrite:
        queueSize_.assign(2, 0);
        queueCapacity_ = std::max<std::size_t>(
            1, static_cast<std::size_t>(config_.requestBufferSize) *
                   banks / 2);
        break;
      case BufferOrg::Shared:
        queueSize_.assign(1, 0);
        queueCapacity_ =
            static_cast<std::size_t>(config_.requestBufferSize) * banks;
        break;
    }
    queuedReads_ = queuedWrites_ = totalQueued_ = 0;

    arrivalIndex_ = 0;
    activeTransactions_ = 0;
    respFifo_.clear();
    respFifoHead_ = 0;
    lastRespRelease_ = 0;
    retireHeap_.clear();
    resolvedCount_ = 0;
    refreshOwed_ = 0;
    nextRefreshDue_ = spec_.timing.tREFI;
    refreshBusyUntil_ = 0;
    forcedRefreshes_ = 0;
    writeGroupActive_ = false;
    rowHits_ = rowMisses_ = 0;
}

SimResult
DramController::run(const std::vector<MemoryRequest> &trace)
{
    scratch_.assign(spec_, trace);
    return run(scratch_);
}

SimResult
DramController::run(const DecodedTrace &trace)
{
    trace_ = &trace;
    resetRunState(trace);

    std::uint64_t now = 0;
    const std::size_t total = trace.size();
    std::uint64_t cancelStride = 0;
    while (resolvedCount_ < total) {
        // Cooperative run deadline (core/resilience.h): a pathological
        // config can make this cycle loop effectively unbounded, so it
        // must be cancellable. Strided so the check costs nothing when
        // no deadline is armed.
        if ((++cancelStride & 0xFFFU) == 0)
            resilience::checkpoint();
        retire(now);
        accrueRefreshDebt(now);
        admit(now);

        if (refreshForced()) {
            now = performRefresh(now);
            ++forcedRefreshes_;
            continue;
        }

        const std::uint32_t pick = schedule();
        if (pick != kNone) {
            const std::uint64_t firstIssue = service(pick, now);
            now = std::max(now + 1, firstIssue + 1);
            continue;
        }

        // Idle: pull refreshes in early when the bus has slack.
        const bool arrivalsSoon =
            arrivalIndex_ < total &&
            trace[arrivalIndex_].arrivalCycle <=
                now + spec_.timing.tRFC;
        if (!arrivalsSoon && activeTransactions_ == 0 &&
            refreshOwed_ >
                -static_cast<std::int64_t>(config_.refreshMaxPulledin)) {
            now = performRefresh(now);
            continue;
        }

        // Advance to the next event. Nothing is queued here (schedule()
        // returns kNone only when totalQueued_ == 0), so an iteration's
        // outcome depends on `now` through four pieces of state only:
        //  - retire: retireHeap_.front() frees an active transaction;
        //  - refresh due: nextRefreshDue_ adds refresh debt;
        //  - arrival time: a head arrival after `now` becomes due;
        //  - admission capacity: a head arrival already due was refused
        //    by admit(). Every queue is empty and has room for at least
        //    one request (requestBufferSize >= 1), so the refusal came from
        //    the maxActiveTransactions cap (>= 1), and only a retire can
        //    lift it. Every admitted request has been serviced, so every
        //    active transaction has its retire cycle in retireHeap_: the
        //    refused arrival is not an event of its own.
        // The refresh pull-in above needs activeTransactions_ == 0, so it
        // cannot fire while the cap is full, and schedule() does not read
        // `now`. A cycle skipped by this jump would retire nothing,
        // accrue no debt, admit nothing and schedule nothing, so the
        // results equal those of stepping one cycle at a time.
        std::uint64_t next = std::numeric_limits<std::uint64_t>::max();
        if (arrivalIndex_ < total && trace[arrivalIndex_].arrivalCycle > now)
            next = trace[arrivalIndex_].arrivalCycle;
        if (!retireHeap_.empty()) {
            next = std::min(next,
                            std::max(retireHeap_.front(), now + 1));
        }
        next = std::min(next, std::max(nextRefreshDue_, now + 1));
        if (next == std::numeric_limits<std::uint64_t>::max())
            next = now + 1;
        now = next;
    }

    // Aggregate results. The loop shape (request order, operation
    // order) matches the reference so the floating-point sums are
    // bit-identical.
    SimResult result;
    result.requests = total;
    double latencySum = 0.0, readLatencySum = 0.0;
    std::uint64_t lastCompletion = 0;
    for (std::size_t i = 0; i < total; ++i) {
        const DecodedRequest &e = trace[i];
        const double latencyNs =
            static_cast<double>(completionCycle_[i] - e.arrivalCycle) *
            spec_.clockNs;
        latencySum += latencyNs;
        result.maxLatencyNs = std::max(result.maxLatencyNs, latencyNs);
        if (e.isWrite) {
            ++result.writes;
        } else {
            ++result.reads;
            readLatencySum += latencyNs;
        }
        lastCompletion = std::max(lastCompletion, completionCycle_[i]);
    }
    result.avgLatencyNs =
        latencySum / static_cast<double>(result.requests);
    result.avgReadLatencyNs =
        result.reads ? readLatencySum / static_cast<double>(result.reads)
                     : 0.0;
    result.totalCycles = std::max(lastCompletion, refreshBusyUntil_);
    result.totalTimeNs =
        static_cast<double>(result.totalCycles) * spec_.clockNs;
    const double bytes = static_cast<double>(result.requests) *
                         spec_.accessBytes();
    result.bandwidthGBps =
        result.totalTimeNs > 0.0 ? bytes / result.totalTimeNs : 0.0;
    result.rowHits = rowHits_;
    result.rowMisses = rowMisses_;
    result.refreshes = device_.counts().refreshes;
    result.forcedRefreshes = forcedRefreshes_;
    result.power = computePower(spec_, device_.counts(),
                                result.totalCycles,
                                device_.openCycles(result.totalCycles),
                                controllerPowerMw(config_));
    trace_ = nullptr;
    return result;
}

} // namespace archgym::dram
