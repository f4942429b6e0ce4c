/**
 * @file
 * Tests for the DRAM subsystem simulator: trace generators, address
 * decoding, device timing invariants, controller policies, refresh
 * elasticity, and power accounting. A parameterized property suite sweeps
 * all page-policy x scheduler x buffer combinations and checks global
 * invariants (completion ordering, energy consistency, latency bounds).
 */

#include <gtest/gtest.h>

#include <atomic>
#include <sstream>
#include <stdexcept>

#include "core/fault_hooks.h"
#include "core/resilience.h"
#include "dramsys/controller.h"
#include "dramsys/decoded_trace.h"
#include "dramsys/dram_device.h"
#include "dramsys/power_model.h"
#include "dramsys/memspec_presets.h"
#include "dramsys/reference_controller.h"
#include "dramsys/trace_gen.h"
#include "dramsys/trace_profile.h"
#include "fault_injection.h"

namespace archgym::dram {
namespace {

MemSpec
testSpec()
{
    return MemSpec{};
}

std::vector<MemoryRequest>
makeTrace(TracePattern pattern, std::size_t n = 300)
{
    TraceConfig cfg;
    cfg.pattern = pattern;
    cfg.numRequests = n;
    cfg.seed = 99;
    return generateTrace(cfg);
}

// --------------------------------------------------------------------
// Trace generation
// --------------------------------------------------------------------

TEST(TraceGen, ProducesRequestedCount)
{
    for (auto p : {TracePattern::Streaming, TracePattern::Random,
                   TracePattern::Cloud1, TracePattern::Cloud2}) {
        const auto trace = makeTrace(p, 200);
        EXPECT_EQ(trace.size(), 200u) << toString(p);
    }
}

TEST(TraceGen, ArrivalsAreSortedAndIdsSequential)
{
    const auto trace = makeTrace(TracePattern::Cloud1, 400);
    for (std::size_t i = 1; i < trace.size(); ++i) {
        EXPECT_GE(trace[i].arrivalCycle, trace[i - 1].arrivalCycle);
        EXPECT_EQ(trace[i].id, i);
    }
}

TEST(TraceGen, DeterministicForSeed)
{
    const auto a = makeTrace(TracePattern::Random, 100);
    const auto b = makeTrace(TracePattern::Random, 100);
    ASSERT_EQ(a.size(), b.size());
    for (std::size_t i = 0; i < a.size(); ++i) {
        EXPECT_EQ(a[i].address, b[i].address);
        EXPECT_EQ(a[i].arrivalCycle, b[i].arrivalCycle);
    }
}

TEST(TraceGen, StreamingIsSequentialAndReadHeavy)
{
    const auto trace = makeTrace(TracePattern::Streaming, 300);
    std::size_t reads = 0, sequential = 0;
    for (std::size_t i = 1; i < trace.size(); ++i) {
        reads += !trace[i].isWrite;
        if (trace[i].address == trace[i - 1].address + 64)
            ++sequential;
    }
    EXPECT_GT(reads, 200u);
    EXPECT_GT(sequential, 200u);
}

TEST(TraceGen, RandomHasLowLocality)
{
    const auto trace = makeTrace(TracePattern::Random, 300);
    std::size_t sequential = 0;
    for (std::size_t i = 1; i < trace.size(); ++i)
        if (trace[i].address == trace[i - 1].address + 64)
            ++sequential;
    EXPECT_LT(sequential, 5u);
}

TEST(TraceGen, AddressesAreCacheLineAligned)
{
    for (auto p : {TracePattern::Streaming, TracePattern::Random,
                   TracePattern::Cloud1, TracePattern::Cloud2}) {
        for (const auto &r : makeTrace(p, 100))
            EXPECT_EQ(r.address % 64, 0u) << toString(p);
    }
}

TEST(TraceGen, AddressesStayInsideRandomizedFootprints)
{
    // Regression for the cloud-2 hot-base overflow: a hot region drawn
    // near the top of the footprint used to emit addresses past
    // addressSpaceBytes. Sweep all patterns over randomized (including
    // very small) footprints and seeds.
    const std::uint64_t spaces[] = {256, 8192, 1 << 16, (1 << 20) + 64,
                                    1ULL << 30};
    for (auto p : {TracePattern::Streaming, TracePattern::Random,
                   TracePattern::Cloud1, TracePattern::Cloud2}) {
        for (const std::uint64_t space : spaces) {
            for (std::uint64_t seed = 1; seed <= 6; ++seed) {
                TraceConfig cfg;
                cfg.pattern = p;
                cfg.numRequests = 400;
                cfg.addressSpaceBytes = space;
                cfg.seed = seed;
                for (const auto &r : generateTrace(cfg)) {
                    ASSERT_LT(r.address, space)
                        << toString(p) << " space " << space << " seed "
                        << seed;
                    ASSERT_EQ(r.address % 64, 0u);
                }
            }
        }
    }
}

TEST(TraceGen, RejectsDegenerateConfig)
{
    for (const std::uint64_t space : {0ULL, 64ULL, 128ULL, 255ULL}) {
        TraceConfig cfg;
        cfg.addressSpaceBytes = space;
        try {
            validateTraceConfig(cfg);
            FAIL() << "space " << space << " should be rejected";
        } catch (const std::invalid_argument &e) {
            EXPECT_NE(std::string(e.what()).find("addressSpaceBytes"),
                      std::string::npos);
        }
        EXPECT_THROW(generateTrace(cfg), std::invalid_argument);
    }
    TraceConfig ok;
    ok.addressSpaceBytes = 256;  // the documented minimum
    EXPECT_NO_THROW(generateTrace(ok));
}

TEST(TraceParse, ReadsWellFormedTrace)
{
    std::stringstream ss;
    ss << "# comment\n"
       << "0: R 0x1000\n"
       << "10: W 4096\n";
    const auto trace = parseTrace(ss);
    ASSERT_EQ(trace.size(), 2u);
    EXPECT_EQ(trace[0].address, 0x1000u);
    EXPECT_FALSE(trace[0].isWrite);
    EXPECT_EQ(trace[1].arrivalCycle, 10u);
    EXPECT_TRUE(trace[1].isWrite);
}

TEST(TraceParse, RejectsMalformedOp)
{
    std::stringstream ss;
    ss << "0: X 0x1000\n";
    EXPECT_THROW(parseTrace(ss), std::runtime_error);
}

/** Expect parseTrace to throw a runtime_error naming line `line_no`. */
void
expectParseErrorAtLine(const std::string &text, std::size_t line_no)
{
    std::stringstream ss(text);
    try {
        parseTrace(ss);
        FAIL() << "expected parse error for: " << text;
    } catch (const std::runtime_error &e) {
        EXPECT_NE(std::string(e.what()).find(
                      "line " + std::to_string(line_no)),
                  std::string::npos)
            << e.what();
    }
}

TEST(TraceParse, RejectsGarbageCycleWithLineNumber)
{
    expectParseErrorAtLine("# header\nabc: R 0x10\n", 2);
}

TEST(TraceParse, RejectsOverflowAddressWithLineNumber)
{
    // 2^68 does not fit a uint64_t; stoull would also have thrown, but
    // only from_chars distinguishes out-of-range from garbage.
    expectParseErrorAtLine("0: R 0xFFFFFFFFFFFFFFFFF\n", 1);
}

TEST(TraceParse, RejectsNegativeCycle)
{
    // stoull silently wrapped "-5" to 2^64-5; from_chars rejects it.
    expectParseErrorAtLine("-5: R 0x40\n", 1);
}

TEST(TraceParse, RejectsTrailingJunk)
{
    expectParseErrorAtLine("5: R 0x40 junk\n", 1);
    expectParseErrorAtLine("0: R 0x40\n5: R 0x4zz\n", 2);
}

TEST(TraceWrite, RoundTripsThroughParser)
{
    const auto original = makeTrace(TracePattern::Cloud1, 120);
    std::stringstream ss;
    writeTrace(ss, original);
    const auto back = parseTrace(ss);
    ASSERT_EQ(back.size(), original.size());
    for (std::size_t i = 0; i < original.size(); ++i) {
        EXPECT_EQ(back[i].address, original[i].address);
        EXPECT_EQ(back[i].isWrite, original[i].isWrite);
        EXPECT_EQ(back[i].arrivalCycle, original[i].arrivalCycle);
    }
}

TEST(TraceWrite, RandomizedRoundTripIsBitIdentical)
{
    // Property test over all patterns and randomized configs: text
    // serialization survives a write -> parse cycle bit-identically
    // (ids are positional in both directions).
    for (auto p : {TracePattern::Streaming, TracePattern::Random,
                   TracePattern::Cloud1, TracePattern::Cloud2}) {
        for (std::uint64_t seed = 40; seed < 44; ++seed) {
            TraceConfig cfg;
            cfg.pattern = p;
            cfg.numRequests = 250;
            cfg.addressSpaceBytes = seed % 2 ? 8192 : 1ULL << 28;
            cfg.seed = seed;
            const auto original = generateTrace(cfg);
            std::stringstream ss;
            writeTrace(ss, original);
            const auto back = parseTrace(ss);
            ASSERT_EQ(back.size(), original.size()) << toString(p);
            for (std::size_t i = 0; i < original.size(); ++i) {
                ASSERT_EQ(back[i].address, original[i].address);
                ASSERT_EQ(back[i].isWrite, original[i].isWrite);
                ASSERT_EQ(back[i].arrivalCycle, original[i].arrivalCycle);
                ASSERT_EQ(back[i].id, original[i].id);
            }
        }
    }
}

TEST(TraceWrite, HeaderlessChunksConcatenateCleanly)
{
    const auto trace = makeTrace(TracePattern::Cloud2, 100);
    std::stringstream ss;
    writeTrace(ss, {trace.begin(), trace.begin() + 50}, true);
    writeTrace(ss, {trace.begin() + 50, trace.end()}, false);
    const auto back = parseTrace(ss);
    ASSERT_EQ(back.size(), trace.size());
    for (std::size_t i = 0; i < trace.size(); ++i)
        ASSERT_EQ(back[i].address, trace[i].address);
}

// --------------------------------------------------------------------
// MemSpec presets
// --------------------------------------------------------------------

TEST(MemSpecPresets, AllNamesResolve)
{
    for (const auto &name : memSpecNames()) {
        const MemSpec spec = memSpecByName(name);
        EXPECT_EQ(spec.name, name);
        EXPECT_GT(spec.totalBanks(), 0u);
    }
    EXPECT_THROW(memSpecByName("DDR9"), std::invalid_argument);
}

TEST(MemSpecPresets, Ddr4_3200KeepsWallClockTimings)
{
    const MemSpec slow = ddr4_2400();
    const MemSpec fast = ddr4_3200();
    EXPECT_LT(fast.clockNs, slow.clockNs);
    // Same constraint in nanoseconds (within one-cycle rounding).
    EXPECT_NEAR(fast.timing.tRCD * fast.clockNs,
                slow.timing.tRCD * slow.clockNs, fast.clockNs + 1e-9);
    EXPECT_GE(fast.timing.tRCD, slow.timing.tRCD);  // more cycles
}

TEST(MemSpecPresets, FasterPartReducesStreamingLatency)
{
    const auto trace = makeTrace(TracePattern::Streaming, 400);
    DramController slow(ddr4_2400(), ControllerConfig{});
    DramController fast(ddr4_3200(), ControllerConfig{});
    // Arrival cycles are clock-denominated, so compare wall-clock time
    // for the same request stream.
    EXPECT_LT(fast.run(trace).totalTimeNs, slow.run(trace).totalTimeNs);
}

TEST(MemSpecPresets, LpddrHasLowerIdlePower)
{
    // Pointer-chasing traffic is background-dominated: the mobile part
    // must burn less power there.
    const auto trace = makeTrace(TracePattern::Random, 300);
    DramController ddr(ddr4_2400(), ControllerConfig{});
    DramController lp(lpddr4_3200(), ControllerConfig{});
    EXPECT_LT(lp.run(trace).power.avgPowerW,
              ddr.run(trace).power.avgPowerW);
}

TEST(MemSpecPresets, LpddrHasSixteenBanks)
{
    EXPECT_EQ(lpddr4_3200().totalBanks(), 16u);
}

// --------------------------------------------------------------------
// Address decode
// --------------------------------------------------------------------

TEST(AddressDecode, FieldsWithinBounds)
{
    DramController ctrl(testSpec(), ControllerConfig{});
    const MemSpec spec = testSpec();
    Rng rng(3);
    for (int i = 0; i < 1000; ++i) {
        const auto loc = ctrl.decode(rng.below(1ULL << 34));
        EXPECT_LT(loc.rank, spec.ranks);
        EXPECT_LT(loc.bank, spec.banksPerRank);
        EXPECT_LT(loc.row, spec.rowsPerBank);
        EXPECT_LT(loc.column,
                  spec.columnsPerRow * spec.bytesPerColumn /
                      spec.accessBytes());
    }
}

TEST(AddressDecode, SequentialAddressesSweepColumnsThenBanks)
{
    DramController ctrl(testSpec(), ControllerConfig{});
    const MemSpec spec = testSpec();
    const auto a = ctrl.decode(0);
    const auto b = ctrl.decode(spec.accessBytes());
    EXPECT_EQ(a.row, b.row);
    EXPECT_EQ(a.bank, b.bank);
    EXPECT_EQ(b.column, a.column + 1);
}

// --------------------------------------------------------------------
// Device timing
// --------------------------------------------------------------------

TEST(DramDevice, ActivateThenReadRespectsTrcd)
{
    const MemSpec spec = testSpec();
    DramDevice dev(spec);
    dev.issueActivate(0, 42, 100);
    EXPECT_TRUE(dev.rowOpen(0));
    EXPECT_EQ(dev.openRow(0), 42u);
    EXPECT_GE(dev.earliestRead(0), 100 + spec.timing.tRCD);
    EXPECT_GE(dev.earliestWrite(0), 100 + spec.timing.tRCD);
}

TEST(DramDevice, PrechargeRespectsTras)
{
    const MemSpec spec = testSpec();
    DramDevice dev(spec);
    dev.issueActivate(0, 1, 0);
    EXPECT_GE(dev.earliestPrecharge(0), spec.timing.tRAS);
}

TEST(DramDevice, ActivateAfterPrechargeRespectsTrp)
{
    const MemSpec spec = testSpec();
    DramDevice dev(spec);
    dev.issueActivate(0, 1, 0);
    const auto tPre = dev.earliestPrecharge(0);
    dev.issuePrecharge(0, tPre);
    EXPECT_FALSE(dev.rowOpen(0));
    EXPECT_GE(dev.earliestActivate(0), tPre + spec.timing.tRP);
}

TEST(DramDevice, ReadReturnsDataAfterClPlusBurst)
{
    const MemSpec spec = testSpec();
    DramDevice dev(spec);
    dev.issueActivate(0, 1, 0);
    const auto t = dev.earliestRead(0);
    const auto dataEnd = dev.issueRead(0, t);
    EXPECT_EQ(dataEnd, t + spec.timing.tCL + spec.timing.burstCycles);
}

TEST(DramDevice, FourActivateWindowEnforced)
{
    const MemSpec spec = testSpec();
    DramDevice dev(spec);
    std::uint64_t t = 0;
    for (std::uint32_t b = 0; b < 4; ++b) {
        t = std::max(t, dev.earliestActivate(b));
        dev.issueActivate(b, 0, t);
    }
    // The 5th activate must wait for the tFAW window from the 1st.
    EXPECT_GE(dev.earliestActivate(4), spec.timing.tFAW);
}

TEST(DramDevice, WriteToReadTurnaround)
{
    const MemSpec spec = testSpec();
    DramDevice dev(spec);
    dev.issueActivate(0, 1, 0);
    dev.issueActivate(1, 1, dev.earliestActivate(1));
    const auto tw = dev.earliestWrite(0);
    const auto wEnd = dev.issueWrite(0, tw);
    EXPECT_GE(dev.earliestRead(1), wEnd + spec.timing.tWTR);
}

TEST(DramDevice, RefreshBlocksAllBanks)
{
    const MemSpec spec = testSpec();
    DramDevice dev(spec);
    const auto done = dev.issueRefresh(0);
    EXPECT_EQ(done, spec.timing.tRFC);
    for (std::uint32_t b = 0; b < spec.totalBanks(); ++b)
        EXPECT_GE(dev.earliestActivate(b), done);
}

TEST(DramDevice, CommandCountsAccumulate)
{
    DramDevice dev(testSpec());
    dev.issueActivate(0, 1, 0);
    dev.issueRead(0, dev.earliestRead(0));
    dev.issueWrite(0, dev.earliestWrite(0));
    dev.issuePrecharge(0, dev.earliestPrecharge(0));
    const auto &c = dev.counts();
    EXPECT_EQ(c.activates, 1u);
    EXPECT_EQ(c.reads, 1u);
    EXPECT_EQ(c.writes, 1u);
    EXPECT_EQ(c.precharges, 1u);
}

TEST(DramDevice, OpenCyclesTracksRowState)
{
    DramDevice dev(testSpec());
    EXPECT_EQ(dev.openCycles(100), 0u);
    dev.issueActivate(0, 1, 100);
    EXPECT_EQ(dev.openCycles(150), 50u);
    dev.issuePrecharge(0, dev.earliestPrecharge(0));
    const auto atPre = dev.openCycles(1000000);
    EXPECT_EQ(atPre, dev.openCycles(2000000));  // closed: no growth
}

// --------------------------------------------------------------------
// Power model
// --------------------------------------------------------------------

TEST(PowerModel, EnergyMatchesHandComputation)
{
    const MemSpec spec = testSpec();
    CommandCounts counts;
    counts.activates = 10;
    counts.reads = 20;
    const auto p = computePower(spec, counts, 1000, 400);
    EXPECT_DOUBLE_EQ(p.actPj, 10 * spec.energy.actPj);
    EXPECT_DOUBLE_EQ(p.rdPj, 20 * spec.energy.rdPj);
    const double openNs = 400 * spec.clockNs;
    const double closedNs = 600 * spec.clockNs;
    EXPECT_DOUBLE_EQ(p.backgroundPj,
                     openNs * spec.energy.actStandbyMw +
                         closedNs * spec.energy.preStandbyMw);
}

TEST(PowerModel, PowerIsEnergyOverTime)
{
    const MemSpec spec = testSpec();
    CommandCounts counts;
    counts.reads = 100;
    const auto p = computePower(spec, counts, 10000, 0);
    const double totalNs = 10000 * spec.clockNs;
    EXPECT_NEAR(p.avgPowerW, p.totalPj() / totalNs / 1000.0, 1e-12);
}

// --------------------------------------------------------------------
// Controller end-to-end
// --------------------------------------------------------------------

SimResult
simulate(const ControllerConfig &cfg, TracePattern pattern,
         std::size_t n = 300)
{
    DramController ctrl(testSpec(), cfg);
    return ctrl.run(makeTrace(pattern, n));
}

TEST(Controller, AllRequestsComplete)
{
    const SimResult r = simulate(ControllerConfig{},
                                 TracePattern::Streaming);
    EXPECT_EQ(r.requests, 300u);
    EXPECT_EQ(r.reads + r.writes, 300u);
    EXPECT_GT(r.avgLatencyNs, 0.0);
    EXPECT_GT(r.totalTimeNs, 0.0);
}

TEST(Controller, LatencyAtLeastDeviceMinimum)
{
    const MemSpec spec = testSpec();
    // Minimum read latency: tRCD + tCL + burst.
    const double minNs = (spec.timing.tRCD + spec.timing.tCL +
                          spec.timing.burstCycles) *
                         spec.clockNs;
    const SimResult r = simulate(ControllerConfig{}, TracePattern::Random);
    EXPECT_GE(r.avgReadLatencyNs, minNs * 0.99);
}

TEST(Controller, StreamingRowHitRateHigh)
{
    ControllerConfig cfg;
    cfg.pagePolicy = PagePolicy::Open;
    cfg.scheduler = SchedulerPolicy::FrFcFs;
    const SimResult r = simulate(cfg, TracePattern::Streaming);
    EXPECT_GT(r.rowHitRate(), 0.8);
}

TEST(Controller, RandomRowHitRateLow)
{
    ControllerConfig cfg;
    cfg.pagePolicy = PagePolicy::Open;
    const SimResult r = simulate(cfg, TracePattern::Random);
    EXPECT_LT(r.rowHitRate(), 0.2);
}

TEST(Controller, ClosedPolicyKillsRowHitsOnRandom)
{
    ControllerConfig open;
    open.pagePolicy = PagePolicy::Open;
    ControllerConfig closed;
    closed.pagePolicy = PagePolicy::Closed;
    const SimResult ro = simulate(open, TracePattern::Streaming);
    const SimResult rc = simulate(closed, TracePattern::Streaming);
    EXPECT_GT(ro.rowHitRate(), rc.rowHitRate());
}

TEST(Controller, FrFcFsBeatsFifoOnMixedLocality)
{
    ControllerConfig fifo;
    fifo.scheduler = SchedulerPolicy::Fifo;
    ControllerConfig frfcfs;
    frfcfs.scheduler = SchedulerPolicy::FrFcFs;
    const SimResult rf = simulate(fifo, TracePattern::Cloud2, 600);
    const SimResult rr = simulate(frfcfs, TracePattern::Cloud2, 600);
    EXPECT_LE(rr.avgLatencyNs, rf.avgLatencyNs * 1.05);
    EXPECT_GE(rr.rowHitRate(), rf.rowHitRate());
}

TEST(Controller, MaxActiveTransactionsOneSerializes)
{
    ControllerConfig serial;
    serial.maxActiveTransactions = 1;
    ControllerConfig parallel;
    parallel.maxActiveTransactions = 64;
    const SimResult rs = simulate(serial, TracePattern::Streaming, 400);
    const SimResult rp = simulate(parallel, TracePattern::Streaming, 400);
    EXPECT_GT(rs.totalTimeNs, rp.totalTimeNs);
    EXPECT_GE(rs.avgLatencyNs, rp.avgLatencyNs);
}

TEST(Controller, SerializationLowersPower)
{
    // The Table 4 finding: MaxActiveTrans=1 appears in every low-power
    // design because stretching time lowers average power.
    ControllerConfig serial;
    serial.maxActiveTransactions = 1;
    ControllerConfig parallel;
    parallel.maxActiveTransactions = 64;
    const SimResult rs = simulate(serial, TracePattern::Streaming, 400);
    const SimResult rp = simulate(parallel, TracePattern::Streaming, 400);
    EXPECT_LT(rs.power.avgPowerW, rp.power.avgPowerW);
}

TEST(Controller, RefreshesHappenOnLongTraces)
{
    const SimResult r = simulate(ControllerConfig{}, TracePattern::Random,
                                 800);
    EXPECT_GT(r.refreshes, 0u);
}

TEST(Controller, PostponeLimitForcesRefreshes)
{
    // A continuously busy trace long enough to cross several tREFI
    // intervals: with the postpone limit at 1 the controller must squeeze
    // forced refreshes into live traffic.
    ControllerConfig tight;
    tight.refreshMaxPostponed = 1;
    const SimResult r = simulate(tight, TracePattern::Streaming, 8000);
    EXPECT_GT(r.refreshes, 0u);
    EXPECT_GT(r.forcedRefreshes, 0u);
}

TEST(Controller, PostponingDefersRefreshesVersusTightLimit)
{
    ControllerConfig tight;
    tight.refreshMaxPostponed = 1;
    ControllerConfig loose;
    loose.refreshMaxPostponed = 8;
    const SimResult rt = simulate(tight, TracePattern::Streaming, 8000);
    const SimResult rl = simulate(loose, TracePattern::Streaming, 8000);
    EXPECT_GE(rl.avgLatencyNs, 0.0);
    // The loose config is never forced more often than the tight one.
    EXPECT_LE(rl.forcedRefreshes, rt.forcedRefreshes);
}

TEST(Controller, ReorderArbiterRelievesHeadOfLineBlocking)
{
    // Tiny per-bank queues and a trace that hammers one bank while other
    // banks sit idle: an in-order arbiter stalls younger requests behind
    // the full queue, a reordering arbiter admits them around it.
    std::vector<MemoryRequest> trace;
    const MemSpec spec = testSpec();
    DramController probe(spec, ControllerConfig{});
    // 40 requests to one row-sweeping bank-0 stream...
    for (int i = 0; i < 40; ++i) {
        MemoryRequest r;
        r.id = trace.size();
        // Same bank, different rows -> every access is a row conflict.
        r.address = static_cast<std::uint64_t>(i) << 20;
        r.arrivalCycle = 0;
        trace.push_back(r);
    }
    // ...followed by independent requests spread over other banks.
    for (int i = 0; i < 24; ++i) {
        MemoryRequest r;
        r.id = trace.size();
        r.address = 0x2000u + static_cast<std::uint64_t>(i % 7 + 1) *
                                  spec.accessBytes() * 16;
        r.arrivalCycle = 1;
        trace.push_back(r);
    }

    ControllerConfig inOrder;
    inOrder.schedulerBuffer = BufferOrg::Bankwise;
    inOrder.requestBufferSize = 1;
    inOrder.arbiter = ArbiterPolicy::Fifo;
    ControllerConfig reorder = inOrder;
    reorder.arbiter = ArbiterPolicy::Reorder;

    DramController c1(spec, inOrder);
    DramController c2(spec, reorder);
    const SimResult r1 = c1.run(trace);
    const SimResult r2 = c2.run(trace);
    EXPECT_LT(r2.avgLatencyNs, r1.avgLatencyNs);
}

TEST(Controller, SimpleArbiterNeverBeatsFifoOnBackToBackTraffic)
{
    ControllerConfig simple;
    simple.arbiter = ArbiterPolicy::Simple;
    ControllerConfig fifo;
    fifo.arbiter = ArbiterPolicy::Fifo;
    const SimResult rs = simulate(simple, TracePattern::Streaming, 400);
    const SimResult rf = simulate(fifo, TracePattern::Streaming, 400);
    // One admission per scheduling round can only slow things down.
    EXPECT_GE(rs.avgLatencyNs, rf.avgLatencyNs * 0.999);
}

TEST(Controller, RespQueueFifoNeverFasterThanReorder)
{
    ControllerConfig fifoResp;
    fifoResp.respQueue = RespQueuePolicy::Fifo;
    fifoResp.scheduler = SchedulerPolicy::FrFcFs;
    ControllerConfig reorder = fifoResp;
    reorder.respQueue = RespQueuePolicy::Reorder;
    const SimResult rf = simulate(fifoResp, TracePattern::Cloud2, 500);
    const SimResult rr = simulate(reorder, TracePattern::Cloud2, 500);
    EXPECT_GE(rf.avgReadLatencyNs, rr.avgReadLatencyNs * 0.999);
}

TEST(Controller, EnergyBreakdownSumsToTotal)
{
    const SimResult r = simulate(ControllerConfig{}, TracePattern::Cloud1);
    const auto &p = r.power;
    EXPECT_NEAR(p.totalPj(),
                p.actPj + p.prePj + p.rdPj + p.wrPj + p.refPj +
                    p.backgroundPj + p.controllerPj,
                1e-6);
    EXPECT_GT(p.totalPj(), 0.0);
    EXPECT_GT(p.controllerPj, 0.0);
}

TEST(ControllerPower, EveryParameterIsPowerRelevant)
{
    // The low-power study (§6.3) requires each of the nine DSE knobs to
    // move the power number; verify each one changes the controller
    // overhead in the expected direction.
    ControllerConfig base;
    const double p0 = controllerPowerMw(base);

    ControllerConfig c = base;
    c.requestBufferSize = base.requestBufferSize + 4;
    EXPECT_GT(controllerPowerMw(c), p0);

    c = base;
    c.scheduler = SchedulerPolicy::Fifo;
    ControllerConfig cam = base;
    cam.scheduler = SchedulerPolicy::FrFcFsGrp;
    EXPECT_LT(controllerPowerMw(c), controllerPowerMw(cam));

    c = base;
    c.arbiter = ArbiterPolicy::Simple;
    ControllerConfig reorder = base;
    reorder.arbiter = ArbiterPolicy::Reorder;
    EXPECT_LT(controllerPowerMw(c), controllerPowerMw(reorder));

    c = base;
    c.respQueue = RespQueuePolicy::Fifo;
    reorder = base;
    reorder.respQueue = RespQueuePolicy::Reorder;
    EXPECT_LT(controllerPowerMw(c), controllerPowerMw(reorder));

    c = base;
    c.maxActiveTransactions = 128;
    ControllerConfig shallow = base;
    shallow.maxActiveTransactions = 1;
    EXPECT_GT(controllerPowerMw(c), controllerPowerMw(shallow));

    c = base;
    c.refreshMaxPostponed = 8;
    c.refreshMaxPulledin = 8;
    shallow = base;
    shallow.refreshMaxPostponed = 1;
    shallow.refreshMaxPulledin = 1;
    EXPECT_GT(controllerPowerMw(c), controllerPowerMw(shallow));
}

TEST(Controller, PowerTimesTimeEqualsEnergy)
{
    const SimResult r = simulate(ControllerConfig{}, TracePattern::Cloud1);
    EXPECT_NEAR(r.power.avgPowerW * r.totalTimeNs * 1000.0,
                r.power.totalPj(), r.power.totalPj() * 1e-9);
}

// --------------------------------------------------------------------
// Parameterized sweep over the controller design space
// --------------------------------------------------------------------

struct CtrlCase
{
    PagePolicy page;
    SchedulerPolicy sched;
    BufferOrg buffer;
    ArbiterPolicy arbiter;
    RespQueuePolicy resp;
};

void
PrintTo(const CtrlCase &c, std::ostream *os)
{
    *os << toString(c.page) << "/" << toString(c.sched) << "/"
        << toString(c.buffer) << "/" << toString(c.arbiter) << "/"
        << toString(c.resp);
}

class ControllerSweep : public ::testing::TestWithParam<CtrlCase>
{
};

TEST_P(ControllerSweep, InvariantsHoldOnEveryConfig)
{
    const auto &c = GetParam();
    ControllerConfig cfg;
    cfg.pagePolicy = c.page;
    cfg.scheduler = c.sched;
    cfg.schedulerBuffer = c.buffer;
    cfg.arbiter = c.arbiter;
    cfg.respQueue = c.resp;
    cfg.requestBufferSize = 4;
    cfg.maxActiveTransactions = 8;

    for (auto pattern : {TracePattern::Streaming, TracePattern::Random}) {
        DramController ctrl(testSpec(), cfg);
        const auto trace = makeTrace(pattern, 250);
        const SimResult r = ctrl.run(trace);

        // Everything completes, once.
        EXPECT_EQ(r.requests, 250u);
        EXPECT_EQ(r.rowHits + r.rowMisses, 250u);
        // Latency is positive and bounded by the whole simulation.
        EXPECT_GT(r.avgLatencyNs, 0.0);
        EXPECT_LE(r.avgLatencyNs, r.totalTimeNs);
        EXPECT_GE(r.maxLatencyNs, r.avgLatencyNs);
        // Power is physical.
        EXPECT_GT(r.power.avgPowerW, 0.0);
        EXPECT_LT(r.power.avgPowerW, 50.0);
        // Bandwidth can never exceed the peak bus rate.
        const MemSpec spec = testSpec();
        const double peak =
            static_cast<double>(spec.accessBytes()) /
            (spec.timing.burstCycles * spec.clockNs);
        EXPECT_LE(r.bandwidthGBps, peak * 1.001);
    }
}

std::vector<CtrlCase>
allCtrlCases()
{
    std::vector<CtrlCase> cases;
    for (auto page : {PagePolicy::Open, PagePolicy::OpenAdaptive,
                      PagePolicy::Closed, PagePolicy::ClosedAdaptive}) {
        for (auto sched : {SchedulerPolicy::Fifo, SchedulerPolicy::FrFcFs,
                           SchedulerPolicy::FrFcFsGrp}) {
            for (auto buf : {BufferOrg::Bankwise, BufferOrg::ReadWrite,
                             BufferOrg::Shared}) {
                cases.push_back(CtrlCase{page, sched, buf,
                                         ArbiterPolicy::Fifo,
                                         RespQueuePolicy::Reorder});
            }
        }
    }
    // Arbiter / response-queue variants on one base config.
    for (auto arb : {ArbiterPolicy::Simple, ArbiterPolicy::Reorder}) {
        cases.push_back(CtrlCase{PagePolicy::Open, SchedulerPolicy::FrFcFs,
                                 BufferOrg::Bankwise, arb,
                                 RespQueuePolicy::Fifo});
    }
    return cases;
}

INSTANTIATE_TEST_SUITE_P(DesignSpace, ControllerSweep,
                         ::testing::ValuesIn(allCtrlCases()));

// --------------------------------------------------------------------
// Golden equivalence: optimized controller vs the seed reference
// --------------------------------------------------------------------
//
// The optimized DramController replaces the reference's O(Q) per-round
// queue scans with incrementally maintained indexed state. The contract
// is bit-identical SimResults, so every field — including the
// floating-point aggregates — is compared with exact equality across
// the full SchedulerPolicy x PagePolicy x BufferOrg x Arbiter x
// RespQueuePolicy cross-product on all four trace patterns.

void
expectIdenticalResults(const SimResult &opt, const SimResult &ref,
                       const std::string &label)
{
    EXPECT_EQ(opt.requests, ref.requests) << label;
    EXPECT_EQ(opt.reads, ref.reads) << label;
    EXPECT_EQ(opt.writes, ref.writes) << label;
    EXPECT_EQ(opt.avgLatencyNs, ref.avgLatencyNs) << label;
    EXPECT_EQ(opt.avgReadLatencyNs, ref.avgReadLatencyNs) << label;
    EXPECT_EQ(opt.maxLatencyNs, ref.maxLatencyNs) << label;
    EXPECT_EQ(opt.totalCycles, ref.totalCycles) << label;
    EXPECT_EQ(opt.totalTimeNs, ref.totalTimeNs) << label;
    EXPECT_EQ(opt.bandwidthGBps, ref.bandwidthGBps) << label;
    EXPECT_EQ(opt.rowHits, ref.rowHits) << label;
    EXPECT_EQ(opt.rowMisses, ref.rowMisses) << label;
    EXPECT_EQ(opt.refreshes, ref.refreshes) << label;
    EXPECT_EQ(opt.forcedRefreshes, ref.forcedRefreshes) << label;
    EXPECT_EQ(opt.power.actPj, ref.power.actPj) << label;
    EXPECT_EQ(opt.power.prePj, ref.power.prePj) << label;
    EXPECT_EQ(opt.power.rdPj, ref.power.rdPj) << label;
    EXPECT_EQ(opt.power.wrPj, ref.power.wrPj) << label;
    EXPECT_EQ(opt.power.refPj, ref.power.refPj) << label;
    EXPECT_EQ(opt.power.backgroundPj, ref.power.backgroundPj) << label;
    EXPECT_EQ(opt.power.controllerPj, ref.power.controllerPj) << label;
    EXPECT_EQ(opt.power.avgPowerW, ref.power.avgPowerW) << label;
}

TEST(GoldenEquivalence, FullConfigCrossProductOnAllPatterns)
{
    const MemSpec spec = testSpec();
    const TracePattern patterns[] = {
        TracePattern::Streaming, TracePattern::Random,
        TracePattern::Cloud1, TracePattern::Cloud2};

    for (auto pattern : patterns) {
        const auto trace = makeTrace(pattern, 300);
        const DecodedTrace decoded(spec, trace);

        for (auto page : {PagePolicy::Open, PagePolicy::OpenAdaptive,
                          PagePolicy::Closed,
                          PagePolicy::ClosedAdaptive}) {
            for (auto sched :
                 {SchedulerPolicy::Fifo, SchedulerPolicy::FrFcFs,
                  SchedulerPolicy::FrFcFsGrp}) {
                for (auto buf : {BufferOrg::Bankwise, BufferOrg::ReadWrite,
                                 BufferOrg::Shared}) {
                    for (auto arb :
                         {ArbiterPolicy::Simple, ArbiterPolicy::Fifo,
                          ArbiterPolicy::Reorder}) {
                        for (auto resp : {RespQueuePolicy::Fifo,
                                          RespQueuePolicy::Reorder}) {
                            ControllerConfig cfg;
                            cfg.pagePolicy = page;
                            cfg.scheduler = sched;
                            cfg.schedulerBuffer = buf;
                            cfg.arbiter = arb;
                            cfg.respQueue = resp;
                            cfg.requestBufferSize = 2;
                            cfg.maxActiveTransactions = 8;

                            DramController opt(spec, cfg);
                            ReferenceDramController ref(spec, cfg);
                            std::ostringstream label;
                            label << toString(pattern) << "/"
                                  << toString(page) << "/"
                                  << toString(sched) << "/"
                                  << toString(buf) << "/"
                                  << toString(arb) << "/"
                                  << toString(resp);
                            expectIdenticalResults(opt.run(decoded),
                                                   ref.run(trace),
                                                   label.str());
                        }
                    }
                }
            }
        }
    }
}

TEST(GoldenEquivalence, ControllerReuseMatchesFreshConstruction)
{
    // The zero-copy path reuses one controller across steps via
    // setConfig(); the results must match fresh-controller runs for
    // every design point visited, in any order.
    const MemSpec spec = testSpec();
    const auto trace = makeTrace(TracePattern::Cloud2, 400);
    const DecodedTrace decoded(spec, trace);

    DramController reused(spec, ControllerConfig{});
    Rng rng(11);
    for (int i = 0; i < 24; ++i) {
        ControllerConfig cfg;
        cfg.pagePolicy = static_cast<PagePolicy>(rng.below(4));
        cfg.scheduler = static_cast<SchedulerPolicy>(rng.below(3));
        cfg.schedulerBuffer = static_cast<BufferOrg>(rng.below(3));
        cfg.arbiter = static_cast<ArbiterPolicy>(rng.below(3));
        cfg.respQueue = static_cast<RespQueuePolicy>(rng.below(2));
        cfg.requestBufferSize = 1 + static_cast<std::uint32_t>(rng.below(8));
        cfg.maxActiveTransactions =
            1u << static_cast<std::uint32_t>(rng.below(8));

        reused.setConfig(cfg);
        const SimResult a = reused.run(decoded);
        DramController fresh(spec, cfg);
        const SimResult b = fresh.run(decoded);
        expectIdenticalResults(a, b, "reuse step " + std::to_string(i));
    }
}

TEST(GoldenEquivalence, LongRefreshHeavyTraceMatches)
{
    // Long enough to cross several tREFI intervals, with a tight
    // postpone limit forcing refreshes into live traffic.
    const MemSpec spec = testSpec();
    const auto trace = makeTrace(TracePattern::Streaming, 6000);
    const DecodedTrace decoded(spec, trace);
    for (auto sched : {SchedulerPolicy::FrFcFs,
                       SchedulerPolicy::FrFcFsGrp}) {
        ControllerConfig cfg;
        cfg.scheduler = sched;
        cfg.refreshMaxPostponed = 1;
        cfg.refreshMaxPulledin = 1;
        DramController opt(spec, cfg);
        ReferenceDramController ref(spec, cfg);
        expectIdenticalResults(opt.run(decoded), ref.run(trace),
                               std::string("long/") + toString(sched));
    }
}

TEST(GoldenEquivalence, BackToBackTracesAtSmallCapsMatch)
{
    // Back-to-back arrivals against a small maxActiveTransactions cap:
    // a due arrival often waits on the cap with nothing queued, which is
    // where the run loop's next-event rule decides how far to jump. The
    // reference steps those cycles one at a time.
    const MemSpec spec = testSpec();
    EmbSourceConfig embConfig;
    embConfig.seed = 5;
    const auto emb = materialize(*makeEmbSource(embConfig), 300);
    SdSourceConfig sdConfig;
    sdConfig.seed = 6;
    const auto sd =
        materialize(*makeSdSource(profileTrace(emb), sdConfig), 300);
    const std::pair<const char *, std::vector<MemoryRequest>> traces[] = {
        {"streaming", makeTrace(TracePattern::Streaming, 300)},
        {"cloud2", makeTrace(TracePattern::Cloud2, 300)},
        {"emb", emb},
        {"sd", sd},
    };

    for (const auto &[name, trace] : traces) {
        const DecodedTrace decoded(spec, trace);
        for (std::uint32_t cap : {1u, 2u, 4u}) {
            for (std::uint32_t buffer : {1u, 2u}) {
                for (auto org : {BufferOrg::Bankwise, BufferOrg::ReadWrite,
                                 BufferOrg::Shared}) {
                    for (auto arb :
                         {ArbiterPolicy::Simple, ArbiterPolicy::Fifo,
                          ArbiterPolicy::Reorder}) {
                        for (auto resp : {RespQueuePolicy::Fifo,
                                          RespQueuePolicy::Reorder}) {
                            ControllerConfig cfg;
                            cfg.schedulerBuffer = org;
                            cfg.arbiter = arb;
                            cfg.respQueue = resp;
                            cfg.requestBufferSize = buffer;
                            cfg.maxActiveTransactions = cap;

                            DramController opt(spec, cfg);
                            ReferenceDramController ref(spec, cfg);
                            std::ostringstream label;
                            label << name << "/cap" << cap << "/buf"
                                  << buffer << "/" << toString(org) << "/"
                                  << toString(arb) << "/"
                                  << toString(resp);
                            expectIdenticalResults(opt.run(decoded),
                                                   ref.run(trace),
                                                   label.str());
                        }
                    }
                }
            }
        }
    }
}

// --------------------------------------------------------------------
// Run-loop cost and config validation
// --------------------------------------------------------------------

std::atomic<std::uint64_t> clockReads{0};

std::uint64_t
countingClock()
{
    clockReads.fetch_add(1, std::memory_order_relaxed);
    return 1;
}

TEST(ControllerLoop, CapBlockedArrivalCostsNoIterationPerCycle)
{
    // resilience::checkpoint() reads the lease clock once per 4,096 loop
    // iterations while a deadline is armed, so counting clock reads
    // bounds the iteration count. At cap 1 a due arrival waits for the
    // one transaction in flight; the loop must jump to its retire
    // instead of visiting every cycle in between.
    testing::FaultHookGuard guard;
    faultHooks().clockNowNs = &countingClock;
    const MemSpec spec = testSpec();
    ControllerConfig cfg;
    cfg.maxActiveTransactions = 1;
    for (auto pattern : {TracePattern::Streaming, TracePattern::Cloud2}) {
        const auto trace = makeTrace(pattern, 20000);
        const DecodedTrace decoded(spec, trace);
        DramController opt(spec, cfg);
        resilience::CancelScope scope("", 60000);
        clockReads = 0;
        const SimResult r = opt.run(decoded);
        const std::uint64_t reads = clockReads;
        EXPECT_LE(reads * 4096, 3 * trace.size())
            << toString(pattern) << ": " << reads
            << " clock reads, over 3 loop iterations per request";
        ReferenceDramController ref(spec, cfg);
        expectIdenticalResults(r, ref.run(trace), toString(pattern));
    }
}

TEST(Controller, RejectsConfigsThatCanNeverAdmitARequest)
{
    // With no transaction slot or no buffer entry no request is ever
    // admitted, and run() would never return. The deadline turns such a
    // hang into a RunTimeout instead of a stuck test.
    const MemSpec spec = testSpec();
    const auto trace = makeTrace(TracePattern::Streaming, 64);
    resilience::CancelScope scope("", 3000);

    ControllerConfig noSlot;
    noSlot.maxActiveTransactions = 0;
    ControllerConfig noEntry;
    noEntry.requestBufferSize = 0;
    for (const auto &[cfg, field] :
         {std::pair{noSlot, "maxActiveTransactions"},
          std::pair{noEntry, "requestBufferSize"}}) {
        try {
            DramController ctrl(spec, cfg);
            ctrl.run(trace);
            ADD_FAILURE() << field << " = 0 was accepted";
        } catch (const std::invalid_argument &e) {
            EXPECT_NE(std::string(e.what()).find(field), std::string::npos)
                << e.what();
        } catch (const RunTimeout &) {
            ADD_FAILURE() << field << " = 0 hung run()";
        }

        DramController reused(spec, ControllerConfig{});
        EXPECT_THROW(reused.setConfig(cfg), std::invalid_argument) << field;
        EXPECT_EQ(reused.config().str(), ControllerConfig{}.str());
        EXPECT_EQ(reused.run(trace).requests, trace.size());
    }
}

TEST(DecodedTrace, MatchesControllerDecodeAndGroupsAreConsistent)
{
    const MemSpec spec = testSpec();
    const auto trace = makeTrace(TracePattern::Cloud1, 500);
    const DecodedTrace decoded(spec, trace);
    ASSERT_EQ(decoded.size(), trace.size());

    DramController ctrl(spec, ControllerConfig{});
    for (std::size_t i = 0; i < trace.size(); ++i) {
        const DramAddress loc = ctrl.decode(trace[i].address);
        EXPECT_EQ(decoded[i].flatBank, loc.flatBank(spec.banksPerRank));
        EXPECT_EQ(decoded[i].row, loc.row);
        EXPECT_EQ(decoded[i].isWrite, trace[i].isWrite);
        EXPECT_EQ(decoded[i].id, trace[i].id);
        EXPECT_EQ(decoded[i].arrivalCycle, trace[i].arrivalCycle);
        EXPECT_LT(decoded[i].rowGroup, decoded.numRowGroups());
        // Same (bank,row,kind) <=> same group; buddy links are mutual.
        for (std::size_t j = i + 1; j < trace.size(); j += 97) {
            const bool sameTriple =
                decoded[i].flatBank == decoded[j].flatBank &&
                decoded[i].row == decoded[j].row &&
                decoded[i].isWrite == decoded[j].isWrite;
            EXPECT_EQ(sameTriple,
                      decoded[i].rowGroup == decoded[j].rowGroup);
        }
        if (decoded[i].buddyGroup != kNoGroup)
            EXPECT_LT(decoded[i].buddyGroup, decoded.numRowGroups());
    }
}

} // namespace
} // namespace archgym::dram
