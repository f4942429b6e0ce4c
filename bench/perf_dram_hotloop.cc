/**
 * @file
 * Perf tracking for the DRAM simulation hot loop: requests/sec and
 * env-steps/sec for each scheduler configuration, for the optimized
 * incremental-state controller and for the seed reference
 * implementation (full trace copy + O(Q) queue scans per round, exactly
 * what DramGymEnv::step() used to do per sample).
 *
 * Emits a machine-readable line prefixed "BENCH_dram.json " on stdout
 * and writes the same JSON to BENCH_dram.json in the working directory,
 * so the perf trajectory can be tracked across PRs.
 */

#include <chrono>
#include <cstdio>
#include <fstream>
#include <sstream>
#include <string>
#include <vector>

#include "dramsys/controller.h"
#include "dramsys/decoded_trace.h"
#include "dramsys/reference_controller.h"
#include "dramsys/trace_gen.h"

using namespace archgym::dram;

namespace {

constexpr std::size_t kTraceLength = 20000;
constexpr double kMinSeconds = 0.6;
constexpr std::size_t kMaxReps = 400;

struct ConfigPoint
{
    std::string name;
    ControllerConfig cfg;
};

double
seconds(std::chrono::steady_clock::time_point a,
        std::chrono::steady_clock::time_point b)
{
    return std::chrono::duration<double>(b - a).count();
}

/** Run fn repeatedly until the time budget is hit; returns runs/sec. */
template <typename Fn>
double
stepsPerSecond(Fn &&fn)
{
    fn();  // warmup (first-run allocations excluded, as in steady state)
    std::size_t reps = 0;
    const auto start = std::chrono::steady_clock::now();
    auto now = start;
    while (seconds(start, now) < kMinSeconds && reps < kMaxReps) {
        fn();
        ++reps;
        now = std::chrono::steady_clock::now();
    }
    return static_cast<double>(reps) / seconds(start, now);
}

} // namespace

int
main()
{
    const MemSpec spec{};
    TraceConfig tc;
    tc.pattern = TracePattern::Streaming;
    tc.numRequests = kTraceLength;
    tc.seed = 3;
    const std::vector<MemoryRequest> trace = generateTrace(tc);
    const DecodedTrace decoded(spec, trace);

    std::vector<ConfigPoint> points;
    {
        ConfigPoint p;
        p.name = "fifo-bankwise";
        p.cfg.scheduler = SchedulerPolicy::Fifo;
        p.cfg.schedulerBuffer = BufferOrg::Bankwise;
        points.push_back(p);
    }
    {
        ConfigPoint p;
        p.name = "frfcfs-bankwise";
        p.cfg.scheduler = SchedulerPolicy::FrFcFs;
        p.cfg.schedulerBuffer = BufferOrg::Bankwise;
        points.push_back(p);
    }
    {
        // The acceptance config: one deep shared queue, FR-FCFS, a
        // large outstanding-transaction budget — the scan-heavy worst
        // case for the reference implementation.
        ConfigPoint p;
        p.name = "frfcfs-shared";
        p.cfg.scheduler = SchedulerPolicy::FrFcFs;
        p.cfg.schedulerBuffer = BufferOrg::Shared;
        p.cfg.maxActiveTransactions = 128;
        points.push_back(p);
    }
    {
        ConfigPoint p;
        p.name = "frfcfsgrp-shared";
        p.cfg.scheduler = SchedulerPolicy::FrFcFsGrp;
        p.cfg.schedulerBuffer = BufferOrg::Shared;
        p.cfg.maxActiveTransactions = 128;
        points.push_back(p);
    }
    {
        // One transaction in flight: most cycles a due arrival waits on
        // the cap with nothing queued, the regime where the loop jumps
        // to the next retire and the reference steps every cycle.
        ConfigPoint p;
        p.name = "frfcfs-bankwise-cap1";
        p.cfg.scheduler = SchedulerPolicy::FrFcFs;
        p.cfg.schedulerBuffer = BufferOrg::Bankwise;
        p.cfg.maxActiveTransactions = 1;
        points.push_back(p);
    }

    std::printf("DRAM hot-loop throughput (trace=%zu streaming "
                "requests)\n",
                kTraceLength);
    std::printf("%-18s %14s %14s %14s %9s\n", "config", "opt steps/s",
                "ref steps/s", "opt reqs/s", "speedup");

    std::ostringstream json;
    json << "{\"bench\":\"dram_hotloop\",\"traceLength\":"
         << kTraceLength << ",\"pattern\":\"streaming\",\"configs\":[";

    bool first = true;
    for (const ConfigPoint &p : points) {
        // Optimized path: persistent controller, shared decoded trace —
        // what DramGymEnv::step() does per sample.
        DramController opt(spec, p.cfg);
        std::uint64_t guardOpt = 0;
        const double optSteps = stepsPerSecond([&] {
            guardOpt += opt.run(decoded).totalCycles;
        });

        // Reference path: per-step controller construction plus a full
        // trace copy and re-decode — the seed's per-sample cost.
        std::uint64_t guardRef = 0;
        const double refSteps = stepsPerSecond([&] {
            ReferenceDramController ref(spec, p.cfg);
            guardRef += ref.run(trace).totalCycles;
        });

        const double optReqs =
            optSteps * static_cast<double>(kTraceLength);
        const double speedup = optSteps / refSteps;
        std::printf("%-18s %14.2f %14.2f %14.3g %8.2fx\n",
                    p.name.c_str(), optSteps, refSteps, optReqs,
                    speedup);

        if (!first)
            json << ",";
        first = false;
        json << "{\"config\":\"" << p.name << "\",\"envStepsPerSec\":"
             << optSteps << ",\"refStepsPerSec\":" << refSteps
             << ",\"requestsPerSec\":" << optReqs
             << ",\"speedup\":" << speedup << "}";
        if (guardOpt == 0 || guardRef == 0)
            std::fprintf(stderr, "warning: zero-cycle run\n");
    }
    json << "]}";

    std::printf("BENCH_dram.json %s\n", json.str().c_str());
    std::ofstream out("BENCH_dram.json");
    out << json.str() << "\n";
    return 0;
}
