/**
 * @file
 * Perf tracking for the Bayesian-optimization hot loop: the steady
 * state where history sits at the sliding-window limit and every new
 * observation evicts an old one.
 *
 * Three sections, each optimized-vs-seed:
 *
 *  - steady state: samples/sec of a windowed BO search (window 150 /
 *    300 / 600, 256 candidates) once history is pinned at max_history.
 *    The optimized path absorbs each sample with a rank-1 Cholesky
 *    bordering update plus rank-1 downdates for the eviction plan and
 *    scores candidates through one blocked multi-RHS solve; the seed
 *    path (`reference_impl`) refactorizes the kernel matrix in O(n^3)
 *    on every trim and runs per-candidate scalar predicts. Both agents
 *    are pre-filled through observe() only (no GP work), so the timed
 *    region isolates exactly the per-sample surrogate cost.
 *
 *  - predict / predictMatern52: queries/sec of
 *    GaussianProcess::predictBatch vs a loop of scalar predict() calls
 *    on a fitted 600-point GP, 256 queries per sweep — the
 *    candidate-scoring kernel in isolation, once per GP kernel (the
 *    BO lottery draws both).
 *
 *  - kernel build: builds/sec of the GEMM-decomposed cross-distance
 *    matrix (crossSquaredDistances) vs the naive per-pair loop at the
 *    predictBatch shapes (600 x 256, dim 4).
 *
 *  - backward solve: columns/sec of the blocked multi-RHS L^T X = B
 *    (Cholesky::solveUpperBatch) vs per-column scalar back-
 *    substitution — the second triangular solve behind posteriorJoint.
 *
 *  - cohort proposal: env-steps/sec of the batch acquisition modes
 *    (ThompsonBatch / BatchEI) dispatching whole cohorts through
 *    batchEval at 1/2/8 workers, with the worker counts asserted
 *    bit-identical (the bench exits nonzero on drift).
 *
 *  - search dispatch: env-steps/sec of runSearch per-step vs batchEval
 *    for BO and RL on FARSIGym (microsecond steps, where the batched
 *    ask-tell path and chunked stepBatch dispatch matter).
 *
 * Emits a machine-readable line prefixed "BENCH_bo.json " on stdout and
 * writes the same JSON to BENCH_bo.json in the working directory,
 * alongside the other BENCH_*.json trackers.
 */

#include <chrono>
#include <cstdio>
#include <fstream>
#include <memory>
#include <sstream>
#include <string>
#include <vector>

#include "agents/bayesian_opt.h"
#include "agents/registry.h"
#include "core/driver.h"
#include "core/toy_envs.h"
#include "envs/farsi_gym_env.h"

using namespace archgym;

namespace {

constexpr double kMinSeconds = 0.4;
constexpr std::size_t kMaxSteps = 200000;

double
seconds(std::chrono::steady_clock::time_point a,
        std::chrono::steady_clock::time_point b)
{
    return std::chrono::duration<double>(b - a).count();
}

/** Run fn until the time budget is hit; returns calls/sec. */
template <typename Fn>
double
callsPerSecond(Fn &&fn, std::size_t batch = 1)
{
    fn();  // warmup (first-call setup excluded, as in steady state)
    std::size_t steps = 0;
    const auto start = std::chrono::steady_clock::now();
    auto now = start;
    while (seconds(start, now) < kMinSeconds && steps < kMaxSteps) {
        for (std::size_t b = 0; b < batch; ++b)
            fn();
        steps += batch;
        now = std::chrono::steady_clock::now();
    }
    return static_cast<double>(steps) / seconds(start, now);
}

/**
 * Samples/sec of one BO ask-tell cycle with history pinned at `window`.
 * Pre-fill goes through observe() only — no GP work on either path —
 * so the timed loop measures exactly the steady-state surrogate cost
 * (the callsPerSecond warmup call absorbs the initial full fit, which
 * both paths share).
 */
double
steadyStateSamplesPerSec(std::size_t window, bool reference,
                         double &guard)
{
    QuadraticEnv env({7.0, 13.0, 21.0, 4.0});
    HyperParams hp;
    hp.set("max_history", static_cast<std::int64_t>(window))
        .set("num_candidates", 256)
        .set("reference_impl", reference ? 1 : 0);
    BayesianOptAgent agent(env.actionSpace(), hp, 97);

    // Fill the window past the first trim so every timed observe
    // evicts: observe() alone never fits, so this is cheap even for
    // the reference path at window 600.
    Rng fill(11);
    for (std::size_t i = 0; i < window + 8; ++i) {
        const Action a = env.actionSpace().sample(fill);
        const StepResult sr = env.step(a);
        agent.observe(a, sr.observation, sr.reward);
    }

    return callsPerSecond([&] {
        const Action a = agent.selectAction();
        const StepResult sr = env.step(a);
        agent.observe(a, sr.observation, sr.reward);
        guard += sr.reward;
    });
}

/** Env-steps/sec of a full BO/RL search through runSearch. */
double
searchStepsPerSec(Environment &env, const std::string &agent_name,
                  const HyperParams &hp, bool batched,
                  std::size_t max_samples, double &guard)
{
    RunConfig cfg;
    cfg.maxSamples = max_samples;
    cfg.recordRewardHistory = false;
    cfg.batchEval = batched;
    std::size_t steps = 0;
    {
        auto agent = makeAgent(agent_name, env.actionSpace(), hp, 31);
        guard += runSearch(env, *agent, cfg).bestReward;  // warmup
    }
    const auto start = std::chrono::steady_clock::now();
    auto now = start;
    while (seconds(start, now) < kMinSeconds && steps < kMaxSteps) {
        auto agent = makeAgent(agent_name, env.actionSpace(), hp, 31);
        const RunResult r = runSearch(env, *agent, cfg);
        guard += r.bestReward;
        steps += r.samplesUsed;
        now = std::chrono::steady_clock::now();
    }
    return static_cast<double>(steps) / seconds(start, now);
}

struct PredictResult
{
    double batchQps = 0.0;
    double scalarQps = 0.0;
    double speedup() const { return batchQps / scalarQps; }
};

/** Queries/sec of predictBatch vs per-query predict() on a GP with the
 *  given kernel fitted to `points` random 4-d points, `queries` queries
 *  per sweep. */
PredictResult
predictQueriesPerSec(GpKernel kernel, std::size_t points,
                     std::size_t queries, double &guard)
{
    GaussianProcess gp(0.2, 1.0, 1e-4, kernel);
    {
        Rng rng(5);
        std::vector<std::vector<double>> xs;
        std::vector<double> ys;
        for (std::size_t i = 0; i < points; ++i) {
            xs.push_back({rng.uniform(), rng.uniform(), rng.uniform(),
                          rng.uniform()});
            ys.push_back(rng.uniform(-2.0, 2.0));
        }
        gp.fit(xs, ys);
    }
    std::vector<std::vector<double>> qs;
    {
        Rng rng(6);
        for (std::size_t q = 0; q < queries; ++q) {
            qs.push_back({rng.uniform(), rng.uniform(), rng.uniform(),
                          rng.uniform()});
        }
    }
    std::vector<double> means, vars;
    const double batchSweepsPerSec = callsPerSecond([&] {
        gp.predictBatch(qs, means, vars);
        guard += means[0] + vars[0];
    });
    const double scalarSweepsPerSec = callsPerSecond([&] {
        for (const auto &q : qs) {
            double mean, var;
            gp.predict(q, mean, var);
            guard += mean + var;
        }
    });
    PredictResult r;
    r.batchQps = batchSweepsPerSec * static_cast<double>(queries);
    r.scalarQps = scalarSweepsPerSec * static_cast<double>(queries);
    return r;
}

struct WindowResult
{
    std::size_t window;
    double samplesPerSec = 0.0;
    double refitSamplesPerSec = 0.0;
    double speedup() const { return samplesPerSec / refitSamplesPerSec; }
};

struct SearchResult
{
    std::string agent;
    double batchedStepsPerSec = 0.0;
    double perStepStepsPerSec = 0.0;
    double speedup() const
    {
        return batchedStepsPerSec / perStepStepsPerSec;
    }
};

} // namespace

int
main()
{
    double guard = 0.0;  // keep the optimizer honest

    // --- Steady-state windowed search ---------------------------------
    std::printf("BO steady-state throughput (history at max_history, "
                "256 candidates, samples/sec)\n");
    std::printf("%-8s %14s %14s %9s\n", "window", "samples/s",
                "refit/s", "speedup");
    std::vector<WindowResult> windows;
    for (const std::size_t window : {150u, 300u, 600u}) {
        WindowResult r;
        r.window = window;
        r.samplesPerSec =
            steadyStateSamplesPerSec(window, /*reference=*/false, guard);
        r.refitSamplesPerSec =
            steadyStateSamplesPerSec(window, /*reference=*/true, guard);
        std::printf("%-8zu %14.1f %14.1f %8.2fx\n", window,
                    r.samplesPerSec, r.refitSamplesPerSec, r.speedup());
        windows.push_back(r);
    }

    // --- Scalar vs batched GP predict, per kernel ----------------------
    const std::size_t kGpPoints = 600;
    const std::size_t kQueries = 256;
    const PredictResult predictSe = predictQueriesPerSec(
        GpKernel::SquaredExponential, kGpPoints, kQueries, guard);
    const PredictResult predictMatern = predictQueriesPerSec(
        GpKernel::Matern52, kGpPoints, kQueries, guard);
    std::printf("\nGP predict on %zu training points, %zu queries/sweep "
                "(queries/sec)\n",
                kGpPoints, kQueries);
    std::printf("%-8s %14s %14s\n", "", "SE", "Matern-5/2");
    std::printf("%-8s %14.1f %14.1f\n%-8s %14.1f %14.1f\n"
                "%-8s %13.2fx %13.2fx\n",
                "batch", predictSe.batchQps, predictMatern.batchQps,
                "scalar", predictSe.scalarQps, predictMatern.scalarQps,
                "speedup", predictSe.speedup(), predictMatern.speedup());

    // --- GEMM kernel build vs naive pairwise --------------------------
    const std::size_t kDim = 4;
    std::vector<double> kbA(kGpPoints * kDim), kbB(kQueries * kDim);
    {
        Rng rng(77);
        for (auto &v : kbA)
            v = rng.uniform();
        for (auto &v : kbB)
            v = rng.uniform();
    }
    std::vector<double> kbBt(kDim * kQueries);
    for (std::size_t j = 0; j < kQueries; ++j)
        for (std::size_t k = 0; k < kDim; ++k)
            kbBt[k * kQueries + j] = kbB[j * kDim + k];
    std::vector<double> kbAn(kGpPoints), kbBn(kQueries);
    rowSquaredNorms(kbA.data(), kGpPoints, kDim, kbAn.data());
    rowSquaredNorms(kbB.data(), kQueries, kDim, kbBn.data());
    std::vector<double> kbOut(kGpPoints * kQueries);
    const double gemmBuildsPerSec = callsPerSecond([&] {
        crossSquaredDistances(kbA.data(), kbAn.data(), kGpPoints,
                              kbBt.data(), kbBn.data(), kQueries, kDim,
                              kbOut.data());
        guard += kbOut[0];
    });
    const double naiveBuildsPerSec = callsPerSecond([&] {
        crossSquaredDistancesNaive(kbA.data(), kbAn.data(), kGpPoints,
                                   kbB.data(), kbBn.data(), kQueries,
                                   kDim, kbOut.data());
        guard += kbOut[0];
    });
    std::printf("\nCross-distance kernel build, %zu x %zu dim %zu "
                "(builds/sec)\n",
                kGpPoints, kQueries, kDim);
    std::printf("%-8s %14.1f\n%-8s %14.1f\n%-8s %13.2fx\n", "gemm",
                gemmBuildsPerSec, "naive", naiveBuildsPerSec, "speedup",
                gemmBuildsPerSec / naiveBuildsPerSec);

    // --- Backward batched solve vs per-column scalar ------------------
    double batchBackColsPerSec = 0.0;
    double scalarBackColsPerSec = 0.0;
    {
        Rng rng(88);
        Matrix spd(kGpPoints, kGpPoints);
        for (std::size_t i = 0; i < kGpPoints; ++i)
            for (std::size_t j = 0; j <= i; ++j) {
                const double v = rng.uniform(-1.0, 1.0) /
                                 static_cast<double>(kGpPoints);
                spd(i, j) = v;
                spd(j, i) = v;
            }
        for (std::size_t i = 0; i < kGpPoints; ++i)
            spd(i, i) += 2.0;
        const Cholesky chol(spd);
        Matrix rhs(kGpPoints, kQueries);
        for (std::size_t i = 0; i < kGpPoints; ++i)
            for (std::size_t j = 0; j < kQueries; ++j)
                rhs(i, j) = rng.uniform(-2.0, 2.0);
        Matrix work;
        batchBackColsPerSec =
            callsPerSecond([&] {
                work = rhs;
                chol.solveUpperBatch(work);
                guard += work(0, 0);
            }) *
            static_cast<double>(kQueries);
        // Per-column scalar oracle: the back-substitution op order of
        // Cholesky::solve, one column at a time.
        const double *fac = chol.packedData();
        const auto rowStart = [](std::size_t i) {
            return i * (i + 1) / 2;
        };
        std::vector<double> col(kGpPoints);
        scalarBackColsPerSec =
            callsPerSecond([&] {
                for (std::size_t j = 0; j < kQueries; ++j) {
                    for (std::size_t i = 0; i < kGpPoints; ++i)
                        col[i] = rhs(i, j);
                    for (std::size_t ii = kGpPoints; ii > 0; --ii) {
                        const std::size_t i = ii - 1;
                        double s = col[i];
                        for (std::size_t k = i + 1; k < kGpPoints; ++k)
                            s -= fac[rowStart(k) + i] * col[k];
                        col[i] = s / fac[rowStart(i) + i];
                    }
                    guard += col[0];
                }
            }) *
            static_cast<double>(kQueries);
    }
    std::printf("\nBackward batched solve L^T X = B, %zu x %zu "
                "(columns/sec)\n",
                kGpPoints, kQueries);
    std::printf("%-8s %14.1f\n%-8s %14.1f\n%-8s %13.2fx\n", "batch",
                batchBackColsPerSec, "scalar", scalarBackColsPerSec,
                "speedup", batchBackColsPerSec / scalarBackColsPerSec);

    // --- Cohort proposals through batchEval at 1/2/8 workers ----------
    std::printf("\nBO cohort proposals on FARSIGym, cohort 8 "
                "(env-steps/sec; worker counts must agree bitwise)\n");
    std::printf("%-14s %12s %12s %12s %10s\n", "mode", "1w/s", "2w/s",
                "8w/s", "identical");
    struct CohortModeResult
    {
        std::string config;
        double w1 = 0.0, w2 = 0.0, w8 = 0.0;
        bool identical = true;
    };
    std::vector<CohortModeResult> cohortModes;
    bool cohortDrift = false;
    {
        const std::vector<std::pair<std::string, int>> modes = {
            {"ThompsonBatch", 3}, {"BatchEI", 4}};
        for (const auto &[name, acq] : modes) {
            HyperParams hp{{"acquisition", acq},
                           {"num_candidates", 64},
                           {"max_history", 64},
                           {"cohort", 8},
                           {"n_init", 8}};
            CohortModeResult r;
            r.config = name;
            std::vector<double> refHistory;
            double refBest = 0.0;
            for (const std::size_t workers : {1u, 2u, 8u}) {
                FarsiGymEnv env;
                env.setBatchWorkers(workers);
                // One recorded run pins the trajectory for the
                // bit-identity check...
                RunConfig cfg;
                cfg.maxSamples = 160;
                cfg.batchEval = true;
                auto probe = makeAgent("BO", env.actionSpace(), hp, 31);
                const RunResult run = runSearch(env, *probe, cfg);
                if (workers == 1) {
                    refHistory = run.rewardHistory;
                    refBest = run.bestReward;
                } else if (run.rewardHistory != refHistory ||
                           run.bestReward != refBest) {
                    r.identical = false;
                    cohortDrift = true;
                }
                // ...then the timed loop measures throughput.
                const double sps = searchStepsPerSec(
                    env, "BO", hp, /*batched=*/true, 160, guard);
                (workers == 1 ? r.w1 : workers == 2 ? r.w2 : r.w8) =
                    sps;
            }
            std::printf("%-14s %12.1f %12.1f %12.1f %10s\n",
                        r.config.c_str(), r.w1, r.w2, r.w8,
                        r.identical ? "yes" : "NO");
            cohortModes.push_back(std::move(r));
        }
    }

    // --- Per-step vs batched search dispatch --------------------------
    std::printf("\nSearch dispatch on FARSIGym (env-steps/sec)\n");
    std::printf("%-8s %14s %14s %9s\n", "agent", "batched/s",
                "per-step/s", "speedup");
    std::vector<SearchResult> searches;
    {
        FarsiGymEnv env;
        const std::vector<std::pair<std::string, HyperParams>> agents = {
            {"RL", {{"batch_size", 16}}},
            {"BO",
             {{"num_candidates", 64},
              {"max_history", 64},
              {"n_init", 8}}},
        };
        for (const auto &[name, hp] : agents) {
            SearchResult s;
            s.agent = name;
            const std::size_t samples = name == "BO" ? 160 : 256;
            s.batchedStepsPerSec = searchStepsPerSec(
                env, name, hp, /*batched=*/true, samples, guard);
            s.perStepStepsPerSec = searchStepsPerSec(
                env, name, hp, /*batched=*/false, samples, guard);
            std::printf("%-8s %14.1f %14.1f %8.2fx\n", name.c_str(),
                        s.batchedStepsPerSec, s.perStepStepsPerSec,
                        s.speedup());
            searches.push_back(std::move(s));
        }
    }

    std::ostringstream json;
    json << "{\"bench\":\"bo_hotloop\",\"steadyState\":[";
    for (std::size_t i = 0; i < windows.size(); ++i) {
        const WindowResult &r = windows[i];
        if (i)
            json << ",";
        json << "{\"config\":\"window" << r.window
             << "\",\"samplesPerSec\":" << r.samplesPerSec
             << ",\"refitSamplesPerSec\":" << r.refitSamplesPerSec
             << ",\"speedup\":" << r.speedup() << "}";
    }
    const auto predictJson = [&](const char *key, const PredictResult &r) {
        json << ",\"" << key << "\":{\"config\":\"n" << kGpPoints << "m"
             << kQueries << "\",\"batchQueriesPerSec\":" << r.batchQps
             << ",\"scalarQueriesPerSec\":" << r.scalarQps
             << ",\"speedup\":" << r.speedup() << "}";
    };
    json << "]";
    predictJson("predict", predictSe);
    predictJson("predictMatern52", predictMatern);
    json << ",\"kernelBuild\":{\"config\":\"n" << kGpPoints << "m"
         << kQueries << "d" << kDim
         << "\",\"gemmBuildsPerSec\":" << gemmBuildsPerSec
         << ",\"naiveBuildsPerSec\":" << naiveBuildsPerSec
         << ",\"speedup\":" << gemmBuildsPerSec / naiveBuildsPerSec
         << "},\"backwardSolve\":{\"config\":\"n" << kGpPoints << "m"
         << kQueries
         << "\",\"batchColumnsPerSec\":" << batchBackColsPerSec
         << ",\"scalarColumnsPerSec\":" << scalarBackColsPerSec
         << ",\"speedup\":" << batchBackColsPerSec / scalarBackColsPerSec
         << "},\"cohort\":{\"env\":\"FARSIGym\",\"modes\":[";
    for (std::size_t i = 0; i < cohortModes.size(); ++i) {
        const CohortModeResult &r = cohortModes[i];
        if (i)
            json << ",";
        json << "{\"config\":\"" << r.config
             << "\",\"workers1StepsPerSec\":" << r.w1
             << ",\"workers2StepsPerSec\":" << r.w2
             << ",\"workers8StepsPerSec\":" << r.w8
             << ",\"bitIdentical\":" << (r.identical ? 1 : 0) << "}";
    }
    json << "]},\"search\":{\"env\":\"FARSIGym\",\"agents\":[";
    for (std::size_t i = 0; i < searches.size(); ++i) {
        const SearchResult &s = searches[i];
        if (i)
            json << ",";
        json << "{\"agent\":\"" << s.agent
             << "\",\"batchedStepsPerSec\":" << s.batchedStepsPerSec
             << ",\"perStepStepsPerSec\":" << s.perStepStepsPerSec
             << ",\"speedup\":" << s.speedup() << "}";
    }
    json << "]}}";

    std::printf("BENCH_bo.json %s\n", json.str().c_str());
    std::ofstream out("BENCH_bo.json");
    out << json.str() << "\n";
    if (guard == 0.0)
        std::fprintf(stderr, "warning: guard is zero\n");
    if (cohortDrift) {
        std::fprintf(stderr,
                     "ERROR: cohort proposals drifted across worker counts; "
                     "batched acquisition must be bit-identical at 1/2/8 "
                     "workers\n");
        return 1;
    }
    return 0;
}
