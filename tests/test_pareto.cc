/**
 * @file
 * Tests for the multi-objective analysis utilities: dominance, Pareto
 * front extraction, 2-D hypervolume, plus an integration check on real
 * TimeloopGym trajectories (latency/energy frontier).
 */

#include <gtest/gtest.h>

#include <cmath>

#include "agents/registry.h"
#include "core/driver.h"
#include "core/pareto.h"
#include "envs/timeloop_gym_env.h"

namespace archgym {
namespace {

Transition
point(double x, double y)
{
    Transition t;
    t.observation = {x, y};
    return t;
}

const std::vector<std::size_t> kBoth = {0, 1};
const std::vector<Sense> kMinMin = {Sense::Minimize, Sense::Minimize};

// --------------------------------------------------------------------
// Dominance
// --------------------------------------------------------------------

TEST(Dominance, StrictlyBetterOnBothDominates)
{
    EXPECT_TRUE(dominates({1.0, 1.0}, {2.0, 2.0}, kBoth, kMinMin));
    EXPECT_FALSE(dominates({2.0, 2.0}, {1.0, 1.0}, kBoth, kMinMin));
}

TEST(Dominance, EqualOnOneBetterOnOtherDominates)
{
    EXPECT_TRUE(dominates({1.0, 2.0}, {1.0, 3.0}, kBoth, kMinMin));
}

TEST(Dominance, IdenticalPointsDoNotDominate)
{
    EXPECT_FALSE(dominates({1.0, 2.0}, {1.0, 2.0}, kBoth, kMinMin));
}

TEST(Dominance, TradeOffPointsAreIncomparable)
{
    EXPECT_FALSE(dominates({1.0, 3.0}, {2.0, 2.0}, kBoth, kMinMin));
    EXPECT_FALSE(dominates({2.0, 2.0}, {1.0, 3.0}, kBoth, kMinMin));
}

TEST(Dominance, MaximizeSenseFlipsDirection)
{
    const std::vector<Sense> maxmax = {Sense::Maximize, Sense::Maximize};
    EXPECT_TRUE(dominates({2.0, 2.0}, {1.0, 1.0}, kBoth, maxmax));
    EXPECT_FALSE(dominates({1.0, 1.0}, {2.0, 2.0}, kBoth, maxmax));
}

TEST(Dominance, MixedSenses)
{
    // Minimize metric 0, maximize metric 1.
    const std::vector<Sense> minmax = {Sense::Minimize, Sense::Maximize};
    EXPECT_TRUE(dominates({1.0, 5.0}, {2.0, 4.0}, kBoth, minmax));
    EXPECT_FALSE(dominates({1.0, 3.0}, {2.0, 4.0}, kBoth, minmax));
}

// --------------------------------------------------------------------
// Pareto front
// --------------------------------------------------------------------

TEST(ParetoFront, ExtractsStaircase)
{
    const std::vector<Transition> pts = {
        point(1.0, 5.0), point(2.0, 3.0), point(3.0, 4.0),  // dominated
        point(4.0, 1.0), point(5.0, 2.0),                   // dominated
    };
    const auto front = paretoFront(pts, kBoth, kMinMin);
    EXPECT_EQ(front, (std::vector<std::size_t>{0, 1, 3}));
}

TEST(ParetoFront, SinglePointIsItsOwnFront)
{
    const std::vector<Transition> pts = {point(1.0, 1.0)};
    EXPECT_EQ(paretoFront(pts, kBoth, kMinMin).size(), 1u);
}

TEST(ParetoFront, DuplicatesKeepFirstOccurrence)
{
    const std::vector<Transition> pts = {point(1.0, 2.0),
                                         point(1.0, 2.0)};
    const auto front = paretoFront(pts, kBoth, kMinMin);
    EXPECT_EQ(front, (std::vector<std::size_t>{0}));
}

TEST(ParetoFront, AllIncomparablePointsKept)
{
    std::vector<Transition> pts;
    for (int i = 0; i < 6; ++i)
        pts.push_back(point(i, 5 - i));
    EXPECT_EQ(paretoFront(pts, kBoth, kMinMin).size(), 6u);
}

TEST(ParetoFront, FrontIsMutuallyNonDominated)
{
    // Random cloud; property: no front member dominates another, and
    // every non-member is dominated by some member.
    Rng rng(5);
    std::vector<Transition> pts;
    for (int i = 0; i < 120; ++i)
        pts.push_back(point(rng.uniform(0.0, 10.0),
                            rng.uniform(0.0, 10.0)));
    const auto front = paretoFront(pts, kBoth, kMinMin);
    ASSERT_FALSE(front.empty());
    for (std::size_t a : front) {
        for (std::size_t b : front) {
            if (a == b)
                continue;
            EXPECT_FALSE(dominates(pts[a].observation,
                                   pts[b].observation, kBoth, kMinMin));
        }
    }
    for (std::size_t i = 0; i < pts.size(); ++i) {
        if (std::find(front.begin(), front.end(), i) != front.end())
            continue;
        bool covered = false;
        for (std::size_t f : front) {
            if (dominates(pts[f].observation, pts[i].observation, kBoth,
                          kMinMin) ||
                pts[f].observation == pts[i].observation) {
                covered = true;
                break;
            }
        }
        EXPECT_TRUE(covered) << "point " << i << " neither on front nor "
                             << "dominated";
    }
}

TEST(ParetoFront, SkylineMatchesNaiveOracleOnRandomClouds)
{
    // The 2-metric fast path is a sort-based skyline; the all-pairs
    // O(N^2) scan is kept as the oracle. They must agree exactly —
    // including index order and duplicate handling — on random clouds
    // under every sense combination.
    Rng rng(42);
    const std::vector<std::vector<Sense>> senseCombos = {
        {Sense::Minimize, Sense::Minimize},
        {Sense::Minimize, Sense::Maximize},
        {Sense::Maximize, Sense::Minimize},
        {Sense::Maximize, Sense::Maximize},
    };
    for (int trial = 0; trial < 40; ++trial) {
        // Quantized coordinates force ties and duplicated vectors.
        const double grid = trial % 2 == 0 ? 1.0 : 0.25;
        const std::size_t n = 1 + static_cast<std::size_t>(
                                      rng.below(trial % 3 == 0 ? 8 : 200));
        std::vector<Transition> pts;
        pts.reserve(n);
        for (std::size_t i = 0; i < n; ++i) {
            pts.push_back(
                point(std::round(rng.uniform(0.0, 8.0) / grid) * grid,
                      std::round(rng.uniform(0.0, 8.0) / grid) * grid));
        }
        for (const auto &senses : senseCombos) {
            EXPECT_EQ(paretoFront(pts, kBoth, senses),
                      paretoFrontNaive(pts, kBoth, senses))
                << "trial " << trial << " n " << n;
        }
    }
}

TEST(ParetoFront, InfiniteMetricsMatchNaiveOracle)
{
    const double inf = std::numeric_limits<double>::infinity();
    // A point with second metric +inf but the best first metric is
    // still non-dominated and must survive the skyline sweep.
    const std::vector<Transition> best = {point(1.0, inf),
                                          point(2.0, 3.0)};
    EXPECT_EQ(paretoFront(best, kBoth, kMinMin),
              paretoFrontNaive(best, kBoth, kMinMin));
    // All-infinite second metrics: only the best-x point survives.
    const std::vector<Transition> allInf = {point(2.0, inf),
                                            point(1.0, inf),
                                            point(3.0, inf)};
    EXPECT_EQ(paretoFront(allInf, kBoth, kMinMin),
              paretoFrontNaive(allInf, kBoth, kMinMin));
    // And under Maximize, -inf plays the same role.
    const std::vector<Sense> maxmax = {Sense::Maximize, Sense::Maximize};
    const std::vector<Transition> neg = {point(5.0, -inf),
                                         point(2.0, 3.0)};
    EXPECT_EQ(paretoFront(neg, kBoth, maxmax),
              paretoFrontNaive(neg, kBoth, maxmax));
}

TEST(ParetoFront, NanMetricsFallBackToScanWithoutCrashing)
{
    // NaN would break the skyline sort's strict weak ordering; such
    // inputs must take the all-pairs path and reproduce its (defined)
    // output instead of invoking std::sort UB.
    const double nan = std::nan("");
    const std::vector<Transition> pts = {point(1.0, 5.0), point(nan, 2.0),
                                         point(2.0, 1.0),
                                         point(3.0, nan)};
    EXPECT_EQ(paretoFront(pts, kBoth, kMinMin),
              paretoFrontNaive(pts, kBoth, kMinMin));
}

TEST(ParetoFront, SkylineMatchesNaiveOnReversedMetricOrder)
{
    // Selected metrics need not be {0, 1} in order.
    Rng rng(9);
    std::vector<Transition> pts;
    for (int i = 0; i < 60; ++i)
        pts.push_back(point(std::round(rng.uniform(0.0, 5.0)),
                            std::round(rng.uniform(0.0, 5.0))));
    const std::vector<std::size_t> reversed = {1, 0};
    EXPECT_EQ(paretoFront(pts, reversed, kMinMin),
              paretoFrontNaive(pts, reversed, kMinMin));
}

// --------------------------------------------------------------------
// Three-metric skyline
// --------------------------------------------------------------------

Transition
point3(double x, double y, double z)
{
    Transition t;
    t.observation = {x, y, z};
    return t;
}

const std::vector<std::size_t> kThree = {0, 1, 2};
const std::vector<Sense> kMinMinMin = {Sense::Minimize, Sense::Minimize,
                                       Sense::Minimize};

TEST(ParetoFront3d, KnownFront)
{
    const std::vector<Transition> pts = {
        point3(1.0, 5.0, 5.0),  // front: best x
        point3(2.0, 4.0, 6.0),  // dominated by index 3
        point3(3.0, 5.0, 5.0),  // dominated by index 0
        point3(2.0, 4.0, 4.0),  // front: trades x for y/z
        point3(1.0, 5.0, 5.0),  // duplicate of index 0
    };
    const auto front = paretoFront(pts, kThree, kMinMinMin);
    EXPECT_EQ(front, paretoFrontNaive(pts, kThree, kMinMinMin));
    // 0 (best x), 3 (dominates 1), duplicates and dominated dropped.
    EXPECT_EQ(front, (std::vector<std::size_t>{0, 3}));
}

TEST(ParetoFront3d, SkylineMatchesNaiveOracleOnRandomClouds)
{
    // The 3-metric fast path (m0-sorted sweep + prefix-min tree over
    // the compressed second metric) against the all-pairs oracle:
    // exact agreement, including index order, first-occurrence
    // duplicate handling, and tie-heavy quantized coordinates, under
    // every sense combination.
    Rng rng(271);
    const std::vector<std::vector<Sense>> senseCombos = {
        {Sense::Minimize, Sense::Minimize, Sense::Minimize},
        {Sense::Minimize, Sense::Maximize, Sense::Minimize},
        {Sense::Maximize, Sense::Minimize, Sense::Maximize},
        {Sense::Maximize, Sense::Maximize, Sense::Maximize},
    };
    for (int trial = 0; trial < 30; ++trial) {
        // Coarse grids force duplicated vectors and per-metric ties;
        // trial 0's grid of 1.0 over [0,4] is extremely tie-heavy.
        const double grid = trial % 3 == 0 ? 1.0 : 0.25;
        const double span = trial % 3 == 0 ? 4.0 : 8.0;
        const std::size_t n = 1 + static_cast<std::size_t>(
                                      rng.below(trial % 4 == 0 ? 10 : 300));
        std::vector<Transition> pts;
        pts.reserve(n);
        for (std::size_t i = 0; i < n; ++i) {
            pts.push_back(point3(
                std::round(rng.uniform(0.0, span) / grid) * grid,
                std::round(rng.uniform(0.0, span) / grid) * grid,
                std::round(rng.uniform(0.0, span) / grid) * grid));
        }
        for (const auto &senses : senseCombos) {
            EXPECT_EQ(paretoFront(pts, kThree, senses),
                      paretoFrontNaive(pts, kThree, senses))
                << "trial " << trial << " n " << n;
        }
    }
}

TEST(ParetoFront3d, DuplicatesKeepFirstOccurrence)
{
    const std::vector<Transition> pts = {point3(1.0, 2.0, 3.0),
                                         point3(1.0, 2.0, 3.0),
                                         point3(1.0, 2.0, 3.0)};
    EXPECT_EQ(paretoFront(pts, kThree, kMinMinMin),
              (std::vector<std::size_t>{0}));
}

TEST(ParetoFront3d, InfiniteMetricsMatchNaiveOracle)
{
    const double inf = std::numeric_limits<double>::infinity();
    const std::vector<Transition> pts = {
        point3(1.0, inf, 2.0), point3(2.0, 3.0, inf),
        point3(inf, 1.0, 1.0), point3(1.0, inf, 3.0),
        point3(-inf, 5.0, 5.0)};
    EXPECT_EQ(paretoFront(pts, kThree, kMinMinMin),
              paretoFrontNaive(pts, kThree, kMinMinMin));
}

TEST(ParetoFront3d, NanMetricsFallBackToScanWithoutCrashing)
{
    const double nan = std::nan("");
    const std::vector<Transition> pts = {
        point3(1.0, 5.0, 2.0), point3(nan, 2.0, 1.0),
        point3(2.0, 1.0, nan), point3(3.0, nan, 0.0),
        point3(0.5, 0.5, 0.5)};
    EXPECT_EQ(paretoFront(pts, kThree, kMinMinMin),
              paretoFrontNaive(pts, kThree, kMinMinMin));
}

TEST(ParetoFront3d, ReversedAndRepeatedMetricSelection)
{
    // Selected metrics need not be {0,1,2} in order; a metric may even
    // repeat (degenerate but legal), which the oracle defines.
    Rng rng(99);
    std::vector<Transition> pts;
    for (int i = 0; i < 120; ++i)
        pts.push_back(point3(std::round(rng.uniform(0.0, 5.0)),
                             std::round(rng.uniform(0.0, 5.0)),
                             std::round(rng.uniform(0.0, 5.0))));
    const std::vector<std::size_t> reversed = {2, 0, 1};
    EXPECT_EQ(paretoFront(pts, reversed, kMinMinMin),
              paretoFrontNaive(pts, reversed, kMinMinMin));
    const std::vector<std::size_t> repeated = {1, 1, 2};
    EXPECT_EQ(paretoFront(pts, repeated, kMinMinMin),
              paretoFrontNaive(pts, repeated, kMinMinMin));
}

TEST(ParetoFront3d, FrontIsMutuallyNonDominatedAndCovering)
{
    Rng rng(7);
    std::vector<Transition> pts;
    for (int i = 0; i < 400; ++i)
        pts.push_back(point3(rng.uniform(0.0, 10.0),
                             rng.uniform(0.0, 10.0),
                             rng.uniform(0.0, 10.0)));
    const auto front = paretoFront(pts, kThree, kMinMinMin);
    ASSERT_FALSE(front.empty());
    for (std::size_t a : front)
        for (std::size_t b : front)
            if (a != b)
                EXPECT_FALSE(dominates(pts[a].observation,
                                       pts[b].observation, kThree,
                                       kMinMinMin));
    for (std::size_t i = 0; i < pts.size(); ++i) {
        if (std::find(front.begin(), front.end(), i) != front.end())
            continue;
        bool covered = false;
        for (std::size_t f : front) {
            if (dominates(pts[f].observation, pts[i].observation, kThree,
                          kMinMinMin) ||
                pts[f].observation == pts[i].observation) {
                covered = true;
                break;
            }
        }
        EXPECT_TRUE(covered) << "point " << i;
    }
}

// --------------------------------------------------------------------
// Hypervolume
// --------------------------------------------------------------------

TEST(Hypervolume, SinglePointRectangle)
{
    const std::vector<Transition> pts = {point(2.0, 3.0)};
    const auto front = paretoFront(pts, kBoth, kMinMin);
    EXPECT_DOUBLE_EQ(hypervolume2d(pts, front, 0, 1, 10.0, 10.0),
                     8.0 * 7.0);
}

TEST(Hypervolume, StaircaseSumsStrips)
{
    const std::vector<Transition> pts = {point(1.0, 5.0),
                                         point(3.0, 2.0)};
    const auto front = paretoFront(pts, kBoth, kMinMin);
    // Strip 1: x in [1,3), height 10-5=5 -> 10; strip 2: x in [3,10),
    // height 10-2=8 -> 56.
    EXPECT_DOUBLE_EQ(hypervolume2d(pts, front, 0, 1, 10.0, 10.0), 66.0);
}

TEST(Hypervolume, PointsOutsideReferenceIgnored)
{
    const std::vector<Transition> pts = {point(20.0, 1.0),
                                         point(1.0, 20.0),
                                         point(5.0, 5.0)};
    const auto front = paretoFront(pts, kBoth, kMinMin);
    EXPECT_DOUBLE_EQ(hypervolume2d(pts, front, 0, 1, 10.0, 10.0), 25.0);
}

TEST(Hypervolume, EmptyFrontIsZero)
{
    EXPECT_DOUBLE_EQ(hypervolume2d({}, {}, 0, 1, 1.0, 1.0), 0.0);
}

TEST(Hypervolume, DominatingFrontHasLargerVolume)
{
    const std::vector<Transition> good = {point(1.0, 1.0)};
    const std::vector<Transition> bad = {point(5.0, 5.0)};
    const auto fg = paretoFront(good, kBoth, kMinMin);
    const auto fb = paretoFront(bad, kBoth, kMinMin);
    EXPECT_GT(hypervolume2d(good, fg, 0, 1, 10.0, 10.0),
              hypervolume2d(bad, fb, 0, 1, 10.0, 10.0));
}

// --------------------------------------------------------------------
// Integration: latency/energy frontier from a real trajectory
// --------------------------------------------------------------------

TEST(ParetoIntegration, TimeloopTrajectoryYieldsTradeOffFront)
{
    TimeloopGymEnv::Options o;
    o.network = timeloop::resNet18();
    TimeloopGymEnv env(o);
    auto agent = makeAgent("RW", env.actionSpace(), {}, 3);
    RunConfig cfg;
    cfg.maxSamples = 150;
    cfg.logTrajectory = true;
    const RunResult r = runSearch(env, *agent, cfg);

    // latency (0) and energy (1), both minimized.
    const auto front =
        paretoFront(r.trajectory.toTransitions(), {0, 1}, kMinMin);
    ASSERT_GE(front.size(), 2u);  // a genuine trade-off exists
    // Walking the front in latency order, energy must strictly decrease.
    for (std::size_t i = 1; i < front.size(); ++i) {
        const auto &prev = r.trajectory[front[i - 1]].observation;
        const auto &cur = r.trajectory[front[i]].observation;
        EXPECT_LT(prev[0], cur[0]);
        EXPECT_GT(prev[1], cur[1]);
    }
}

} // namespace
} // namespace archgym
