/**
 * @file
 * DNN accelerator DSE: find an Eyeriss-class datapath for ResNet-50 with
 * Bayesian optimization, then validate the design against AlexNet and
 * MobileNet to show workload sensitivity.
 */

#include <cstdio>

#include "agents/bayesian_opt.h"
#include "core/driver.h"
#include "core/pareto.h"
#include "envs/timeloop_gym_env.h"

int
main()
{
    using namespace archgym;

    TimeloopGymEnv::Options options;
    options.network = timeloop::resNet50();
    options.latencyTargetMs = 5.0;
    TimeloopGymEnv env(options);

    std::printf("Searching an accelerator for %s "
                "(target latency %.1f ms)\n",
                options.network.name.c_str(), options.latencyTargetMs);
    std::printf("  design space: %.3g points\n\n",
                env.actionSpace().cardinality());

    HyperParams hp;
    hp.set("length_scale", 0.2)
        .set("acquisition", 0)  // expected improvement
        .set("num_candidates", 128)
        .set("max_history", 96);
    BayesianOptAgent agent(env.actionSpace(), hp, 7);

    RunConfig cfg;
    cfg.maxSamples = 250;
    cfg.logTrajectory = true;
    const RunResult r = runSearch(env, agent, cfg);

    const auto design = env.decodeAction(r.bestAction);
    std::printf("Best design after %zu samples:\n  %s\n",
                r.samplesUsed, design.str().c_str());
    std::printf("  latency %.2f ms, energy %.0f uJ, area %.1f mm2\n\n",
                r.bestMetrics[0], r.bestMetrics[1], r.bestMetrics[2]);

    // Cross-workload validation: how does the ResNet-50 design fare on
    // other networks?
    for (const auto &net :
         {timeloop::alexNet(), timeloop::mobileNet()}) {
        const auto cost = timeloop::evaluateNetwork(design, net);
        std::printf("  on %-10s latency %.2f ms, energy %.0f uJ, "
                    "PE utilization %.0f%%\n",
                    net.name.c_str(), cost.latencyMs, cost.energyUj,
                    cost.utilization * 100.0);
    }

    // Because every transition was logged, the latency/energy trade-off
    // behind the scalar search falls out for free (core/pareto.h).
    const auto front = paretoFront(r.trajectory.toTransitions(), {0, 1},
                                   {Sense::Minimize, Sense::Minimize});
    std::printf("\nlatency/energy Pareto front (%zu of %zu explored "
                "designs):\n",
                front.size(), r.trajectory.size());
    for (std::size_t i : front) {
        const auto &t = r.trajectory[i];
        std::printf("  %6.2f ms / %8.0f uJ   %s\n", t.observation[0],
                    t.observation[1],
                    env.decodeAction(t.action).str().c_str());
    }
    return 0;
}
