/**
 * @file
 * Reproduces Figure 10: proxy-model RMSE as a function of dataset size
 * and dataset diversity.
 *
 * Four dataset sizes are drawn twice from the same trajectory pool: once
 * from a single agent (ACO only) and once split evenly across four
 * agents (the "Diverse dataset" of §7.1). A random forest per metric is
 * trained on each and evaluated on held-out random designs.
 *
 * Paper claims to reproduce: RMSE falls with dataset size, and at equal
 * size the diverse composition achieves lower error — increasingly so at
 * larger sizes (up to 42x average RMSE reduction in the paper's setup).
 */

#include <filesystem>

#include "bench_util.h"
#include "proxy/proxy_dataset.h"
#include "proxy/proxy_model.h"

using namespace archgym;
using namespace archgym::bench;

int
main()
{
    printHeader("Figure 10: proxy RMSE vs dataset size and diversity "
                "(DRAMGym)");

    DramGymEnv env = makeProxyEnv();
    // Pool: 4 agents x 4 hyperparameter runs x 450 samples each,
    // collected through the sharded sweep engine — trajectories stream
    // into per-shard CSVs as runs complete, and the proxy trains from
    // those CSVs reloaded through Dataset::loadDirectory: the §3.4
    // artifact flow end to end.
    const std::string shardDir =
        (std::filesystem::temp_directory_path() / "archgym_fig10_shards")
            .string();
    const Dataset dataset = collectProxyDatasetStreamed(shardDir, 4, 450);
    const auto test = makeHeldOutSet(env, 200);
    std::printf("trajectory pool: %zu transitions from %zu runs "
                "(streamed via %s)\n\n",
                dataset.transitionCount(), dataset.logCount(),
                shardDir.c_str());

    const std::size_t sizes[] = {150, 400, 900, 1600};  // Datasets 1-4
    ForestConfig cfg;
    cfg.numTrees = 40;

    std::printf("%-12s %-14s %-12s %-12s %-12s %-12s\n", "dataset",
                "composition", "size", "rmse(lat)", "rmse(pow)",
                "rmse(en)");
    std::vector<double> singleMean, diverseMean;
    Rng rng(55);
    int idx = 1;
    for (std::size_t size : sizes) {
        for (bool diverse : {false, true}) {
            const DatasetExperiment exp = runDatasetExperiment(
                dataset, env.actionSpace(), env.metricNames(), size,
                diverse, proxyAgents(), test, cfg, rng);
            std::printf("Dataset %-4d %-14s %-12zu %-12.4g %-12.4g "
                        "%-12.4g  (mean rel. %.2f%%)\n",
                        idx, diverse ? "diverse" : "ACO-only", size,
                        exp.accuracy.rmse[0], exp.accuracy.rmse[1],
                        exp.accuracy.rmse[2],
                        exp.accuracy.meanRelativeRmse() * 100.0);
            (diverse ? diverseMean : singleMean)
                .push_back(exp.accuracy.meanRelativeRmse());
        }
        ++idx;
    }

    std::printf("\nmean relative RMSE, largest dataset: ACO-only %.2f%% "
                "vs diverse %.2f%% (ratio %.2fx)\n",
                singleMean.back() * 100.0, diverseMean.back() * 100.0,
                diverseMean.back() > 0.0
                    ? singleMean.back() / diverseMean.back()
                    : 0.0);
    std::printf("size trend (ACO-only, smallest -> largest): "
                "%.2f%% -> %.2f%%\n",
                singleMean.front() * 100.0, singleMean.back() * 100.0);
    return 0;
}
