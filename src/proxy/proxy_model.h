/**
 * @file
 * Proxy cost models from ArchGym datasets (paper §7).
 *
 * A ProxyCostModel is one random forest per observation metric, trained
 * on transitions logged through the standardized interface. Features are
 * the unit-space embedding of the action. The module also provides the
 * dataset-composition experiment helpers of §7.1: assembling single-
 * source vs. diverse datasets at controlled sizes and measuring held-out
 * RMSE per target.
 *
 * Serving path (training from the shard CSVs, the struct-of-arrays
 * forest arena behind predictBatch, and the screen-then-simulate sweep
 * protocol) is documented in docs/proxy_serving.md.
 */

#ifndef ARCHGYM_PROXY_PROXY_MODEL_H
#define ARCHGYM_PROXY_PROXY_MODEL_H

#include <string>
#include <vector>

#include "core/param_space.h"
#include "core/trajectory.h"
#include "proxy/random_forest.h"

namespace archgym {

/**
 * Per-metric accuracy of a trained proxy.
 *
 * Degenerate held-out sets have no defined value for some entries and
 * hold NaN sentinels instead of fabricated numbers: relativeRmse when
 * mean(|actual|) is zero, correlation when either side is constant or
 * the set has fewer than two rows. Render NaNs via renderValue()
 * ("n/a"), mirroring Summary::relativeSpread.
 */
struct ProxyAccuracy
{
    std::vector<std::string> metricNames;
    std::vector<double> rmse;          ///< absolute RMSE per metric
    std::vector<double> relativeRmse;  ///< RMSE / mean(|actual|)
    std::vector<double> correlation;   ///< Pearson actual vs predicted

    /** Mean over the *defined* (non-NaN) entries; NaN if none are. */
    double meanRelativeRmse() const;

    /** "%.4f" rendering of one entry, or "n/a" for NaN sentinels. */
    static std::string renderValue(double v);
};

/** Random-forest proxy for an environment's full observation vector. */
class ProxyCostModel
{
  public:
    /**
     * @param space         action space of the source environment
     * @param metric_names  names of the observation entries
     */
    ProxyCostModel(const ParamSpace &space,
                   std::vector<std::string> metric_names,
                   ForestConfig config = {});

    /** Train one forest per metric on the given transitions. */
    void train(const std::vector<Transition> &transitions);

    bool trained() const;

    /** Predicted observation vector for an action (scalar oracle). */
    Metrics predict(const Action &action) const;

    /**
     * Batched predictions for a candidate cohort, returned as a
     * column-major metrics matrix: entry [m * actions.size() + r] is
     * metric m of row r, so each forest's batch kernel writes one
     * contiguous column and callers consume whole metric columns
     * without a Metrics allocation per row. Bit-identical to calling
     * predict() on every action.
     */
    std::vector<double> predictBatch(const std::vector<Action> &actions) const;

    /** Accuracy on a held-out transition set (see ProxyAccuracy). */
    ProxyAccuracy evaluate(const std::vector<Transition> &test) const;

    std::size_t metricCount() const { return metricNames_.size(); }

  private:
    std::vector<double> featurize(const Action &action) const;

    const ParamSpace &space_;
    std::vector<std::string> metricNames_;
    ForestConfig config_;
    std::vector<RandomForest> forests_;  ///< one per metric
};

/** One row of the §7 dataset-composition study. */
struct DatasetExperiment
{
    std::string label;        ///< e.g. "Dataset 2 (diverse)"
    bool diverse = false;     ///< multi-agent vs single-agent sourcing
    std::size_t size = 0;     ///< training transitions
    ProxyAccuracy accuracy;
};

/**
 * Train a proxy on `train_size` transitions drawn from the dataset —
 * either from a single agent or split across all listed agents — and
 * evaluate it on the held-out test transitions.
 */
DatasetExperiment
runDatasetExperiment(const Dataset &dataset, const ParamSpace &space,
                     const std::vector<std::string> &metric_names,
                     std::size_t train_size, bool diverse,
                     const std::vector<std::string> &agents,
                     const std::vector<Transition> &test,
                     const ForestConfig &config, Rng &rng);

} // namespace archgym

#endif // ARCHGYM_PROXY_PROXY_MODEL_H
