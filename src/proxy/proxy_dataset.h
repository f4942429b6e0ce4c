/**
 * @file
 * Dataset-assembly helpers of the §7 proxy studies (Figs. 10-12) — the
 * one audited implementation shared by the figure benches, the proxy
 * hot-loop bench, and tests (formerly duplicated as bench-local
 * proxy_common.h): run ACO/GA/RW/BO hyperparameter explorations on
 * DRAMGym, log every transition, and build a held-out test set of
 * fresh random designs evaluated on the ground-truth simulator.
 */

#ifndef ARCHGYM_PROXY_PROXY_DATASET_H
#define ARCHGYM_PROXY_PROXY_DATASET_H

#include <cstdint>
#include <string>
#include <vector>

#include "core/trajectory.h"
#include "envs/dram_gym_env.h"

namespace archgym {

/** Agents contributing to the diverse dataset (paper §7.1). */
const std::vector<std::string> &proxyAgents();

/** The DRAMGym configuration the §7 studies run against. */
DramGymEnv::Options proxyEnvOptions();

DramGymEnv makeProxyEnv();

/**
 * Collect `runs_per_agent` exploration runs of `samples_per_run`
 * transitions from each proxy agent (different hyperparameters per
 * run), as the Fig. 9 aggregation pipeline prescribes. Entirely
 * in-memory; see collectProxyDatasetStreamed for the on-disk path.
 */
Dataset collectProxyDataset(DramGymEnv &env, std::size_t runs_per_agent,
                            std::size_t samples_per_run);

/**
 * Streamed variant of collectProxyDataset: every agent's exploration
 * runs go through the sharded sweep engine with trajectory export
 * (per-shard multi-block CSVs under `directory/<agent>/`, after
 * `directory` is emptied), and the dataset is reloaded from those shard
 * CSVs through Dataset::loadDirectory — the §3.4 artifact flow end to
 * end. Same pool shape as collectProxyDataset (same agents, same
 * hyperparameter draws) but per-run seeds come from the sweep engine's
 * index-only formula.
 */
Dataset collectProxyDatasetStreamed(const std::string &directory,
                                    std::size_t runs_per_agent,
                                    std::size_t samples_per_run);

/** Fresh uniformly random designs evaluated on the simulator. */
std::vector<Transition> makeHeldOutSet(Environment &env, std::size_t n,
                                       std::uint64_t seed = 909);

} // namespace archgym

#endif // ARCHGYM_PROXY_PROXY_DATASET_H
