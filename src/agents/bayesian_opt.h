/**
 * @file
 * Bayesian-optimization agent (paper §3.2, Table 2).
 *
 * The policy is a Gaussian-process surrogate model over the unit-cube
 * embedding of the parameter space with a squared-exponential or
 * Matern-5/2 kernel.
 * Exploration/exploitation is governed by the acquisition function (Q3):
 * expected improvement, upper confidence bound, or probability of
 * improvement. The acquisition is maximized over a random candidate set
 * augmented with local perturbations of the incumbent.
 *
 * GP regression is cubic in the number of observations — the scalability
 * limit the paper attributes to BO — so the surrogate keeps a sliding
 * window of the most recent observations plus the best ones seen
 * ("max_history"). The window size is itself a hyperparameter and has a
 * dedicated ablation bench (see DESIGN.md §5).
 *
 * Steady-state cost is O(n^2) per sample: window appends extend the
 * Cholesky factor by a rank-1 bordering update, window evictions shrink
 * it by a rank-1 downdate (so a trim is k downdates, not a refit), and
 * candidate scoring runs through GaussianProcess::predictBatch — one
 * blocked multi-RHS solve for the whole candidate set. The pre-overhaul
 * behaviour (full O(n^3) refit on every trim plus per-candidate scalar
 * predicts) is preserved behind the `reference_impl` hyperparameter as
 * the in-tree oracle for equivalence tests and the perf_bo_hotloop
 * bench.
 */

#ifndef ARCHGYM_AGENTS_BAYESIAN_OPT_H
#define ARCHGYM_AGENTS_BAYESIAN_OPT_H

#include <cstdint>
#include <limits>
#include <memory>
#include <vector>

#include "core/agent.h"
#include "mathutil/matrix.h"
#include "mathutil/rng.h"

namespace archgym {

/** Covariance function family for the GP surrogate. */
enum class GpKernel
{
    SquaredExponential = 0,  ///< infinitely smooth
    Matern52 = 1             ///< twice-differentiable, heavier tails
};

/**
 * Standalone GP regressor exposed for tests: fit on (x, y) pairs and
 * predict mean/variance at new points.
 */
class GaussianProcess
{
  public:
    /**
     * @param length_scale  kernel length scale
     * @param signal_var    kernel signal variance sigma_f^2
     * @param noise_var     observation noise sigma_n^2
     * @param kernel        covariance family
     */
    GaussianProcess(double length_scale, double signal_var,
                    double noise_var,
                    GpKernel kernel = GpKernel::SquaredExponential);

    /** Fit on the given points; y is internally standardized. */
    void fit(const std::vector<std::vector<double>> &xs,
             const std::vector<double> &ys);

    /**
     * Absorb one observation appended to the current training set via a
     * rank-1 Cholesky bordering update: O(n^2) instead of the O(n^3)
     * full refit, numerically equivalent to calling fit() on the
     * extended set. Falls back to a full refit when the update does not
     * apply (nothing fitted yet, or the bordered matrix is not
     * positive definite).
     *
     * With refresh_alpha false the O(n^2) posterior-weight solve is
     * skipped; the GP must not be queried until refreshAlpha() runs —
     * for callers replaying a sequence of edits (the BO window trim)
     * that only need alpha once, at the end.
     */
    void appendFit(const std::vector<double> &x, double y,
                   bool refresh_alpha = true);

    /**
     * Evict the observation at `index` from the current training set
     * via a rank-1 Cholesky downdate: O((n-k)^2) instead of the O(n^3)
     * full refit, numerically equivalent to calling fit() on the
     * punctured set. Falls back to a full refit when the downdate does
     * not apply (nothing fitted, factor out of sync with the training
     * set, or the rotations lose positive definiteness).
     *
     * refresh_alpha as for appendFit.
     *
     * @pre index < sampleCount()
     */
    void dropFit(std::size_t index, bool refresh_alpha = true);

    /** Recompute the posterior weights against the current factor —
     *  the deferred half of appendFit/dropFit(..., false). No-op
     *  unless fitted. */
    void refreshAlpha()
    {
        if (fitted_)
            recomputeAlpha();
    }

    bool fitted() const { return fitted_; }
    std::size_t sampleCount() const { return xs_.size(); }

    /**
     * Hint the maximum training-set size (e.g. the BO sliding-window
     * capacity): every full refit pre-reserves Cholesky factor storage
     * for that dimension, so window appends never reallocate.
     */
    void reserveCapacity(std::size_t max_samples)
    {
        reserveHint_ = max_samples;
    }

    /**
     * Posterior mean and variance at x (in the original y units).
     *
     * Pre-fit contract: before any successful fit (no data yet, or the
     * kernel matrix could not be factored), the posterior is the
     * standardization-scaled prior — mean yMean() of the targets seen
     * so far (0 when none) and variance yStd()^2 * signal_var (just
     * signal_var when none), the same units the fitted path reports.
     */
    void predict(const std::vector<double> &x, double &mean,
                 double &variance) const;

    /**
     * Posterior mean and variance at every query point, bitwise
     * identical to calling predict() on each — but the n x m
     * cross-kernel matrix is built once and all m triangular solves
     * share a single blocked pass over the Cholesky factor
     * (Cholesky::solveLowerBatch), with scratch buffers persisting
     * across calls. This is what BO candidate scoring rides on.
     *
     * means/variances are resized to xs.size(). Not thread-safe across
     * concurrent calls on the same GP (shared scratch).
     */
    void predictBatch(const std::vector<std::vector<double>> &xs,
                      std::vector<double> &means,
                      std::vector<double> &variances) const;

    /**
     * Joint posterior over a whole query block: per-point means and
     * variances (bitwise identical to predictBatch on the same block)
     * plus the full m x m posterior covariance, all in original y
     * units. The covariance comes from the factored cross-kernel
     * block: with V = L^-1 K* (the forward solve predictBatch already
     * does) and A = L^-T V (the backward batched solve), the joint
     * covariance is K** - K*^T A. Diagonal entries of `cov` agree
     * with `variances` only to solver roundoff — the variance path
     * sums squares of V while the covariance path contracts K* with A
     * — so callers wanting the predictBatch-exact marginal read
     * `variances`, not the diagonal.
     *
     * Pre-fit contract: means are yMean(), cov is the prior
     * yStd()^2 * K** (so its diagonal is the predict() prior variance).
     *
     * Not thread-safe across concurrent calls on the same GP (shared
     * scratch).
     */
    void posteriorJoint(const std::vector<std::vector<double>> &xs,
                        std::vector<double> &means,
                        std::vector<double> &variances,
                        Matrix &cov) const;

    /**
     * num_draws joint samples from the posterior over the query block,
     * written row-major (num_draws x m) into draws: each row is
     * means + C z with C the Cholesky factor of the posterior
     * covariance and z standard normals. Consumes exactly
     * num_draws * m gaussians from rng, draw-major then query-index
     * ascending — the determinism contract batched Thompson sampling
     * rides on. If the covariance cannot be factored even with jitter
     * (degenerate candidate blocks), falls back to independent draws
     * from the marginal variances.
     */
    void samplePosteriorBatch(const std::vector<std::vector<double>> &xs,
                              std::size_t num_draws, Rng &rng,
                              std::vector<double> &draws) const;

    /** Mean of the raw targets (0 before any data). */
    double yMean() const { return yMean_; }
    /** Stddev of the raw targets (1 before any data). */
    double yStd() const { return yStd_; }

    double kernel(const std::vector<double> &a,
                  const std::vector<double> &b) const;

  private:
    /** Full factor-and-solve of the members xs_/ysRaw_. */
    void refitFromMembers();
    /** Recompute yMean_/yStd_ from ysRaw_. */
    void standardizeTargets();
    /** Solve for alpha_ against chol_ with the current standardization. */
    void solveAlpha();
    /** Recompute y standardization and alpha against chol_. */
    void recomputeAlpha();
    /** Covariance value from a squared distance: the one kernel
     *  formula, and the oracle that scalar predict()/kernel() apply. */
    double kernelFromSquaredDistance(double d2) const;
    /**
     * The kernel map every block of kernel values goes through:
     * overwrite d2[0, len) with kernelFromSquaredDistance of each
     * entry. Four lanes at a time for both kernels (lane-wise twins of
     * the scalar formula, so each lane is bitwise equal to it), the
     * scalar call for the remainder. Sites: kernelGram (refit Gram
     * rows, posteriorJoint's pre-fit prior), appendFit's bordering
     * column, stageCrossSolve's cross block and per-query prior
     * k(x, x), and posteriorJoint's m x m query block.
     */
    void mapKernel(double *d2, std::size_t len) const;
    /** Symmetric kernel matrix K(xs, xs), each row's lower triangle
     *  through mapKernel and mirrored. */
    Matrix kernelGram(const std::vector<std::vector<double>> &xs) const;
    /** Rebuild trainPacked_/trainNorms_ from xs_. */
    void rebuildTrainCache();

    /** Arena pointers staged by stageCrossSolve; valid until the next
     *  staging call. */
    struct PredictStage
    {
        double *fac = nullptr;     ///< packed factor copy
        double *cross = nullptr;   ///< V = L^-1 K* (n x m) after staging
        double *kstar = nullptr;   ///< preserved K* (n x m), joint only
        double *qt = nullptr;      ///< dim x m transposed queries
        double *qnorms = nullptr;  ///< m query squared norms
        double *qpack = nullptr;   ///< m x dim packed queries, joint only
        double *kss = nullptr;     ///< m x m scratch, joint only
    };
    /**
     * Stage the arena for an m-query block and run the shared half of
     * every batched posterior query: pack/transpose the queries, build
     * the cross-kernel block through the GEMM distance decomposition
     * and mapKernel, accumulate posterior means, forward-solve the
     * block in place, and finalize means/variances in original y
     * units. With want_kstar a copy of the unsolved K* block (and the
     * query self-distance scratch) is staged as well for the
     * covariance path. predictBatch is exactly this call;
     * posteriorJoint extends it with the backward solve — running the
     * identical code makes their mean/variance outputs bitwise equal
     * by construction.
     *
     * @pre fitted_
     */
    PredictStage stageCrossSolve(const std::vector<std::vector<double>> &xs,
                                 bool want_kstar,
                                 std::vector<double> &means,
                                 std::vector<double> &variances) const;

    double lengthScale_;
    double signalVar_;
    double noiseVar_;
    GpKernel kernelKind_;

    std::vector<std::vector<double>> xs_;
    std::vector<double> ysRaw_;
    /** xs_ flattened row-major (n x dim) with per-row squared norms,
     *  maintained incrementally alongside the factor: the GEMM
     *  distance kernel streams these instead of pointer-chasing
     *  std::vectors, and the cached norms make the |a|^2 term of the
     *  decomposition free per query block. */
    AlignedVector trainPacked_;
    AlignedVector trainNorms_;
    std::size_t dim_ = 0;
    double yMean_ = 0.0;
    double yStd_ = 1.0;
    std::vector<double> alpha_;  ///< K^-1 y (standardized)
    std::unique_ptr<Cholesky> chol_;
    bool fitted_ = false;
    std::size_t reserveHint_ = 0;  ///< expected max training-set size

    /**
     * predictBatch/posteriorJoint arena, reused across calls: a copy
     * of the packed factor, the n x m cross-kernel block, the
     * transposed query block (dim x m) the GEMM distance kernel
     * streams, the query norms, the per-query prior k(x, x), the packed
     * queries, and — for posteriorJoint only — a preserved K* copy and
     * the m x m query self-distance block, all in one aligned
     * allocation. Co-locating the factor and the cross block the
     * blocked solve interleaves is worth ~3x over separately allocated
     * buffers (whose relative placement is at the allocator's mercy);
     * the factor copy is O(n^2) bytes once per refit — noise next to
     * the O(n^2 m) solve it accelerates.
     */
    mutable AlignedVector predictArena_;
    mutable std::vector<double> jointMeansScratch_;
    mutable std::vector<double> jointReductionsScratch_;
    mutable std::uint64_t arenaEpoch_ = ~0ull;  ///< factor copy is of
    std::uint64_t facEpoch_ = 0;  ///< bumped on every factor change
};

class BayesianOptAgent : public Agent
{
  public:
    /**
     * Acquisition modes. EI/UCB/PI are the scalar functions from the
     * paper (Q3), proposing one point per iteration. ThompsonBatch and
     * BatchEI are cohort modes: one selectActionBatch call proposes a
     * whole batch of points for parallel evaluation —
     *
     *  - ThompsonBatch ranks one joint posterior draw
     *    (GaussianProcess::samplePosteriorBatch) per cohort slot and
     *    takes each draw's argmax over the not-yet-taken candidates;
     *
     *  - BatchEI picks the expected-improvement argmax, then
     *    fantasizes the pick at its posterior mean (Kriging believer:
     *    variances deflate through the joint covariance, means are
     *    unchanged) and repeats, so later slots avoid the region the
     *    earlier slots already cover.
     *
     * Out-of-range values throw at construction.
     */
    enum class Acquisition
    {
        EI = 0,
        UCB = 1,
        PI = 2,
        ThompsonBatch = 3,
        BatchEI = 4
    };

    /**
     * Hyperparameters:
     *  - n_init         (random warmup samples, default 8)
     *  - length_scale   (finite, > 0; default 0.2)
     *  - signal_var     (finite, > 0; default 1.0)
     *  - noise_var      (finite, >= 0; default 1e-4)
     *  - kernel         (0 squared-exponential, 1 Matern-5/2; default 0)
     *  - acquisition    (0 EI, 1 UCB, 2 PI, 3 ThompsonBatch, 4 BatchEI;
     *                    default 0; out-of-range values throw)
     *  - kappa          (UCB exploration weight, default 2.0)
     *  - xi             (EI/PI improvement margin, default 0.01)
     *  - num_candidates (acquisition search points, default 256)
     *  - max_history    (GP window size, default 150)
     *  - cohort         (proposals per selectActionBatch call in the
     *                    batch acquisition modes, default 8, min 1;
     *                    ignored by the scalar modes)
     *  - reference_impl (1 = pre-overhaul oracle path: full GP refit on
     *                    every history change and per-candidate scalar
     *                    predicts; default 0. For equivalence tests and
     *                    the perf_bo_hotloop seed-vs-now comparison.)
     *
     * Out-of-domain acquisition, kernel, length_scale, signal_var and
     * noise_var values throw, naming the field and the value.
     */
    BayesianOptAgent(const ParamSpace &space, HyperParams hp,
                     std::uint64_t seed);

    Action selectAction() override;
    void observe(const Action &action, const Metrics &metrics,
                 double reward) override;
    /** Batched Q1: during random warmup, drain up to maxActions of the
     *  remaining n_init proposals (mutually independent, drawn in the
     *  same RNG order as repeated selectAction calls). After warmup the
     *  scalar acquisition modes degrade to size-1 batches — every
     *  proposal depends on the previous feedback — and the trajectory
     *  stays bit-identical to the per-step path. The batch modes
     *  (ThompsonBatch/BatchEI) instead emit a whole cohort of
     *  min(cohort, maxActions) proposals per call; that is their
     *  per-step contract too (selectAction is the one-slot cohort), so
     *  batched and per-step runs of a batch mode agree with each other,
     *  while intentionally differing from the scalar modes. */
    std::vector<Action> selectActionBatch(std::size_t maxActions) override;
    void observeBatch(const std::vector<Action> &actions,
                      const std::vector<StepResult> &results) override;
    void reset() override;

    std::size_t historySize() const { return xs_.size(); }

  private:
    /** One deferred surrogate edit recorded by observe(): absorb an
     *  appended observation (bordering update) or evict a training row
     *  (rank-1 downdate). Replayed in order by refit(). */
    struct GpOp
    {
        enum class Kind { Append, Drop };
        Kind kind;
        std::size_t dropIndex = 0;     ///< valid at replay time
        std::vector<double> x;         ///< Append only
        double y = 0.0;                ///< Append only
    };

    void refit();
    double acquisitionValue(double mean, double variance) const;
    /** The EI formula shared by the scalar EI switch case and the
     *  BatchEI cohort loop — one body so a one-slot BatchEI cohort
     *  scores candidates bit-identically to scalar EI. */
    double expectedImprovement(double mean, double variance) const;
    void trimHistory();
    void fillCandidate(std::vector<double> &cand, std::size_t c,
                       std::size_t local_cands);
    Action selectByAcquisition();
    /**
     * Propose min(want, num_candidates) actions for the batch
     * acquisition modes: generate the candidate set (same RNG draws,
     * same order as the scalar path), then fill cohort slots by
     * ThompsonBatch posterior draws or BatchEI fantasized picks. Slots
     * never repeat a candidate; ties break to the lowest candidate
     * index (the scalar argmax rule).
     *
     * @pre acq_ is ThompsonBatch or BatchEI, and the surrogate is
     *      refit (not dirty_)
     */
    std::vector<Action> proposeCohort(std::size_t want);

    Rng rng_;
    std::uint64_t seed_;

    std::size_t nInit_;
    Acquisition acq_;
    double kappa_;
    double xi_;
    std::size_t numCandidates_;
    std::size_t maxHistory_;
    std::size_t cohortSize_;
    double noiseVar_;  ///< mirrors the GP's, for BatchEI fantasization
    bool referenceImpl_;

    GaussianProcess gp_;
    std::vector<std::vector<double>> xs_;  ///< unit-space observations
    std::vector<double> ys_;
    double bestY_ = -std::numeric_limits<double>::infinity();
    std::vector<double> bestX_;
    bool hasBest_ = false;
    bool dirty_ = true;  ///< GP needs refit before next prediction
    bool needFullFit_ = true;  ///< pending ops invalid; refactorize
    std::vector<GpOp> pendingOps_;  ///< history edits since last refit

    // Candidate-scoring scratch, reused across selectAction calls.
    std::vector<std::vector<double>> candScratch_;
    std::vector<double> candMeans_;
    std::vector<double> candVars_;
    // Cohort-proposal scratch (batch acquisition modes only).
    Matrix cohortCov_;
    std::vector<double> drawScratch_;
    std::vector<char> takenScratch_;
};

} // namespace archgym

#endif // ARCHGYM_AGENTS_BAYESIAN_OPT_H
