#include "bayesian_opt.h"

#include <algorithm>
#include <bit>
#include <cassert>
#include <cmath>
#include <cstdint>
#include <numbers>
#include <numeric>
#include <stdexcept>
#include <string>

#if defined(__AVX__)
#include <immintrin.h>
#endif

#include "core/jsonio.h"

namespace archgym {

namespace {

double
normalCdf(double z)
{
    return 0.5 * std::erfc(-z / std::numbers::sqrt2);
}

double
normalPdf(double z)
{
    return std::exp(-0.5 * z * z) /
           std::sqrt(2.0 * std::numbers::pi);
}

/**
 * exp(x) for non-positive arguments, spelled so that a scalar call and
 * one lane of the 4-wide version below execute the exact same
 * operation sequence (same constants, same Horner order; nothing
 * contracts under -ffp-contract=off) and therefore produce bitwise
 * identical results. Every kernel evaluation in this file — fit,
 * scalar predict, and the batched kernel map — routes through these,
 * which is what keeps the vectorized kernel map bitwise equal to the
 * scalar predict path.
 *
 * Cody-Waite reduction: n = round(x * log2(e)) via the 1.5*2^52
 * shifter trick (the round-to-nearest result lands in the mantissa low
 * bits), r = x - n*ln2 subtracted in hi/lo halves, degree-11 Taylor
 * Horner for exp(r) on [-ln2/2, ln2/2] (max relative error ~7e-15),
 * and the 2^n scale reassembled straight from the shifter's mantissa.
 * Arguments below -708 clamp to exp(-708) ~ 3.3e-308 — still a normal
 * double; the true value there is subnormal noise on a kernel weight.
 * exp(0) and exp(-0) evaluate to exactly 1.0.
 */
constexpr double kExpClampLo = -708.0;
constexpr double kExpLog2e = 1.4426950408889634074;
constexpr double kExpShift = 6755399441055744.0;  // 1.5 * 2^52
constexpr double kExpLn2Hi = 6.93147180369123816490e-01;
constexpr double kExpLn2Lo = 1.90821492927058770002e-10;
constexpr double kExpCoef[10] = {
    1.0 / 39916800.0,  // 1/11! ... down to 1/2!
    1.0 / 3628800.0, 1.0 / 362880.0, 1.0 / 40320.0, 1.0 / 5040.0,
    1.0 / 720.0,     1.0 / 120.0,    1.0 / 24.0,    1.0 / 6.0,
    1.0 / 2.0};

inline double
expNeg(double x)
{
    x = x < kExpClampLo ? kExpClampLo : x;
    const double t = x * kExpLog2e + kExpShift;
    const double n = t - kExpShift;
    double r = x - n * kExpLn2Hi;
    r = r - n * kExpLn2Lo;
    double p = kExpCoef[0];
    for (int c = 1; c < 10; ++c)
        p = p * r + kExpCoef[c];
    p = p * r + 1.0;
    p = p * r + 1.0;
    const std::int64_t bits = std::bit_cast<std::int64_t>(t);
    const std::int64_t ni =
        (bits & 0xFFFFFFFFFFFFFll) - 0x8000000000000ll;
    const double scale = std::bit_cast<double>((ni + 1023) << 52);
    return p * scale;
}

#if defined(__GNUC__) || defined(__clang__)
/** Same vector idiom as src/mathutil/matrix.cc: 4-lane doubles, an
 *  unaligned may_alias variant for loads/stores, and a matching
 *  integer lane type for the exponent-assembly bit work. */
typedef double V4d __attribute__((vector_size(32)));
typedef std::int64_t V4i __attribute__((vector_size(32)));
typedef double V4dUnaligned
    __attribute__((vector_size(32), aligned(8), may_alias));

inline V4d
loadu4(const double *p)
{
    return *reinterpret_cast<const V4dUnaligned *>(p);
}

inline void
storeu4(double *p, V4d v)
{
    *reinterpret_cast<V4dUnaligned *>(p) = v;
}

inline V4d
broadcast4(double v)
{
    return V4d{v, v, v, v};
}

/** Lane-wise twin of expNeg above — identical operation sequence, so
 *  each lane is bitwise equal to the scalar call on the same input. */
inline V4d
expNeg4(V4d x)
{
    const V4d lo = broadcast4(kExpClampLo);
    x = x < lo ? lo : x;
    const V4d shift = broadcast4(kExpShift);
    const V4d t = x * broadcast4(kExpLog2e) + shift;
    const V4d n = t - shift;
    V4d r = x - n * broadcast4(kExpLn2Hi);
    r = r - n * broadcast4(kExpLn2Lo);
    V4d p = broadcast4(kExpCoef[0]);
    for (int c = 1; c < 10; ++c)
        p = p * r + broadcast4(kExpCoef[c]);
    const V4d one = broadcast4(1.0);
    p = p * r + one;
    p = p * r + one;
    const V4i bits = (V4i)t;
    const V4i ni = (bits & 0xFFFFFFFFFFFFFll) - 0x8000000000000ll;
    const V4d scale = (V4d)((ni + 1023ll) << 52);
    return p * scale;
}

/** Lane-wise sqrt. IEEE-754 rounds sqrt correctly, so every lane equals
 *  std::sqrt of the same input in either form; under AVX one vsqrtpd
 *  does all four lanes. */
inline V4d
sqrt4(V4d x)
{
#if defined(__AVX__)
    return (V4d)_mm256_sqrt_pd((__m256d)x);
#else
    return V4d{std::sqrt(x[0]), std::sqrt(x[1]), std::sqrt(x[2]),
               std::sqrt(x[3])};
#endif
}
#endif

/**
 * The BO surrogate from the agent's hyperparameters, each checked
 * against its domain because any of them can arrive from the command
 * line: a static_cast of an unknown kernel id would silently run SE,
 * and a zero or non-finite length scale or variance makes the kernel
 * matrix NaN, so every refit fails and the search silently keeps
 * proposing from the prior.
 */
GaussianProcess
surrogateFromHyperParams(const HyperParams &hp)
{
    const std::int64_t kernel = hp.getInt("kernel", 0);
    if (kernel < 0 || kernel > 1) {
        throw std::runtime_error(
            "BayesianOptAgent: hyperparameter 'kernel' is " +
            std::to_string(kernel) +
            ", valid kernels are 0 (squared-exponential), 1 (Matern-5/2)");
    }
    const auto checked = [&hp](const char *name, double fallback,
                               bool zero_ok) {
        const double v = hp.get(name, fallback);
        if (!std::isfinite(v) || v < 0.0 || (v == 0.0 && !zero_ok)) {
            std::string what = "BayesianOptAgent: hyperparameter '";
            what += name;
            what += "' is ";
            jsonio::appendDouble(what, v);
            what += zero_ok ? ", must be finite and >= 0"
                            : ", must be finite and > 0";
            throw std::runtime_error(what);
        }
        return v;
    };
    const double lengthScale = checked("length_scale", 0.2, false);
    const double signalVar = checked("signal_var", 1.0, false);
    const double noiseVar = checked("noise_var", 1e-4, true);
    return GaussianProcess(lengthScale, signalVar, noiseVar,
                           static_cast<GpKernel>(kernel));
}

} // namespace

GaussianProcess::GaussianProcess(double length_scale, double signal_var,
                                 double noise_var, GpKernel kernel)
    : lengthScale_(length_scale), signalVar_(signal_var),
      noiseVar_(noise_var), kernelKind_(kernel)
{
}

double
GaussianProcess::kernelFromSquaredDistance(double d2) const
{
    if (kernelKind_ == GpKernel::Matern52) {
        const double r = std::sqrt(d2) / lengthScale_;
        const double s = std::sqrt(5.0) * r;
        return signalVar_ * (1.0 + s + 5.0 * r * r / 3.0) *
               expNeg(-s);
    }
    return signalVar_ *
           expNeg(-d2 / (2.0 * lengthScale_ * lengthScale_));
}

void
GaussianProcess::mapKernel(double *d2, std::size_t len) const
{
    std::size_t j = 0;
#if defined(__GNUC__) || defined(__clang__)
    // Each vector body is the lane-wise twin of its branch in
    // kernelFromSquaredDistance: the same operations in the same
    // order, so every full lane is bitwise equal to the scalar
    // remainder loop below. sqrt and division round correctly in both
    // forms and expNeg4 twins expNeg; /l and /3 must stay divisions (a
    // multiply by the reciprocal rounds differently).
    const std::size_t full = len - len % 4;
    const V4d sv = broadcast4(signalVar_);
    if (kernelKind_ == GpKernel::Matern52) {
        const V4d lv = broadcast4(lengthScale_);
        const V4d root5 = broadcast4(std::sqrt(5.0));
        const V4d one = broadcast4(1.0);
        const V4d five = broadcast4(5.0);
        const V4d three = broadcast4(3.0);
        for (; j < full; j += 4) {
            const V4d r = sqrt4(loadu4(d2 + j)) / lv;
            const V4d s = root5 * r;
            storeu4(d2 + j, sv * (one + s + five * r * r / three) *
                                expNeg4(-s));
        }
    } else {
        const V4d twoL2 = broadcast4(2.0 * lengthScale_ * lengthScale_);
        for (; j < full; j += 4)
            storeu4(d2 + j, sv * expNeg4(-loadu4(d2 + j) / twoL2));
    }
#endif
    for (; j < len; ++j)
        d2[j] = kernelFromSquaredDistance(d2[j]);
}

Matrix
GaussianProcess::kernelGram(const std::vector<std::vector<double>> &xs) const
{
    const std::size_t n = xs.size();
    Matrix k(n, n);
    for (std::size_t i = 0; i < n; ++i) {
        double *ki = &k(i, 0);
        for (std::size_t j = 0; j <= i; ++j)
            ki[j] = squaredDistance(xs[i], xs[j]);
        mapKernel(ki, i + 1);
        for (std::size_t j = 0; j < i; ++j)
            k(j, i) = ki[j];
    }
    return k;
}

double
GaussianProcess::kernel(const std::vector<double> &a,
                        const std::vector<double> &b) const
{
    return kernelFromSquaredDistance(squaredDistance(a, b));
}

void
GaussianProcess::rebuildTrainCache()
{
    const std::size_t n = xs_.size();
    dim_ = n == 0 ? 0 : xs_[0].size();
    trainPacked_.resize(n * dim_);
    for (std::size_t i = 0; i < n; ++i)
        std::copy(xs_[i].begin(), xs_[i].end(),
                  trainPacked_.data() + i * dim_);
    trainNorms_.resize(n);
    rowSquaredNorms(trainPacked_.data(), n, dim_, trainNorms_.data());
}

void
GaussianProcess::fit(const std::vector<std::vector<double>> &xs,
                     const std::vector<double> &ys)
{
    assert(xs.size() == ys.size());
    xs_ = xs;
    ysRaw_ = ys;
    refitFromMembers();
}

void
GaussianProcess::refitFromMembers()
{
    fitted_ = false;
    rebuildTrainCache();
    if (xs_.empty())
        return;

    // Standardize targets for numerical conditioning (kept updated even
    // when factorization fails: predict() falls back to yMean_).
    standardizeTargets();

    const std::size_t n = xs_.size();
    Matrix k = kernelGram(xs_);
    for (std::size_t i = 0; i < n; ++i)
        k(i, i) += noiseVar_;
    chol_ = std::make_unique<Cholesky>(k);
    ++facEpoch_;
    if (!chol_->ok())
        return;
    if (reserveHint_ > n)
        chol_->reserve(reserveHint_);

    solveAlpha();
    fitted_ = true;
}

void
GaussianProcess::standardizeTargets()
{
    const std::size_t n = ysRaw_.size();
    yMean_ = std::accumulate(ysRaw_.begin(), ysRaw_.end(), 0.0) /
             static_cast<double>(n);
    double var = 0.0;
    for (double y : ysRaw_)
        var += (y - yMean_) * (y - yMean_);
    var /= static_cast<double>(n);
    yStd_ = var > 1e-12 ? std::sqrt(var) : 1.0;
}

void
GaussianProcess::solveAlpha()
{
    const std::size_t n = ysRaw_.size();
    std::vector<double> yStd(n);
    for (std::size_t i = 0; i < n; ++i)
        yStd[i] = (ysRaw_[i] - yMean_) / yStd_;
    alpha_ = chol_->solve(yStd);
}

void
GaussianProcess::recomputeAlpha()
{
    // The mean/std move with every appended observation, but alpha is
    // only a solve against the (incrementally grown) factor: O(n^2).
    standardizeTargets();
    solveAlpha();
}

void
GaussianProcess::appendFit(const std::vector<double> &x, double y,
                           bool refresh_alpha)
{
    xs_.push_back(x);
    ysRaw_.push_back(y);
    if (!fitted_ || !chol_ || !chol_->ok() ||
        chol_->size() + 1 != xs_.size()) {
        refitFromMembers();
        return;
    }

    // Bordering column: the new point's squared distances to every
    // member, itself last, mapped in one pass.
    const std::size_t n = xs_.size() - 1;
    std::vector<double> col(n + 1);
    for (std::size_t i = 0; i <= n; ++i)
        col[i] = squaredDistance(xs_.back(), xs_[i]);
    mapKernel(col.data(), n + 1);
    col[n] += noiseVar_;
    if (!chol_->append(col)) {
        refitFromMembers();
        return;
    }
    // Extend the packed-row/norm cache in step with the factor (the
    // fallback paths above rebuild it wholesale inside
    // refitFromMembers). The norm uses the same k-ascending sum of
    // squares as rowSquaredNorms.
    trainPacked_.insert(trainPacked_.end(), x.begin(), x.end());
    double nrm = 0.0;
    for (double v : x)
        nrm += v * v;
    trainNorms_.push_back(nrm);
    ++facEpoch_;
    if (refresh_alpha)
        recomputeAlpha();
    fitted_ = true;
}

void
GaussianProcess::dropFit(std::size_t index, bool refresh_alpha)
{
    assert(index < xs_.size());
    // The downdate applies only when the factor is in sync with the
    // training set and large enough to shrink; otherwise (or when the
    // rotations lose positive definiteness) refactorize from scratch.
    const bool downdated = fitted_ && chol_ && chol_->ok() &&
                           chol_->size() == xs_.size() &&
                           chol_->size() >= 2 && chol_->removeRow(index);
    xs_.erase(xs_.begin() + static_cast<std::ptrdiff_t>(index));
    ysRaw_.erase(ysRaw_.begin() + static_cast<std::ptrdiff_t>(index));
    if (!downdated) {
        refitFromMembers();
        return;
    }
    // Shrink the packed-row/norm cache in step with the factor.
    const auto row =
        trainPacked_.begin() + static_cast<std::ptrdiff_t>(index * dim_);
    trainPacked_.erase(row, row + static_cast<std::ptrdiff_t>(dim_));
    trainNorms_.erase(trainNorms_.begin() +
                      static_cast<std::ptrdiff_t>(index));
    ++facEpoch_;
    if (refresh_alpha)
        recomputeAlpha();
}

void
GaussianProcess::predict(const std::vector<double> &x, double &mean,
                         double &variance) const
{
    if (!fitted_) {
        // Pre-fit contract: the standardization-scaled prior, in the
        // same (original-y) units the fitted path reports.
        mean = yMean_;
        variance = yStd_ * yStd_ * signalVar_;
        return;
    }
    const std::size_t n = xs_.size();
    // Decomposed distance, arithmetic matched operation for operation
    // with the GEMM-built batch path (train norm + query norm, minus
    // the doubled k-ascending dot, clamped at zero) so predict and
    // predictBatch stay bit-identical.
    double qn = 0.0;
    for (std::size_t k = 0; k < dim_; ++k)
        qn += x[k] * x[k];
    std::vector<double> kStar(n);
    for (std::size_t i = 0; i < n; ++i) {
        const double *ti = trainPacked_.data() + i * dim_;
        double s = 0.0;
        for (std::size_t k = 0; k < dim_; ++k)
            s += ti[k] * x[k];
        const double d2 = (trainNorms_[i] + qn) - 2.0 * s;
        kStar[i] = kernelFromSquaredDistance(d2 < 0.0 ? 0.0 : d2);
    }
    const double mu = dot(kStar, alpha_);
    // var = k(x,x) - k*^T K^-1 k*, computed through the Cholesky factor.
    const std::vector<double> v = chol_->solveLower(kStar);
    double reduction = 0.0;
    for (double vi : v)
        reduction += vi * vi;
    const double rawVar = std::max(kernel(x, x) - reduction, 1e-12);
    mean = yMean_ + yStd_ * mu;
    variance = yStd_ * yStd_ * rawVar;
}

GaussianProcess::PredictStage
GaussianProcess::stageCrossSolve(const std::vector<std::vector<double>> &xs,
                                 bool want_kstar,
                                 std::vector<double> &means,
                                 std::vector<double> &variances) const
{
    assert(fitted_);
    const std::size_t m = xs.size();
    const std::size_t n = xs_.size();
    // Stage the packed factor, the cross-kernel block, and the
    // packed/transposed query blocks adjacently in the arena; the
    // factor copy refreshes only when the factor changed (once per
    // refit/append/evict — O(n^2) bytes next to the O(n^2 m) solve).
    // The joint-covariance path additionally reserves a preserved K*
    // copy and an m x m query self-distance scratch.
    const std::size_t facLen = n * (n + 1) / 2;
    PredictStage st;
    std::size_t need = facLen + n * m        // fac, cross
                       + dim_ * m + 2 * m;   // qt, qnorms, prior
    if (want_kstar)
        need += n * m + m * dim_ + m * m;    // kstar, qpack, kss
    if (predictArena_.size() < need) {
        predictArena_.resize(need);
        arenaEpoch_ = ~0ull;  // resize may have moved the storage
    }
    double *p = predictArena_.data();
    st.fac = p;
    p += facLen;
    st.cross = p;
    p += n * m;
    st.qt = p;
    p += dim_ * m;
    st.qnorms = p;
    p += m;
    double *prior = p;  // k(x, x) per query
    p += m;
    if (want_kstar) {
        st.kstar = p;
        p += n * m;
        st.qpack = p;
        p += m * dim_;
        st.kss = p;
    }
    if (arenaEpoch_ != facEpoch_) {
        std::copy(chol_->packedData(), chol_->packedData() + facLen,
                  st.fac);
        arenaEpoch_ = facEpoch_;
    }
    // Pack the queries transposed (vector lanes of the GEMM distance
    // kernel stream contiguous columns) and take their norms with the
    // same k-ascending sum of squares the scalar predict path uses.
    for (std::size_t j = 0; j < m; ++j) {
        const std::vector<double> &q = xs[j];
        double qn = 0.0;
        for (std::size_t k = 0; k < dim_; ++k) {
            st.qt[k * m + j] = q[k];
            qn += q[k] * q[k];
        }
        st.qnorms[j] = qn;
        prior[j] = squaredDistance(q, q);
        if (want_kstar) {
            std::copy(q.begin(), q.end(), st.qpack + j * dim_);
        }
    }
    // Cross squared distances in one blocked GEMM pass, then the
    // kernel map one row at a time, the posterior means accumulating
    // while the row is hot (i ascending per column, the order of
    // dot(kStar, alpha_) in the scalar path). Column j of the cross
    // block is k* for query j.
    crossSquaredDistances(trainPacked_.data(), trainNorms_.data(), n,
                          st.qt, st.qnorms, m, dim_, st.cross);
    means.resize(m);
    variances.resize(m);
    std::fill(means.begin(), means.end(), 0.0);
    for (std::size_t i = 0; i < n; ++i) {
        double *row = st.cross + i * m;
        mapKernel(row, m);
        const double ai = alpha_[i];
        for (std::size_t j = 0; j < m; ++j)
            means[j] += row[j] * ai;
    }
    if (want_kstar)
        std::copy(st.cross, st.cross + n * m, st.kstar);
    // One blocked pass over the factor solves L V = K* for every
    // column; per column the arithmetic matches solveLower exactly.
    solveLowerPackedBatch(st.fac, n, st.cross, m);
    // Variance reductions accumulate row-major (i ascending per
    // column, the same per-column addition order as the scalar
    // predict loop over v) so the sweep streams the solved block
    // instead of striding down each column.
    std::fill(variances.begin(), variances.end(), 0.0);
    for (std::size_t i = 0; i < n; ++i) {
        const double *row = st.cross + i * m;
        for (std::size_t j = 0; j < m; ++j)
            variances[j] += row[j] * row[j];
    }
    mapKernel(prior, m);
    for (std::size_t j = 0; j < m; ++j) {
        const double rawVar = std::max(prior[j] - variances[j], 1e-12);
        means[j] = yMean_ + yStd_ * means[j];
        variances[j] = yStd_ * yStd_ * rawVar;
    }
    return st;
}

void
GaussianProcess::predictBatch(const std::vector<std::vector<double>> &xs,
                              std::vector<double> &means,
                              std::vector<double> &variances) const
{
    const std::size_t m = xs.size();
    means.resize(m);
    variances.resize(m);
    if (m == 0)
        return;
    if (!fitted_) {
        std::fill(means.begin(), means.end(), yMean_);
        std::fill(variances.begin(), variances.end(),
                  yStd_ * yStd_ * signalVar_);
        return;
    }
    stageCrossSolve(xs, /*want_kstar=*/false, means, variances);
}

void
GaussianProcess::posteriorJoint(const std::vector<std::vector<double>> &xs,
                                std::vector<double> &means,
                                std::vector<double> &variances,
                                Matrix &cov) const
{
    const std::size_t m = xs.size();
    means.resize(m);
    variances.resize(m);
    cov = Matrix(m, m);
    if (m == 0)
        return;
    if (!fitted_) {
        // Pre-fit contract: the standardization-scaled prior — the
        // joint analogue of predict()'s fallback, with the prior
        // kernel as covariance (diagonal yStd^2 * signal_var).
        std::fill(means.begin(), means.end(), yMean_);
        std::fill(variances.begin(), variances.end(),
                  yStd_ * yStd_ * signalVar_);
        const double s2 = yStd_ * yStd_;
        cov = kernelGram(xs);
        for (std::size_t i = 0; i < m; ++i)
            for (std::size_t j = 0; j < m; ++j)
                cov(i, j) = s2 * cov(i, j);
        return;
    }
    const std::size_t n = xs_.size();
    const PredictStage st =
        stageCrossSolve(xs, /*want_kstar=*/true, means, variances);
    // Continue the factored pipeline: the backward solve turns
    // V = L^-1 K* into A = K^-1 K*, and the joint covariance is
    // K** - K*^T A.
    solveUpperPackedBatch(st.fac, n, st.cross, m);
    crossSquaredDistances(st.qpack, st.qnorms, m, st.qt, st.qnorms, m,
                          dim_, st.kss);
    mapKernel(st.kss, m * m);
    for (std::size_t i = 0; i < n; ++i) {
        const double *ks = st.kstar + i * m;
        const double *ai = st.cross + i * m;
        for (std::size_t j1 = 0; j1 < m; ++j1) {
            const double v = ks[j1];
            double *crow = st.kss + j1 * m;
            for (std::size_t j2 = 0; j2 < m; ++j2)
                crow[j2] -= v * ai[j2];
        }
    }
    // Scale to original units; the diagonal gets the same floor as the
    // marginal-variance path (it agrees with `variances` only to
    // solver roundoff — see the header).
    const double s2 = yStd_ * yStd_;
    for (std::size_t j1 = 0; j1 < m; ++j1) {
        for (std::size_t j2 = 0; j2 < m; ++j2) {
            const double raw = st.kss[j1 * m + j2];
            cov(j1, j2) =
                s2 * (j1 == j2 ? std::max(raw, 1e-12) : raw);
        }
    }
}

void
GaussianProcess::samplePosteriorBatch(
    const std::vector<std::vector<double>> &xs, std::size_t num_draws,
    Rng &rng, std::vector<double> &draws) const
{
    const std::size_t m = xs.size();
    draws.resize(num_draws * m);
    if (m == 0 || num_draws == 0)
        return;
    Matrix cov;
    posteriorJoint(xs, jointMeansScratch_, jointReductionsScratch_, cov);
    const std::vector<double> &means = jointMeansScratch_;
    const std::vector<double> &vars = jointReductionsScratch_;
    // Factor the joint covariance (the constructor's escalating jitter
    // absorbs near-duplicate candidates); draws are means + C z.
    const Cholesky cc(cov);
    std::vector<double> z(m);
    for (std::size_t d = 0; d < num_draws; ++d) {
        // Fixed consumption order — m gaussians per draw, query index
        // ascending — regardless of which branch produces the sample,
        // so the agent-side RNG stream is reproducible.
        for (std::size_t j = 0; j < m; ++j)
            z[j] = rng.gaussian(0.0, 1.0);
        double *row = draws.data() + d * m;
        if (cc.ok()) {
            const double *p = cc.packedData();
            for (std::size_t j = 0; j < m; ++j) {
                const double *rj = p + j * (j + 1) / 2;
                double acc = 0.0;
                for (std::size_t l = 0; l <= j; ++l)
                    acc += rj[l] * z[l];
                row[j] = means[j] + acc;
            }
        } else {
            // Degenerate covariance even with jitter: independent
            // draws from the marginals keep Thompson sampling alive.
            for (std::size_t j = 0; j < m; ++j)
                row[j] = means[j] +
                         std::sqrt(std::max(vars[j], 0.0)) * z[j];
        }
    }
}

BayesianOptAgent::BayesianOptAgent(const ParamSpace &space, HyperParams hp,
                                   std::uint64_t seed)
    : Agent("BO", space, std::move(hp)), rng_(seed), seed_(seed),
      gp_(surrogateFromHyperParams(hp_))
{
    nInit_ = static_cast<std::size_t>(
        std::max<std::int64_t>(2, hp_.getInt("n_init", 8)));
    const std::int64_t acqRaw = hp_.getInt("acquisition", 0);
    if (acqRaw < 0 || acqRaw > 4) {
        // static_cast of an arbitrary int to the enum would silently
        // produce an agent whose acquisition switch falls through to
        // EI — name the field and the value instead.
        throw std::runtime_error(
            "BayesianOptAgent: hyperparameter 'acquisition' is " +
            std::to_string(acqRaw) +
            ", valid modes are 0 (EI), 1 (UCB), 2 (PI), "
            "3 (ThompsonBatch), 4 (BatchEI)");
    }
    acq_ = static_cast<Acquisition>(acqRaw);
    kappa_ = hp_.get("kappa", 2.0);
    xi_ = hp_.get("xi", 0.01);
    numCandidates_ = static_cast<std::size_t>(
        std::max<std::int64_t>(8, hp_.getInt("num_candidates", 256)));
    maxHistory_ = static_cast<std::size_t>(
        std::max<std::int64_t>(16, hp_.getInt("max_history", 150)));
    cohortSize_ = static_cast<std::size_t>(
        std::max<std::int64_t>(1, hp_.getInt("cohort", 8)));
    noiseVar_ = hp_.get("noise_var", 1e-4);
    referenceImpl_ = hp_.getInt("reference_impl", 0) == 1;
    // Window appends then never reallocate the Cholesky factor.
    gp_.reserveCapacity(maxHistory_ + 1);
}

double
BayesianOptAgent::expectedImprovement(double mean, double variance) const
{
    const double sigma = std::sqrt(std::max(variance, 1e-12));
    const double improve = mean - bestY_ - xi_;
    const double z = improve / sigma;
    return improve * normalCdf(z) + sigma * normalPdf(z);
}

double
BayesianOptAgent::acquisitionValue(double mean, double variance) const
{
    const double sigma = std::sqrt(std::max(variance, 1e-12));
    switch (acq_) {
      case Acquisition::UCB:
        return mean + kappa_ * sigma;
      case Acquisition::PI: {
        const double z = (mean - bestY_ - xi_) / sigma;
        return normalCdf(z);
      }
      case Acquisition::EI:
      default:
        return expectedImprovement(mean, variance);
    }
}

void
BayesianOptAgent::refit()
{
    // Steady-state fast path: replay the history edits recorded since
    // the last fit — bordering updates for appended observations,
    // rank-1 downdates for window evictions — so absorbing a sample at
    // the window limit costs O(n^2) where the seed path refactorized
    // in O(n^3). The GP's own fallbacks (appendFit/dropFit refit from
    // members when an update does not apply) keep this path safe.
    if (referenceImpl_ || needFullFit_ || !gp_.fitted()) {
        gp_.fit(xs_, ys_);
    } else {
        // Alpha is deferred to one refresh after the whole replay —
        // only the final posterior weights are ever read.
        for (const GpOp &op : pendingOps_) {
            if (op.kind == GpOp::Kind::Append)
                gp_.appendFit(op.x, op.y, /*refresh_alpha=*/false);
            else
                gp_.dropFit(op.dropIndex, /*refresh_alpha=*/false);
        }
        if (gp_.sampleCount() != xs_.size())  // defensive: desynced plan
            gp_.fit(xs_, ys_);
        else
            gp_.refreshAlpha();
    }
    pendingOps_.clear();
    needFullFit_ = !gp_.fitted();
    dirty_ = false;
}

void
BayesianOptAgent::fillCandidate(std::vector<double> &cand, std::size_t c,
                                std::size_t local_cands)
{
    cand.resize(space_.size());
    if (c < local_cands) {
        for (std::size_t d = 0; d < cand.size(); ++d) {
            cand[d] = std::clamp(bestX_[d] + rng_.gaussian(0.0, 0.08),
                                 0.0, 1.0);
        }
    } else {
        for (auto &u : cand)
            u = rng_.uniform();
    }
}

Action
BayesianOptAgent::selectByAcquisition()
{
    // Candidate set: random points plus local moves around the incumbent.
    const std::size_t localCands = hasBest_ ? numCandidates_ / 4 : 0;

    if (referenceImpl_) {
        // Seed path: per-candidate scalar predicts, interleaved with
        // candidate generation (the RNG order batching must reproduce).
        double bestAcq = -std::numeric_limits<double>::infinity();
        std::vector<double> bestCand;
        for (std::size_t c = 0; c < numCandidates_; ++c) {
            std::vector<double> cand;
            fillCandidate(cand, c, localCands);
            double mean, variance;
            gp_.predict(cand, mean, variance);
            const double a = acquisitionValue(mean, variance);
            if (a > bestAcq) {
                bestAcq = a;
                bestCand = std::move(cand);
            }
        }
        return space_.fromUnit(bestCand);
    }

    // Batched path: generate every candidate first (the same RNG draws
    // in the same order — prediction consumes no randomness), score the
    // whole set through one blocked GP solve, then argmax with the same
    // strict-improvement/first-wins tie-breaking as the scalar loop.
    candScratch_.resize(numCandidates_);
    for (std::size_t c = 0; c < numCandidates_; ++c)
        fillCandidate(candScratch_[c], c, localCands);
    gp_.predictBatch(candScratch_, candMeans_, candVars_);
    double bestAcq = -std::numeric_limits<double>::infinity();
    std::size_t bestIdx = 0;
    for (std::size_t c = 0; c < numCandidates_; ++c) {
        const double a = acquisitionValue(candMeans_[c], candVars_[c]);
        if (a > bestAcq) {
            bestAcq = a;
            bestIdx = c;
        }
    }
    return space_.fromUnit(candScratch_[bestIdx]);
}

std::vector<Action>
BayesianOptAgent::proposeCohort(std::size_t want)
{
    assert(!dirty_);
    assert(acq_ == Acquisition::ThompsonBatch ||
           acq_ == Acquisition::BatchEI);
    // Same candidate set, same RNG draws, same order as the scalar
    // acquisition path — the cohort machinery only changes how slots
    // are ranked, not what they are ranked over.
    const std::size_t localCands = hasBest_ ? numCandidates_ / 4 : 0;
    candScratch_.resize(numCandidates_);
    for (std::size_t c = 0; c < numCandidates_; ++c)
        fillCandidate(candScratch_[c], c, localCands);

    const std::size_t cohort = std::min(want, numCandidates_);
    std::vector<Action> out;
    out.reserve(cohort);
    takenScratch_.assign(numCandidates_, 0);

    // Argmax over the untaken candidates with the scalar rule: strict
    // improvement, lowest index wins ties (and is the fallback when no
    // score beats -inf).
    const auto argmaxUntaken = [&](auto &&score) {
        double best = -std::numeric_limits<double>::infinity();
        std::size_t bi = numCandidates_;
        for (std::size_t c = 0; c < numCandidates_; ++c) {
            if (takenScratch_[c])
                continue;
            if (bi == numCandidates_) {
                bi = c;
                best = score(c);
                continue;
            }
            const double a = score(c);
            if (a > best) {
                best = a;
                bi = c;
            }
        }
        return bi;
    };

    if (acq_ == Acquisition::ThompsonBatch) {
        // One joint posterior draw per cohort slot; each slot takes its
        // draw's argmax. Joint (not marginal) draws keep correlated
        // candidates from all chasing the same optimistic fluctuation.
        gp_.samplePosteriorBatch(candScratch_, cohort, rng_,
                                 drawScratch_);
        for (std::size_t d = 0; d < cohort; ++d) {
            const double *row = drawScratch_.data() + d * numCandidates_;
            const std::size_t bi =
                argmaxUntaken([&](std::size_t c) { return row[c]; });
            takenScratch_[bi] = 1;
            out.push_back(space_.fromUnit(candScratch_[bi]));
        }
        return out;
    }

    // BatchEI: the first slot is exactly the scalar EI argmax
    // (posteriorJoint's means/variances are bitwise predictBatch's).
    // Each later slot fantasizes the previous pick at its posterior
    // mean — the Kriging-believer update: conditioning on a noisy
    // observation equal to the mean leaves every mean unchanged and
    // deflates the covariance by the pick's column outer product over
    // (cov(p,p) + noise). Variances shrink near taken slots, spreading
    // the cohort instead of stacking it on one peak.
    gp_.posteriorJoint(candScratch_, candMeans_, candVars_, cohortCov_);
    const double noiseY = noiseVar_ * gp_.yStd() * gp_.yStd();
    for (std::size_t d = 0; d < cohort; ++d) {
        const std::size_t bi = argmaxUntaken([&](std::size_t c) {
            return expectedImprovement(candMeans_[c], candVars_[c]);
        });
        takenScratch_[bi] = 1;
        out.push_back(space_.fromUnit(candScratch_[bi]));
        if (d + 1 == cohort)
            break;
        const double denom =
            std::max(cohortCov_(bi, bi) + noiseY, 1e-12);
        for (std::size_t j = 0; j < numCandidates_; ++j) {
            if (takenScratch_[j])
                continue;
            const double cj = cohortCov_(bi, j);
            candVars_[j] =
                std::max(candVars_[j] - cj * cj / denom, 1e-12);
        }
        // The covariance itself deflates too, so the *next* pick's
        // column reflects every fantasy so far. Taken rows/columns are
        // never read again; skipping them keeps this O(m^2) pass lean.
        for (std::size_t j1 = 0; j1 < numCandidates_; ++j1) {
            if (takenScratch_[j1])
                continue;
            const double c1 = cohortCov_(bi, j1);
            for (std::size_t j2 = 0; j2 < numCandidates_; ++j2) {
                if (takenScratch_[j2])
                    continue;
                cohortCov_(j1, j2) -=
                    c1 * cohortCov_(bi, j2) / denom;
            }
        }
    }
    return out;
}

Action
BayesianOptAgent::selectAction()
{
    if (xs_.size() < nInit_)
        return space_.sample(rng_);

    if (dirty_)
        refit();

    if (acq_ == Acquisition::ThompsonBatch ||
        acq_ == Acquisition::BatchEI) {
        // The per-step view of a batch mode is the one-slot cohort —
        // same ranking machinery, so a driver stepping one action at a
        // time still follows the mode's trajectory.
        return proposeCohort(1).front();
    }
    return selectByAcquisition();
}

std::vector<Action>
BayesianOptAgent::selectActionBatch(std::size_t maxActions)
{
    std::vector<Action> batch;
    if (maxActions == 0)
        return batch;
    if (xs_.size() < nInit_) {
        // Warmup proposals are independent uniform draws, so the whole
        // remaining warmup can go out as one batch — the same samples,
        // in the same RNG order, as repeated selectAction() calls.
        const std::size_t n = std::min(maxActions, nInit_ - xs_.size());
        batch.reserve(n);
        for (std::size_t i = 0; i < n; ++i)
            batch.push_back(space_.sample(rng_));
        return batch;
    }
    if (acq_ == Acquisition::ThompsonBatch ||
        acq_ == Acquisition::BatchEI) {
        // Batch acquisition: emit a whole cohort per call. The driver
        // caps want at its remaining budget, so the final cohort of a
        // run truncates naturally.
        if (dirty_)
            refit();
        return proposeCohort(std::min(cohortSize_, maxActions));
    }
    // Scalar modes: model-driven proposals depend on the previous
    // sample's feedback; a larger batch here would diverge from the
    // per-step trajectory.
    batch.push_back(selectAction());
    return batch;
}

void
BayesianOptAgent::observeBatch(const std::vector<Action> &actions,
                               const std::vector<StepResult> &results)
{
    // Element-wise, in order: each observation advances the incumbent,
    // the window trim, and the eviction plan exactly as sequential
    // observe() calls would, keeping batched runs bit-identical.
    for (std::size_t i = 0; i < actions.size(); ++i)
        observe(actions[i], results[i].observation, results[i].reward);
}

void
BayesianOptAgent::trimHistory()
{
    if (xs_.size() <= maxHistory_)
        return;
    // Keep the top quarter by reward plus the most recent observations —
    // bounding the quadratic GP cost while retaining the incumbent
    // region.
    const std::size_t keepBest = maxHistory_ / 4;
    const std::size_t keepRecent = maxHistory_ - keepBest;

    std::vector<std::size_t> order(xs_.size());
    std::iota(order.begin(), order.end(), 0);
    std::sort(order.begin(), order.end(),
              [this](std::size_t a, std::size_t b) {
                  return ys_[a] > ys_[b];
              });
    std::vector<bool> keep(xs_.size(), false);
    for (std::size_t i = 0; i < keepBest && i < order.size(); ++i)
        keep[order[i]] = true;
    std::size_t kept = keepBest;
    for (std::size_t i = xs_.size(); i > 0 && kept < keepBest + keepRecent;
         --i) {
        if (!keep[i - 1]) {
            keep[i - 1] = true;
            ++kept;
        }
    }
    // keepRecent >= 1 guarantees the newest observation survives, so an
    // eviction never cancels the append recorded just before it.
    assert(keep.back());

    // Compact survivors in order and record the eviction plan: dropped
    // indices oldest-first, each already adjusted for the drops before
    // it so it is valid at replay time against the live factor.
    const bool track = !referenceImpl_ && !needFullFit_;
    std::vector<std::vector<double>> nx;
    std::vector<double> ny;
    nx.reserve(maxHistory_);
    ny.reserve(maxHistory_);
    std::size_t dropped = 0;
    for (std::size_t i = 0; i < xs_.size(); ++i) {
        if (keep[i]) {
            nx.push_back(std::move(xs_[i]));
            ny.push_back(ys_[i]);
        } else {
            if (track) {
                GpOp op;
                op.kind = GpOp::Kind::Drop;
                op.dropIndex = i - dropped;
                pendingOps_.push_back(std::move(op));
            }
            ++dropped;
        }
    }
    xs_ = std::move(nx);
    ys_ = std::move(ny);
}

void
BayesianOptAgent::observe(const Action &action, const Metrics &metrics,
                          double reward)
{
    (void)metrics;
    std::vector<double> u = space_.toUnit(action);
    if (!hasBest_ || reward > bestY_) {
        hasBest_ = true;
        bestY_ = reward;
        bestX_ = u;
    }
    // Unbounded plans (many observes with no intervening refit) would
    // replay slower than refactorizing; collapse to a full fit instead.
    if (pendingOps_.size() > 4 * maxHistory_) {
        pendingOps_.clear();
        needFullFit_ = true;
    }
    if (!referenceImpl_ && !needFullFit_ && gp_.fitted()) {
        GpOp op;
        op.kind = GpOp::Kind::Append;
        op.x = u;
        op.y = reward;
        pendingOps_.push_back(std::move(op));
    }
    xs_.push_back(std::move(u));
    ys_.push_back(reward);
    trimHistory();
    dirty_ = true;
}

void
BayesianOptAgent::reset()
{
    rng_ = Rng(seed_);
    xs_.clear();
    ys_.clear();
    hasBest_ = false;
    // -inf, not 0: with hasBest_ false a 0.0 incumbent would poison
    // PI/EI acquisition on all-negative reward landscapes if it were
    // ever read before the first observation re-arms it.
    bestY_ = -std::numeric_limits<double>::infinity();
    bestX_.clear();
    pendingOps_.clear();
    needFullFit_ = true;  // force a full fit after reset
    dirty_ = true;
}

} // namespace archgym
