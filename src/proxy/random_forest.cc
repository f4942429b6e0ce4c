#include "random_forest.h"

#include <algorithm>
#include <cassert>
#include <cmath>
#include <limits>
#include <numeric>

namespace archgym {

namespace {

double
meanOf(const std::vector<double> &ys, const std::vector<std::size_t> &idx)
{
    double s = 0.0;
    for (std::size_t i : idx)
        s += ys[i];
    return idx.empty() ? 0.0 : s / static_cast<double>(idx.size());
}

double
sseOf(const std::vector<double> &ys, const std::vector<std::size_t> &idx,
      double mean)
{
    double s = 0.0;
    for (std::size_t i : idx) {
        const double d = ys[i] - mean;
        s += d * d;
    }
    return s;
}

} // namespace

void
ForestArena::clear()
{
    feature.clear();
    threshold.clear();
    left.clear();
    right.clear();
    value.clear();
    root.clear();
    depth.clear();
}

std::size_t
DecisionTree::build(const std::vector<std::vector<double>> &xs,
                    const std::vector<double> &ys,
                    std::vector<std::size_t> &indices, std::size_t depth,
                    const ForestConfig &config, Rng &rng)
{
    depth_ = std::max(depth_, depth);
    const std::size_t nodeIndex = nodes_.size();
    nodes_.emplace_back();
    nodes_[nodeIndex].value = meanOf(ys, indices);

    if (depth >= config.maxDepth ||
        indices.size() < 2 * config.minSamplesLeaf) {
        return nodeIndex;
    }
    const double parentMean = nodes_[nodeIndex].value;
    const double parentSse = sseOf(ys, indices, parentMean);
    if (parentSse < 1e-12)
        return nodeIndex;  // pure node

    const std::size_t numFeatures = xs.front().size();
    // Feature subsampling (the "random" in random forest).
    std::vector<std::size_t> features(numFeatures);
    std::iota(features.begin(), features.end(), 0);
    rng.shuffle(features);
    const std::size_t useFeatures = std::max<std::size_t>(
        1, static_cast<std::size_t>(
               std::ceil(config.featureFraction *
                         static_cast<double>(numFeatures))));
    features.resize(useFeatures);

    double bestGain = 0.0;
    std::size_t bestFeature = 0;
    double bestThreshold = 0.0;

    std::vector<double> values;
    values.reserve(indices.size());
    for (std::size_t f : features) {
        values.clear();
        for (std::size_t i : indices)
            values.push_back(xs[i][f]);
        std::sort(values.begin(), values.end());
        if (values.front() == values.back())
            continue;  // constant feature in this node

        // Quantile-grid candidate thresholds.
        const std::size_t cands =
            std::min(config.thresholdCandidates, indices.size() - 1);
        for (std::size_t c = 1; c <= cands; ++c) {
            const std::size_t pos = c * (values.size() - 1) / (cands + 1);
            const double thr =
                0.5 * (values[pos] + values[std::min(pos + 1,
                                                     values.size() - 1)]);
            // Evaluate the split.
            double sumL = 0.0, sumR = 0.0;
            std::size_t nL = 0, nR = 0;
            for (std::size_t i : indices) {
                if (xs[i][f] <= thr) {
                    sumL += ys[i];
                    ++nL;
                } else {
                    sumR += ys[i];
                    ++nR;
                }
            }
            if (nL < config.minSamplesLeaf || nR < config.minSamplesLeaf)
                continue;
            const double meanL = sumL / static_cast<double>(nL);
            const double meanR = sumR / static_cast<double>(nR);
            double sseChildren = 0.0;
            for (std::size_t i : indices) {
                const double m = xs[i][f] <= thr ? meanL : meanR;
                const double d = ys[i] - m;
                sseChildren += d * d;
            }
            const double gain = parentSse - sseChildren;
            if (gain > bestGain) {
                bestGain = gain;
                bestFeature = f;
                bestThreshold = thr;
            }
        }
    }

    if (bestGain <= 1e-12)
        return nodeIndex;

    std::vector<std::size_t> leftIdx, rightIdx;
    for (std::size_t i : indices) {
        if (xs[i][bestFeature] <= bestThreshold)
            leftIdx.push_back(i);
        else
            rightIdx.push_back(i);
    }
    indices.clear();
    indices.shrink_to_fit();

    // Preorder: the left subtree starts at nodeIndex + 1 (see Node).
    [[maybe_unused]] const std::size_t left =
        build(xs, ys, leftIdx, depth + 1, config, rng);
    assert(left == nodeIndex + 1);
    const std::size_t right =
        build(xs, ys, rightIdx, depth + 1, config, rng);
    nodes_[nodeIndex].feature = static_cast<std::int32_t>(bestFeature);
    nodes_[nodeIndex].threshold = bestThreshold;
    nodes_[nodeIndex].right = static_cast<std::int32_t>(right);
    return nodeIndex;
}

void
DecisionTree::fit(const std::vector<std::vector<double>> &xs,
                  const std::vector<double> &ys,
                  const std::vector<std::size_t> &indices,
                  const ForestConfig &config, Rng &rng)
{
    nodes_.clear();
    depth_ = 0;
    std::vector<std::size_t> idx = indices;
    build(xs, ys, idx, 0, config, rng);
}

double
DecisionTree::predict(const std::vector<double> &x) const
{
    assert(!nodes_.empty());
    std::size_t n = 0;
    while (!nodes_[n].leaf()) {
        const Node &node = nodes_[n];
        n = x[node.feature] <= node.threshold
                ? n + 1
                : static_cast<std::size_t>(node.right);
    }
    return nodes_[n].value;
}

void
DecisionTree::flattenInto(ForestArena &arena) const
{
    assert(!nodes_.empty());
    const std::int32_t base = static_cast<std::int32_t>(arena.nodeCount());
    arena.root.push_back(base);
    arena.depth.push_back(static_cast<std::int32_t>(depth_));

    // Breadth-first, sibling-adjacent remap: a node's children land in
    // consecutive arena slots, so the batched kernel derives the right
    // child as left + 1 and drops one load from the per-step chase;
    // BFS order also keeps the hot top levels of the tree on adjacent
    // cache lines. Processing the queue in FIFO order makes the new
    // index of order[q] exactly q.
    std::vector<std::int32_t> remap(nodes_.size(), -1);
    std::vector<std::size_t> order;
    order.reserve(nodes_.size());
    remap[0] = 0;
    order.push_back(0);
    std::int32_t next = 1;
    for (std::size_t q = 0; q < order.size(); ++q) {
        const std::size_t i = order[q];
        const Node &n = nodes_[i];
        if (!n.leaf()) {
            const auto right = static_cast<std::size_t>(n.right);
            remap[i + 1] = next;
            remap[right] = next + 1;
            next += 2;
            order.push_back(i + 1);
            order.push_back(right);
        }
    }

    for (std::size_t q = 0; q < order.size(); ++q) {
        const std::size_t i = order[q];
        const Node &n = nodes_[i];
        const std::int32_t self = base + static_cast<std::int32_t>(q);
        if (n.leaf()) {
            arena.feature.push_back(0);
            arena.threshold.push_back(
                std::numeric_limits<double>::infinity());
            arena.left.push_back(self);
            arena.right.push_back(self);
        } else {
            arena.feature.push_back(n.feature);
            arena.threshold.push_back(n.threshold);
            arena.left.push_back(base + remap[i + 1]);
            arena.right.push_back(base + remap[n.right]);
        }
        arena.value.push_back(n.value);
    }
}

RandomForest::RandomForest(ForestConfig config) : config_(config) {}

void
RandomForest::fit(const std::vector<std::vector<double>> &xs,
                  const std::vector<double> &ys)
{
    assert(!xs.empty() && xs.size() == ys.size());
    trees_.clear();
    Rng rng(config_.seed);
    for (std::size_t t = 0; t < config_.numTrees; ++t) {
        std::vector<std::size_t> indices(xs.size());
        if (config_.bootstrap) {
            for (auto &i : indices)
                i = static_cast<std::size_t>(rng.below(xs.size()));
        } else {
            std::iota(indices.begin(), indices.end(), 0);
        }
        DecisionTree tree;
        tree.fit(xs, ys, indices, config_, rng);
        trees_.push_back(std::move(tree));
    }

    arena_.clear();
    for (const auto &tree : trees_)
        tree.flattenInto(arena_);
}

double
RandomForest::predict(const std::vector<double> &x) const
{
    assert(fitted());
    double s = 0.0;
    for (const auto &tree : trees_)
        s += tree.predict(x);
    return s / static_cast<double>(trees_.size());
}

namespace {

/**
 * Rows per kernel block: 1024 rows x 8-16 features keeps the feature
 * slab plus the int32 cursor array L2-resident while every tree's nodes
 * are re-walked against it.
 */
constexpr std::size_t kRowBlock = 1024;

} // namespace

void
RandomForest::predictBatchInto(const double *xs, std::size_t rows,
                               std::size_t dims, double *out) const
{
    assert(fitted());
    const std::int32_t *feat = arena_.feature.data();
    const double *thr = arena_.threshold.data();
    const std::int32_t *lch = arena_.left.data();
    const double *val = arena_.value.data();

    std::vector<std::int32_t> cursor(std::min(rows, kRowBlock));

    for (std::size_t b = 0; b < rows; b += kRowBlock) {
        const std::size_t br = std::min(kRowBlock, rows - b);
        double *o = out + b;
        const double *x = xs + b * dims;
        for (std::size_t r = 0; r < br; ++r)
            o[r] = 0.0;

        for (std::size_t t = 0; t < trees_.size(); ++t) {
            const std::int32_t root = arena_.root[t];
            const std::int32_t steps = arena_.depth[t];
            std::int32_t *cur = cursor.data();

            // Eight independent walkers hide the dependent-load latency
            // of the node chase. Each advance is branch-free: siblings
            // are adjacent in the arena (right == left + 1), so the
            // comparison outcome is just added to the left-child index,
            // and the self-loop leaf encoding (left == self, threshold
            // +inf) makes parked rows advance to themselves. The group
            // breaks out as soon as all eight rows are parked, so a
            // group costs its deepest leaf, not the tree's max depth.
            std::size_t r = 0;
            for (; r + 8 <= br; r += 8) {
                const double *x0 = x + (r + 0) * dims;
                const double *x1 = x + (r + 1) * dims;
                const double *x2 = x + (r + 2) * dims;
                const double *x3 = x + (r + 3) * dims;
                const double *x4 = x + (r + 4) * dims;
                const double *x5 = x + (r + 5) * dims;
                const double *x6 = x + (r + 6) * dims;
                const double *x7 = x + (r + 7) * dims;
                std::int32_t n0 = root, n1 = root, n2 = root, n3 = root;
                std::int32_t n4 = root, n5 = root, n6 = root, n7 = root;
                for (std::int32_t s = 0; s < steps; ++s) {
                    const std::int32_t p0 = n0, p1 = n1, p2 = n2,
                                       p3 = n3, p4 = n4, p5 = n5,
                                       p6 = n6, p7 = n7;
                    n0 = lch[n0] + (x0[feat[n0]] > thr[n0]);
                    n1 = lch[n1] + (x1[feat[n1]] > thr[n1]);
                    n2 = lch[n2] + (x2[feat[n2]] > thr[n2]);
                    n3 = lch[n3] + (x3[feat[n3]] > thr[n3]);
                    n4 = lch[n4] + (x4[feat[n4]] > thr[n4]);
                    n5 = lch[n5] + (x5[feat[n5]] > thr[n5]);
                    n6 = lch[n6] + (x6[feat[n6]] > thr[n6]);
                    n7 = lch[n7] + (x7[feat[n7]] > thr[n7]);
                    if (((n0 ^ p0) | (n1 ^ p1) | (n2 ^ p2) | (n3 ^ p3) |
                         (n4 ^ p4) | (n5 ^ p5) | (n6 ^ p6) |
                         (n7 ^ p7)) == 0)
                        break;
                }
                cur[r + 0] = n0;
                cur[r + 1] = n1;
                cur[r + 2] = n2;
                cur[r + 3] = n3;
                cur[r + 4] = n4;
                cur[r + 5] = n5;
                cur[r + 6] = n6;
                cur[r + 7] = n7;
            }
            for (; r < br; ++r) {
                const double *xr = x + r * dims;
                std::int32_t n = root;
                for (std::int32_t s = 0; s < steps; ++s) {
                    const std::int32_t p = n;
                    n = lch[n] + (xr[feat[n]] > thr[n]);
                    if (n == p)
                        break;
                }
                cur[r] = n;
            }
            // Tree-order accumulation: identical addition order to the
            // scalar predict() sum, which is the bit-identity contract.
            for (std::size_t i = 0; i < br; ++i)
                o[i] += val[cur[i]];
        }

        const double denom = static_cast<double>(trees_.size());
        for (std::size_t r = 0; r < br; ++r)
            o[r] /= denom;
    }
}

std::vector<double>
RandomForest::predictBatch(const std::vector<std::vector<double>> &xs) const
{
    std::vector<double> out(xs.size(), 0.0);
    if (xs.empty())
        return out;
    assert(fitted());
    const std::size_t dims = xs.front().size();
    std::vector<double> flat;
    flat.resize(xs.size() * dims);
    for (std::size_t r = 0; r < xs.size(); ++r) {
        assert(xs[r].size() == dims);
        std::copy(xs[r].begin(), xs[r].end(), flat.begin() + r * dims);
    }
    predictBatchInto(flat.data(), xs.size(), dims, out.data());
    return out;
}

} // namespace archgym
