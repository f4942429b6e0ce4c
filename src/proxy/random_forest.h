/**
 * @file
 * Random-forest regression (paper §7.2) implemented from scratch: CART
 * trees with variance-reduction splits, bootstrap aggregation, and
 * per-split feature subsampling.
 *
 * The paper trains one random forest per target metric (latency, power,
 * energy) on ArchGym exploration datasets and shows the resulting proxy
 * is ~2000x faster than the cycle-accurate simulator at <1% RMSE.
 *
 * Serving path: after fit() the forest is additionally flattened into a
 * single struct-of-arrays ForestArena (features / thresholds / children /
 * leaf values in separate cache-aligned vectors, all trees concatenated)
 * and multi-row queries go through the blocked, branch-free
 * predictBatch kernel. The per-tree node walk in predict() stays as the
 * scalar oracle; predictBatch is bit-identical to it (same per-row tree
 * accumulation order, same final division). See docs/proxy_serving.md.
 */

#ifndef ARCHGYM_PROXY_RANDOM_FOREST_H
#define ARCHGYM_PROXY_RANDOM_FOREST_H

#include <cstdint>
#include <vector>

#include "mathutil/matrix.h"
#include "mathutil/rng.h"

namespace archgym {

/**
 * All trees of one forest flattened into struct-of-arrays node storage.
 *
 * Nodes are laid out breadth-first with siblings adjacent, so for every
 * split node right[i] == left[i] + 1 (the `right` column is kept for
 * inspection; the kernel derives it). Node encoding (index i):
 *  - split node: feature[i]/threshold[i] route to child left[i] (when
 *    x[feature[i]] <= threshold[i]) or left[i] + 1 (absolute arena
 *    indices).
 *  - leaf: left[i] == right[i] == i (self-loop) and threshold[i] = +inf,
 *    so the branch-free advance `n = L + (x[f] > thr)` parks on the
 *    leaf; value[i] is the leaf mean (split nodes also store their node
 *    mean, matching DecisionTree::Node).
 *
 * The self-loop lets the batch kernel advance rows with no per-row
 * branching — a walker group stops once every member is parked, at its
 * deepest leaf rather than the tree-wide max depth.
 */
struct ForestArena
{
    template <typename T>
    using Aligned = std::vector<T, AlignedAllocator<T, 64>>;

    Aligned<std::int32_t> feature;
    AlignedVector threshold;
    Aligned<std::int32_t> left;
    Aligned<std::int32_t> right;
    AlignedVector value;
    std::vector<std::int32_t> root;   ///< root node index per tree
    std::vector<std::int32_t> depth;  ///< max depth (walk steps) per tree

    std::size_t nodeCount() const { return feature.size(); }
    std::size_t treeCount() const { return root.size(); }
    void clear();
};

/** Forest training configuration. */
struct ForestConfig
{
    std::size_t numTrees = 30;
    std::size_t maxDepth = 12;
    std::size_t minSamplesLeaf = 2;
    /** Fraction of features considered at each split. */
    double featureFraction = 0.7;
    /** Candidate thresholds examined per feature (quantile grid). */
    std::size_t thresholdCandidates = 16;
    bool bootstrap = true;
    std::uint64_t seed = 1;
};

/** One CART regression tree (flat node array). */
class DecisionTree
{
  public:
    /**
     * Fit on the given sample indices of (xs, ys).
     * @param xs       feature rows
     * @param ys       targets
     * @param indices  training subset (bootstrap sample)
     */
    void fit(const std::vector<std::vector<double>> &xs,
             const std::vector<double> &ys,
             const std::vector<std::size_t> &indices,
             const ForestConfig &config, Rng &rng);

    double predict(const std::vector<double> &x) const;

    /** Append this tree's nodes (rebased) + root/depth to the arena. */
    void flattenInto(ForestArena &arena) const;

    std::size_t nodeCount() const { return nodes_.size(); }
    std::size_t depth() const { return depth_; }

  private:
    /**
     * 24-byte node in preorder: build() emits a split node's left
     * subtree right after it, so the left child is always the next node
     * and only the right child is stored. predict() touches one small
     * record per level, and a left step lands on the adjacent node.
     */
    struct Node
    {
        double threshold = 0.0;
        double value = 0.0;          ///< node mean; the leaf's prediction
        std::int32_t feature = -1;   ///< split feature; -1 marks a leaf
        std::int32_t right = 0;      ///< right child (left child is +1)

        bool leaf() const { return feature < 0; }
    };

    std::size_t build(const std::vector<std::vector<double>> &xs,
                      const std::vector<double> &ys,
                      std::vector<std::size_t> &indices, std::size_t depth,
                      const ForestConfig &config, Rng &rng);

    std::vector<Node> nodes_;
    std::size_t depth_ = 0;
};

/** Bagged ensemble of CART trees. */
class RandomForest
{
  public:
    explicit RandomForest(ForestConfig config = {});

    /** Fit on the full dataset. @pre xs.size() == ys.size() > 0 */
    void fit(const std::vector<std::vector<double>> &xs,
             const std::vector<double> &ys);

    bool fitted() const { return !trees_.empty(); }
    std::size_t treeCount() const { return trees_.size(); }

    /** Scalar oracle: per-tree node walks, averaged in tree order. */
    double predict(const std::vector<double> &x) const;

    /**
     * Batched inference over a candidate cohort through the SoA arena:
     * rows are processed in L2-sized blocks, trees tree-major within a
     * block, each row advanced branch-free for the tree's depth. Output
     * is bit-identical to calling predict() per row (same tree
     * accumulation order, same division). Empty cohorts are fine.
     */
    std::vector<double>
    predictBatch(const std::vector<std::vector<double>> &xs) const;

    /**
     * Raw-buffer form of predictBatch for callers that already hold a
     * row-major feature arena: xs is rows x dims contiguous, out has
     * room for rows doubles. @pre fitted() and dims matches training.
     */
    void predictBatchInto(const double *xs, std::size_t rows,
                          std::size_t dims, double *out) const;

    const ForestConfig &config() const { return config_; }
    const ForestArena &arena() const { return arena_; }

  private:
    ForestConfig config_;
    std::vector<DecisionTree> trees_;
    ForestArena arena_;  ///< rebuilt by fit(); serves predictBatch
};

} // namespace archgym

#endif // ARCHGYM_PROXY_RANDOM_FOREST_H
