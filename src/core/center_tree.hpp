// kd-tree over cluster centers for nearest-effective-distance queries.
//
// The serving index of a flat serve::PartitionSnapshot with at least
// kKdTreeFromK blocks: it answers argmin_c dist(p, center(c))/influence(c)
// in O(log k) with branch-and-bound pruning, handling the multiplicative
// weights by tracking the largest influence per subtree. (Paper §4.3 finds
// kd-trees "outperformed by simpler distance bounds" for the assignment
// sweep; DESIGN.md records that measurement. Serving has no bounds to
// carry, so the tree pays off there.)
//
// queryNearest() works in the squared effective-distance domain: it
// computes and prunes on dist²·(1/influence²), so no sqrt is taken anywhere
// on the path. x ↦ x² is monotone on the non-negative effective distances,
// so this is the same argmin as the sqrt-domain definition. Each candidate
// is evaluated with the same expression as the snapshot's linear scan, a
// subtree is pruned only when its bound is strictly greater than the
// current best, and exact ties go to the lowest center id — so the tree
// returns bitwise the scan's answer, duplicated centers included.
#pragma once

#include <cstdint>
#include <span>
#include <vector>

#include "geometry/box.hpp"
#include "geometry/point.hpp"

namespace geo::core {

template <int D>
class CenterKdTree {
public:
    /// Build over replicated centers + influence values.
    CenterKdTree(std::span<const Point<D>> centers, std::span<const double> influence);

    /// Id of the center with the smallest effective distance to `p`; exact
    /// ties resolve to the lowest id.
    [[nodiscard]] std::int32_t queryNearest(const Point<D>& p) const;

private:
    struct Node {
        Box<D> bounds;          ///< bounding box of centers in this subtree
        /// 1/maxInfluence² over the subtree: eff dist² >= minDist² · this.
        double invMaxInfluence2;
        std::int32_t left = -1, right = -1;  ///< children; -1 = leaf
        std::int32_t begin = 0, end = 0;     ///< center range (leaf)
    };

    std::int32_t build(std::int32_t begin, std::int32_t end, int depth);
    void search(std::int32_t nodeId, const Point<D>& p, std::int32_t& best,
                double& best2) const;

    std::vector<Point<D>> centers_;
    std::vector<double> invInfluence2_;  ///< 1/influence² per center
    std::vector<std::int32_t> order_;  ///< center ids, permuted by the build
    std::vector<Node> nodes_;
};

extern template class CenterKdTree<2>;
extern template class CenterKdTree<3>;

}  // namespace geo::core
