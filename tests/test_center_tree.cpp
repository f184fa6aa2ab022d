#include <gtest/gtest.h>

#include <limits>

#include "core/center_tree.hpp"
#include "support/rng.hpp"

namespace {

using namespace geo;
using geo::core::CenterKdTree;

template <int D>
std::vector<Point<D>> randomPoints(int n, std::uint64_t seed) {
    Xoshiro256 rng(seed);
    std::vector<Point<D>> pts;
    for (int i = 0; i < n; ++i) {
        Point<D> p;
        for (int d = 0; d < D; ++d) p[d] = rng.uniform();
        pts.push_back(p);
    }
    return pts;
}

class TreeSweep : public ::testing::TestWithParam<int> {};
INSTANTIATE_TEST_SUITE_P(CenterCounts, TreeSweep, ::testing::Values(1, 2, 5, 16, 64, 257));

/// Brute-force argmin of the squared effective distance, evaluated with the
/// serving scan's expression: a strict-< scan in id order, so exact ties go
/// to the lowest id.
template <int D>
std::int32_t bruteForceNearest(const Point<D>& q, const std::vector<Point<D>>& centers,
                               const std::vector<double>& influence) {
    std::int32_t best = 0;
    double best2 = std::numeric_limits<double>::infinity();
    for (std::size_t c = 0; c < centers.size(); ++c) {
        const double e2 =
            squaredDistance(q, centers[c]) * (1.0 / (influence[c] * influence[c]));
        if (e2 < best2) {
            best2 = e2;
            best = static_cast<std::int32_t>(c);
        }
    }
    return best;
}

TEST_P(TreeSweep, MatchesBruteForceWithUniformInfluence) {
    const int k = GetParam();
    const auto centers = randomPoints<2>(k, 11);
    const std::vector<double> influence(static_cast<std::size_t>(k), 1.0);
    const CenterKdTree<2> tree(centers, influence);
    for (const auto& q : randomPoints<2>(300, 13))
        EXPECT_EQ(tree.queryNearest(q), bruteForceNearest(q, centers, influence));
}

TEST_P(TreeSweep, MatchesBruteForceWithVariedInfluence) {
    const int k = GetParam();
    const auto centers = randomPoints<2>(k, 17);
    Xoshiro256 rng(19);
    std::vector<double> influence;
    for (int c = 0; c < k; ++c) influence.push_back(rng.uniform(0.25, 4.0));
    const CenterKdTree<2> tree(centers, influence);
    for (const auto& q : randomPoints<2>(300, 23))
        EXPECT_EQ(tree.queryNearest(q), bruteForceNearest(q, centers, influence));
}

TEST_P(TreeSweep, DuplicatedCentersTieToLowestId) {
    // Center c + k repeats center c (same coordinates, same influence), so
    // every query ties exactly between the two copies of its nearest center;
    // the tree must answer the lower copy, whatever order it visits them in.
    const int k = GetParam();
    auto centers = randomPoints<2>(k, 53);
    Xoshiro256 rng(59);
    std::vector<double> influence;
    for (int c = 0; c < k; ++c) influence.push_back(rng.uniform(0.5, 2.0));
    centers.insert(centers.end(), centers.begin(), centers.end());
    influence.insert(influence.end(), influence.begin(), influence.end());
    const CenterKdTree<2> tree(centers, influence);
    for (const auto& q : randomPoints<2>(300, 61)) {
        const auto got = tree.queryNearest(q);
        EXPECT_LT(got, k);
        EXPECT_EQ(got, bruteForceNearest(q, centers, influence));
    }
}

TEST(CenterKdTree, WorksIn3d) {
    const auto centers = randomPoints<3>(40, 29);
    Xoshiro256 rng(31);
    std::vector<double> influence;
    for (int c = 0; c < 40; ++c) influence.push_back(rng.uniform(0.5, 2.0));
    const CenterKdTree<3> tree(centers, influence);
    for (const auto& q : randomPoints<3>(100, 37))
        EXPECT_EQ(tree.queryNearest(q), bruteForceNearest(q, centers, influence));
}

TEST(CenterKdTree, RejectsBadInput) {
    const std::vector<Point2> none;
    const std::vector<double> noInfluence;
    EXPECT_THROW(CenterKdTree<2>(none, noInfluence), std::invalid_argument);
    const auto centers = randomPoints<2>(3, 41);
    const std::vector<double> wrong(2, 1.0);
    EXPECT_THROW(CenterKdTree<2>(centers, wrong), std::invalid_argument);
}

}  // namespace
