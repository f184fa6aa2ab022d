#include <gtest/gtest.h>

#include <limits>

#include "core/balanced_kmeans.hpp"
#include "core/center_tree.hpp"
#include "par/comm.hpp"
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

/// Brute-force best and second-best center ids by effective distance
/// (second = -1 for a single center).
template <int D>
typename CenterKdTree<D>::IdResult bruteForceIds(const Point<D>& q,
                                        const std::vector<Point<D>>& centers,
                                        const std::vector<double>& influence) {
    typename CenterKdTree<D>::IdResult out;
    double best = std::numeric_limits<double>::infinity(), second = best;
    for (std::size_t c = 0; c < centers.size(); ++c) {
        const double d = distance(q, centers[c]) / influence[c];
        if (d < best) {
            second = best;
            out.second = out.best;
            best = d;
            out.best = static_cast<std::int32_t>(c);
        } else if (d < second) {
            second = d;
            out.second = static_cast<std::int32_t>(c);
        }
    }
    return out;
}

TEST_P(TreeSweep, MatchesBruteForceWithUniformInfluence) {
    const int k = GetParam();
    const auto centers = randomPoints<2>(k, 11);
    const std::vector<double> influence(static_cast<std::size_t>(k), 1.0);
    const CenterKdTree<2> tree(centers, influence);
    for (const auto& q : randomPoints<2>(300, 13)) {
        const auto res = tree.queryNearestIds(q);
        const auto want = bruteForceIds(q, centers, influence);
        EXPECT_EQ(res.best, want.best);
        EXPECT_EQ(res.second, want.second);
    }
}

TEST_P(TreeSweep, MatchesBruteForceWithVariedInfluence) {
    const int k = GetParam();
    const auto centers = randomPoints<2>(k, 17);
    Xoshiro256 rng(19);
    std::vector<double> influence;
    for (int c = 0; c < k; ++c) influence.push_back(rng.uniform(0.25, 4.0));
    const CenterKdTree<2> tree(centers, influence);
    for (const auto& q : randomPoints<2>(300, 23)) {
        const auto res = tree.queryNearestIds(q);
        const auto want = bruteForceIds(q, centers, influence);
        EXPECT_EQ(res.best, want.best);
        EXPECT_EQ(res.second, want.second);
    }
}

TEST(CenterKdTree, WorksIn3d) {
    const auto centers = randomPoints<3>(40, 29);
    Xoshiro256 rng(31);
    std::vector<double> influence;
    for (int c = 0; c < 40; ++c) influence.push_back(rng.uniform(0.5, 2.0));
    const CenterKdTree<3> tree(centers, influence);
    for (const auto& q : randomPoints<3>(100, 37)) {
        const auto res = tree.queryNearestIds(q);
        const auto want = bruteForceIds(q, centers, influence);
        EXPECT_EQ(res.best, want.best);
        EXPECT_EQ(res.second, want.second);
    }
}

TEST(CenterKdTree, RejectsBadInput) {
    const std::vector<Point2> none;
    const std::vector<double> noInfluence;
    EXPECT_THROW(CenterKdTree<2>(none, noInfluence), std::invalid_argument);
    const auto centers = randomPoints<2>(3, 41);
    const std::vector<double> wrong(2, 1.0);
    EXPECT_THROW(CenterKdTree<2>(centers, wrong), std::invalid_argument);
}

TEST(CenterKdTree, RebuildInPlaceMatchesFreshTree) {
    const auto first = randomPoints<2>(40, 67);
    const auto second = randomPoints<2>(25, 71);
    Xoshiro256 rng(73);
    std::vector<double> infFirst, infSecond;
    for (int c = 0; c < 40; ++c) infFirst.push_back(rng.uniform(0.5, 2.0));
    for (int c = 0; c < 25; ++c) infSecond.push_back(rng.uniform(0.5, 2.0));

    CenterKdTree<2> reused(first, infFirst);
    reused.rebuild(second, infSecond);  // shrinks k, reuses storage
    const CenterKdTree<2> fresh(second, infSecond);
    EXPECT_EQ(reused.size(), 25);
    for (const auto& q : randomPoints<2>(200, 79)) {
        const auto a = reused.queryNearestIds(q);
        const auto b = fresh.queryNearestIds(q);
        EXPECT_EQ(a.best, b.best);
        EXPECT_EQ(a.second, b.second);
    }
}

TEST(KMeansWithKdTree, SameResultAsLinearScan) {
    const auto pts = randomPoints<2>(3000, 43);
    Xoshiro256 rng(47);
    std::vector<Point2> centers;
    for (int c = 0; c < 8; ++c) centers.push_back(Point2{{rng.uniform(), rng.uniform()}});
    core::Settings scan, tree;
    scan.sampledInitialization = tree.sampledInitialization = false;
    tree.useKdTree = true;
    tree.hamerlyBounds = false;  // isolate the kd-tree path
    scan.hamerlyBounds = false;
    scan.boundingBoxPruning = false;
    std::vector<std::int32_t> a, b;
    par::runSpmd(1, [&](par::Comm& comm) {
        a = core::balancedKMeans<2>(comm, pts, {}, centers, scan).assignment;
    });
    par::runSpmd(1, [&](par::Comm& comm) {
        b = core::balancedKMeans<2>(comm, pts, {}, centers, tree).assignment;
    });
    EXPECT_EQ(a, b);
}

TEST(KMeansWithKdTree, KdTreeWithBoundsMatchesLinearScanWithBounds) {
    // The engine's kd-tree path materializes the Hamerly bounds from the
    // best/second ids with the same expression as the linear scan, so with
    // bounds (and, on the scan, bbox pruning) enabled a whole run must take
    // the same trajectory and end in the same assignment.
    const auto pts = randomPoints<2>(3000, 83);
    Xoshiro256 rng(89);
    std::vector<Point2> centers;
    for (int c = 0; c < 10; ++c) centers.push_back(Point2{{rng.uniform(), rng.uniform()}});
    core::Settings scan, tree;
    tree.useKdTree = true;
    tree.threads = 2;
    core::KMeansOutcome<2> a, b;
    par::runSpmd(1, [&](par::Comm& comm) {
        a = core::balancedKMeans<2>(comm, pts, {}, centers, scan);
    });
    par::runSpmd(1, [&](par::Comm& comm) {
        b = core::balancedKMeans<2>(comm, pts, {}, centers, tree);
    });
    EXPECT_EQ(a.assignment, b.assignment);
    EXPECT_EQ(a.influence, b.influence);
    EXPECT_EQ(a.counters.balanceIterations, b.counters.balanceIterations);
    EXPECT_GT(b.counters.boundSkips, 0u);
}

}  // namespace
