// Fast point-to-center assignment engine for balanced k-means.
//
// Every subsystem (one-shot partitioner, repart warm restarts, hier
// per-node solves) funnels into the assignment sweep of Algorithm 1/2; this
// engine owns that hot path. Five ideas:
//
//   1. Squared effective-distance domain. Candidates are compared as
//      dist²(p,c) · (1/influence(c)²); x ↦ x² is monotone on non-negative
//      effective distances, so the argmin (and the bbox-pruning break) are
//      unchanged while the per-candidate sqrt disappears. Only when a point
//      is actually (re)assigned are its Hamerly bounds materialized — at
//      most two sqrts per assigned point, computed with the exact same
//      expression (`distance(p,c)/influence(c)`) the seed algorithm uses,
//      so ub/lb stay bitwise identical to it.
//   2. Lazy epoch-based bounds. Influence adaptation and center movement no
//      longer sweep all n points to relax ub/lb; they append one epoch
//      (per-cluster ratio/shift + the min-ratio/max-shift scalars) to a log,
//      and a point replays the epochs it missed when it is next touched.
//      Each balance round costs O(active points) instead of O(n) — the big
//      win for sampled initialization and warm-started repartitioning.
//      Sequential replay applies the identical multiply/add per round the
//      eager sweeps performed, so bound values are bitwise unchanged.
//   3. Slot-ordered SoA mirror + cache-blocked batch kernel. setActive()
//      mirrors the active points into per-dimension arrays in slot order
//      (each call gathers only the newly active slots). The sweep runs the
//      active prefix's fixed 1024-slot blocks in parallel, gathers the
//      not-skipped points of each block into contiguous scratch, and runs
//      an auto-vectorizable centers-outer / points-inner kernel with
//      branchless best/second tracking. Weighted cluster sizes are
//      accumulated per block and reduced in block order.
//   4. Intra-rank threading (Settings::threads) via par::parallelFor over
//      whole blocks. Because block boundaries are fixed and the block
//      partials are reduced serially in ascending block order, results are
//      bitwise identical at every thread count. The same contract covers
//      updateCenters(), the threaded Alg. 2 line-13 reduction.
//   5. Slot-indexed state. The active order is fixed and the active set
//      only grows, so it is always the slot prefix [0, activeCount).
//      Assignment, ub, lb and epoch are stored by slot, so sweeps read
//      them sequentially even under the sampled initialization's random
//      order; takeAssignment() scatters them back to point ids once.
//
// tests/test_kmeans.cpp embeds the seed implementation (scalar sqrt-domain
// scan per candidate) as the equivalence oracle and proves the engine
// reproduces it exactly at several thread counts.
#pragma once

#include <array>
#include <cstdint>
#include <span>
#include <vector>

#include "core/settings.hpp"
#include "geometry/box.hpp"
#include "geometry/point.hpp"

namespace geo::core {

template <int D>
class AssignEngine {
public:
    /// `points`/`weights` must outlive the engine (weights may be empty =
    /// unit). `k` is the number of clusters.
    AssignEngine(std::span<const Point<D>> points, std::span<const double> weights,
                 const Settings& settings, std::int32_t k);

    /// Declare the active prefix order[0..activeCount): slot s of the
    /// engine's state holds point order[s]. The first call fixes `order`
    /// (referenced, not copied) for the engine's lifetime; later calls
    /// must pass the same span and a count no smaller than the current one.
    void setActive(std::span<const std::size_t> order, std::size_t activeCount);

    /// Bounding box of the active points (invalid when none are active).
    [[nodiscard]] const Box<D>& activeBox() const noexcept { return box_; }

    /// Start one assignment round against `centers`/`influence` (replicated
    /// state; spans must stay valid until the next beginRound). Recomputes
    /// the bbox-pruning candidate order from `activeBox` — pruning keys are
    /// only ever consulted when they were computed in *this* round, so a
    /// round whose box is invalid can never scan against stale keys.
    void beginRound(std::span<const Point<D>> centers, std::span<const double> influence,
                    const Box<D>& activeBox);

    /// One assignment sweep over the active points: replay missed bound
    /// epochs, skip via ub < lb, (re)assign the rest, and write the
    /// deterministic per-cluster weighted sizes into `localSizes` (k wide).
    void sweep(std::span<double> localSizes);

    /// Weighted per-cluster coordinate/weight sums over the active points —
    /// the Alg. 2 line-13 center-update reduction. `sums` is k·(D+1) wide:
    /// D coordinate sums then the weight per cluster. Runs over the same
    /// fixed 1024-slot blocks as sweep(), with per-block partials reduced
    /// serially in block order, so the result is bitwise identical at every
    /// Settings::threads value (and to the block-ordered serial sum).
    void updateCenters(std::span<double> sums);

    /// Influence changed from I to I' (ratio = I/I'): ub scales by its own
    /// cluster's ratio, lb by the smallest ratio. O(k), applied lazily.
    void pushInfluenceEpoch(std::span<const double> ratio);

    /// Centers moved by delta (shift = delta/I') and influence possibly
    /// eroded (ratio = I/I'): Eq. 4–5 relaxation, O(k), applied lazily.
    void pushMoveEpoch(std::span<const double> ratio, std::span<const double> shift);

    /// Forget all bounds (ub = ∞, lb = 0) and mark every point current.
    void resetBounds();

    /// Current assignment indexed by slot (equal to point id under the
    /// identity order); -1 for slots not yet assigned.
    [[nodiscard]] std::span<const std::int32_t> assignment() const noexcept {
        return assignment_;
    }
    /// The assignment indexed by point id (-1 for points outside the
    /// order). Ends the engine's life: it releases all per-slot state.
    [[nodiscard]] std::vector<std::int32_t> takeAssignment();
    [[nodiscard]] const KMeansCounters& counters() const noexcept { return counters_; }

private:
    struct Epoch {
        std::vector<double> ratio;  ///< per-cluster I/I'
        std::vector<double> shift;  ///< per-cluster delta/I' (move epochs only)
        double minRatio = 1.0;
        double maxShift = 0.0;
        bool move = false;
    };

    /// Per-worker scratch: gathered coordinates + kernel state. Center ids
    /// are tracked as doubles inside the batch kernel so every lane of the
    /// select has one width (vectorizer-friendly); materialization narrows.
    struct Scratch {
        std::vector<std::size_t> slot;  ///< active slot per gathered lane
        std::array<std::vector<double>, static_cast<std::size_t>(D)> gx;
        std::vector<double> best2, second2, bestC, secondC;
        KMeansCounters counters;
    };

    void processBlock(std::size_t block, Scratch& scratch, double* blockSizes);
    void batchKernel(Scratch& scratch, std::size_t m);
    void applyEpochs(std::size_t s, KMeansCounters& counters);
    [[nodiscard]] std::uint32_t currentEpoch() const noexcept {
        return static_cast<std::uint32_t>(epochs_.size());
    }

    const Settings& settings_;
    std::int32_t k_;
    std::span<const Point<D>> points_;
    std::span<const double> weights_;

    // Active set: the fixed order (referenced, not copied), the active
    // prefix length, its bounding box and its slot-ordered SoA mirror
    // (coordinates per dimension, then weights).
    std::span<const std::size_t> order_;
    bool orderFixed_ = false;
    std::size_t active_ = 0;
    Box<D> box_ = Box<D>::empty();
    std::array<std::vector<double>, static_cast<std::size_t>(D)> sx_;
    std::vector<double> sw_;

    // Persistent per-point state, indexed by active slot (see setActive).
    std::vector<std::int32_t> assignment_;
    std::vector<double> ub_, lb_;
    std::vector<std::uint32_t> epoch_;
    std::vector<Epoch> epochs_;

    // Round state.
    std::span<const Point<D>> centers_;
    std::span<const double> influence_;
    std::vector<double> invInfluence2_;
    std::vector<std::int32_t> sortedCenters_;
    std::vector<double> centerKey_;
    bool keysValid_ = false;  ///< pruning keys were computed this round

    std::vector<double> blockSizes_;  ///< per-block weighted cluster sizes
    std::vector<double> blockSums_;   ///< per-block center-update partials
    std::vector<Scratch> scratch_;
    KMeansCounters counters_;
};

extern template class AssignEngine<2>;
extern template class AssignEngine<3>;

}  // namespace geo::core
