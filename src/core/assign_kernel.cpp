#include "core/assign_kernel.hpp"

#include <algorithm>
#include <cmath>
#include <limits>
#include <numeric>

#include "par/parallel_for.hpp"
#include "support/assert.hpp"

#if defined(__SSE2__)
#define GEO_ASSIGN_SSE2 1
#include <emmintrin.h>
#endif

namespace geo::core {

namespace {

constexpr double kInf = std::numeric_limits<double>::infinity();

/// Points per cache block. Fixed (never derived from the thread count) so
/// the per-block size partials — and with them every floating-point sum the
/// sweep and the center update produce — are identical at any
/// Settings::threads.
constexpr std::size_t kAssignBlock = 1024;

}  // namespace

template <int D>
AssignEngine<D>::AssignEngine(std::span<const Point<D>> points,
                              std::span<const double> weights,
                              const Settings& settings, std::int32_t k)
    : settings_(settings), k_(k), points_(points), weights_(weights) {
    GEO_REQUIRE(k_ >= 1, "need at least one center");
    GEO_REQUIRE(weights_.empty() || weights_.size() == points_.size(),
                "weights must be empty or match points");
    assignment_.assign(points.size(), -1);
    ub_.assign(points.size(), kInf);
    lb_.assign(points.size(), 0.0);
    epoch_.assign(points.size(), 0);
    scratch_.resize(static_cast<std::size_t>(settings_.resolvedThreads()));
}

template <int D>
void AssignEngine<D>::setActive(std::span<const std::size_t> order,
                                std::size_t activeCount) {
    GEO_REQUIRE(activeCount <= order.size() && activeCount <= points_.size(),
                "active count exceeds available points");
    if (orderFixed_) {
        GEO_REQUIRE(order.data() == order_.data() && order.size() == order_.size(),
                    "the active order is fixed by the first setActive");
        GEO_REQUIRE(activeCount >= active_, "the active prefix only grows");
    }
    order_ = order;
    orderFixed_ = true;
    const std::size_t old = active_;
    active_ = activeCount;
    if (active_ == old) return;

    // Gather the new slots [old, active) into the mirror and extend the box
    // by them: per-worker partial boxes merged serially. Box merge is exact
    // coordinate min/max, so the result is bitwise the box of the whole
    // prefix at any thread count.
    for (auto& x : sx_) x.resize(active_);
    sw_.resize(active_);
    const int threads = settings_.resolvedThreads();
    std::vector<Box<D>> partial(static_cast<std::size_t>(std::max(1, threads)),
                                Box<D>::empty());
    par::parallelFor(threads, active_ - old,
                     [&](std::size_t i0, std::size_t i1, int worker) {
                         Box<D> bb = Box<D>::empty();
                         for (std::size_t s = old + i0; s < old + i1; ++s) {
                             const std::size_t p = order_[s];
                             const Point<D>& pt = points_[p];
                             for (int d = 0; d < D; ++d)
                                 sx_[static_cast<std::size_t>(d)][s] = pt[d];
                             sw_[s] = weights_.empty() ? 1.0 : weights_[p];
                             bb.extend(pt);
                         }
                         partial[static_cast<std::size_t>(worker)] = bb;
                     });
    for (const auto& bb : partial)
        if (bb.valid()) box_.extend(bb);
    counters_.peakTileBytes = (D + 1) * sizeof(double) * active_;
}

template <int D>
void AssignEngine<D>::beginRound(std::span<const Point<D>> centers,
                                 std::span<const double> influence,
                                 const Box<D>& activeBox) {
    GEO_REQUIRE(static_cast<std::int32_t>(centers.size()) == k_ &&
                    static_cast<std::int32_t>(influence.size()) == k_,
                "need one center and one influence value per cluster");
    centers_ = centers;
    influence_ = influence;
    invInfluence2_.resize(static_cast<std::size_t>(k_));
    for (std::int32_t c = 0; c < k_; ++c) {
        const double inf = influence_[static_cast<std::size_t>(c)];
        invInfluence2_[static_cast<std::size_t>(c)] = 1.0 / (inf * inf);
    }
    sortedCenters_.resize(static_cast<std::size_t>(k_));
    std::iota(sortedCenters_.begin(), sortedCenters_.end(), 0);
    // The stale-key guard: keys are valid only when computed *this round*
    // against *this round's* box. A round with an invalid box (e.g. no
    // active points) must fall back to the unpruned scan — consulting keys
    // left over from an earlier round against the freshly reset identity
    // order would break the "remaining centers cannot win" argument and can
    // assign a point to the wrong cluster.
    keysValid_ = false;
    if (settings_.boundingBoxPruning && activeBox.valid()) {
        centerKey_.resize(static_cast<std::size_t>(k_));
        for (std::int32_t c = 0; c < k_; ++c) {
            const auto ci = static_cast<std::size_t>(c);
            centerKey_[ci] =
                activeBox.minSquaredDistance(centers_[ci]) * invInfluence2_[ci];
        }
        std::sort(sortedCenters_.begin(), sortedCenters_.end(),
                  [&](std::int32_t a, std::int32_t b) {
                      return centerKey_[static_cast<std::size_t>(a)] <
                             centerKey_[static_cast<std::size_t>(b)];
                  });
        keysValid_ = true;
    }
}

template <int D>
void AssignEngine<D>::sweep(std::span<double> localSizes) {
    GEO_REQUIRE(static_cast<std::int32_t>(localSizes.size()) == k_,
                "localSizes must have one entry per cluster");
    std::fill(localSizes.begin(), localSizes.end(), 0.0);
    if (active_ == 0) return;
    GEO_CHECK(!centers_.empty(), "beginRound must precede sweep");

    const auto stride = static_cast<std::size_t>(k_);
    const std::size_t blocks = (active_ + kAssignBlock - 1) / kAssignBlock;
    blockSizes_.resize(blocks * stride);
    const int threads = settings_.resolvedThreads();
    if (scratch_.size() < static_cast<std::size_t>(threads))
        scratch_.resize(static_cast<std::size_t>(threads));

    par::parallelFor(threads, blocks, [&](std::size_t b0, std::size_t b1, int worker) {
        auto& scratch = scratch_[static_cast<std::size_t>(worker)];
        for (std::size_t b = b0; b < b1; ++b)
            processBlock(b, scratch, &blockSizes_[b * stride]);
    });
    // Fold the per-block partials in ascending block order: bitwise
    // identical at every thread count.
    for (std::size_t b = 0; b < blocks; ++b)
        for (std::size_t c = 0; c < stride; ++c)
            localSizes[c] += blockSizes_[b * stride + c];
    // Counter merges are integer sums — order-independent.
    for (auto& scratch : scratch_) {
        counters_.merge(scratch.counters);
        scratch.counters = KMeansCounters{};
    }
}

template <int D>
void AssignEngine<D>::updateCenters(std::span<double> sums) {
    const auto stride = static_cast<std::size_t>(k_) * (D + 1);
    GEO_REQUIRE(sums.size() == stride, "sums must be k*(D+1) wide");
    std::fill(sums.begin(), sums.end(), 0.0);
    if (active_ == 0) return;

    const std::size_t blocks = (active_ + kAssignBlock - 1) / kAssignBlock;
    blockSums_.resize(blocks * stride);
    par::parallelFor(
        settings_.resolvedThreads(), blocks, [&](std::size_t b0, std::size_t b1, int) {
            for (std::size_t b = b0; b < b1; ++b) {
                double* partial = &blockSums_[b * stride];
                std::fill(partial, partial + stride, 0.0);
                const std::size_t s1 = std::min(active_, (b + 1) * kAssignBlock);
                for (std::size_t s = b * kAssignBlock; s < s1; ++s) {
                    const auto c = static_cast<std::size_t>(assignment_[s]);
                    const double weight = sw_[s];
                    double* row = partial + c * (D + 1);
                    for (int d = 0; d < D; ++d)
                        row[d] += weight * sx_[static_cast<std::size_t>(d)][s];
                    row[D] += weight;
                }
            }
        });
    // Same block-ordered left fold as sweep().
    for (std::size_t b = 0; b < blocks; ++b)
        for (std::size_t c = 0; c < stride; ++c)
            sums[c] += blockSums_[b * stride + c];
}

template <int D>
void AssignEngine<D>::processBlock(std::size_t block, Scratch& scratch,
                                   double* blockSizes) {
    const std::size_t s0 = block * kAssignBlock;
    const std::size_t s1 = std::min(active_, s0 + kAssignBlock);
    scratch.slot.clear();
    for (int d = 0; d < D; ++d) scratch.gx[static_cast<std::size_t>(d)].clear();

    for (std::size_t s = s0; s < s1; ++s) {
        scratch.counters.pointEvaluations++;
        if (settings_.hamerlyBounds && assignment_[s] >= 0) {
            applyEpochs(s, scratch.counters);
            if (ub_[s] < lb_[s]) {
                scratch.counters.boundSkips++;  // membership provably unchanged
                continue;
            }
        }
        scratch.slot.push_back(s);
        for (int d = 0; d < D; ++d)
            scratch.gx[static_cast<std::size_t>(d)].push_back(
                sx_[static_cast<std::size_t>(d)][s]);
    }
    if (!scratch.slot.empty()) batchKernel(scratch, scratch.slot.size());

    // Per-block weighted sizes, accumulated in slot order within the block.
    for (std::int32_t c = 0; c < k_; ++c) blockSizes[c] = 0.0;
    for (std::size_t s = s0; s < s1; ++s) blockSizes[assignment_[s]] += sw_[s];
}

namespace {
/// How many sorted centers the batch kernel scans between lane-retirement
/// passes. A lane (point) is finished as soon as the next center's pruning
/// key exceeds its second-best — the per-point break of the seed algorithm —
/// so the interval only bounds how many extra candidates a finished lane
/// may see before it is compacted away.
constexpr std::size_t kRetireInterval = 4;
}  // namespace

/// Centers-outer, lanes-inner squared-domain scan over one gathered block.
/// The inner loop does unconditional loads/stores with ternary selects (no
/// control flow) so -O3 can if-convert and vectorize it; center ids travel
/// as doubles so every lane of the select has one vector width. Lanes whose
/// per-point pruning break has fired are materialized and compacted out
/// every kRetireInterval centers, keeping the live lanes contiguous.
template <int D>
void AssignEngine<D>::batchKernel(Scratch& scratch, std::size_t m) {
    scratch.best2.assign(m, kInf);
    scratch.second2.assign(m, kInf);
    scratch.bestC.assign(m, -1.0);
    scratch.secondC.assign(m, -1.0);
    const std::uint32_t cur = currentEpoch();

    // Materialize one lane: recompute the Hamerly bounds with the seed
    // algorithm's exact scalar expression (distance(p,c)/influence(c)), so
    // ub/lb agree with it bitwise (the only sqrts on the fast path — at
    // most two per assigned point).
    const auto materialize = [&](std::size_t j) {
        const std::size_t s = scratch.slot[j];
        Point<D> pt;  // lane j's coordinates: the same doubles as the caller's
        for (int d = 0; d < D; ++d) pt[d] = scratch.gx[static_cast<std::size_t>(d)][j];
        const auto bc = static_cast<std::int32_t>(scratch.bestC[j]);
        GEO_CHECK(bc >= 0, "assignment found no center");
        assignment_[s] = bc;
        ub_[s] = distance(pt, centers_[static_cast<std::size_t>(bc)]) /
                 influence_[static_cast<std::size_t>(bc)];
        const auto sc = static_cast<std::int32_t>(scratch.secondC[j]);
        lb_[s] = sc >= 0 ? distance(pt, centers_[static_cast<std::size_t>(sc)]) /
                               influence_[static_cast<std::size_t>(sc)]
                         : kInf;
        epoch_[s] = cur;
    };

    std::size_t live = m;
    const std::size_t kCount = sortedCenters_.size();
    for (std::size_t ci = 0; ci < kCount && live > 0; ++ci) {
        const std::int32_t c = sortedCenters_[ci];
        std::array<double, static_cast<std::size_t>(D)> cx;
        for (int d = 0; d < D; ++d)
            cx[static_cast<std::size_t>(d)] = centers_[static_cast<std::size_t>(c)][d];
        const double inv = invInfluence2_[static_cast<std::size_t>(c)];
        const auto cd = static_cast<double>(c);

        double* __restrict best2 = scratch.best2.data();
        double* __restrict second2 = scratch.second2.data();
        double* __restrict bestC = scratch.bestC.data();
        double* __restrict secondC = scratch.secondC.data();
        std::array<const double*, static_cast<std::size_t>(D)> gx;
        for (int d = 0; d < D; ++d)
            gx[static_cast<std::size_t>(d)] =
                scratch.gx[static_cast<std::size_t>(d)].data();
        // Branchless best/second update per lane: the value lanes are pure
        // min/max (second' = min(os, max(e2, ob))), the id lanes flat
        // selects. The SSE2 body below is this exact computation two lanes
        // at a time (minpd/maxpd + compare-mask selects); the tie behaviour
        // of minpd/maxpd only ever picks between bitwise-equal values, so
        // both bodies match the seed algorithm's strict-< logic exactly.
        const auto scalarLanes = [&](std::size_t from, std::size_t to) {
            for (std::size_t j = from; j < to; ++j) {
                double d2 = 0.0;
                for (int d = 0; d < D; ++d) {
                    const double diff = gx[static_cast<std::size_t>(d)][j] -
                                        cx[static_cast<std::size_t>(d)];
                    d2 += diff * diff;
                }
                const double e2 = d2 * inv;
                const double ob = best2[j], os = second2[j];
                const double obc = bestC[j], osc = secondC[j];
                best2[j] = std::min(e2, ob);
                second2[j] = std::min(os, std::max(e2, ob));
                const double demoted = e2 < os ? cd : osc;
                bestC[j] = e2 < ob ? cd : obc;
                secondC[j] = e2 < ob ? obc : demoted;
            }
        };
#if GEO_ASSIGN_SSE2
        const __m128d cdv = _mm_set1_pd(cd);
        const __m128d invv = _mm_set1_pd(inv);
        std::size_t j = 0;
        for (; j + 2 <= live; j += 2) {
            __m128d d2 = _mm_setzero_pd();
            for (int d = 0; d < D; ++d) {
                const __m128d diff =
                    _mm_sub_pd(_mm_loadu_pd(gx[static_cast<std::size_t>(d)] + j),
                               _mm_set1_pd(cx[static_cast<std::size_t>(d)]));
                d2 = _mm_add_pd(d2, _mm_mul_pd(diff, diff));
            }
            const __m128d e2 = _mm_mul_pd(d2, invv);
            const __m128d ob = _mm_loadu_pd(best2 + j);
            const __m128d os = _mm_loadu_pd(second2 + j);
            const __m128d obc = _mm_loadu_pd(bestC + j);
            const __m128d osc = _mm_loadu_pd(secondC + j);
            const __m128d mb = _mm_cmplt_pd(e2, ob);
            const __m128d ms = _mm_cmplt_pd(e2, os);
            _mm_storeu_pd(best2 + j, _mm_min_pd(e2, ob));
            _mm_storeu_pd(second2 + j, _mm_min_pd(os, _mm_max_pd(e2, ob)));
            const __m128d demoted =
                _mm_or_pd(_mm_and_pd(ms, cdv), _mm_andnot_pd(ms, osc));
            _mm_storeu_pd(bestC + j,
                          _mm_or_pd(_mm_and_pd(mb, cdv), _mm_andnot_pd(mb, obc)));
            _mm_storeu_pd(secondC + j,
                          _mm_or_pd(_mm_and_pd(mb, obc), _mm_andnot_pd(mb, demoted)));
        }
        scalarLanes(j, live);
#else
        scalarLanes(0, live);
#endif
        scratch.counters.distanceCalcs += live;

        // Retire finished lanes. Keys are sorted ascending, so once
        // key[next] > second2[lane] holds, every remaining center fails the
        // seed algorithm's break test for that lane: its best/second are final.
        if (keysValid_ && ci + 1 < kCount &&
            ((ci % kRetireInterval) == kRetireInterval - 1 || ci + 2 == kCount)) {
            const double nextKey =
                centerKey_[static_cast<std::size_t>(sortedCenters_[ci + 1])];
            std::size_t w = 0;
            for (std::size_t j = 0; j < live; ++j) {
                if (nextKey > scratch.second2[j]) {
                    scratch.counters.bboxBreaks++;
                    materialize(j);
                    continue;
                }
                if (w != j) {
                    scratch.slot[w] = scratch.slot[j];
                    for (int d = 0; d < D; ++d)
                        scratch.gx[static_cast<std::size_t>(d)][w] =
                            scratch.gx[static_cast<std::size_t>(d)][j];
                    scratch.best2[w] = scratch.best2[j];
                    scratch.second2[w] = scratch.second2[j];
                    scratch.bestC[w] = scratch.bestC[j];
                    scratch.secondC[w] = scratch.secondC[j];
                }
                ++w;
            }
            live = w;
        }
    }
    for (std::size_t j = 0; j < live; ++j) materialize(j);
}

template <int D>
void AssignEngine<D>::applyEpochs(std::size_t s, KMeansCounters& counters) {
    const std::uint32_t cur = currentEpoch();
    std::uint32_t e = epoch_[s];
    if (e == cur) return;
    const auto c = static_cast<std::size_t>(assignment_[s]);
    double ub = ub_[s], lb = lb_[s];
    counters.epochBoundApplications += cur - e;
    for (; e < cur; ++e) {
        const Epoch& ep = epochs_[e];
        if (ep.move) {
            ub = ub * ep.ratio[c] + ep.shift[c];
            lb = std::max(0.0, lb * ep.minRatio - ep.maxShift);
        } else {
            ub *= ep.ratio[c];
            lb *= ep.minRatio;
        }
    }
    ub_[s] = ub;
    lb_[s] = lb;
    epoch_[s] = cur;
}

template <int D>
void AssignEngine<D>::pushInfluenceEpoch(std::span<const double> ratio) {
    if (!settings_.hamerlyBounds) return;
    GEO_REQUIRE(static_cast<std::int32_t>(ratio.size()) == k_,
                "need one ratio per cluster");
    Epoch epoch;
    epoch.ratio.assign(ratio.begin(), ratio.end());
    epoch.minRatio = *std::min_element(ratio.begin(), ratio.end());
    epoch.move = false;
    epochs_.push_back(std::move(epoch));
}

template <int D>
void AssignEngine<D>::pushMoveEpoch(std::span<const double> ratio,
                                    std::span<const double> shift) {
    if (!settings_.hamerlyBounds) return;
    GEO_REQUIRE(static_cast<std::int32_t>(ratio.size()) == k_ &&
                    static_cast<std::int32_t>(shift.size()) == k_,
                "need one ratio and shift per cluster");
    Epoch epoch;
    epoch.ratio.assign(ratio.begin(), ratio.end());
    epoch.shift.assign(shift.begin(), shift.end());
    epoch.minRatio = *std::min_element(ratio.begin(), ratio.end());
    epoch.maxShift = *std::max_element(shift.begin(), shift.end());
    epoch.move = true;
    epochs_.push_back(std::move(epoch));
}

template <int D>
void AssignEngine<D>::resetBounds() {
    std::fill(ub_.begin(), ub_.end(), kInf);
    std::fill(lb_.begin(), lb_.end(), 0.0);
    // Every point is now current, so no logged epoch can ever be replayed
    // again — drop the log instead of retaining O(rounds · k) dead state.
    epochs_.clear();
    std::fill(epoch_.begin(), epoch_.end(), 0u);
}

template <int D>
std::vector<std::int32_t> AssignEngine<D>::takeAssignment() {
    // Free the bound state first so the output does not raise peak RSS.
    std::vector<double>().swap(ub_);
    std::vector<double>().swap(lb_);
    std::vector<std::uint32_t>().swap(epoch_);
    for (auto& x : sx_) std::vector<double>().swap(x);
    std::vector<double>().swap(sw_);
    std::vector<std::int32_t> byPoint(assignment_.size(), -1);
    for (std::size_t s = 0; s < order_.size(); ++s) byPoint[order_[s]] = assignment_[s];
    std::vector<std::int32_t>().swap(assignment_);
    return byPoint;
}

template class AssignEngine<2>;
template class AssignEngine<3>;

}  // namespace geo::core
