// Geographer: the end-to-end partitioner (§4.1, §4.5, Algorithm 2).
//
// Pipeline per SPMD rank:
//   1. compute Hilbert indices of the local points      (phase "hilbert")
//   2. global sample sort + redistribution by index      (phase "redistribute")
//   3. seed k centers equidistantly along the curve
//   4. balanced k-means                                  (phase "kmeans")
//
// The phase split matches the component breakdown the paper reports in
// §5.3.2. The number of blocks k is independent of the number of ranks.
#pragma once

#include <cstdint>
#include <functional>
#include <initializer_list>
#include <map>
#include <mutex>
#include <string>
#include <utility>

#include "core/balanced_kmeans.hpp"
#include "core/settings.hpp"
#include "graph/metrics.hpp"
#include "par/comm.hpp"

namespace geo::core {

struct GeographerResult {
    /// Block per original (input-order) point.
    graph::Partition partition;
    double imbalance = 0.0;
    bool converged = false;
    /// Loop counters summed over all ranks.
    KMeansCounters counters;
    /// Per-phase wall time, max over ranks: "hilbert", "redistribute",
    /// "kmeans", plus the k-means sub-phases "assign" (assignment sweeps)
    /// and "update" (center-update reductions).
    std::map<std::string, double> phaseSeconds;
    /// Aggregate runtime statistics of the SPMD run (modeled comm time,
    /// bytes, per-rank CPU time). Includes the diagnostic result gather.
    par::RunStats runStats;
    /// Modeled parallel time of the partitioning pipeline alone (max-rank
    /// CPU + modeled comm up to the end of k-means, excluding the
    /// diagnostic gather) — the number comparable to the paper's timings.
    double modeledSeconds = 0.0;
    /// Final replicated k-means centers, flattened row-major (k × D) so the
    /// result type stays dimension-agnostic. Together with `influence` this
    /// is the warm-start state consumed by repart::repartitionGeographer.
    std::vector<double> centerCoords;
    /// Final replicated influence values (one per block).
    std::vector<double> influence;
    /// Influence values the final assignment sweep used: `partition` is an
    /// exact multiplicatively-weighted Voronoi partition of (centerCoords,
    /// assignmentInfluence). Equal to `influence` unless the last balance
    /// loop exhausted maxBalanceIterations (see KMeansOutcome). Consumed by
    /// the online serving subsystem (src/serve) so published snapshots
    /// reproduce the partition bitwise.
    std::vector<double> assignmentInfluence;
};

/// Unflatten row-major (k × D) center coordinates (the
/// GeographerResult::centerCoords layout) back into Point form — the layout
/// repart::RepartState and serve::PartitionSnapshot consume.
template <int D>
[[nodiscard]] inline std::vector<Point<D>> unflattenCenters(
    std::span<const double> coords) {
    std::vector<Point<D>> centers(coords.size() / static_cast<std::size_t>(D));
    for (std::size_t c = 0; c < centers.size(); ++c)
        for (int d = 0; d < D; ++d)
            centers[c][d] = coords[c * static_cast<std::size_t>(D) +
                                   static_cast<std::size_t>(d)];
    return centers;
}

/// Partition `points` into k blocks with `ranks` simulated MPI processes.
/// `weights` may be empty (unit weights).
template <int D>
GeographerResult partitionGeographer(std::span<const Point<D>> points,
                                     std::span<const double> weights, std::int32_t k,
                                     int ranks, const Settings& settings,
                                     par::CostModel model = {});

extern template GeographerResult partitionGeographer<2>(std::span<const Point2>,
                                                        std::span<const double>, std::int32_t,
                                                        int, const Settings&, par::CostModel);
extern template GeographerResult partitionGeographer<3>(std::span<const Point3>,
                                                        std::span<const double>, std::int32_t,
                                                        int, const Settings&, par::CostModel);

namespace detail {

/// Collective last step of both SPMD bodies (the cold pipeline here, the
/// warm path in src/repart): sums the loop counters over ranks, then writes
/// `result` under `resultMutex` from values every rank already holds —
/// the gathered partition (built by calling `partition`, which must yield
/// a block in [0, k) for every input point), the max-reduced `phaseMax`
/// times and `modeledSeconds`, and the replicated k-means state. The
/// writer is the rank that owns the address space: the root on the
/// simulator, every rank across processes.
template <int D>
void writeResult(par::Comm& comm, const KMeansOutcome<D>& outcome,
                 const std::function<graph::Partition()>& partition,
                 std::initializer_list<std::pair<const char*, double>> phaseMax,
                 double modeledSeconds, GeographerResult& result,
                 std::mutex& resultMutex);

extern template void writeResult<2>(par::Comm&, const KMeansOutcome<2>&,
                                    const std::function<graph::Partition()>&,
                                    std::initializer_list<std::pair<const char*, double>>,
                                    double, GeographerResult&, std::mutex&);
extern template void writeResult<3>(par::Comm&, const KMeansOutcome<3>&,
                                    const std::function<graph::Partition()>&,
                                    std::initializer_list<std::pair<const char*, double>>,
                                    double, GeographerResult&, std::mutex&);

}  // namespace detail

}  // namespace geo::core
