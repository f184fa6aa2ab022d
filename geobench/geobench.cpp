// geobench — the repository benchmark program.
//
// One process runs one workload from a seed and prints a single JSON object
// as its last line of standard output: the metrics, the correctness verdict,
// the operation counts and a deterministic counter fingerprint. run.py (next
// to this file) builds the binary, adds the cross-run fingerprint check and
// prints the final result line.
//
//   geobench --workload NAME --seed N --seconds S --trace 0|1
//            [--instance M] [--trace-out PATH] [--run-id ID]
//
// Workloads (README.md gives the reasons and the layer map):
//   cold2d         gen::delaunay2d, 1M points, k=32, 1 rank, 1 thread
//   serve-churn2d  serve::PartitionService over a Churn scenario,
//                  200k base points, k=64, open-loop queries beside churn
//
// --trace 0 reports the end-to-end metrics. --trace 1 is the traced run: it
// rebuilds the partition layer by layer from the library's public calls,
// records a span around each call, checks the result against an untraced
// partition bitwise, and reports the per-layer metrics. Spans stay in memory
// and are written to --trace-out when the run ends.
#include <algorithm>
#include <array>
#include <atomic>
#include <chrono>
#include <cmath>
#include <cstdint>
#include <fstream>
#include <iomanip>
#include <iostream>
#include <memory>
#include <numeric>
#include <sstream>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "core/balanced_kmeans.hpp"
#include "core/geographer.hpp"
#include "gen/delaunay2d.hpp"
#include "geometry/box.hpp"
#include "graph/metrics.hpp"
#include "par/comm.hpp"
#include "par/sort.hpp"
#include "repart/repartition.hpp"
#include "repart/scenarios.hpp"
#include "serve/router.hpp"
#include "serve/service.hpp"
#include "serve/snapshot.hpp"
#include "sfc/hilbert.hpp"
#include "support/mem.hpp"
#include "support/rng.hpp"

namespace {

using namespace geo;
using Clock = std::chrono::steady_clock;

double since(Clock::time_point t0) {
    return std::chrono::duration<double>(Clock::now() - t0).count();
}

// ------------------------------------------------------------------ knobs

constexpr std::size_t kBatch = 1024;          ///< points per closed-loop route call
constexpr double kLateLimitSeconds = 2e-3;    ///< a batch later than this misses
constexpr double kWindowSeconds = 0.5;        ///< open-loop quantile window
constexpr int kColdSetupReps = 2;             ///< mesh generations per run
constexpr int kServeSetupReps = 5;            ///< scenario + cold starts per run
constexpr int kMinRounds = 3;                 ///< measurement rounds per phase, at least
constexpr int kMinRoutePasses = 3;            ///< closed-loop passes per routing phase
constexpr double kRouteSeconds = 1.0;         ///< closed-loop routing, traced run
constexpr double kRoundRouteSeconds = 0.1;    ///< closed-loop routing per round
constexpr double kRoundOpenLoopSeconds = 1.0; ///< open-loop client per cold round
constexpr double kServeQueryRate = 2000.0;    ///< batches/s, serve-churn2d
constexpr std::size_t kServeQueryBatch = 1024;
constexpr double kChurnEventsPerSecond = 50000.0;
constexpr double kStalenessSampleSeconds = 0.01;
constexpr int kSnapshotReps = 5;              ///< traced snapshot-build timings
constexpr int kReplaySteps = 4;               ///< traced offline warm replay
constexpr std::uint64_t kQuerySeedSalt = 0x9e3779b97f4a7c15ULL;

// ------------------------------------------------------------ small stats

double quantile(std::vector<double> v, double q) {
    if (v.empty()) return 0.0;
    std::sort(v.begin(), v.end());
    const auto rank = static_cast<std::size_t>(std::ceil(q * static_cast<double>(v.size())));
    return v[std::min(v.size() - 1, rank == 0 ? 0 : rank - 1)];
}

double median(std::vector<double> v) {
    if (v.empty()) return 0.0;
    std::sort(v.begin(), v.end());
    const std::size_t m = v.size() / 2;
    return v.size() % 2 == 1 ? v[m] : 0.5 * (v[m - 1] + v[m]);
}

double mean(const std::vector<double>& v) {
    return v.empty() ? 0.0 : std::accumulate(v.begin(), v.end(), 0.0) / static_cast<double>(v.size());
}

double mb(std::uint64_t bytes) { return static_cast<double>(bytes) / (1024.0 * 1024.0); }

// ------------------------------------------------------------------ spans

/// In-memory span recorder for the traced run: name, start, end (seconds
/// since the recorder was made) and the index of the enclosing span. Spans
/// are opened and closed on the main thread only.
class Tracer {
public:
    struct Span {
        std::string name;
        double start = 0.0;
        double end = 0.0;
        int parent = -1;
    };

    class Scope {
    public:
        Scope(Tracer& tracer, std::string name) : tracer_(tracer) {
            index_ = static_cast<int>(tracer_.spans_.size());
            tracer_.spans_.push_back(
                Span{std::move(name), since(tracer_.origin_), 0.0, tracer_.open_});
            tracer_.open_ = index_;
        }
        ~Scope() { close(); }
        Scope(const Scope&) = delete;
        Scope& operator=(const Scope&) = delete;

        /// Close the span now; returns its duration in seconds.
        double close() {
            Span& s = tracer_.spans_[static_cast<std::size_t>(index_)];
            if (!closed_) {
                s.end = since(tracer_.origin_);
                tracer_.open_ = s.parent;
                closed_ = true;
            }
            return s.end - s.start;
        }

    private:
        Tracer& tracer_;
        int index_ = 0;
        bool closed_ = false;
    };

    /// One JSON object per line: run id, name, start, end, parent index.
    void write(const std::string& path, const std::string& runId) const {
        std::ofstream out(path);
        if (!out) {
            std::cerr << "geobench: cannot write trace " << path << "\n";
            return;
        }
        out << std::setprecision(9);
        for (std::size_t i = 0; i < spans_.size(); ++i) {
            const Span& s = spans_[i];
            out << "{\"run\": \"" << runId << "\", \"id\": " << i << ", \"name\": \""
                << s.name << "\", \"start\": " << s.start << ", \"end\": " << s.end
                << ", \"parent\": " << s.parent << "}\n";
        }
    }

private:
    Clock::time_point origin_ = Clock::now();
    std::vector<Span> spans_;
    int open_ = -1;
};

// ----------------------------------------------------------------- report

/// Everything one run reports: metrics in insertion order, operation
/// counts, failed checks, and the deterministic counter fingerprint.
struct Report {
    std::vector<std::pair<std::string, std::pair<double, std::string>>> metrics;
    std::vector<std::string> errors;
    std::vector<std::pair<std::string, std::uint64_t>> fingerprint;
    std::uint64_t attempted = 0;
    std::uint64_t failed = 0;

    void metric(const std::string& name, double value, const std::string& unit) {
        metrics.push_back({name, {value, unit}});
    }
    /// Record `n` operations of which `bad` failed; any failure fails the run.
    void count(std::uint64_t n, std::uint64_t bad, const std::string& what) {
        attempted += n;
        failed += bad;
        if (bad > 0 && errors.size() < 16) errors.push_back(what);
    }
    /// Record one checked operation.
    void check(bool ok, const std::string& what) { count(1, ok ? 0 : 1, what); }

    void print(std::ostream& out) const {
        out << std::setprecision(17);
        out << "{\"correct\": " << (errors.empty() && failed == 0 ? "true" : "false")
            << ", \"attempted\": " << attempted << ", \"failed\": " << failed
            << ", \"metrics\": {";
        for (std::size_t i = 0; i < metrics.size(); ++i) {
            const auto& [name, vu] = metrics[i];
            out << (i ? ", " : "") << "\"" << name << "\": {\"value\": " << vu.first
                << ", \"unit\": \"" << vu.second << "\"}";
        }
        out << "}, \"fingerprint\": {";
        for (std::size_t i = 0; i < fingerprint.size(); ++i)
            out << (i ? ", " : "") << "\"" << fingerprint[i].first
                << "\": " << fingerprint[i].second;
        out << "}, \"errors\": [";
        for (std::size_t i = 0; i < errors.size(); ++i) {
            std::string e = errors[i];
            std::replace(e.begin(), e.end(), '"', '\'');
            out << (i ? ", " : "") << "\"" << e << "\"";
        }
        out << "]}" << std::endl;
    }
};

// ------------------------------------------------------- shared pieces

core::Settings benchSettings() {
    core::Settings s;  // defaults, pinned to one thread and one rank
    s.threads = 1;
    s.ranks = 1;
    return s;
}

/// The counters a partition's work is fingerprinted by: equal work gives
/// equal numbers, so a later change can tell less work from faster work.
std::vector<std::pair<std::string, std::uint64_t>> fingerprintOf(
    const core::GeographerResult& r, std::int64_t totalCommVolume) {
    return {{"core.point_evals", r.counters.pointEvaluations},
            {"core.distance_calcs", r.counters.distanceCalcs},
            {"core.balance_iters", r.counters.balanceIterations},
            {"core.outer_iters", static_cast<std::uint64_t>(r.counters.outerIterations)},
            {"total_comm_volume", static_cast<std::uint64_t>(totalCommVolume)}};
}

bool sameWork(const core::KMeansCounters& a, const core::KMeansCounters& b) {
    return a.pointEvaluations == b.pointEvaluations && a.distanceCalcs == b.distanceCalcs &&
           a.balanceIterations == b.balanceIterations &&
           a.outerIterations == b.outerIterations &&
           a.epochBoundApplications == b.epochBoundApplications;
}

/// Quality of a partition: every point assigned, imbalance within epsilon.
graph::PartitionMetrics checkQuality(Report& rep, const graph::CsrGraph& g,
                                     const graph::Partition& part, std::int32_t k,
                                     std::span<const double> weights, double epsilon) {
    const bool assigned = std::all_of(part.begin(), part.end(),
                                      [k](std::int32_t b) { return b >= 0 && b < k; });
    rep.check(assigned, "a point is unassigned or out of [0, k)");
    const auto pm = graph::evaluatePartition(g, part, k, weights, /*computeDiameter=*/false,
                                             {}, /*threads=*/1);
    std::ostringstream what;
    what << "imbalance " << pm.imbalance << " exceeds epsilon " << epsilon;
    rep.check(pm.imbalance <= epsilon, what.str());
    return pm;
}

/// Closed-loop single-thread routing of every point in kBatch-point calls,
/// pass after pass for at least `seconds`. Appends each pass's throughput in
/// points per second to `rates`; `blocks` holds the last pass.
template <int D>
void routeAllPoints(const serve::Router<D>& router, std::span<const Point<D>> points,
                    std::vector<std::int32_t>& blocks, double seconds,
                    std::vector<double>& rates) {
    blocks.assign(points.size(), -1);
    const auto start = Clock::now();
    for (int pass = 0; pass < kMinRoutePasses || since(start) < seconds; ++pass) {
        const auto t0 = Clock::now();
        for (std::size_t i = 0; i < points.size(); i += kBatch) {
            const std::size_t m = std::min(kBatch, points.size() - i);
            router.route(points.subspan(i, m), std::span<std::int32_t>(blocks.data() + i, m));
        }
        rates.push_back(static_cast<double>(points.size()) / since(t0));
    }
}

/// One open-loop client: batch i is due at start + i/rate regardless of
/// earlier batches, and is timed from its due time, so a stall counts
/// against every batch it delays.
struct OpenLoop {
    std::vector<double> latency;  ///< due → answered, seconds
    std::vector<double> call;     ///< the route call alone, seconds
    std::vector<double> lag;      ///< due → sent, seconds (generator lateness)
    std::uint64_t attempted = 0;
    std::uint64_t missed = 0;     ///< failed, refused or later than the limit
    double rate = 0.0;

    template <typename SendBatch>
    void run(double batchesPerSecond, double seconds, SendBatch&& send) {
        rate = batchesPerSecond;
        const auto interval = std::chrono::duration<double>(1.0 / rate);
        const auto spinWindow = std::chrono::microseconds(200);
        const auto start = Clock::now() + std::chrono::milliseconds(1);
        const auto total = static_cast<std::uint64_t>(seconds * rate);
        latency.reserve(total);
        call.reserve(total);
        lag.reserve(total);
        for (std::uint64_t i = 0; i < total; ++i) {
            const auto due =
                start + std::chrono::duration_cast<Clock::duration>(interval * static_cast<double>(i));
            // Sleep most of the gap, spin the rest: sleep wake-up slack alone
            // is tens of microseconds, the size of a whole batch. Spinning
            // the whole gap would keep a CPU busy and, in serve-churn2d,
            // time-slice the client against the repartition worker.
            if (Clock::now() < due - spinWindow) std::this_thread::sleep_until(due - spinWindow);
            while (Clock::now() < due) {
            }
            const auto sent = Clock::now();
            const bool ok = send(i);
            const auto done = Clock::now();
            const double l = std::chrono::duration<double>(done - due).count();
            latency.push_back(l);
            call.push_back(std::chrono::duration<double>(done - sent).count());
            lag.push_back(std::chrono::duration<double>(sent - due).count());
            ++attempted;
            if (!ok || l > kLateLimitSeconds) ++missed;
        }
    }

    /// Median over kWindowSeconds windows of each window's q-quantile: a
    /// stalled stretch on a shared machine moves a few windows, not the
    /// result.
    [[nodiscard]] double windowed(const std::vector<double>& v, double q) const {
        const auto per = static_cast<std::size_t>(kWindowSeconds * rate);
        std::vector<double> perWindow;
        for (std::size_t w = 0; w + per <= v.size(); w += per)
            perWindow.push_back(quantile(
                std::vector<double>(v.begin() + static_cast<std::ptrdiff_t>(w),
                                    v.begin() + static_cast<std::ptrdiff_t>(w + per)),
                q));
        return perWindow.empty() ? quantile(v, q) : median(perWindow);
    }

    void report(Report& rep) const {
        rep.metric("route_p50_us", windowed(latency, 0.50) * 1e6, "us");
        rep.metric("route_ontime_frac",
                   1.0 - static_cast<double>(missed) / static_cast<double>(std::max<std::uint64_t>(attempted, 1)),
                   "fraction");
    }
};

// -------------------------------------------- layered (traced) partition

template <int D>
struct PointRecord {
    std::int64_t gid;
    Point<D> pt;
    double weight;
};

struct LayerTimes {
    double keying = 0.0;
    double sort = 0.0;
    double total = 0.0;
};

/// Partition `points` into k blocks on one rank by calling each layer's
/// public function in the order core::partitionGeographer does — bounds and
/// Hilbert keys (sfc), sample sort and rebalance (par), curve seeding, then
/// balanced k-means (core) — with a span around each call. The result must
/// equal partitionGeographer's bitwise.
template <int D>
graph::Partition layeredPartition(Tracer& tracer, std::span<const Point<D>> points,
                                  std::span<const double> weights, std::int32_t k,
                                  const core::Settings& settings, LayerTimes& times,
                                  core::KMeansOutcome<D>& outcome) {
    using Rec = par::KeyedRecord<std::uint64_t, PointRecord<D>>;
    const auto n = static_cast<std::int64_t>(points.size());
    const int threads = settings.resolvedThreads();
    graph::Partition partition;
    Tracer::Scope whole(tracer, "partition.layered");
    par::Machine machine(1, {}, settings.resolvedTransport());
    machine.run([&](par::Comm& comm) {
        std::vector<Rec> records(points.size());
        {
            Tracer::Scope s(tracer, "sfc.keying");
            const Box<D> bb = sfc::boundsOf<D>(points, threads);
            std::array<double, 2 * D> lohi;
            for (int d = 0; d < D; ++d) {
                lohi[static_cast<std::size_t>(d)] = bb.lo[d];
                lohi[static_cast<std::size_t>(D + d)] = -bb.hi[d];
            }
            comm.allreduceMin(std::span<double>(lohi.data(), lohi.size()));
            Box<D> box;
            for (int d = 0; d < D; ++d) {
                box.lo[d] = lohi[static_cast<std::size_t>(d)];
                box.hi[d] = -lohi[static_cast<std::size_t>(D + d)];
            }
            std::array<std::uint64_t, sfc::kKeyTile> keys;
            for (std::size_t t0 = 0; t0 < points.size(); t0 += sfc::kKeyTile) {
                const std::size_t m = std::min(sfc::kKeyTile, points.size() - t0);
                sfc::hilbertIndicesInto<D>(points.subspan(t0, m), box,
                                           std::span<std::uint64_t>(keys.data(), m));
                for (std::size_t i = t0; i < t0 + m; ++i)
                    records[i] = Rec{keys[i - t0],
                                     PointRecord<D>{static_cast<std::int64_t>(i), points[i],
                                                    weights.empty() ? 1.0 : weights[i]}};
            }
            times.keying = s.close();
        }
        {
            Tracer::Scope s(tracer, "par.sort");
            records = par::sampleSort(comm, std::move(records), /*oversampling=*/16, threads);
            records = par::rebalanceSorted(comm, std::move(records));
            times.sort = s.close();
        }
        std::vector<Point<D>> centers(static_cast<std::size_t>(k));
        std::vector<Point<D>> sortedPoints;
        std::vector<double> sortedWeights;
        std::vector<std::int64_t> gids;
        {
            Tracer::Scope s(tracer, "core.seed");
            for (std::int32_t c = 0; c < k; ++c) {
                const std::int64_t pos =
                    std::min(n - 1, (n * c) / k + n / (2 * static_cast<std::int64_t>(k)));
                centers[static_cast<std::size_t>(c)] =
                    records[static_cast<std::size_t>(pos)].value.pt;
            }
            sortedPoints.reserve(records.size());
            sortedWeights.reserve(records.size());
            gids.reserve(records.size());
            for (const auto& r : records) {
                sortedPoints.push_back(r.value.pt);
                sortedWeights.push_back(r.value.weight);
                gids.push_back(r.value.gid);
            }
            records.clear();
            records.shrink_to_fit();
        }
        {
            Tracer::Scope s(tracer, "core.balancedKMeans");
            outcome = core::balancedKMeans<D>(comm, sortedPoints, sortedWeights,
                                              std::move(centers), settings);
        }
        partition.assign(points.size(), -1);
        for (std::size_t i = 0; i < gids.size(); ++i)
            partition[static_cast<std::size_t>(gids[i])] = outcome.assignment[i];
    });
    times.total = whole.close();
    return partition;
}

/// Per-layer metrics of the core (k-means) layer from a layered run.
template <int D>
void reportCore(Report& rep, const core::KMeansOutcome<D>& o) {
    const auto& c = o.counters;
    const double evals = static_cast<double>(std::max<std::uint64_t>(c.pointEvaluations, 1));
    const double dists = static_cast<double>(std::max<std::uint64_t>(c.distanceCalcs, 1));
    rep.metric("core.assign_s", o.assignSeconds, "s");
    rep.metric("core.update_s", o.updateSeconds, "s");
    rep.metric("core.point_evals", static_cast<double>(c.pointEvaluations), "count");
    rep.metric("core.epoch_apps", static_cast<double>(c.epochBoundApplications), "count");
    rep.metric("core.ns_per_eval", o.assignSeconds * 1e9 / evals, "ns");
    rep.metric("core.distance_calcs", static_cast<double>(c.distanceCalcs), "count");
    rep.metric("core.dist_per_eval", static_cast<double>(c.distanceCalcs) / evals, "ratio");
    rep.metric("core.skip_frac", c.skipFraction(), "fraction");
    rep.metric("core.ns_per_distance", o.assignSeconds * 1e9 / dists, "ns");
    rep.metric("core.outer_iters", static_cast<double>(c.outerIterations), "count");
    rep.metric("core.balance_iters", static_cast<double>(c.balanceIterations), "count");
    rep.metric("core.peak_tile_bytes", static_cast<double>(c.peakTileBytes), "bytes");
}

/// Traced partition layer: the layered rebuild between two untraced
/// partitionGeographer calls, checked bitwise against them. The overhead is
/// the layered time minus the mean untraced time: bracketing keeps warm-up
/// of the first call out of the difference. Returns the untraced result.
template <int D>
core::GeographerResult tracedPartition(Report& rep, Tracer& tracer,
                                       std::span<const Point<D>> points,
                                       std::span<const double> weights, std::int32_t k) {
    const core::Settings settings = benchSettings();
    core::GeographerResult reference;
    double untraced = 0.0;
    {
        Tracer::Scope s(tracer, "partition.untraced");
        reference = core::partitionGeographer<D>(points, weights, k, 1, settings);
        untraced += s.close();
    }
    LayerTimes times;
    core::KMeansOutcome<D> outcome;
    const auto layered =
        layeredPartition<D>(tracer, points, weights, k, settings, times, outcome);
    {
        Tracer::Scope s(tracer, "partition.untraced");
        const auto again = core::partitionGeographer<D>(points, weights, k, 1, settings);
        untraced += s.close();
        rep.check(again.partition == reference.partition,
                  "partitions of one input differ within a run");
    }
    rep.check(layered == reference.partition,
              "layer-by-layer partition differs from partitionGeographer");
    rep.check(sameWork(outcome.counters, reference.counters),
              "layer-by-layer k-means counters differ from partitionGeographer");
    reportCore<D>(rep, outcome);
    rep.metric("sfc.keying_s", times.keying, "s");
    rep.metric("par.sort_s", times.sort, "s");
    rep.metric("trace.overhead_s", times.total - untraced / 2, "s");
    return reference;
}

/// Serve layer: snapshot build and publish timings, plus closed-loop route
/// cost per point. Returns the router holding the published snapshot.
template <int D>
std::unique_ptr<serve::Router<D>> tracedServeLayer(Report& rep, Tracer& tracer,
                                                   const core::GeographerResult& result,
                                                   std::span<const Point<D>> points) {
    std::vector<double> build;
    std::unique_ptr<serve::PartitionSnapshot<D>> snap;
    {
        Tracer::Scope s(tracer, "serve.snapshot_build");
        for (int r = 0; r < kSnapshotReps; ++r) {
            const auto t0 = Clock::now();
            snap = std::make_unique<serve::PartitionSnapshot<D>>(
                serve::PartitionSnapshot<D>::fromResult(result, 1));
            build.push_back(since(t0));
        }
    }
    auto router = std::make_unique<serve::Router<D>>(1);
    double publish = 0.0;
    {
        Tracer::Scope s(tracer, "serve.publish");
        router->publish(std::move(*snap));
        publish = s.close();
    }
    std::vector<std::int32_t> blocks;
    std::vector<double> rates;
    {
        Tracer::Scope s(tracer, "serve.route_closed_loop");
        routeAllPoints<D>(*router, points, blocks, kRouteSeconds, rates);
    }
    rep.check(blocks == result.partition, "route of the input points differs from the partition");
    rep.metric("serve.snapshot_build_s", median(build), "s");
    rep.metric("serve.publish_s", publish, "s");
    rep.metric("serve.route_ns_per_pt", 1e9 / median(rates), "ns");
    return router;
}

void reportService(Report& rep, const OpenLoop& loop, const serve::ServiceHealth& health) {
    rep.metric("service.route_p90_us", loop.windowed(loop.latency, 0.90) * 1e6, "us");
    rep.metric("service.route_p99_us", quantile(loop.latency, 0.99) * 1e6, "us");
    rep.metric("service.route_call_us_p50", quantile(loop.call, 0.50) * 1e6, "us");
    rep.metric("service.route_call_us_p99", quantile(loop.call, 0.99) * 1e6, "us");
    rep.metric("service.client_lag_p99_us", quantile(loop.lag, 0.99) * 1e6, "us");
    rep.metric("service.backpressure_waits", static_cast<double>(health.backpressureWaits),
               "count");
    rep.metric("service.published_epochs", static_cast<double>(health.publishedEpochs), "count");
    rep.metric("service.applied_events", static_cast<double>(health.appliedEvents), "count");
}

void reportRss(Report& rep, std::uint64_t afterSetup) {
    const std::uint64_t peak = support::peakRssBytes();
    rep.metric("rss.setup_mb", mb(afterSetup), "MB");
    rep.metric("rss.run_delta_mb", mb(peak - std::min(peak, afterSetup)), "MB");
}

// ------------------------------------------------------------ inputs

/// Seeds of one run. `instance` picks the mesh or scenario: the work one
/// partition does swings up to 2x between generator seeds (cold2d point
/// evaluations range 28M-61M over instances 1-5), more than any regression
/// bound could absorb, so the bounds are set on instance 1 and other
/// instances are held out to check a claim. `run` permutes the input order
/// the program sees and draws the query batches.
struct Seeds {
    std::uint64_t run = 1;
    std::uint64_t instance = 1;
};

/// The program's input: the instance's points in a seeded random order.
template <int D>
struct Input {
    std::vector<Point<D>> points;
    std::vector<double> weights;     ///< empty = unit weights
    std::vector<std::size_t> origin; ///< points[i] is the instance's point origin[i]

    Input(std::span<const Point<D>> source, std::span<const double> sourceWeights,
          std::uint64_t seed)
        : origin(source.size()) {
        for (std::size_t i = 0; i < origin.size(); ++i) origin[i] = i;
        Xoshiro256 rng(seed);
        for (std::size_t i = origin.size(); i > 1; --i)
            std::swap(origin[i - 1], origin[static_cast<std::size_t>(rng.below(i))]);
        points.reserve(origin.size());
        for (const auto o : origin) points.push_back(source[o]);
        if (!sourceWeights.empty())
            for (const auto o : origin) weights.push_back(sourceWeights[o]);
    }

    /// A partition of `points`, re-indexed to the instance's point order.
    [[nodiscard]] graph::Partition toInstanceOrder(const graph::Partition& part) const {
        graph::Partition out(part.size(), -1);
        for (std::size_t i = 0; i < part.size(); ++i) out[origin[i]] = part[i];
        return out;
    }
};

// ------------------------------------------------- measurement rounds

/// The untraced partition-and-route measurements. Each round partitions
/// the input with partitionGeographer, publishes the result to a router
/// (snapshot build + publish), checks it against the run's first partition,
/// and routes every input point closed-loop for kRoundRouteSeconds.
/// Interleaving rounds with the rest of a run spreads each metric's samples
/// over the whole run.
template <int D>
struct Rounds {
    std::vector<double> partitionSeconds;  ///< partitionGeographer alone
    std::vector<double> publishedSeconds;  ///< partition + snapshot build + publish
    std::vector<double> routeRates;        ///< closed-loop points/s, one per pass
    core::GeographerResult first;
    serve::Router<D> router{1};
    std::vector<std::int32_t> blocks;

    void run(Report& rep, std::span<const Point<D>> points, std::span<const double> weights,
             std::int32_t k) {
        const auto t0 = Clock::now();
        auto result = core::partitionGeographer<D>(points, weights, k, 1, benchSettings());
        partitionSeconds.push_back(since(t0));
        router.publish(serve::PartitionSnapshot<D>::fromResult(result, router.epoch() + 1));
        publishedSeconds.push_back(since(t0));
        std::cerr << "geobench: partition " << partitionSeconds.size() << ": "
                  << partitionSeconds.back() << " s\n";
        if (partitionSeconds.size() == 1) {
            rep.count(1, 0, "");  // the run's reference partition
            first = std::move(result);
        } else {
            rep.check(result.partition == first.partition &&
                          sameWork(result.counters, first.counters),
                      "partitions of one input differ within a run");
        }
        routeAllPoints<D>(router, points, blocks, kRoundRouteSeconds, routeRates);
        rep.check(blocks == first.partition,
                  "route of the input points differs from the partition");
    }
};

/// Call `round` at least kMinRounds times, then again while one more call
/// is predicted to end within `seconds` of the first.
template <typename Round>
void repeatFor(double seconds, Round&& round) {
    const auto start = Clock::now();
    for (int done = 0;; ++done) {
        const double elapsed = since(start);
        if (done >= kMinRounds && elapsed + elapsed / done > seconds) break;
        round();
    }
}

template <int D>
void reportEndToEnd(Report& rep, const Rounds<D>& rounds, const std::vector<double>& setup,
                    const graph::PartitionMetrics& pm, const OpenLoop& loop,
                    double stalenessSeconds) {
    // A mean, not a median: the host runs fast and slow phases of seconds to
    // minutes, so one run's partition times fall in two clusters, and their
    // median jumps between them with the share of the run in each phase.
    rep.metric("partition_s", mean(rounds.partitionSeconds), "s");
    rep.metric("setup_s", median(setup), "s");
    rep.metric("peak_rss_mb", mb(support::peakRssBytes()), "MB");
    rep.metric("imbalance", pm.imbalance, "ratio");
    rep.metric("max_comm_volume", static_cast<double>(pm.maxCommVolume), "count");
    rep.metric("total_comm_volume", static_cast<double>(pm.totalCommVolume), "count");
    // Closed-loop route throughput swings with the host's speed state more
    // than any bound could hold; it is logged here and reported per layer
    // (serve.route_ns_per_pt) by the traced run.
    std::cerr << "geobench: closed-loop route " << median(rounds.routeRates) / 1e6
              << " Mpts/s\n";
    loop.report(rep);
    rep.metric("staleness_p50_ms", stalenessSeconds * 1e3, "ms");
}

// --------------------------------------------------- cold partitioning

constexpr std::int64_t kColdPoints = 1000000;
constexpr std::int32_t kColdBlocks = 32;
constexpr double kColdQueryRate = 2000.0;     ///< open-loop batches/s against the fresh partition
constexpr std::size_t kColdQueryBatch = 1024; ///< points per open-loop batch

/// Batches of input-point indices for the open-loop phase; each answer is
/// checked against the partition.
std::vector<std::vector<std::size_t>> queryBatches(std::size_t n, std::size_t batchSize,
                                                   std::uint64_t seed, std::size_t batches) {
    Xoshiro256 rng(seed ^ kQuerySeedSalt);
    std::vector<std::vector<std::size_t>> out(batches, std::vector<std::size_t>(batchSize));
    for (auto& b : out)
        for (auto& i : b) i = static_cast<std::size_t>(rng.below(n));
    return out;
}

/// Run the open-loop client against `router` for `seconds`, appending to
/// `loop`; every answer is checked against `partition`.
void coldOpenLoop(Report& rep, const serve::Router<2>& router, std::span<const Point2> points,
                  const graph::Partition& partition, std::uint64_t seed, double seconds,
                  OpenLoop& loop) {
    // Gather queries and expected answers up front: checking against the
    // n-wide partition inside the loop would put cache misses in the timing.
    const auto batches = queryBatches(points.size(), kColdQueryBatch, seed, 64);
    std::vector<std::vector<Point2>> queries(batches.size());
    std::vector<std::vector<std::int32_t>> expected(batches.size());
    for (std::size_t b = 0; b < batches.size(); ++b)
        for (const auto i : batches[b]) {
            queries[b].push_back(points[i]);
            expected[b].push_back(partition[i]);
        }
    std::vector<std::int32_t> out(kColdQueryBatch);
    std::uint64_t wrong = 0;
    const std::uint64_t before = loop.attempted;
    loop.run(kColdQueryRate, seconds, [&](std::uint64_t i) {
        const auto b = static_cast<std::size_t>(i % batches.size());
        router.route(std::span<const Point2>(queries[b]), std::span<std::int32_t>(out));
        const bool ok = out == expected[b];
        if (!ok) ++wrong;
        return ok;
    });
    rep.count(loop.attempted - before, wrong,
              "an open-loop route answer differs from the partition");
}

void runCold(Report& rep, Tracer& tracer, const Seeds& seeds, double seconds, bool traced) {
    const core::Settings settings = benchSettings();
    // Set-up: mesh generation, repeated; the last mesh is kept.
    std::vector<double> setup;
    gen::Mesh<2> mesh;
    {
        Tracer::Scope s(tracer, "setup");
        for (int r = 0; r < (traced ? 1 : kColdSetupReps); ++r) {
            mesh = gen::Mesh<2>{};  // free the previous mesh before the next
            const auto t0 = Clock::now();
            mesh = gen::delaunay2d(kColdPoints, seeds.instance);
            setup.push_back(since(t0));
        }
    }
    const Input<2> input(mesh.points, mesh.weights, seeds.run);
    const std::uint64_t rssSetup = support::peakRssBytes();
    const std::span<const Point2> points(input.points);
    const std::span<const double> weights(input.weights);

    if (traced) {
        const auto reference = tracedPartition<2>(rep, tracer, points, weights, kColdBlocks);
        const auto pm = checkQuality(rep, mesh.graph, input.toInstanceOrder(reference.partition),
                                        kColdBlocks, mesh.weights, settings.epsilon);
        rep.fingerprint = fingerprintOf(reference, pm.totalCommVolume);
        const auto router = tracedServeLayer<2>(rep, tracer, reference, points);
        OpenLoop loop;
        {
            Tracer::Scope s(tracer, "service.open_loop");
            coldOpenLoop(rep, *router, points, reference.partition, seeds.run,
                         kMinRounds * kRoundOpenLoopSeconds, loop);
        }
        serve::ServiceHealth health;  // a bare router: no ingest, one epoch
        health.publishedEpochs = router->epoch();
        reportService(rep, loop, health);
        // Warm restart on the unchanged input from the cold state.
        repart::RepartState<2> state{core::unflattenCenters<2>(reference.centerCoords),
                                     reference.influence};
        Tracer::Scope s(tracer, "repart.warm");
        const auto rr =
            repart::repartitionGeographer<2>(points, weights, kColdBlocks, 1, settings, state);
        const double warm = s.close();
        rep.check(rr.warmStarted, "warm restart fell back to a cold partition");
        rep.metric("repart.warm_s", warm, "s");
        rep.metric("repart.warm_outer_iters", rr.result.counters.outerIterations, "count");
        reportRss(rep, rssSetup);
        return;
    }

    // Rounds for `seconds`: partition, publish and route (Rounds), then the
    // open-loop client against the fresh snapshot.
    Rounds<2> rounds;
    OpenLoop loop;
    repeatFor(seconds, [&] {
        rounds.run(rep, points, weights, kColdBlocks);
        coldOpenLoop(rep, rounds.router, points, rounds.first.partition, seeds.run,
                     kRoundOpenLoopSeconds, loop);
    });
    const auto pm = checkQuality(rep, mesh.graph,
                                    input.toInstanceOrder(rounds.first.partition), kColdBlocks,
                                    mesh.weights, settings.epsilon);
    rep.fingerprint = fingerprintOf(rounds.first, pm.totalCommVolume);

    reportEndToEnd(rep, rounds, setup, pm, loop, mean(rounds.publishedSeconds));
}

// ------------------------------------------------ serving under churn

constexpr std::int64_t kServePoints = 200000;
constexpr std::int32_t kServeBlocks = 64;

repart::ScenarioConfig churnScenario(std::uint64_t seed) {
    repart::ScenarioConfig cfg;
    cfg.kind = repart::ScenarioKind::Churn;
    cfg.basePoints = kServePoints;
    cfg.churnFraction = 0.05;
    cfg.seed = seed;
    return cfg;
}

serve::ServiceConfig<2> serviceConfig() {
    serve::ServiceConfig<2> cfg;
    cfg.blocks = kServeBlocks;
    cfg.ranks = 1;
    cfg.settings = benchSettings();
    cfg.ingestWorkers = 1;
    return cfg;
}

/// The churn phase: one producer streaming diffSteps at a fixed event rate,
/// one open-loop query client, and the main thread sampling staleness.
/// Returns the client's record; `health` is taken just before the stop.
OpenLoop churnPhase(Report& rep, serve::PartitionService<2>& service,
                    repart::Scenario<2>& scenario, std::uint64_t seed, double seconds,
                    std::vector<double>& staleness, serve::ServiceHealth& health) {
    // Producer: submit each step's churn, paced to kChurnEventsPerSecond.
    std::atomic<bool> running{true};
    std::thread producer([&] {
        repart::WorkloadStep<2> prev = scenario.current();
        auto due = Clock::now();
        while (running.load(std::memory_order_acquire)) {
            scenario.advance();
            auto events = repart::diffSteps(prev, scenario.current());
            prev = scenario.current();
            due += std::chrono::duration_cast<Clock::duration>(std::chrono::duration<double>(
                static_cast<double>(events.size()) / kChurnEventsPerSecond));
            if (!service.submit(std::move(events))) return;
            while (running.load(std::memory_order_acquire) && Clock::now() < due)
                std::this_thread::sleep_for(std::chrono::milliseconds(5));
        }
    });

    // Query client: fixed random batches over the base step's bounding box.
    const auto box = Box<2>::around(std::span<const Point2>(scenario.current().points));
    Xoshiro256 rng(seed ^ kQuerySeedSalt);
    std::vector<std::vector<Point2>> queries(64, std::vector<Point2>(kServeQueryBatch));
    for (auto& q : queries)
        for (auto& p : q)
            for (int d = 0; d < 2; ++d) p[d] = rng.uniform(box.lo[d], box.hi[d]);
    std::uint64_t bad = 0;
    OpenLoop loop;
    std::thread client([&] {
        std::vector<std::int32_t> out(kServeQueryBatch);
        loop.run(kServeQueryRate, seconds, [&](std::uint64_t i) {
            const auto& q = queries[static_cast<std::size_t>(i % queries.size())];
            const auto ticket = service.route(std::span<const Point2>(q),
                                              std::span<std::int32_t>(out),
                                              serve::QueryPriority::High);
            const bool ok = ticket.status == serve::RouteStatus::Ok && ticket.epoch >= 1 &&
                            std::all_of(out.begin(), out.end(), [](std::int32_t b) {
                                return b >= 0 && b < kServeBlocks;
                            });
            if (!ok) ++bad;
            return ok;
        });
    });

    const auto t0 = Clock::now();
    for (int i = 1; since(t0) < seconds; ++i) {
        staleness.push_back(service.health().stalenessSeconds);
        std::this_thread::sleep_until(
            t0 + std::chrono::duration_cast<Clock::duration>(
                     std::chrono::duration<double>(kStalenessSampleSeconds * i)));
    }
    client.join();
    health = service.health();
    running.store(false, std::memory_order_release);
    service.stop();  // unblocks a producer held by backpressure
    producer.join();

    rep.count(loop.attempted, bad,
              "a serve-churn2d ticket was not Ok, or a block was out of range");
    return loop;
}

/// The service's epoch-1 snapshot (its own cold start) must route every
/// base point to the reference partition's block.
void checkServiceRoutes(Report& rep, const serve::PartitionService<2>& service,
                        std::span<const Point2> points, const graph::Partition& reference) {
    std::vector<std::int32_t> blocks(points.size());
    service.router().route(points, std::span<std::int32_t>(blocks));
    rep.check(service.router().epoch() == 1 && blocks == reference,
              "the service's cold start routes differently from the partition");
}

void runServe(Report& rep, Tracer& tracer, const Seeds& seeds, double seconds, bool traced) {
    const core::Settings settings = benchSettings();
    // Set-up: scenario generation plus the service's cold start, repeated;
    // the last service is kept and serves the run.
    std::vector<double> setup;
    std::unique_ptr<repart::Scenario<2>> scenario;
    std::unique_ptr<serve::PartitionService<2>> service;
    {
        Tracer::Scope s(tracer, "setup");
        for (int r = 0; r < (traced ? 1 : kServeSetupReps); ++r) {
            service.reset();
            scenario.reset();
            const auto t0 = Clock::now();
            scenario = std::make_unique<repart::Scenario<2>>(churnScenario(seeds.instance));
            service = std::make_unique<serve::PartitionService<2>>(serviceConfig(),
                                                                   scenario->current());
            setup.push_back(since(t0));
        }
    }
    const std::uint64_t rssSetup = support::peakRssBytes();
    const repart::WorkloadStep<2> base = scenario->current();
    const auto graph = gen::delaunayTriangulate2d(base.points);
    const Input<2> input(base.points, base.weights, seeds.run);
    const std::span<const Point2> points(input.points);
    const std::span<const double> weights(input.weights);

    if (traced) {
        const auto reference = tracedPartition<2>(rep, tracer, points, weights, kServeBlocks);
        const auto pm = checkQuality(rep, graph, input.toInstanceOrder(reference.partition),
                                        kServeBlocks, base.weights, settings.epsilon);
        rep.fingerprint = fingerprintOf(reference, pm.totalCommVolume);
        checkServiceRoutes(rep, *service, points, reference.partition);
        (void)tracedServeLayer<2>(rep, tracer, reference, points);
        std::vector<double> staleness;
        serve::ServiceHealth health;
        OpenLoop loop;
        {
            Tracer::Scope s(tracer, "service.churn_phase");
            loop = churnPhase(rep, *service, *scenario, seeds.run, seconds, staleness, health);
        }
        reportService(rep, loop, health);
        // Offline replay of the same scenario steps, warm-started each step.
        repart::Scenario<2> replay(churnScenario(seeds.instance));
        repart::RepartState<2> state;
        {
            Tracer::Scope s(tracer, "repart.replay_cold_start");
            (void)repart::repartitionGeographer<2>(replay.current().points,
                                                   replay.current().weights, kServeBlocks, 1,
                                                   settings, state);
        }
        std::vector<double> warm, iters;
        Tracer::Scope s(tracer, "repart.warm");
        for (int step = 0; step < kReplaySteps; ++step) {
            replay.advance();
            const auto& cur = replay.current();
            const auto t0 = Clock::now();
            const auto rr = repart::repartitionGeographer<2>(cur.points, cur.weights,
                                                             kServeBlocks, 1, settings, state);
            warm.push_back(since(t0));
            iters.push_back(rr.result.counters.outerIterations);
            rep.check(rr.warmStarted, "offline replay step fell back to a cold partition");
        }
        s.close();
        rep.metric("repart.warm_s", median(warm), "s");
        rep.metric("repart.warm_outer_iters", median(iters), "count");
        reportRss(rep, rssSetup);
        return;
    }

    // The run's `seconds`: partition-and-route rounds on the base step for a
    // quarter, the churn phase for half, and rounds again for the last
    // quarter, so the partition samples span the run.
    Rounds<2> rounds;
    const auto roundsFor = [&](double s) {
        repeatFor(s, [&] { rounds.run(rep, points, weights, kServeBlocks); });
    };
    roundsFor(seconds / 4);
    checkServiceRoutes(rep, *service, points, rounds.first.partition);
    std::vector<double> staleness;
    serve::ServiceHealth health;
    const OpenLoop loop =
        churnPhase(rep, *service, *scenario, seeds.run, seconds / 2, staleness, health);
    roundsFor(seconds / 4);

    const auto pm = checkQuality(rep, graph, input.toInstanceOrder(rounds.first.partition),
                                    kServeBlocks, base.weights, settings.epsilon);
    rep.fingerprint = fingerprintOf(rounds.first, pm.totalCommVolume);
    reportEndToEnd(rep, rounds, setup, pm, loop, median(staleness));
}

int usage() {
    std::cerr << "usage: geobench --workload cold2d|serve-churn2d --seed N "
                 "--seconds S --trace 0|1 [--instance M] [--trace-out PATH] [--run-id ID]\n";
    return 2;
}

}  // namespace

int main(int argc, char** argv) {
    std::string workload, traceOut, runId = "run";
    Seeds seeds;
    double seconds = 0.0;
    int trace = -1;
    for (int a = 1; a + 1 < argc; a += 2) {
        const std::string flag = argv[a], value = argv[a + 1];
        if (flag == "--workload") workload = value;
        else if (flag == "--seed") seeds.run = std::stoull(value);
        else if (flag == "--instance") seeds.instance = std::stoull(value);
        else if (flag == "--seconds") seconds = std::stod(value);
        else if (flag == "--trace") trace = std::stoi(value);
        else if (flag == "--trace-out") traceOut = value;
        else if (flag == "--run-id") runId = value;
        else return usage();
    }
    if (argc % 2 != 1 || workload.empty() || seconds <= 0.0 || (trace != 0 && trace != 1))
        return usage();

    Report rep;
    Tracer tracer;
    const bool traced = trace == 1;
    try {
        if (workload == "cold2d")
            runCold(rep, tracer, seeds, seconds, traced);
        else if (workload == "serve-churn2d")
            runServe(rep, tracer, seeds, seconds, traced);
        else
            return usage();
    } catch (const std::exception& e) {
        std::cerr << "geobench: " << workload << " failed: " << e.what() << "\n";
        return 1;
    }
    if (traced && !traceOut.empty()) tracer.write(traceOut, runId);
    rep.print(std::cout);
    return 0;
}
