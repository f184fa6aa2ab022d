// SLO-governed serving under churn: the serve::PartitionService exercised
// across a QPS × churn × repartition-cadence grid.
//
// Every cell runs the full concurrent loop for a fixed window: frontier
// threads issue paced batched route() calls (mostly Low priority, a slice
// High so shedding is observable as a *difference*), a producer streams
// repart::diffSteps churn batches from a Churn scenario into submit(), and
// the background worker keeps republishing warm-started repartitions. The
// row records what the SLO controller saw: p50/p99 route latency from the
// sharded histogram, the misroute rate at the last publish, the staleness
// window (seconds and events), shed/backpressure counters, published
// epochs, and the final admission state.
//
//   ./bench_serve_slo [points] [blocks] [ranks]
//                     [--duration-ms N] [--json PATH]
//                     [--staleness-ms N] [--staleness-events N]
//                     [--queue-bound N] [--p99-ms F]
//                     [--expect-sheds]
//
// `--expect-sheds` makes the binary exit nonzero when the whole sweep shed
// nothing — the chaos CI leg wedges the repartition worker with
// GEO_FAULT=delay:ms=...:op=repart plus a tight --staleness-events bound
// and uses this flag to assert the bounded-staleness contract actually
// tripped (low-priority load shed, high-priority still served).
#include <atomic>
#include <chrono>
#include <cmath>
#include <cstdlib>
#include <fstream>
#include <iostream>
#include <string>
#include <thread>
#include <vector>

#include "common.hpp"
#include "repart/scenarios.hpp"
#include "serve/service.hpp"
#include "support/rng.hpp"
#include "support/table.hpp"

namespace {

using namespace geo;

struct Cell {
    double qps = 0.0;        ///< target route() batches per second (whole frontier)
    double churnEps = 0.0;   ///< target churn events per second
    double cadenceMs = 0.0;  ///< repartition interval floor
};

struct Row {
    Cell cell;
    std::uint64_t servedBatches = 0;
    std::uint64_t shed = 0;
    std::uint64_t backpressureWaits = 0;
    std::uint64_t publishedEpochs = 0;
    std::uint64_t appliedEvents = 0;
    double p50 = 0.0;
    double p99 = 0.0;
    double misroute = -1.0;
    double stalenessSeconds = 0.0;
    std::uint64_t stalenessEvents = 0;
    std::string finalState;
};

constexpr std::size_t kQueryBatch = 256;
constexpr int kFrontierThreads = 2;
/// Every 8th frontier batch is High priority: under Shedding the Low
/// slice bounces with Overloaded while this slice keeps being answered —
/// the availability half of the bounded-staleness contract.
constexpr std::uint64_t kHighEvery = 8;

Row runCell(const Cell& cell, std::int64_t points, std::int32_t blocks, int ranks,
            const serve::SloConfig& slo, double durationSeconds) {
    repart::ScenarioConfig scfg;
    scfg.kind = repart::ScenarioKind::Churn;
    scfg.basePoints = points;
    scfg.churnFraction = 0.05;
    scfg.seed = 42;
    repart::Scenario<2> scenario(scfg);

    serve::ServiceConfig<2> cfg;
    cfg.blocks = blocks;
    cfg.ranks = ranks;
    cfg.slo = slo;
    cfg.repartitionIntervalSeconds = cell.cadenceMs / 1000.0;
    serve::PartitionService<2> service(cfg, scenario.current());

    std::atomic<bool> running{true};

    // Churn producer: advance the scenario, diff, submit (blocking —
    // backpressure throttles this thread when ingest falls behind), pace to
    // the cell's target event rate.
    std::thread producer([&] {
        repart::WorkloadStep<2> prev = scenario.current();
        while (running.load(std::memory_order_acquire)) {
            scenario.advance();
            const auto& next = scenario.current();
            auto events = repart::diffSteps(prev, next);
            prev = next;
            const double budget =
                cell.churnEps > 0.0
                    ? static_cast<double>(events.size()) / cell.churnEps
                    : 0.01;
            if (!service.submit(std::move(events))) return;
            std::this_thread::sleep_for(std::chrono::duration<double>(budget));
        }
    });

    // Query frontier: each thread routes a fixed random batch, paced so the
    // threads together hit the cell's batch rate.
    std::vector<std::thread> frontier;
    const double perThreadInterval =
        cell.qps > 0.0 ? static_cast<double>(kFrontierThreads) / cell.qps : 0.0;
    for (int t = 0; t < kFrontierThreads; ++t) {
        frontier.emplace_back([&, t] {
            Xoshiro256 rng(1000 + static_cast<std::uint64_t>(t));
            std::vector<Point2> query(kQueryBatch);
            for (auto& p : query)
                for (int d = 0; d < 2; ++d) p[d] = rng.uniform();
            std::vector<std::int32_t> out(kQueryBatch);
            std::uint64_t i = 0;
            while (running.load(std::memory_order_acquire)) {
                const auto priority = (i % kHighEvery == 0)
                                          ? serve::QueryPriority::High
                                          : serve::QueryPriority::Low;
                (void)service.route(std::span<const Point2>(query),
                                    std::span<std::int32_t>(out), priority);
                ++i;
                if (perThreadInterval > 0.0)
                    std::this_thread::sleep_for(
                        std::chrono::duration<double>(perThreadInterval));
            }
        });
    }

    std::this_thread::sleep_for(std::chrono::duration<double>(durationSeconds));
    const auto health = service.health();  // sampled while the loop is live
    running.store(false, std::memory_order_release);
    for (auto& t : frontier) t.join();
    service.stop();  // unblocks a producer stuck in backpressure
    producer.join();

    Row row;
    row.cell = cell;
    row.servedBatches = health.servedBatches;
    row.shed = health.shedQueries;
    row.backpressureWaits = health.backpressureWaits;
    row.publishedEpochs = health.publishedEpochs;
    row.appliedEvents = health.appliedEvents;
    row.p50 = health.p50LatencySeconds;
    row.p99 = health.p99LatencySeconds;
    row.misroute = health.lastMisrouteFraction;
    row.stalenessSeconds = health.stalenessSeconds;
    row.stalenessEvents = health.stalenessEvents;
    row.finalState = serve::toString(health.state);
    return row;
}

void writeJson(const std::string& path, std::int64_t points, std::int32_t blocks,
               int ranks, const serve::SloConfig& slo, double durationSeconds,
               const std::vector<Row>& rows) {
    std::ofstream out(path);
    if (!out) {
        std::cerr << "cannot write " << path << "\n";
        return;
    }
    out << "{\n  \"bench\": \"serve_slo\",\n  \"instance\": \"churn2d\",\n"
        << "  \"n\": " << points << ",\n";
    bench::writePeakRssField(out);
    out << "  \"blocks\": " << blocks << ",\n  \"ranks\": " << ranks << ",\n"
        << "  \"cell_duration_seconds\": " << durationSeconds << ",\n"
        << "  \"slo\": {\"p99_target_seconds\": " << slo.p99LatencyTargetSeconds
        << ", \"max_misroute\": " << slo.maxMisrouteFraction
        << ", \"max_staleness_seconds\": " << slo.maxStalenessSeconds
        << ", \"max_staleness_events\": " << slo.maxStalenessEvents
        << ", \"ingest_queue_bound\": " << slo.ingestQueueBound << "},\n"
        << "  \"rows\": [\n";
    for (std::size_t i = 0; i < rows.size(); ++i) {
        const auto& r = rows[i];
        out << "    {\"qps\": " << r.cell.qps << ", \"churn_eps\": " << r.cell.churnEps
            << ", \"cadence_ms\": " << r.cell.cadenceMs
            << ", \"served_batches\": " << r.servedBatches
            << ", \"p50_latency_seconds\": " << r.p50
            << ", \"p99_latency_seconds\": " << r.p99
            << ", \"misroute_fraction\": " << r.misroute
            << ", \"staleness_seconds\": " << r.stalenessSeconds
            << ", \"staleness_events\": " << r.stalenessEvents
            << ", \"shed_queries\": " << r.shed
            << ", \"backpressure_waits\": " << r.backpressureWaits
            << ", \"published_epochs\": " << r.publishedEpochs
            << ", \"applied_events\": " << r.appliedEvents
            << ", \"final_state\": \"" << r.finalState << "\"}"
            << (i + 1 < rows.size() ? "," : "") << "\n";
    }
    out << "  ]\n}\n";
    std::cout << "wrote " << path << "\n";
}

}  // namespace

int main(int argc, char** argv) {
    std::int64_t points = 20000;
    std::int32_t blocks = 16;
    int ranks = 1;
    double durationSeconds = 1.0;
    std::string jsonPath;
    bool expectSheds = false;
    serve::SloConfig slo;
    slo.maxStalenessSeconds = 5.0;
    slo.maxStalenessEvents = 200000;
    slo.ingestQueueBound = 16384;

    int positional = 0;
    for (int a = 1; a < argc; ++a) {
        const std::string arg = argv[a];
        auto value = [&](const char* flag) -> const char* {
            if (a + 1 >= argc) {
                std::cerr << flag << " requires a value\n";
                std::exit(2);
            }
            return argv[++a];
        };
        if (arg == "--json") jsonPath = value("--json");
        else if (arg == "--duration-ms") durationSeconds = std::atof(value(arg.c_str())) / 1000.0;
        else if (arg == "--staleness-ms") slo.maxStalenessSeconds = std::atof(value(arg.c_str())) / 1000.0;
        else if (arg == "--staleness-events") slo.maxStalenessEvents = std::strtoull(value(arg.c_str()), nullptr, 10);
        else if (arg == "--queue-bound") slo.ingestQueueBound = std::strtoull(value(arg.c_str()), nullptr, 10);
        else if (arg == "--p99-ms") slo.p99LatencyTargetSeconds = std::atof(value(arg.c_str())) / 1000.0;
        else if (arg == "--expect-sheds") expectSheds = true;
        else if (positional == 0) { points = std::atoll(arg.c_str()); ++positional; }
        else if (positional == 1) { blocks = std::atoi(arg.c_str()); ++positional; }
        else if (positional == 2) { ranks = std::atoi(arg.c_str()); ++positional; }
        else {
            std::cerr << "usage: " << argv[0]
                      << " [points] [blocks] [ranks] [--duration-ms N] [--json PATH]"
                         " [--staleness-ms N] [--staleness-events N] [--queue-bound N]"
                         " [--p99-ms F] [--expect-sheds]\n";
            return 2;
        }
    }

    // The sweep: light vs heavy query load × light vs heavy churn × fast vs
    // slow recompute cadence. Small on purpose — this is the CI-smoke shape;
    // crank --duration-ms for a real measurement.
    const std::vector<Cell> cells = {
        {200.0, 5000.0, 20.0},   {200.0, 50000.0, 20.0},
        {200.0, 50000.0, 200.0}, {2000.0, 5000.0, 20.0},
        {2000.0, 50000.0, 20.0}, {2000.0, 50000.0, 200.0},
    };

    std::cout << "serve_slo: n=" << points << " blocks=" << blocks
              << " ranks=" << ranks << " duration/cell=" << durationSeconds
              << "s\n\n";

    std::vector<Row> rows;
    for (const auto& cell : cells)
        rows.push_back(runCell(cell, points, blocks, ranks, slo, durationSeconds));

    Table table({"qps", "churn/s", "cadence", "batches", "p50 ms", "p99 ms",
                 "misroute", "stale s", "stale ev", "shed", "bp", "epochs", "state"});
    for (const auto& r : rows) {
        table.addRow({std::to_string(std::llround(r.cell.qps)),
                      std::to_string(std::llround(r.cell.churnEps)),
                      std::to_string(std::llround(r.cell.cadenceMs)),
                      std::to_string(r.servedBatches),
                      Table::num(r.p50 * 1e3, 3), Table::num(r.p99 * 1e3, 3),
                      Table::num(r.misroute, 4), Table::num(r.stalenessSeconds, 3),
                      std::to_string(r.stalenessEvents), std::to_string(r.shed),
                      std::to_string(r.backpressureWaits),
                      std::to_string(r.publishedEpochs), r.finalState});
    }
    table.print(std::cout);

    if (!jsonPath.empty())
        writeJson(jsonPath, points, blocks, ranks, slo, durationSeconds, rows);

    if (expectSheds) {
        std::uint64_t shed = 0;
        for (const auto& r : rows) shed += r.shed;
        if (shed == 0) {
            std::cerr << "\n--expect-sheds: no queries were shed anywhere in the sweep\n";
            return 1;
        }
        std::cout << "\n--expect-sheds: " << shed << " low-priority batches shed\n";
    }
    return 0;
}
