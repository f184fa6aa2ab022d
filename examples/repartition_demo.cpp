// Dynamic repartitioning end-to-end: partition an advecting point cloud
// once, then follow it across timesteps with warm-started balanced k-means,
// measuring convergence effort and data migration at every step.
//
//   ./repartition_demo [numPoints] [steps] [blocks] [ranks]
#include <cmath>
#include <cstdlib>
#include <string>
#include <iostream>

#include "graph/metrics.hpp"
#include "repart/migration.hpp"
#include "repart/repartition.hpp"
#include "repart/scenarios.hpp"
#include "support/table.hpp"

int main(int argc, char** argv) {
    const std::int64_t n = argc > 1 ? std::atoll(argv[1]) : 20000;
    const int steps = argc > 2 ? std::atoi(argv[2]) : 6;
    const std::int32_t k = argc > 3 ? std::atoi(argv[3]) : 8;
    const int ranks = argc > 4 ? std::atoi(argv[4]) : 4;

    std::cout << "Advecting " << n << " points over " << steps
              << " timesteps, repartitioning into " << k << " blocks on " << ranks
              << " simulated ranks.\n\n";

    geo::repart::ScenarioConfig cfg;
    cfg.kind = geo::repart::ScenarioKind::Advection;
    cfg.basePoints = n;
    cfg.drift = 0.03;
    cfg.seed = 42;
    geo::repart::Scenario<2> scenario(cfg);

    geo::core::Settings settings;
    settings.epsilon = 0.03;

    geo::repart::RepartState<2> state;  // empty: first step runs cold
    std::vector<std::int64_t> prevIds;
    geo::graph::Partition prevPartition;

    geo::Table table({"step", "path", "drift", "outerIters", "imbalance", "migrated",
                      "migKB", "migModeled_ms"});
    for (int t = 0; t < steps; ++t) {
        const auto& step = scenario.current();
        const auto res = geo::repart::repartitionGeographer<2>(
            step.points, step.weights, k, ranks, settings, state);

        double migrated = 0.0, migKb = 0.0, migMs = 0.0;
        if (!prevIds.empty()) {
            const auto m = geo::repart::migrationStats(
                prevIds, prevPartition, step.ids, res.result.partition, step.weights, k,
                ranks, geo::repart::migrationBytesPerPoint(2));
            migrated = m.migratedFraction;
            migKb = static_cast<double>(m.totalBytes) / 1024.0;
            migMs = m.modeledSeconds * 1e3;
        }
        table.addRow({std::to_string(t), res.warmStarted ? "warm" : "cold",
                      res.normalizedDrift ? geo::Table::num(*res.normalizedDrift, 3)
                                          : std::string("-"),
                      std::to_string(res.result.counters.outerIterations),
                      geo::Table::num(res.result.imbalance, 4),
                      geo::Table::num(migrated, 4), std::to_string(std::llround(migKb)),
                      geo::Table::num(migMs, 3)});

        prevIds = step.ids;
        prevPartition = res.result.partition;
        scenario.advance();
    }
    table.print(std::cout);
    std::cout << "\nStep 0 runs the full cold pipeline (Hilbert sort + k-means);\n"
                 "later steps resume k-means from the previous centers and\n"
                 "influence, skipping the sort/redistribution entirely.\n";
    return 0;
}
