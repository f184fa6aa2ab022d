// Flat k vs topology-aware hierarchical partitioning.
//
// The paper's pipeline is topology-oblivious: k equal blocks, one level.
// This bench quantifies what matching the partition to the machine buys on
// the §2 metrics plus two topology-weighted ones:
//   * topoCommCost — communication volume with every ghost weighted by the
//     bandwidth factor of the deepest tree level it crosses
//     (graph::topologyCommCost with Topology::blockCostMatrix), and
//   * topoSpMV — modeled per-iteration SpMV halo time under those weights
//     (hier::topologySpmvCommSeconds).
// Both partitioners run at the same epsilon; the flat run maps block b to
// leaf b (the topology-oblivious default). Expectation: comparable epsilon
// and edge cut, measurably lower cross-island volume and modeled SpMV time
// for the hierarchical run.
//
//   ./bench_hier_topology [targetVertices]
#include <cmath>
#include <cstdlib>
#include <iostream>
#include <string>
#include <utility>
#include <vector>

#include "core/geographer.hpp"
#include "gen/climate.hpp"
#include "gen/delaunay2d.hpp"
#include "gen/grid.hpp"
#include "graph/metrics.hpp"
#include "hier/hier_partition.hpp"
#include "hier/topology.hpp"
#include "support/table.hpp"

namespace {

using geo::core::Settings;
using geo::hier::Topology;
using geo::hier::TopologyLevel;

struct Row {
    std::string instance;
    std::string scheme;
    double imbalance = 0.0;
    std::int64_t edgeCut = 0;
    std::int64_t totCommVol = 0;
    double crossIslandVol = 0.0;
    double topoCommCost = 0.0;
    double topoSpmvUs = 0.0;
};

/// Cost matrix that counts only ghosts crossing the top (island) level.
std::vector<double> crossIslandMatrix(const Topology& topo) {
    const std::int32_t k = topo.leafCount();
    std::vector<double> m(static_cast<std::size_t>(k) * static_cast<std::size_t>(k), 0.0);
    for (std::int32_t a = 0; a < k; ++a)
        for (std::int32_t b = 0; b < k; ++b)
            if (a != b && topo.divergenceLevel(a, b) == 0)
                m[static_cast<std::size_t>(a) * static_cast<std::size_t>(k) +
                  static_cast<std::size_t>(b)] = 1.0;
    return m;
}

Row evaluate(const std::string& instance, const std::string& scheme,
             const geo::gen::Mesh2& mesh, const geo::graph::Partition& part,
             const Topology& topo) {
    const std::int32_t k = topo.leafCount();
    const auto caps = topo.leafCapacities();
    Row row;
    row.instance = instance;
    row.scheme = scheme;
    const auto m = geo::graph::evaluatePartition(mesh.graph, part, k, mesh.weights,
                                                 /*computeDiameter=*/false, caps);
    row.imbalance = m.imbalance;
    row.edgeCut = m.edgeCut;
    row.totCommVol = m.totalCommVolume;
    row.crossIslandVol =
        geo::graph::topologyCommCost(mesh.graph, part, k, crossIslandMatrix(topo));
    row.topoCommCost =
        geo::graph::topologyCommCost(mesh.graph, part, k, topo.blockCostMatrix());
    row.topoSpmvUs = geo::hier::topologySpmvCommSeconds(mesh.graph, part, topo) * 1e6;
    return row;
}

}  // namespace

int main(int argc, char** argv) {
    const std::int64_t n = argc > 1 ? std::atoll(argv[1]) : 20000;
    const int ranks = 4;
    Settings s;
    s.epsilon = 0.05;

    // 8 islands of 8 nodes with the cost model's 2.5x cross-island
    // bandwidth penalty, plus a 3-level variant (islands -> nodes ->
    // sockets). Note the flat baseline is strongest when the island count
    // aligns with the Hilbert curve's 4-way recursive structure on a
    // uniform square (curve quarters are quadrants); these shapes are the
    // realistic non-aligned ones.
    Topology two;
    two.levels.push_back(TopologyLevel{8, {}, 2.5});
    two.levels.push_back(TopologyLevel{8, {}, 1.0});
    Topology three;
    three.levels.push_back(TopologyLevel{3, {}, 2.5});
    three.levels.push_back(TopologyLevel{3, {}, 1.5});
    three.levels.push_back(TopologyLevel{3, {}, 1.0});

    const std::int32_t side =
        static_cast<std::int32_t>(std::lround(std::sqrt(static_cast<double>(n))));
    std::vector<std::pair<std::string, geo::gen::Mesh2>> meshes;
    meshes.emplace_back("grid2d", geo::gen::grid2d(side, side));
    meshes.emplace_back("delaunay2d", geo::gen::delaunay2d(n, 1));
    meshes.emplace_back("climate25d", geo::gen::climate25d(n, 3, 1));

    const std::vector<std::pair<const Topology*, std::string>> topologies{
        {&two, "2-level islands(8) x nodes(8), cross factor 2.5"},
        {&three, "3-level islands(3) x nodes(3) x sockets(3), factors 2.5/1.5"}};

    for (const auto& [topo, label] : topologies) {
        const std::int32_t k = topo->leafCount();
        std::cout << "=== " << label << "  (k = " << k << ", epsilon = " << s.epsilon
                  << ", ranks = " << ranks << ") ===\n";
        geo::Table table({"instance", "scheme", "imbalance", "edgeCut", "totCommVol",
                          "crossIslandVol", "topoCommCost", "vsFlat", "topoSpMV_us"});
        geo::core::KMeansCounters flatCounters, hierCounters;
        for (const auto& [name, mesh] : meshes) {
            const auto flat = geo::core::partitionGeographer<2>(
                mesh.points, mesh.weights, k, ranks, s);
            const auto hier = geo::hier::partitionHierarchical<2>(
                mesh.points, mesh.weights, *topo, ranks, s);
            flatCounters.merge(flat.counters);
            hierCounters.merge(hier.counters);
            const Row flatRow = evaluate(name, "flat", mesh, flat.partition, *topo);
            const Row hierRow = evaluate(name, "hier", mesh, hier.partition, *topo);
            for (const Row* row : {&flatRow, &hierRow}) {
                table.addRow({row->instance, row->scheme,
                              geo::Table::num(row->imbalance, 4),
                              std::to_string(row->edgeCut), std::to_string(row->totCommVol),
                              geo::Table::num(row->crossIslandVol, 6),
                              geo::Table::num(row->topoCommCost, 6),
                              row == &hierRow && flatRow.topoCommCost > 0.0
                                  ? geo::Table::num(row->topoCommCost / flatRow.topoCommCost, 3)
                                  : std::string("1"),
                              geo::Table::num(row->topoSpmvUs, 4)});
            }
        }
        table.print(std::cout);
        // Assignment-engine counters over the three instances: the per-node
        // hierarchical solves inherit the fast engine (squared-distance
        // batch kernel, lazy epoch bounds) like the flat run.
        const auto printCounters = [](const char* name,
                                      const geo::core::KMeansCounters& c) {
            std::cout << name << ": distCalcs=" << c.distanceCalcs
                      << " epochApps=" << c.epochBoundApplications << " skip%="
                      << geo::Table::num(100.0 * c.skipFraction(), 3) << '\n';
        };
        printCounters("engine counters flat", flatCounters);
        printCounters("engine counters hier", hierCounters);
        std::cout << '\n';
    }
    std::cout << "flat = partitionGeographer with k blocks, block b on leaf b;\n"
                 "hier = partitionHierarchical over the topology tree.\n"
                 "crossIslandVol counts only ghosts crossing the top level;\n"
                 "topoCommCost weighs every ghost by its level's bandwidth factor;\n"
                 "topoSpMV is the modeled slowest-block halo time per SpMV iteration.\n";
    return 0;
}
