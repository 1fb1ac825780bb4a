/**
 * @file
 * Levelization ("vectorize", Section IV-D): the System CPU routine
 * that packs ready vertices of the irregular NEAT graph into well
 * formed vectors so ADAM can evaluate them as dense matrix-vector
 * products on its systolic array.
 */

#ifndef GENESYS_NN_LEVELIZE_HH
#define GENESYS_NN_LEVELIZE_HH

#include <set>
#include <vector>

#include "neat/genome.hh"

namespace genesys::nn
{

using neat::Genome;
using neat::NeatConfig;

/**
 * Combined result of the two graph walks every phenotype consumer
 * needs: the required-node set (backward reachability from the
 * outputs) and the topological layering of those nodes. Computed
 * together from one adjacency build so levelize() pays for the
 * analysis exactly once instead of re-scanning the connection genes
 * per layer and per candidate node.
 */
struct GenomeAnalysis
{
    /** Nodes on some enabled path to an output (required_for_output). */
    std::set<int> required;
    /**
     * Topological layers of the required nodes: layer i holds nodes
     * whose inputs are all available after layers < i, ascending key
     * order within a layer (neat-python feed_forward_layers). Nodes
     * with no enabled inbound edge — and anything downstream of a
     * cycle — never become ready and are excluded.
     */
    std::vector<std::vector<int>> layers;
};

/** Run both graph walks over `genome` in one pass. */
GenomeAnalysis analyzeGenome(const Genome &genome, const NeatConfig &cfg);

/**
 * Nodes required to compute the outputs: every node on some
 * enabled-connection path to an output (neat-python
 * required_for_output). Convenience wrapper over analyzeGenome().
 */
std::set<int> requiredForOutput(const Genome &genome,
                                const NeatConfig &cfg);

/**
 * Topological layering of the required nodes: layer i contains nodes
 * whose inputs are all available after layers < i (neat-python
 * feed_forward_layers). Only enabled connections participate.
 * Convenience wrapper over analyzeGenome().
 */
std::vector<std::vector<int>> feedForwardLayers(const Genome &genome,
                                                const NeatConfig &cfg);

/**
 * One packed matrix-vector step: all vertices of a topological layer
 * evaluated together. The weight matrix is M x K where M is the
 * number of ready nodes and K the packed input vector length (unique
 * sources feeding the layer).
 */
struct PackedLayer
{
    int numNodes = 0;   ///< M: rows of the packed weight matrix
    int vectorLen = 0;  ///< K: packed input vector length
    long weights = 0;   ///< non-zero entries (enabled in-edges)

    /** Fraction of the M x K matrix that is non-zero. */
    double
    density() const
    {
        const long cells = static_cast<long>(numNodes) * vectorLen;
        return cells ? static_cast<double>(weights) /
                           static_cast<double>(cells)
                     : 0.0;
    }
};

/** Complete inference schedule for one genome. */
struct InferenceSchedule
{
    std::vector<PackedLayer> layers;

    /** Total useful multiply-accumulates. */
    long totalMacs() const;
    /** Total nodes evaluated (vertex updates). */
    long totalNodes() const;
    /** Dense cells the packed matrices occupy (GPU_b-style storage). */
    long denseCells() const;
    /** Mean density across layers, weighted by matrix size. */
    double meanDensity() const;
};

/** Build the packed schedule for a genome. */
InferenceSchedule levelize(const Genome &genome, const NeatConfig &cfg);

/**
 * Build the packed schedule from an already-computed topological
 * layering (see analyzeGenome). CompiledPlan::compile uses this so
 * the software execution plan and the ADAM cost model are derived
 * from the same layers by construction.
 */
InferenceSchedule
scheduleForLayers(const Genome &genome,
                  const std::vector<std::vector<int>> &layers);

} // namespace genesys::nn

#endif // GENESYS_NN_LEVELIZE_HH
