/**
 * @file
 * Map-based levelizer: the reference oracle for the feed-forward
 * waves and the ADAM schedule nn::CompiledPlan::compileFor derives.
 *
 * A straight std::map transcription of neat-python's
 * required_for_output / feed_forward_layers walks. The feed-forward
 * interpreter oracle (support/feedforward.hh) runs on its layers, and
 * the differential fuzz harness in tests/test_compiled_plan.cc pins
 * the compiled plan's layer spans and schedule() equal to
 * analyzeGenome() and levelize().
 */

#ifndef GENESYS_TESTS_SUPPORT_GENOME_ANALYSIS_HH
#define GENESYS_TESTS_SUPPORT_GENOME_ANALYSIS_HH

#include <set>
#include <vector>

#include "neat/genome.hh"
#include "nn/levelize.hh"

namespace genesys::nn
{

using neat::Genome;
using neat::NeatConfig;

/**
 * Combined result of the two graph walks every phenotype consumer
 * needs: the required-node set (backward reachability from the
 * outputs) and the topological layering of those nodes, computed
 * together from one adjacency build.
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

/** Build the packed schedule for a genome. */
InferenceSchedule levelize(const Genome &genome, const NeatConfig &cfg);

/**
 * Build the packed schedule from an already-computed topological
 * layering (see analyzeGenome): per layer, the node count, the
 * enabled in-edges and the distinct sources feeding it.
 */
InferenceSchedule
scheduleForLayers(const Genome &genome,
                  const std::vector<std::vector<int>> &layers);

} // namespace genesys::nn

#endif // GENESYS_TESTS_SUPPORT_GENOME_ANALYSIS_HH
