/**
 * @file
 * Feed-forward interpreter: the reference oracle for feed-forward
 * compiled plans.
 *
 * NEAT genomes are irregular acyclic graphs, so inference "is
 * basically processing an acyclic directed graph" (Section III-C2).
 * This interpreter walks the topological layers of nn::analyzeGenome
 * (the map-based levelizer oracle in support/genome_analysis.hh)
 * node by node, straight from per-node link lists. The library's only
 * phenotype is nn::CompiledPlan, which must match this interpreter bit
 * for bit; the tests and bench_micro_kernels diff the two.
 */

#ifndef GENESYS_TESTS_SUPPORT_FEEDFORWARD_HH
#define GENESYS_TESTS_SUPPORT_FEEDFORWARD_HH

#include <vector>

#include "support/genome_analysis.hh"

namespace genesys::nn
{

/** Evaluation record for one vertex (node) of the graph. */
struct NodeEval
{
    int key = 0;
    neat::Activation activation = neat::Activation::Sigmoid;
    neat::Aggregation aggregation = neat::Aggregation::Sum;
    double bias = 0.0;
    double response = 1.0;
    /** (source node key, weight) of every enabled inbound edge. */
    std::vector<std::pair<int, double>> links;
    /** Dense value-slot of this node (filled by create()). */
    int slot = -1;
    /** (source slot, weight) pairs — the fast evaluation path. */
    std::vector<std::pair<int, double>> slotLinks;
};

/** An evaluable feed-forward network. */
class FeedForwardNetwork
{
  public:
    /** Build the phenotype of `genome`. */
    static FeedForwardNetwork create(const Genome &genome,
                                     const NeatConfig &cfg);

    /**
     * Evaluate: `inputs.size()` must equal numInputs. Returns the
     * numOutputs output activations. Unreachable outputs read 0.
     */
    std::vector<double> activate(const std::vector<double> &inputs) const;

    const std::vector<std::vector<int>> &layers() const { return layers_; }
    size_t numInputs() const { return static_cast<size_t>(numInputs_); }
    size_t numOutputs() const { return static_cast<size_t>(numOutputs_); }

    /** Multiply-accumulates per single activate() call. */
    long macsPerInference() const;

  private:
    int numInputs_ = 0;
    int numOutputs_ = 0;
    std::vector<std::vector<int>> layers_;
    std::vector<NodeEval> evals_; // in layer order
    /** Dense value slots: inputs, then evaluated nodes. */
    int numSlots_ = 0;
    /** Slot of each output key (-1 when unreachable). */
    std::vector<int> outputSlots_;
};

} // namespace genesys::nn

#endif // GENESYS_TESTS_SUPPORT_FEEDFORWARD_HH
