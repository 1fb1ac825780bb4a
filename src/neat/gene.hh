/**
 * @file
 * Node and connection genes (Fig 3(c): a genome is a list of genes,
 * each describing either a neuron or a synapse).
 *
 * Node genes carry {bias, response, activation, aggregation}; connection
 * genes carry {weight, enabled} and are keyed by (source, destination)
 * node ids — exactly the attribute sets the 64-bit hardware encoding in
 * Fig 6 packs.
 */

#ifndef GENESYS_NEAT_GENE_HH
#define GENESYS_NEAT_GENE_HH

#include <cmath>
#include <cstdint>
#include <utility>

#include "common/rng.hh"
#include "neat/config.hh"

namespace genesys::neat
{

/** Connection gene key: (source node id, destination node id). */
using ConnKey = std::pair<int, int>;

/**
 * A neuron gene. Input nodes are *not* represented as node genes
 * (neat-python convention): they use negative ids -1..-numInputs and
 * only appear as connection sources.
 */
struct NodeGene
{
    int key = 0;
    double bias = 0.0;
    double response = 1.0;
    Activation activation = Activation::Sigmoid;
    Aggregation aggregation = Aggregation::Sum;

    /** Create with attributes drawn from the config's init specs. */
    static NodeGene createNew(int key, const NeatConfig &cfg, XorWow &rng);

    /**
     * Homologous-gene distance used by genome compatibility
     * (|Δbias| + |Δresponse| + activation mismatch + aggregation
     * mismatch, scaled by the weight coefficient at the caller).
     */
    double distance(const NodeGene &other) const;

    /**
     * Gene-level crossover: each attribute picked uniformly from one
     * of the two parents — the hardware Crossover Engine's
     * per-attribute parent select (Fig 7). `bias_toward_self` is the
     * programmable selection bias (default 0.5).
     */
    NodeGene crossover(const NodeGene &other, XorWow &rng,
                       double bias_toward_self = 0.5) const;

    /** Attribute (non-structural) mutation per the config specs. */
    void mutate(const NeatConfig &cfg, XorWow &rng);
};

/**
 * A synapse gene, keyed by (source, destination). Connection genes
 * outnumber node genes by an order of magnitude, so their per-gene
 * crossover, mutation and distance bodies are defined here, where
 * breeding and speciation inline them.
 */
struct ConnectionGene
{
    ConnKey key{0, 0};
    double weight = 0.0;
    bool enabled = true;

    static ConnectionGene createNew(ConnKey key, const NeatConfig &cfg,
                                    XorWow &rng);

    /** |Δweight| + enabled mismatch. */
    double
    distance(const ConnectionGene &other) const
    {
        double d = std::fabs(weight - other.weight);
        if (enabled != other.enabled)
            d += 1.0;
        return d;
    }

    /** Per-attribute uniform crossover (see NodeGene::crossover). */
    ConnectionGene
    crossover(const ConnectionGene &other, XorWow &rng,
              double bias_toward_self = 0.5) const
    {
        ConnectionGene child;
        child.key = key;
        child.weight =
            rng.uniform() < bias_toward_self ? weight : other.weight;
        child.enabled =
            rng.uniform() < bias_toward_self ? enabled : other.enabled;
        return child;
    }

    void
    mutate(const NeatConfig &cfg, XorWow &rng)
    {
        weight = cfg.weight.mutateValue(weight, rng);
        enabled = cfg.enabled.mutateValue(enabled, rng);
    }
};

} // namespace genesys::neat

#endif // GENESYS_NEAT_GENE_HH
