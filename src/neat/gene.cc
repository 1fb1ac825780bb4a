#include "neat/gene.hh"

#include <cmath>

namespace genesys::neat
{

NodeGene
NodeGene::createNew(int key, const NeatConfig &cfg, XorWow &rng)
{
    NodeGene g;
    g.key = key;
    g.bias = cfg.bias.initValue(rng);
    g.response = cfg.response.initValue(rng);
    g.activation = cfg.activation.initValue(rng);
    g.aggregation = cfg.aggregation.initValue(rng);
    return g;
}

double
NodeGene::distance(const NodeGene &other) const
{
    double d = std::fabs(bias - other.bias) +
               std::fabs(response - other.response);
    if (activation != other.activation)
        d += 1.0;
    if (aggregation != other.aggregation)
        d += 1.0;
    return d;
}

NodeGene
NodeGene::crossover(const NodeGene &other, XorWow &rng,
                    double bias_toward_self) const
{
    NodeGene child;
    child.key = key;
    child.bias = rng.uniform() < bias_toward_self ? bias : other.bias;
    child.response =
        rng.uniform() < bias_toward_self ? response : other.response;
    child.activation =
        rng.uniform() < bias_toward_self ? activation : other.activation;
    child.aggregation =
        rng.uniform() < bias_toward_self ? aggregation : other.aggregation;
    return child;
}

void
NodeGene::mutate(const NeatConfig &cfg, XorWow &rng)
{
    bias = cfg.bias.mutateValue(bias, rng);
    response = cfg.response.mutateValue(response, rng);
    activation = cfg.activation.mutateValue(activation, rng);
    aggregation = cfg.aggregation.mutateValue(aggregation, rng);
}

ConnectionGene
ConnectionGene::createNew(ConnKey key, const NeatConfig &cfg, XorWow &rng)
{
    ConnectionGene g;
    g.key = key;
    g.weight = cfg.weight.initValue(rng);
    g.enabled = cfg.enabled.initValue(rng);
    return g;
}

} // namespace genesys::neat
