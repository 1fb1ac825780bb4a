/**
 * @file
 * Gene attribute specifications: how each attribute of a gene is
 * initialized and mutated. Mirrors neat-python's FloatAttribute /
 * BoolAttribute / StringAttribute machinery, which is what the EvE
 * Perturbation Engine implements in hardware (Fig 7: compare random
 * against the perturbation probability, add a bounded delta, then
 * "Limit & Quantize").
 */

#ifndef GENESYS_NEAT_ATTRIBUTES_HH
#define GENESYS_NEAT_ATTRIBUTES_HH

#include <algorithm>
#include <vector>

#include "common/rng.hh"

namespace genesys::neat
{

/**
 * Specification for a float-valued gene attribute (weight, bias,
 * response).
 */
struct FloatAttributeSpec
{
    double initMean = 0.0;
    double initStdev = 1.0;
    double minValue = -30.0;
    double maxValue = 30.0;
    /** Stdev of the gaussian perturbation applied on mutation. */
    double mutatePower = 0.5;
    /** Probability that a mutation perturbs the value. */
    double mutateRate = 0.8;
    /** Probability that a mutation replaces the value entirely. */
    double replaceRate = 0.1;

    /** Draw an initial value (clamped gaussian). */
    double initValue(XorWow &rng) const;

    /** Clamp into [minValue, maxValue]. */
    double
    clamp(double v) const
    {
        return std::clamp(v, minValue, maxValue);
    }

    /**
     * Mutate a value: with probability mutateRate perturb by
     * N(0, mutatePower); else with probability replaceRate re-init;
     * else leave unchanged. Returns the new value. Defined here (as
     * are clamp() and BoolAttributeSpec::mutateValue()) because it
     * runs once per gene attribute in every bred child.
     */
    double
    mutateValue(double v, XorWow &rng) const
    {
        const double r = rng.uniform();
        if (r < mutateRate)
            return clamp(v + rng.gaussian(0.0, mutatePower));
        if (r < mutateRate + replaceRate)
            return initValue(rng);
        return v;
    }
};

/** Specification for a boolean gene attribute (connection enable). */
struct BoolAttributeSpec
{
    bool defaultValue = true;
    /** Probability that a mutation re-randomizes the flag. */
    double mutateRate = 0.01;

    bool initValue(XorWow &rng) const;

    bool
    mutateValue(bool v, XorWow &rng) const
    {
        if (mutateRate > 0 && rng.bernoulli(mutateRate)) {
            // neat-python re-randomizes rather than flips.
            return rng.bernoulli(0.5);
        }
        return v;
    }
};

/**
 * Specification for an enumerated gene attribute (activation,
 * aggregation), templated on the enum type.
 */
template <typename Enum>
struct EnumAttributeSpec
{
    Enum defaultValue{};
    std::vector<Enum> options{};
    double mutateRate = 0.0;

    Enum
    initValue(XorWow &rng) const
    {
        if (options.size() > 1)
            return options[rng.choiceIndex(options)];
        return options.empty() ? defaultValue : options.front();
    }

    Enum
    mutateValue(Enum v, XorWow &rng) const
    {
        if (mutateRate > 0 && options.size() > 1 &&
            rng.bernoulli(mutateRate)) {
            return options[rng.choiceIndex(options)];
        }
        return v;
    }
};

} // namespace genesys::neat

#endif // GENESYS_NEAT_ATTRIBUTES_HH
