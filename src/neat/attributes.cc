#include "neat/attributes.hh"

namespace genesys::neat
{

double
FloatAttributeSpec::initValue(XorWow &rng) const
{
    return clamp(rng.gaussian(initMean, initStdev));
}

bool
BoolAttributeSpec::initValue(XorWow &) const
{
    return defaultValue;
}

} // namespace genesys::neat
