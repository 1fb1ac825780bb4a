#include "common/fixed_point.hh"

#include <algorithm>
#include <cmath>

#include "common/logging.hh"

namespace genesys
{

FixedPointCodec::FixedPointCodec(int int_bits, int frac_bits)
    : intBits_(int_bits), fracBits_(frac_bits)
{
    GENESYS_ASSERT(int_bits >= 1, "need at least a sign bit");
    GENESYS_ASSERT(frac_bits >= 0, "negative fractional bits");
    GENESYS_ASSERT(int_bits + frac_bits <= 16, "field wider than 16 bits");
}

double
FixedPointCodec::maxValue() const
{
    const int32_t max_raw = (1 << (bits() - 1)) - 1;
    return static_cast<double>(max_raw) * resolution();
}

double
FixedPointCodec::minValue() const
{
    const int32_t min_raw = -(1 << (bits() - 1));
    return static_cast<double>(min_raw) * resolution();
}

double
FixedPointCodec::resolution() const
{
    return std::ldexp(1.0, -fracBits_);
}

uint16_t
FixedPointCodec::encode(double v) const
{
    // NaN has no side to saturate toward: it encodes as 0.
    if (std::isnan(v))
        return 0;
    const double max_raw = (1 << (bits() - 1)) - 1;
    const double min_raw = -(1 << (bits() - 1));
    // Saturate in the double domain, before rounding and narrowing:
    // an out-of-range value would otherwise overflow the integer
    // conversion and wrap to the opposite rail. ±inf land on the
    // rails here too.
    const double scaled = std::clamp(v / resolution(), min_raw, max_raw);
    const auto raw = static_cast<int32_t>(std::lround(scaled));
    // Two's complement in the low `bits()` bits.
    return static_cast<uint16_t>(raw & ((1 << bits()) - 1));
}

FixedPointQuantizer
FixedPointCodec::quantizer() const
{
    FixedPointQuantizer q;
    q.invScale = resolution();
    q.scale = std::ldexp(1.0, fracBits_); // exact reciprocal
    q.minRaw = static_cast<double>(-(1 << (bits() - 1)));
    q.maxRaw = static_cast<double>((1 << (bits() - 1)) - 1);
    return q;
}

double
FixedPointCodec::decode(uint16_t raw) const
{
    const int b = bits();
    int32_t v = raw & ((1 << b) - 1);
    // Sign-extend.
    if (v & (1 << (b - 1)))
        v -= (1 << b);
    return static_cast<double>(v) * resolution();
}

} // namespace genesys
