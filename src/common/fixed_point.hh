/**
 * @file
 * Fixed-point quantization helpers for the hardware gene encoding.
 *
 * The GeneSys gene format (Fig 6) packs floating point attributes
 * (bias, response, weight) into 16-bit fields. We model that with a
 * signed Qm.n representation; the EvE Perturbation Engine's "Limit &
 * Quantize" stage (Fig 7) maps onto saturate() + quantize().
 */

#ifndef GENESYS_COMMON_FIXED_POINT_HH
#define GENESYS_COMMON_FIXED_POINT_HH

#include <algorithm>
#include <cmath>
#include <cstdint>

namespace genesys
{

/**
 * Branch-free saturate-and-quantize in the value domain — the inner-
 * loop form of FixedPointCodec::quantize for per-node "Limit &
 * Quantize" in the HwFaithful evaluation tier. All four members are
 * plain doubles so the whole operator body compiles to straight-line
 * mul/round/min/max/mul vector code inside a lane loop (no libm
 * lround call, no integer round trip).
 *
 * Rounding: nearest, ties to even via the 1.5*2^52 magic-constant
 * trick (exact for |scaled| < 2^51; larger magnitudes pass through
 * unrounded and saturate at the clamp). FixedPointCodec::encode uses
 * lround (ties away from zero), so the two agree everywhere except
 * exact half-resolution ties; already-on-grid values round trip
 * unchanged through both. The final `+ 0.0` normalizes -0.0 to +0.0
 * so a quantized zero always carries the same bit pattern decode()
 * produces — the digests fold raw bits.
 *
 * Non-finite inputs follow FixedPointCodec::encode: ±inf (and any
 * finite overflow) saturate at the rails, NaN maps to 0. The clamp
 * puts the rail first in each std::min/std::max, so a NaN operand
 * selects the rail instead of surviving, and one select then maps
 * NaN to zero — still branch-free.
 */
struct FixedPointQuantizer
{
    double scale = 1.0;    ///< 1 / resolution
    double invScale = 1.0; ///< resolution
    double minRaw = 0.0;   ///< smallest raw code, as a double
    double maxRaw = 0.0;   ///< largest raw code, as a double

    double operator()(double v) const
    {
        constexpr double magic = 6755399441055744.0; // 1.5 * 2^52
        double raw = (v * scale + magic) - magic;
        raw = std::min(maxRaw, std::max(minRaw, raw));
        raw = std::isnan(v) ? 0.0 : raw;
        return raw * invScale + 0.0;
    }
};

/**
 * Signed fixed-point codec with `intBits` integer bits (including
 * sign) and `fracBits` fractional bits, stored in a field of
 * intBits + fracBits <= 16 bits.
 */
class FixedPointCodec
{
  public:
    FixedPointCodec(int int_bits, int frac_bits);

    /** Total bits in the encoded field. */
    int bits() const { return intBits_ + fracBits_; }

    /** Largest representable value. */
    double maxValue() const;
    /** Smallest (most negative) representable value. */
    double minValue() const;
    /** Quantization step. */
    double resolution() const;

    /** Encode with saturation to the representable range. */
    uint16_t encode(double v) const;

    /** Decode a previously encoded field. */
    double decode(uint16_t raw) const;

    /** Saturate-then-quantize in the value domain (decode(encode(v))). */
    double quantize(double v) const { return decode(encode(v)); }

    /**
     * The branch-free hot-loop quantizer for this format (see
     * FixedPointQuantizer for the tie-convention caveat). Idempotent
     * over every decodable value: quantizer()(decode(raw)) ==
     * decode(raw) for all raw codes — pinned exhaustively in
     * tests/test_fixed_point.cc.
     */
    FixedPointQuantizer quantizer() const;

  private:
    int intBits_;
    int fracBits_;
};

} // namespace genesys

#endif // GENESYS_COMMON_FIXED_POINT_HH
