/**
 * @file
 * Tests for the fixed-point codec used by the hardware gene format.
 */

#include <gtest/gtest.h>

#include <bit>
#include <cmath>
#include <utility>

#include "common/fixed_point.hh"

using namespace genesys;

TEST(FixedPoint, ResolutionAndRange)
{
    FixedPointCodec q(6, 10); // Q6.10
    EXPECT_DOUBLE_EQ(q.resolution(), 1.0 / 1024.0);
    EXPECT_DOUBLE_EQ(q.minValue(), -32.0);
    EXPECT_NEAR(q.maxValue(), 32.0 - 1.0 / 1024.0, 1e-12);
    EXPECT_EQ(q.bits(), 16);
}

TEST(FixedPoint, RoundTripWithinResolution)
{
    FixedPointCodec q(6, 10);
    for (double v = -30.0; v <= 30.0; v += 0.377) {
        const double r = q.quantize(v);
        EXPECT_NEAR(r, v, q.resolution() / 2.0 + 1e-12) << "v=" << v;
    }
}

TEST(FixedPoint, ExactValuesSurvive)
{
    FixedPointCodec q(6, 10);
    EXPECT_DOUBLE_EQ(q.quantize(0.0), 0.0);
    EXPECT_DOUBLE_EQ(q.quantize(1.0), 1.0);
    EXPECT_DOUBLE_EQ(q.quantize(-1.5), -1.5);
    EXPECT_DOUBLE_EQ(q.quantize(0.25), 0.25);
}

TEST(FixedPoint, SaturatesHigh)
{
    FixedPointCodec q(6, 10);
    EXPECT_DOUBLE_EQ(q.quantize(1000.0), q.maxValue());
}

TEST(FixedPoint, SaturatesLow)
{
    FixedPointCodec q(6, 10);
    EXPECT_DOUBLE_EQ(q.quantize(-1000.0), q.minValue());
}

TEST(FixedPoint, SaturatesFarOutOfRangeToTheRightRail)
{
    // Values whose scaled code overflows int32 must still saturate
    // toward their own sign, not wrap to the opposite rail.
    FixedPointCodec q(6, 10);
    EXPECT_DOUBLE_EQ(q.quantize(2.2e6), q.maxValue());
    EXPECT_DOUBLE_EQ(q.quantize(-3e6), q.minValue());
    EXPECT_DOUBLE_EQ(q.quantize(1e300), q.maxValue());
    EXPECT_DOUBLE_EQ(q.quantize(-1e300), q.minValue());
}

TEST(FixedPoint, NonFiniteInputs)
{
    FixedPointCodec q(6, 10);
    EXPECT_DOUBLE_EQ(q.quantize(INFINITY), q.maxValue());
    EXPECT_DOUBLE_EQ(q.quantize(-INFINITY), q.minValue());
    // NaN has no sign to saturate toward: pinned to 0.
    EXPECT_EQ(q.encode(std::nan("")), 0u);
    EXPECT_EQ(q.encode(-std::nan("")), 0u);
    EXPECT_DOUBLE_EQ(q.quantize(std::nan("")), 0.0);
}

TEST(FixedPoint, NegativeEncodingSignExtends)
{
    FixedPointCodec q(4, 4); // 8-bit field
    const uint16_t raw = q.encode(-2.5);
    EXPECT_DOUBLE_EQ(q.decode(raw), -2.5);
}

TEST(FixedPoint, NarrowField)
{
    FixedPointCodec q(2, 2); // 4 bits: [-2, 1.75] step 0.25
    EXPECT_DOUBLE_EQ(q.minValue(), -2.0);
    EXPECT_DOUBLE_EQ(q.maxValue(), 1.75);
    EXPECT_DOUBLE_EQ(q.quantize(0.30), 0.25);
}

TEST(FixedPoint, RejectsBadConfig)
{
    EXPECT_ANY_THROW(FixedPointCodec(0, 4));
    EXPECT_ANY_THROW(FixedPointCodec(10, 10));
    EXPECT_ANY_THROW(FixedPointCodec(4, -1));
}

/** Property sweep: encode/decode stability across codec shapes. */
class FixedPointSweep
    : public ::testing::TestWithParam<std::pair<int, int>>
{
};

TEST_P(FixedPointSweep, EncodeDecodeIsIdempotent)
{
    const auto [ib, fb] = GetParam();
    FixedPointCodec q(ib, fb);
    for (double v = q.minValue(); v <= q.maxValue();
         v += (q.maxValue() - q.minValue()) / 37.0) {
        const double once = q.quantize(v);
        EXPECT_DOUBLE_EQ(q.quantize(once), once);
        EXPECT_GE(once, q.minValue());
        EXPECT_LE(once, q.maxValue());
    }
}

INSTANTIATE_TEST_SUITE_P(Shapes, FixedPointSweep,
                         ::testing::Values(std::pair{6, 10},
                                           std::pair{4, 12},
                                           std::pair{8, 8},
                                           std::pair{2, 6},
                                           std::pair{1, 7},
                                           std::pair{16, 0}));

// ---------------------------------------------------------------------
// FixedPointQuantizer — the branch-free hot-loop form used by the
// HwFaithful numerics tier. Its contract: agree with the codec's
// decode(encode(v)) everywhere except exact half-resolution ties
// (documented tie-convention difference), be exactly idempotent over
// every decodable value, and saturate/normalize like the codec.

TEST(FixedPointQuantizer, MatchesCodecResolutionAndRails)
{
    FixedPointCodec c(6, 10);
    const FixedPointQuantizer q = c.quantizer();
    EXPECT_DOUBLE_EQ(q.invScale, c.resolution());
    EXPECT_DOUBLE_EQ(q.scale * q.invScale, 1.0); // exact reciprocal
    EXPECT_DOUBLE_EQ(q.minRaw * q.invScale, c.minValue());
    EXPECT_DOUBLE_EQ(q.maxRaw * q.invScale, c.maxValue());
}

TEST(FixedPointQuantizer, IdempotentOverEveryRawCode)
{
    // Exhaustive: all 2^16 raw codes of the Q6.10 gene format. Every
    // decodable value must pass through the quantizer unchanged down
    // to the bit (the digests fold raw bit patterns), which also
    // pins the magic-constant rounding against regressions.
    FixedPointCodec c(6, 10);
    const FixedPointQuantizer q = c.quantizer();
    for (uint32_t raw = 0; raw <= 0xffffu; ++raw) {
        const double v = c.decode(static_cast<uint16_t>(raw));
        const double once = q(v);
        ASSERT_EQ(std::bit_cast<uint64_t>(once),
                  std::bit_cast<uint64_t>(v + 0.0))
            << "raw=" << raw << " v=" << v;
    }
}

TEST(FixedPointQuantizer, AgreesWithCodecOffTies)
{
    // Sweep values that are NOT half-resolution ties: quantizer
    // (ties-to-even) and codec (lround, ties-away) must agree
    // exactly. The 0.377 stride never lands on a k/2048 boundary.
    FixedPointCodec c(6, 10);
    const FixedPointQuantizer q = c.quantizer();
    for (double v = -40.0; v <= 40.0; v += 0.377)
        EXPECT_DOUBLE_EQ(q(v), c.quantize(v)) << "v=" << v;
}

TEST(FixedPointQuantizer, TieConventionIsRoundHalfEven)
{
    // The documented divergence from encode(): exact half-resolution
    // ties round to the even raw code, not away from zero.
    FixedPointCodec c(6, 10);
    const FixedPointQuantizer q = c.quantizer();
    const double res = c.resolution();
    EXPECT_DOUBLE_EQ(q(2.5 * res), 2.0 * res);  // lround gives 3
    EXPECT_DOUBLE_EQ(q(3.5 * res), 4.0 * res);  // agrees with lround
    EXPECT_DOUBLE_EQ(q(-2.5 * res), -2.0 * res);
    EXPECT_DOUBLE_EQ(c.quantize(2.5 * res), 3.0 * res);
}

TEST(FixedPointQuantizer, SaturationBoundaryRounding)
{
    // Values just inside/outside the rails: the clamp applies after
    // rounding, so max + res/2 rounds up to an out-of-range code and
    // then saturates, while max + res/4 rounds back onto the rail.
    FixedPointCodec c(6, 10);
    const FixedPointQuantizer q = c.quantizer();
    const double res = c.resolution();
    EXPECT_DOUBLE_EQ(q(c.maxValue() + res / 4.0), c.maxValue());
    EXPECT_DOUBLE_EQ(q(c.maxValue() + res), c.maxValue());
    EXPECT_DOUBLE_EQ(q(1e12), c.maxValue());
    EXPECT_DOUBLE_EQ(q(c.minValue() - res / 4.0), c.minValue());
    EXPECT_DOUBLE_EQ(q(-1e12), c.minValue());
    // Magnitudes beyond the magic-constant rounding range (2^51)
    // skip the round but still saturate.
    EXPECT_DOUBLE_EQ(q(1e300), c.maxValue());
    EXPECT_DOUBLE_EQ(q(-1e300), c.minValue());
}

TEST(FixedPointQuantizer, NonFiniteAndOverflowAgreeWithCodec)
{
    // The hot-loop Limit & Quantize follows encode()'s non-finite
    // rule bit for bit: NaN (either sign) maps to 0, ±inf and finite
    // overflow of any size saturate at the rail of their sign.
    FixedPointCodec c(6, 10);
    const FixedPointQuantizer q = c.quantizer();
    const double res = c.resolution();
    const double cases[] = {
        std::nan(""),           -std::nan(""),
        INFINITY,               -INFINITY,
        1e300,                  -1e300,
        std::ldexp(1.0, 40),    -std::ldexp(1.0, 40),
        c.maxValue() + res,     c.minValue() - res,
    };
    for (double v : cases) {
        EXPECT_EQ(std::bit_cast<uint64_t>(q(v)),
                  std::bit_cast<uint64_t>(c.quantize(v)))
            << "v=" << v;
    }
    EXPECT_EQ(std::bit_cast<uint64_t>(q(std::nan(""))),
              std::bit_cast<uint64_t>(0.0));
    EXPECT_EQ(q(INFINITY), c.maxValue());
    EXPECT_EQ(q(-INFINITY), c.minValue());
}

TEST(FixedPointQuantizer, NegativeZeroNormalizes)
{
    // -0.0 in, +0.0 out: quantized zeros must carry the same bit
    // pattern decode(0) produces, because digests fold raw bits.
    FixedPointCodec c(6, 10);
    const FixedPointQuantizer q = c.quantizer();
    const double z = q(-0.0);
    EXPECT_EQ(std::bit_cast<uint64_t>(z), std::bit_cast<uint64_t>(0.0));
    // Tiny negatives round to zero and normalize too.
    EXPECT_EQ(std::bit_cast<uint64_t>(q(-1e-9)),
              std::bit_cast<uint64_t>(0.0));
}

TEST(FixedPointQuantizer, NarrowShapesMatchCodec)
{
    for (const auto &[ib, fb] : {std::pair{4, 4}, std::pair{2, 2},
                                 std::pair{1, 7}, std::pair{16, 0}}) {
        FixedPointCodec c(ib, fb);
        const FixedPointQuantizer q = c.quantizer();
        const int total = 1 << c.bits();
        for (int raw = 0; raw < total; ++raw) {
            const double v = c.decode(static_cast<uint16_t>(raw));
            ASSERT_DOUBLE_EQ(q(v), v) << ib << "." << fb << " raw=" << raw;
        }
    }
}
