/**
 * @file
 * Differential harness for the numerics tiers (nn/numerics.hh).
 *
 * The HwFaithful tier is a deliberately different numerics: Q6.10
 * attribute quantization at compile time, branch-free polynomial
 * activations and per-node Limit & Quantize at run time. It can never
 * be bit-identical to the float Reference tier — instead its contract
 * is two-sided and this suite pins both sides:
 *
 *  1. WITHIN the hw tier, execution is exactly as deterministic as
 *     the reference tier: serial, per-genome-batched and lane-width
 *     permutations of the same genome produce bit-identical outputs
 *     (the golden-digest suite extends this to threads, execution
 *     modes and checkpoint/resume at system level).
 *
 *  2. ACROSS tiers, divergence is bounded: per-output activation
 *     error on dense sigmoid policies, and end-to-end fitness
 *     divergence per environment on fixed-seed golden configurations
 *     (generation 0 compares the SAME genomes on the SAME episode
 *     seeds, so its divergence is purely numeric — the tightest
 *     end-to-end statement available before selection amplifies
 *     trajectory differences).
 *
 * The bounds asserted here are the ones documented in README.md
 * ("Numerics tiers"); tightening an approximation lets them shrink,
 * and a regression that blows one up fails loudly.
 */

#include <gtest/gtest.h>

#include <stdlib.h>

#include <bit>
#include <cmath>
#include <cstdint>
#include <string>
#include <vector>

#include "common/fixed_point.hh"
#include "common/rng.hh"
#include "core/genesys.hh"
#include "neat/genome.hh"
#include "nn/compiled_plan.hh"
#include "nn/hw_activations.hh"
#include "nn/numerics.hh"

using namespace genesys;
using neat::Genome;
using neat::NeatConfig;

namespace
{

/**
 * Pin GENESYS_NUMERICS for one test. The CI matrix exports the
 * variable suite-wide (core::System applies it AFTER SystemConfig),
 * so any test comparing the two tiers through System must pin each
 * run's tier explicitly or the ambient override would collapse both
 * runs onto one tier.
 */
class ScopedNumericsEnv
{
  public:
    explicit ScopedNumericsEnv(const char *value)
    {
        const char *prev = getenv("GENESYS_NUMERICS");
        had_ = prev != nullptr;
        if (had_)
            prev_ = prev;
        setenv("GENESYS_NUMERICS", value, 1);
    }
    ~ScopedNumericsEnv()
    {
        if (had_)
            setenv("GENESYS_NUMERICS", prev_.c_str(), 1);
        else
            unsetenv("GENESYS_NUMERICS");
    }

  private:
    bool had_ = false;
    std::string prev_;
};

NeatConfig
planConfig(int inputs, int outputs, bool feed_forward)
{
    NeatConfig cfg;
    cfg.numInputs = inputs;
    cfg.numOutputs = outputs;
    cfg.feedForward = feed_forward;
    return cfg;
}

/** Random genome grown by `mutations` structural/attribute steps. */
Genome
grownGenome(const NeatConfig &cfg, int mutations, uint64_t seed)
{
    neat::NodeIndexer idx(cfg.numOutputs);
    XorWow rng(seed);
    auto g = Genome::createNew(0, cfg, idx, rng);
    for (int i = 0; i < mutations; ++i)
        g.mutate(cfg, idx, rng);
    return g;
}

/**
 * Per-output |hw - float| bound for sigmoid policies grown by the
 * default config. Budget: sigmoid approximation error <= ~1.3e-2 per
 * node (0.5 x tanhCore's ~2.4e-2, + 2^-10/2 quantization), amplified
 * through the output layer by the weighted fan-in; random-sign
 * cancellation keeps observed divergence well below the worst case.
 * Documented in README.md — tighten only with measurements.
 */
constexpr double kOutputDivergenceBound = 0.15;

/**
 * Drive a feed-forward genome through both tiers on random inputs:
 * hw serial == hw batched (bit-identical, every lane width 1..8 plus
 * one odd width through the generic kernel) and hw-vs-float output
 * divergence within bound.
 */
void
checkFeedForwardGenome(const NeatConfig &cfg, const Genome &g,
                       uint64_t seed, double bound,
                       double *max_seen = nullptr)
{
    const auto ref = nn::CompiledPlan::compile(g, cfg);
    const auto hw =
        nn::CompiledPlan::compile(g, cfg, nn::NumericsTier::HwFaithful);
    ASSERT_EQ(hw.numericsTier(), nn::NumericsTier::HwFaithful);
    ASSERT_EQ(ref.numericsTier(), nn::NumericsTier::Reference);

    XorWow rng(seed);
    nn::PlanScratch ref_s, hw_s;
    nn::BatchScratch batch;
    for (const int lanes : {1, 3, 8, 11}) {
        hw.beginBatch(lanes, batch);
        std::vector<uint8_t> active(static_cast<size_t>(lanes), 1);
        std::vector<std::vector<double>> lane_in(
            static_cast<size_t>(lanes));
        for (int l = 0; l < lanes; ++l) {
            auto &in = lane_in[static_cast<size_t>(l)];
            in.resize(static_cast<size_t>(cfg.numInputs));
            for (auto &x : in)
                x = rng.uniform(-4.0, 4.0);
            for (int i = 0; i < cfg.numInputs; ++i)
                batch.inputs[static_cast<size_t>(i * lanes + l)] =
                    in[static_cast<size_t>(i)];
        }
        hw.activateBatch(lanes, active.data(), batch);
        for (int l = 0; l < lanes; ++l) {
            hw.activate(lane_in[static_cast<size_t>(l)], hw_s);
            ref.activate(lane_in[static_cast<size_t>(l)], ref_s);
            for (size_t o = 0; o < hw_s.outputs.size(); ++o) {
                // Side 1: exact within-tier identity.
                ASSERT_EQ(
                    std::bit_cast<uint64_t>(
                        batch.outputs[o * static_cast<size_t>(lanes) +
                                      static_cast<size_t>(l)]),
                    std::bit_cast<uint64_t>(hw_s.outputs[o]))
                    << "hw batched/serial diverge, lanes=" << lanes
                    << " lane=" << l << " output=" << o;
                // Side 2: bounded cross-tier divergence.
                const double dv =
                    std::fabs(hw_s.outputs[o] - ref_s.outputs[o]);
                EXPECT_LE(dv, bound)
                    << "lanes=" << lanes << " lane=" << l
                    << " output=" << o;
                if (max_seen != nullptr && dv > *max_seen)
                    *max_seen = dv;
            }
        }
    }
}

} // namespace

TEST(NumericsDivergence, FeedForwardHwBitIdentityAndBoundedDivergence)
{
    const auto cfg = planConfig(8, 4, true);
    double max_seen = 0.0;
    for (uint64_t seed = 1; seed <= 12; ++seed) {
        const auto g = grownGenome(cfg, 25, seed);
        checkFeedForwardGenome(cfg, g, seed * 977,
                               kOutputDivergenceBound, &max_seen);
    }
    // The tiers must actually differ somewhere — a zero here means
    // the hw lowering silently fell through to the float path.
    EXPECT_GT(max_seen, 0.0);
    RecordProperty("max_output_divergence", std::to_string(max_seen));
    std::cout << "[ divergence ] max per-output |hw - float| = "
              << max_seen << " (bound " << kOutputDivergenceBound
              << ")\n";
}

TEST(NumericsDivergence, RecurrentHwBitIdenticalSerialVsBatch)
{
    const auto cfg = planConfig(6, 3, false);
    for (uint64_t seed = 1; seed <= 6; ++seed) {
        const auto g = grownGenome(cfg, 20, seed);
        const auto hw = nn::CompiledPlan::compileRecurrent(
            g, cfg, nn::NumericsTier::HwFaithful);

        constexpr int kLanes = 4;
        XorWow rng(seed * 31);
        nn::PlanScratch serial[kLanes];
        for (auto &s : serial)
            hw.reset(s);
        nn::BatchScratch batch;
        hw.beginBatch(kLanes, batch);
        std::vector<uint8_t> active(kLanes, 1);
        // 16 ticks: recurrent state must stay in lockstep between the
        // per-lane one-lane runs and the batched kernel — quantized
        // state feeding quantized state.
        for (int t = 0; t < 16; ++t) {
            std::vector<std::vector<double>> lane_in(kLanes);
            for (int l = 0; l < kLanes; ++l) {
                auto &in = lane_in[static_cast<size_t>(l)];
                in.resize(static_cast<size_t>(cfg.numInputs));
                for (auto &x : in)
                    x = rng.uniform(-4.0, 4.0);
                for (int i = 0; i < cfg.numInputs; ++i)
                    batch.inputs[static_cast<size_t>(i * kLanes + l)] =
                        in[static_cast<size_t>(i)];
            }
            hw.activateBatch(kLanes, active.data(), batch);
            for (int l = 0; l < kLanes; ++l) {
                hw.activate(lane_in[static_cast<size_t>(l)], serial[l]);
                for (size_t o = 0; o < serial[l].outputs.size(); ++o) {
                    ASSERT_EQ(
                        std::bit_cast<uint64_t>(
                            batch.outputs[o * kLanes +
                                          static_cast<size_t>(l)]),
                        std::bit_cast<uint64_t>(serial[l].outputs[o]))
                        << "tick=" << t << " lane=" << l
                        << " output=" << o;
                }
            }
        }
    }
}

TEST(NumericsDivergence, HwAttributesLandOnQuantizedGrid)
{
    // Every hw-tier node output must sit exactly on the Q6.10 grid:
    // re-quantizing an output through the codec is the identity.
    const auto cfg = planConfig(8, 4, true);
    const FixedPointCodec codec(nn::kHwIntBits, nn::kHwFracBits);
    const auto g = grownGenome(cfg, 25, 7);
    const auto hw =
        nn::CompiledPlan::compile(g, cfg, nn::NumericsTier::HwFaithful);
    XorWow rng(99);
    nn::PlanScratch s;
    for (int t = 0; t < 32; ++t) {
        std::vector<double> in(static_cast<size_t>(cfg.numInputs));
        for (auto &x : in)
            x = rng.uniform(-4.0, 4.0);
        hw.activate(in, s);
        for (const double o : s.outputs) {
            EXPECT_EQ(std::bit_cast<uint64_t>(codec.quantize(o)),
                      std::bit_cast<uint64_t>(o))
                << o << " is off the Q6.10 grid";
        }
    }
}

namespace
{

/**
 * Fixed-seed golden configuration, one per environment (mirrors the
 * golden-digest suite's shape: small population, few generations).
 */
core::SystemConfig
divergenceConfig(const std::string &env_name)
{
    core::SystemConfig cfg;
    cfg.envName = env_name;
    cfg.maxGenerations = 4;
    cfg.episodesPerEval = 1;
    cfg.seed = 20260808;
    cfg.numThreads = 1;
    cfg.tweakNeat = [](neat::NeatConfig &ncfg) {
        ncfg.populationSize = 24;
    };
    return cfg;
}

struct TierRun
{
    double gen0Mean = 0.0;
    double bestFitness = 0.0;
};

TierRun
runTier(const std::string &env_name, const char *tier)
{
    ScopedNumericsEnv pin(tier);
    core::System sys(divergenceConfig(env_name));
    const core::RunSummary s = sys.run();
    TierRun r;
    r.gen0Mean = sys.reports().front().algo.meanFitness;
    r.bestFitness = s.bestFitness;
    return r;
}

/** |a - b| relative to the larger magnitude (0 when both ~0). */
double
relDivergence(double a, double b)
{
    const double denom = std::max(std::fabs(a), std::fabs(b));
    return denom < 1e-9 ? 0.0 : std::fabs(a - b) / denom;
}

/**
 * Per-environment relative bound on generation-0 mean fitness (same
 * genomes, same episode seeds — purely numeric divergence plus the
 * trajectory sensitivity of the environment's dynamics). Documented
 * in README.md next to the tier semantics.
 */
struct EnvBound
{
    const char *env;
    double gen0Bound;
};

constexpr EnvBound kEnvBounds[] = {
    {"CartPole_v0", 0.50},
    {"MountainCar_v0", 0.25},
    {"AirRaid-ram-v0", 0.50},
};

} // namespace

TEST(NumericsDivergence, FitnessDivergenceBoundedPerEnvironment)
{
    for (const EnvBound &eb : kEnvBounds) {
        const TierRun ref = runTier(eb.env, "reference");
        const TierRun hw = runTier(eb.env, "hw");
        EXPECT_LE(relDivergence(ref.gen0Mean, hw.gen0Mean), eb.gen0Bound)
            << eb.env << ": gen-0 mean fitness " << ref.gen0Mean
            << " (float) vs " << hw.gen0Mean << " (hw)";
        // Selection may amplify trajectory divergence in later
        // generations, but the hw tier must remain a *working*
        // numerics — a policy search that still makes progress, not
        // a degenerate one. Both runs rank populations on identical
        // seeds, so comparable best fitness is the sanity floor.
        EXPECT_GT(hw.bestFitness, 0.25 * ref.bestFitness)
            << eb.env << ": hw-tier search collapsed (best "
            << hw.bestFitness << " vs float " << ref.bestFitness << ")";
    }
}

TEST(NumericsDivergence, EnvOverrideSelectsTier)
{
    // The GENESYS_NUMERICS hook resolves exactly like the eval-mode
    // hook: set → overrides config; unset → config wins.
    {
        ScopedNumericsEnv pin("hw");
        core::System sys(divergenceConfig("CartPole_v0"));
        EXPECT_EQ(sys.numericsTier(), nn::NumericsTier::HwFaithful);
    }
    {
        ScopedNumericsEnv pin("reference");
        core::SystemConfig cfg = divergenceConfig("CartPole_v0");
        cfg.numericsTier = nn::NumericsTier::HwFaithful;
        core::System sys(cfg);
        EXPECT_EQ(sys.numericsTier(), nn::NumericsTier::Reference);
    }
}
