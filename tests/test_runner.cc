/**
 * @file
 * Tests for action decoding and the episode loops.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <stdexcept>
#include <string>

#include "env/atari_ram.hh"
#include "env/cartpole.hh"
#include "env/mountain_car.hh"
#include "env/runner.hh"

using namespace genesys;
using namespace genesys::env;

TEST(DecodeAction, BinaryThreshold)
{
    const ActionSpace space{ActionSpace::Kind::Discrete, 2, 0, 0};
    EXPECT_EQ(decodeAction(space, {0.4}).discrete, 0);
    EXPECT_EQ(decodeAction(space, {0.6}).discrete, 1);
}

TEST(DecodeAction, ArgmaxOverDiscreteOutputs)
{
    const ActionSpace space{ActionSpace::Kind::Discrete, 4, 0, 0};
    EXPECT_EQ(decodeAction(space, {0.1, 0.9, 0.3, 0.2}).discrete, 1);
    EXPECT_EQ(decodeAction(space, {0.9, 0.1, 0.3, 0.2}).discrete, 0);
    EXPECT_EQ(decodeAction(space, {0.1, 0.2, 0.3, 0.9}).discrete, 3);
}

TEST(DecodeAction, ArgmaxTieBreaksLowestIndex)
{
    const ActionSpace space{ActionSpace::Kind::Discrete, 3, 0, 0};
    EXPECT_EQ(decodeAction(space, {0.5, 0.5, 0.5}).discrete, 0);
}

TEST(DecodeAction, ContinuousAffineMapAndClamp)
{
    const ActionSpace space{ActionSpace::Kind::Continuous, 2, -1.0, 1.0};
    const auto a = decodeAction(space, {0.0, 1.0});
    ASSERT_EQ(a.continuous.size(), 2u);
    EXPECT_DOUBLE_EQ(a.continuous[0], -1.0);
    EXPECT_DOUBLE_EQ(a.continuous[1], 1.0);
    // Outputs beyond [0,1] clamp to bounds.
    const auto b = decodeAction(space, {-3.0, 5.0});
    EXPECT_DOUBLE_EQ(b.continuous[0], -1.0);
    EXPECT_DOUBLE_EQ(b.continuous[1], 1.0);
}

TEST(DecodeAction, MidpointMapsToCenter)
{
    const ActionSpace space{ActionSpace::Kind::Continuous, 1, -2.0, 4.0};
    EXPECT_DOUBLE_EQ(decodeAction(space, {0.5}).continuous[0], 1.0);
}

TEST(DecodeAction, TooFewOutputsThrows)
{
    const ActionSpace space{ActionSpace::Kind::Discrete, 4, 0, 0};
    EXPECT_ANY_THROW(decodeAction(space, {0.1, 0.2}));
}

TEST(EpisodeLoop, DeterministicEvaluation)
{
    CartPole env;
    auto cfg = configForEnvironment(env);
    cfg.weight.initStdev = 1.0; // non-trivial policy, varied episodes
    neat::NodeIndexer idx(cfg.numOutputs);
    XorWow rng(1);
    const auto g = neat::Genome::createNew(0, cfg, idx, rng);
    const auto plan = nn::CompiledPlan::compileFor(g, cfg);
    const std::vector<uint64_t> seeds{42, 43};

    // Two one-lane evaluations over one environment: an episode is a
    // pure function of (plan, seed), whatever the environment ran
    // before.
    EpisodeBatchScratch s1, s2;
    const EvalDetail a = evaluateBatched(plan, seeds, {&env}, s1);
    const EvalDetail b = evaluateBatched(plan, seeds, {&env}, s2);
    EXPECT_EQ(a.fitness, b.fitness);
    EXPECT_EQ(a.inferences, b.inferences);
    EXPECT_EQ(a.macs, b.macs);
    EXPECT_EQ(a.maxEpisodeSteps, b.maxEpisodeSteps);
    ASSERT_EQ(a.episodes.size(), seeds.size());
    ASSERT_EQ(b.episodes.size(), seeds.size());
    double total = 0.0;
    for (size_t e = 0; e < seeds.size(); ++e) {
        EXPECT_EQ(a.episodes[e].fitness, b.episodes[e].fitness);
        EXPECT_EQ(a.episodes[e].steps, b.episodes[e].steps);
        total += a.episodes[e].fitness;
    }
    EXPECT_EQ(a.fitness, total / static_cast<double>(seeds.size()));
}

TEST(EpisodeLoop, CountsInferencesAndMacs)
{
    CartPole env;
    auto cfg = configForEnvironment(env);
    neat::NodeIndexer idx(cfg.numOutputs);
    XorWow rng(2);
    const auto g = neat::Genome::createNew(0, cfg, idx, rng);
    const auto plan = nn::CompiledPlan::compileFor(g, cfg);
    EpisodeBatchScratch scratch;
    const EpisodeResult res =
        evaluateBatched(plan, {17}, {&env}, scratch).episodes.front();
    EXPECT_EQ(res.macs, res.steps * plan.macsPerInference());
    EXPECT_EQ(plan.macsPerInference(),
              static_cast<long>(g.numConnectionGenes()));
    EXPECT_GT(res.steps, 0);

    const EvalDetail d = evaluateBatched(plan, {17, 18}, {&env}, scratch);
    ASSERT_EQ(d.episodes.size(), 2u);
    EXPECT_EQ(d.episodes[0].steps, res.steps);
    EXPECT_EQ(d.inferences, d.episodes[0].steps + d.episodes[1].steps);
    EXPECT_EQ(d.macs, d.inferences * plan.macsPerInference());
    EXPECT_EQ(d.maxEpisodeSteps,
              std::max(d.episodes[0].steps, d.episodes[1].steps));
}

TEST(ConfigForEnvironment, MatchesSpaces)
{
    MountainCar env;
    const auto cfg = configForEnvironment(env);
    EXPECT_EQ(cfg.numInputs, 2);
    EXPECT_EQ(cfg.numOutputs, 3);
    EXPECT_EQ(cfg.populationSize, 150);
    EXPECT_DOUBLE_EQ(cfg.fitnessThreshold, env.targetFitness());
    // Paper setup: initial weights are all zero (Section III-B).
    EXPECT_DOUBLE_EQ(cfg.weight.initMean, 0.0);
    EXPECT_DOUBLE_EQ(cfg.weight.initStdev, 0.0);
}

TEST(MakeEnvironment, UnknownNameThrows)
{
    EXPECT_ANY_THROW(makeEnvironment("Pong-v0"));
}

TEST(MakeEnvironment, AllNamesConstructible)
{
    for (const auto &name : environmentNames()) {
        auto env = makeEnvironment(name);
        EXPECT_EQ(env->name(), name);
    }
}

// --- observation-size guard -------------------------------------------------
//
// Every episode loop checks, once per episode and before reset, that
// the environment observes exactly as many values as the plan takes
// inputs; a mismatch panics naming both sizes, on every path.

namespace
{

/** An AirRaid (128-input) plan. */
nn::CompiledPlan
airRaidPlan()
{
    AtariRam airraid(AtariVariant::AirRaid);
    const auto cfg = configForEnvironment(airraid);
    neat::NodeIndexer idx(cfg.numOutputs);
    XorWow rng(3);
    return nn::CompiledPlan::compileFor(
        neat::Genome::createNew(0, cfg, idx, rng), cfg);
}

/** Runs `fn`, expecting a logic_error that names both sizes. */
template <typename Fn>
void
expectSizeMismatchPanic(Fn &&fn)
{
    try {
        fn();
        ADD_FAILURE() << "no panic on a 4-value env driving a 128-input"
                         " plan";
    } catch (const std::logic_error &e) {
        const std::string what = e.what();
        EXPECT_NE(what.find("observes 4 values"), std::string::npos)
            << what;
        EXPECT_NE(what.find("takes 128 inputs"), std::string::npos)
            << what;
    }
}

} // namespace

TEST(ObservationSizeGuard, OneLaneEvaluateBatchedPanicsNamingBothSizes)
{
    const auto plan = airRaidPlan();
    CartPole env;
    EpisodeBatchScratch scratch;
    expectSizeMismatchPanic(
        [&] { evaluateBatched(plan, {1}, {&env}, scratch); });
}

TEST(ObservationSizeGuard, EvaluateBatchedPanicsNamingBothSizes)
{
    const auto plan = airRaidPlan();
    CartPole a, b;
    const std::vector<Environment *> lanes{&a, &b};
    EpisodeBatchScratch scratch;
    expectSizeMismatchPanic(
        [&] { evaluateBatched(plan, {1, 2, 3}, lanes, scratch); });
}

TEST(ObservationSizeGuard, EvaluateWavePanicsNamingBothSizes)
{
    const auto plan = airRaidPlan();
    CartPole a, b;
    const std::vector<Environment *> lanes{&a, &b};
    WaveScratch scratch;
    expectSizeMismatchPanic([&] {
        evaluateWave({{&plan, 1}, {&plan, 2}}, lanes, scratch);
    });
}
