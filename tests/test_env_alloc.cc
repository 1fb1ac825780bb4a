/**
 * @file
 * Zero-allocation regression tests for the environment step and the
 * episode loops built on it. This binary replaces the global
 * operator new/delete with a counting pair, which is why it is its
 * own test executable: the counter stays local to these tests.
 *
 * Once warm, stepping an environment through its span entry points
 * must never touch the heap, and the episode loops must allocate a
 * fixed amount per call, however many steps their episodes run.
 */

#include <gtest/gtest.h>

#include <cstdlib>
#include <new>

#include "env/runner.hh"
#include "nn/compiled_plan.hh"

using namespace genesys;
using namespace genesys::env;

namespace
{

/** Heap allocations made through the global operator new so far. */
long g_allocations = 0;

} // namespace

// The replacements stay out of line so the compiler never sees a
// free() paired with the operator new it inlined at a call site.
[[gnu::noinline]] void *
operator new(std::size_t size)
{
    ++g_allocations;
    if (void *p = std::malloc(size == 0 ? 1 : size))
        return p;
    throw std::bad_alloc();
}

[[gnu::noinline]] void
operator delete(void *p) noexcept
{
    std::free(p);
}

[[gnu::noinline]] void
operator delete(void *p, std::size_t) noexcept
{
    std::free(p);
}

namespace
{

/** Allocations made while running `fn`. */
template <typename Fn>
long
allocationsDuring(Fn &&fn)
{
    const long before = g_allocations;
    fn();
    return g_allocations - before;
}

/** A seeded tape of random actions, built before anything is counted. */
std::vector<Action>
actionTape(const ActionSpace &space, size_t n, uint64_t seed)
{
    XorWow rng(seed);
    std::vector<Action> tape(n);
    for (Action &a : tape) {
        if (space.kind == ActionSpace::Kind::Discrete) {
            a.discrete = static_cast<int>(
                rng.uniformInt(static_cast<uint32_t>(space.n)));
        } else {
            for (int i = 0; i < space.n; ++i)
                a.continuous.push_back(rng.uniform(space.low, space.high));
        }
    }
    return tape;
}

/** A random-weight plan sized for `env`. */
nn::CompiledPlan
randomPlan(const Environment &env, uint64_t seed)
{
    auto cfg = configForEnvironment(env);
    cfg.weight.initStdev = 1.0; // varied policies, varied episodes
    neat::NodeIndexer idx(cfg.numOutputs);
    XorWow rng(seed);
    return nn::CompiledPlan::compileFor(
        neat::Genome::createNew(0, cfg, idx, rng), cfg);
}

} // namespace

class EnvStepAlloc : public ::testing::TestWithParam<std::string>
{
};

TEST_P(EnvStepAlloc, WarmSpanStepsAllocateNothing)
{
    constexpr size_t kSteps = 10000;
    auto env = makeEnvironment(GetParam());
    const auto tape = actionTape(env->actionSpace(), kSteps, 11);
    std::vector<double> obs(static_cast<size_t>(env->observationSize()));

    // Warm-up episode: first-call setup (function-local statics,
    // lazily built tables) happens here, outside the count.
    env->reset(1, obs);
    for (size_t k = 0; !env->step(tape[k % kSteps], obs).done; ++k) {
    }

    uint64_t seed = 2;
    const long allocs = allocationsDuring([&] {
        env->reset(seed, obs);
        for (size_t k = 0; k < kSteps; ++k) {
            if (env->step(tape[k], obs).done)
                env->reset(++seed, obs);
        }
    });
    EXPECT_EQ(allocs, 0) << GetParam();
    EXPECT_GT(seed, 2u) << "the run should cross episode boundaries";
}

INSTANTIATE_TEST_SUITE_P(TableI, EnvStepAlloc,
                         ::testing::ValuesIn(environmentNames()));

TEST(DecodeActionAlloc, WarmActionDecodesWithoutAllocating)
{
    const ActionSpace continuous{ActionSpace::Kind::Continuous, 4, -1.0,
                                 1.0};
    const ActionSpace discrete{ActionSpace::Kind::Discrete, 4, 0.0, 0.0};
    const std::vector<double> outputs{0.1, 0.7, 0.4, 0.9};
    Action action;
    decodeAction(continuous, outputs, action); // warm the storage
    const long allocs = allocationsDuring([&] {
        for (int i = 0; i < 1000; ++i) {
            decodeAction(continuous, outputs, action);
            decodeAction(discrete, outputs, action);
        }
    });
    EXPECT_EQ(allocs, 0);
}

class EpisodeLoopAlloc : public ::testing::TestWithParam<std::string>
{
};

TEST_P(EpisodeLoopAlloc, WarmRunEpisodeAllocatesNothing)
{
    auto env = makeEnvironment(GetParam());
    const auto plan = randomPlan(*env, 5);
    EpisodeRunner runner(*env);
    nn::PlanScratch scratch;
    runner.runEpisode(plan, scratch, 1); // warm-up
    EpisodeResult res;
    const long allocs = allocationsDuring(
        [&] { res = runner.runEpisode(plan, scratch, 2); });
    EXPECT_EQ(allocs, 0);
    EXPECT_GT(res.steps, 0);
}

TEST_P(EpisodeLoopAlloc, BatchedAllocationsDoNotScaleWithSteps)
{
    auto proto = makeEnvironment(GetParam());
    const auto plan = randomPlan(*proto, 1);
    std::vector<std::unique_ptr<Environment>> owned;
    std::vector<Environment *> lanes;
    for (int l = 0; l < 2; ++l) {
        owned.push_back(makeEnvironment(GetParam()));
        lanes.push_back(owned.back().get());
    }
    EpisodeBatchScratch scratch;
    evaluateBatched(plan, {1, 2, 3, 4}, lanes, scratch); // warm-up

    // Two calls with the same episode count but different seeds.
    EvalDetail a, b;
    const long allocs_a = allocationsDuring(
        [&] { a = evaluateBatched(plan, {10, 11, 12, 13}, lanes, scratch); });
    const long allocs_b = allocationsDuring(
        [&] { b = evaluateBatched(plan, {20, 21, 22, 23}, lanes, scratch); });
    ASSERT_NE(a.inferences, b.inferences)
        << "pick seeds whose episodes run different step counts";
    EXPECT_EQ(allocs_a, allocs_b);
}

TEST_P(EpisodeLoopAlloc, WaveAllocationsDoNotScaleWithSteps)
{
    auto proto = makeEnvironment(GetParam());
    const auto p0 = randomPlan(*proto, 1);
    const auto p1 = randomPlan(*proto, 9);
    std::vector<std::unique_ptr<Environment>> owned;
    std::vector<Environment *> lanes;
    for (int l = 0; l < 2; ++l) {
        owned.push_back(makeEnvironment(GetParam()));
        lanes.push_back(owned.back().get());
    }
    auto items = [&](uint64_t s) {
        return std::vector<WaveItem>{
            {&p0, s}, {&p1, s + 1}, {&p0, s + 2}, {&p1, s + 3}};
    };
    WaveScratch scratch;
    evaluateWave(items(1), lanes, scratch); // warm-up

    const auto items_a = items(10);
    const auto items_b = items(20);
    WaveResult a, b;
    const long allocs_a = allocationsDuring(
        [&] { a = evaluateWave(items_a, lanes, scratch); });
    const long allocs_b = allocationsDuring(
        [&] { b = evaluateWave(items_b, lanes, scratch); });
    long steps_a = 0, steps_b = 0;
    for (size_t i = 0; i < a.episodes.size(); ++i) {
        steps_a += a.episodes[i].steps;
        steps_b += b.episodes[i].steps;
    }
    ASSERT_NE(steps_a, steps_b)
        << "pick seeds whose episodes run different step counts";
    EXPECT_EQ(allocs_a, allocs_b);
}

// One discrete and one continuous action space.
INSTANTIATE_TEST_SUITE_P(Loops, EpisodeLoopAlloc,
                         ::testing::Values("CartPole_v0", "Bipedal"));
