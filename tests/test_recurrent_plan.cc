/**
 * @file
 * Differential test harness for recurrent compiled plans.
 *
 * nn::CompiledPlan::compileRecurrent must be bit-identical to the
 * nn::RecurrentNetwork interpreter — across ticks, across reset(),
 * and across batched lanes — because the engine's cross-thread and
 * lane-width determinism contracts are built on exact
 * equality. The harness fuzzes ~1k random cyclic genomes through both
 * paths with multi-tick stateful episodes, pins the MAC accounting
 * (interpreter == plan == plan schedule — the hw cost model
 * invariant), and checks the batched kernel lane for lane against
 * one-lane ticking, including per-lane termination masks.
 *
 * Every genome derives from deriveSeed(kFuzzBase, index) via
 * common::rng, so any failure names a reproducible genome index.
 */

#include <gtest/gtest.h>

#include <bit>
#include <cstdint>
#include <string>

#include "common/rng.hh"
#include "nn/compiled_plan.hh"
#include "nn/plan_cache.hh"
#include "support/recurrent.hh"

using namespace genesys;
using namespace genesys::neat;
using namespace genesys::nn;

namespace
{

constexpr uint64_t kFuzzBase = 0xD1B54A32D192ED03ULL;

/** Bit-pattern equality: exact, and NaN-safe unlike EXPECT_EQ. */
::testing::AssertionResult
bitEqual(double a, double b)
{
    if (std::bit_cast<uint64_t>(a) == std::bit_cast<uint64_t>(b))
        return ::testing::AssertionSuccess();
    return ::testing::AssertionFailure()
           << a << " != " << b << " (bits 0x" << std::hex
           << std::bit_cast<uint64_t>(a) << " vs 0x"
           << std::bit_cast<uint64_t>(b) << ")";
}

/** A recurrent config with every activation/aggregation in play. */
NeatConfig
fuzzConfig(XorWow &rng)
{
    NeatConfig cfg;
    cfg.numInputs = rng.uniformInt(1, 6);
    cfg.numOutputs = rng.uniformInt(1, 4);
    cfg.numHidden = rng.uniformInt(0, 2);
    cfg.feedForward = false;
    cfg.initialConnection = InitialConnection::FullDirect;
    cfg.activation.options = allActivations();
    cfg.activation.mutateRate = 0.5;
    cfg.aggregation.options = {
        Aggregation::Sum,    Aggregation::Product, Aggregation::Max,
        Aggregation::Min,    Aggregation::Mean,    Aggregation::Median,
        Aggregation::MaxAbs,
    };
    cfg.aggregation.mutateRate = 0.5;
    cfg.enabled.mutateRate = 0.2;
    cfg.weight.initStdev = 2.0;
    return cfg;
}

/**
 * Random cyclic genome: mutation-grown under feedForward == false
 * (add-connection may create cycles), then structurally perturbed
 * with hostile shapes — disabled connections, dangling hidden nodes,
 * explicit self-loops and two-node cycles.
 */
Genome
fuzzGenome(const NeatConfig &cfg, XorWow &rng)
{
    NodeIndexer idx(cfg.numOutputs);
    Genome g = Genome::createNew(0, cfg, idx, rng);
    const int mutations = rng.uniformInt(0, 25);
    for (int m = 0; m < mutations; ++m)
        g.mutate(cfg, idx, rng);

    for (auto &&[ck, cg] : g.mutableConnections()) {
        if (rng.bernoulli(0.1))
            cg.enabled = false;
    }

    auto link = [&](int s, int d) {
        ConnectionGene c;
        c.key = {s, d};
        c.weight = rng.gaussian();
        g.mutableConnections().emplace(c.key, c);
    };

    // Output self-loop: the canonical single-node cycle.
    if (rng.bernoulli(0.5))
        link(0, 0);
    // Two-node cycle feeding an output.
    if (rng.bernoulli(0.6)) {
        const int a = idx.next();
        const int b = idx.next();
        g.mutableNodes().emplace(a, NodeGene::createNew(a, cfg, rng));
        g.mutableNodes().emplace(b, NodeGene::createNew(b, cfg, rng));
        link(a, b);
        link(b, a);
        link(-1, a);
        link(b, 0);
    }
    // Dangling hidden node with only an inbound edge.
    if (rng.bernoulli(0.4)) {
        const int dead = idx.next();
        g.mutableNodes().emplace(dead,
                                 NodeGene::createNew(dead, cfg, rng));
        link(-1, dead);
    }
    // Node fed by an out-of-graph source (the -1 slot sentinel case).
    if (rng.bernoulli(0.4)) {
        const int orphan = idx.next();
        g.mutableNodes().emplace(orphan,
                                 NodeGene::createNew(orphan, cfg, rng));
        link(orphan + 1000, orphan); // dangling source key
        link(orphan, 0);
    }
    // Fully isolated hidden node (still updates every tick).
    if (rng.bernoulli(0.3)) {
        const int iso = idx.next();
        g.mutableNodes().emplace(iso, NodeGene::createNew(iso, cfg, rng));
    }
    return g;
}

std::vector<double>
randomInputs(const NeatConfig &cfg, XorWow &rng)
{
    std::vector<double> in(static_cast<size_t>(cfg.numInputs));
    for (auto &x : in)
        x = rng.uniform(-5.0, 5.0);
    return in;
}

} // namespace

// --- the differential fuzz ---------------------------------------------------

TEST(RecurrentPlanFuzz, MatchesInterpreterAcrossTicksAndReset)
{
    constexpr int kGenomes = 1000;
    constexpr int kTicks = 6;
    CompileScratch compile_scratch; // shared: reuse must not corrupt
    for (int i = 0; i < kGenomes; ++i) {
        XorWow rng(deriveSeed(kFuzzBase, static_cast<uint64_t>(i)));
        const NeatConfig cfg = fuzzConfig(rng);
        const Genome g = fuzzGenome(cfg, rng);
        SCOPED_TRACE("fuzz genome " + std::to_string(i));

        auto net = RecurrentNetwork::create(g, cfg);
        const auto plan =
            CompiledPlan::compileRecurrent(g, cfg, compile_scratch);

        ASSERT_TRUE(plan.isRecurrent());
        ASSERT_EQ(plan.numInputs(), net.numInputs());
        ASSERT_EQ(plan.numOutputs(), net.numOutputs());
        EXPECT_EQ(plan.macsPerInference(), net.macsPerInference());

        // Two stateful episodes over the same input stream, separated
        // by reset(): outputs must match the interpreter tick for
        // tick, and the second episode must replay the first exactly
        // (reset really clears all state on both paths).
        std::vector<std::vector<double>> stream;
        stream.reserve(kTicks);
        for (int t = 0; t < kTicks; ++t)
            stream.push_back(randomInputs(cfg, rng));

        PlanScratch scratch;
        std::vector<std::vector<double>> first_episode;
        for (int episode = 0; episode < 2; ++episode) {
            net.reset();
            plan.reset(scratch);
            for (int t = 0; t < kTicks; ++t) {
                const auto expect = net.activate(stream[static_cast<size_t>(t)]);
                plan.activate(stream[static_cast<size_t>(t)], scratch);
                ASSERT_EQ(scratch.outputs.size(), expect.size());
                for (size_t o = 0; o < expect.size(); ++o) {
                    EXPECT_TRUE(bitEqual(scratch.outputs[o], expect[o]))
                        << "episode " << episode << " tick " << t
                        << " output " << o;
                }
                if (episode == 0)
                    first_episode.push_back(scratch.outputs);
                else
                    EXPECT_EQ(scratch.outputs,
                              first_episode[static_cast<size_t>(t)])
                        << "reset did not clear state at tick " << t;
            }
        }
    }
}

TEST(RecurrentPlanFuzz, MacCountsAgreeAcrossAllPaths)
{
    // Satellite fix: the interpreter's macsPerInference, the plan's,
    // and the plan's embedded ADAM schedule must agree per tick, so
    // hw cost modeling cannot drift between execution paths.
    constexpr int kGenomes = 300;
    for (int i = 0; i < kGenomes; ++i) {
        XorWow rng(deriveSeed(kFuzzBase ^ 0x77AA, static_cast<uint64_t>(i)));
        const NeatConfig cfg = fuzzConfig(rng);
        const Genome g = fuzzGenome(cfg, rng);
        SCOPED_TRACE("mac genome " + std::to_string(i));

        const auto net = RecurrentNetwork::create(g, cfg);
        const auto plan = CompiledPlan::compileRecurrent(g, cfg);

        EXPECT_EQ(plan.macsPerInference(), net.macsPerInference());
        EXPECT_EQ(plan.schedule().totalMacs(), plan.macsPerInference());
        // Recurrent inference is one ready wave per tick: every node
        // gene updates simultaneously from the previous tick.
        ASSERT_LE(plan.schedule().layers.size(), 1u);
        if (!plan.schedule().layers.empty()) {
            EXPECT_EQ(plan.schedule().layers[0].numNodes,
                      static_cast<int>(g.nodes().size()));
            EXPECT_EQ(plan.layerSpans().size(), 1u);
        }
    }
}

TEST(RecurrentPlanFuzz, BatchedLanesMatchSerialWithMasks)
{
    // The batched kernel drives L lanes with distinct input streams
    // and retires them at different ticks; every lane must match a
    // one-lane plan run of the same stream bit for bit, and a lane's
    // retirement must not perturb the survivors.
    constexpr int kGenomes = 200;
    constexpr int kLanes = 4;
    constexpr int kTicks = 6;
    for (int i = 0; i < kGenomes; ++i) {
        XorWow rng(deriveSeed(kFuzzBase ^ 0x1234, static_cast<uint64_t>(i)));
        const NeatConfig cfg = fuzzConfig(rng);
        const Genome g = fuzzGenome(cfg, rng);
        SCOPED_TRACE("batch genome " + std::to_string(i));

        const auto plan = CompiledPlan::compileRecurrent(g, cfg);

        // Lane l retires after kTicks - l ticks.
        std::vector<std::vector<std::vector<double>>> streams(kLanes);
        for (int l = 0; l < kLanes; ++l) {
            for (int t = 0; t < kTicks - l; ++t)
                streams[static_cast<size_t>(l)].push_back(
                    randomInputs(cfg, rng));
        }

        // One-lane references.
        std::vector<std::vector<std::vector<double>>> expect(kLanes);
        PlanScratch single;
        for (int l = 0; l < kLanes; ++l) {
            plan.reset(single);
            for (const auto &in : streams[static_cast<size_t>(l)]) {
                plan.activate(in, single);
                expect[static_cast<size_t>(l)].push_back(single.outputs);
            }
        }

        BatchScratch batch;
        plan.beginBatch(kLanes, batch);
        std::vector<uint8_t> active(kLanes, 1);
        for (int t = 0; t < kTicks; ++t) {
            for (int l = 0; l < kLanes; ++l) {
                if (!active[static_cast<size_t>(l)])
                    continue;
                const auto &in =
                    streams[static_cast<size_t>(l)][static_cast<size_t>(t)];
                for (size_t x = 0; x < in.size(); ++x)
                    batch.inputs[x * kLanes +
                                 static_cast<size_t>(l)] = in[x];
            }
            plan.activateBatch(kLanes, active.data(), batch);
            for (int l = 0; l < kLanes; ++l) {
                if (!active[static_cast<size_t>(l)])
                    continue;
                const auto &want =
                    expect[static_cast<size_t>(l)][static_cast<size_t>(t)];
                for (size_t o = 0; o < want.size(); ++o) {
                    EXPECT_TRUE(bitEqual(
                        batch.outputs[o * kLanes + static_cast<size_t>(l)],
                        want[o]))
                        << "lane " << l << " tick " << t << " output "
                        << o;
                }
                if (t + 1 >= kTicks - l)
                    active[static_cast<size_t>(l)] = 0; // retire
            }
        }
    }
}

// --- targeted recurrent plan semantics ---------------------------------------

namespace
{

NeatConfig
recConfig()
{
    NeatConfig cfg;
    cfg.numInputs = 1;
    cfg.numOutputs = 1;
    cfg.feedForward = false;
    return cfg;
}

/** Output node 0 with a self-loop of weight w plus input -1. */
Genome
selfLoopGenome(double w_self, double w_in)
{
    Genome g(0);
    NodeGene out;
    out.key = 0;
    out.activation = Activation::Identity;
    g.mutableNodes().emplace(0, out);
    ConnectionGene self;
    self.key = {0, 0};
    self.weight = w_self;
    ConnectionGene in;
    in.key = {-1, 0};
    in.weight = w_in;
    g.mutableConnections().emplace(self.key, self);
    g.mutableConnections().emplace(in.key, in);
    return g;
}

} // namespace

TEST(RecurrentPlan, SelfLoopIntegratesInput)
{
    const auto cfg = recConfig();
    const auto plan =
        CompiledPlan::compileRecurrent(selfLoopGenome(1.0, 1.0), cfg);
    PlanScratch s;
    plan.reset(s);
    // y[t] = y[t-1] + x[t] -> a running sum.
    plan.activate({1.0}, s);
    EXPECT_NEAR(s.outputs[0], 1.0, 1e-12);
    plan.activate({1.0}, s);
    EXPECT_NEAR(s.outputs[0], 2.0, 1e-12);
    plan.activate({1.0}, s);
    EXPECT_NEAR(s.outputs[0], 3.0, 1e-12);

    plan.reset(s);
    plan.activate({1.0}, s);
    EXPECT_NEAR(s.outputs[0], 1.0, 1e-12);
}

TEST(RecurrentPlan, CompileForDispatchesOnConfigMode)
{
    auto cfg = recConfig();
    const Genome g = selfLoopGenome(0.5, 1.0);

    const auto rec = CompiledPlan::compileFor(g, cfg);
    EXPECT_TRUE(rec.isRecurrent());

    cfg.feedForward = true;
    const auto ff = CompiledPlan::compileFor(g, cfg);
    EXPECT_FALSE(ff.isRecurrent());
    // Feed-forward lowering of a cyclic genome: the cycle never
    // becomes ready, the output reads 0 (documented fallback
    // semantics, unchanged).
    EXPECT_DOUBLE_EQ(ff.activate({1.0})[0], 0.0);
}

TEST(RecurrentPlan, TickWithoutResetPanics)
{
    const auto cfg = recConfig();
    const auto plan =
        CompiledPlan::compileRecurrent(selfLoopGenome(1.0, 1.0), cfg);
    PlanScratch s;
    // Ticking without reset is a contract violation, not silent UB.
    EXPECT_ANY_THROW(plan.activate({1.0}, s));
}

TEST(RecurrentPlan, PlanCacheServesRecurrentPlansWithCarryOver)
{
    const auto cfg = recConfig();
    const Genome g = selfLoopGenome(1.0, 1.0);

    PlanCache cache;
    const auto p1 = cache.acquire(7, g, cfg);
    ASSERT_TRUE(p1->isRecurrent());
    EXPECT_EQ(cache.compiles(), 1);

    // Same key next generation (an elite): carried over, no recompile.
    cache.beginGeneration({7});
    const auto p2 = cache.acquire(7, g, cfg);
    EXPECT_EQ(p2.get(), p1.get());
    EXPECT_EQ(cache.compiles(), 1);
    EXPECT_EQ(cache.carriedOver(), 1);

    PlanScratch s;
    p2->reset(s);
    p2->activate({1.0}, s);
    EXPECT_NEAR(s.outputs[0], 1.0, 1e-12);
    p2->activate({1.0}, s);
    EXPECT_NEAR(s.outputs[0], 2.0, 1e-12);
}
