/**
 * @file
 * Differential test harness for compiled phenotype plans.
 *
 * The compiled path (nn::CompiledPlan) must be bit-identical to the
 * FeedForwardNetwork interpreter — not approximately equal — because
 * the whole engine's cross-thread determinism contract is built on
 * exact equality. The harness fuzzes ~1k random genomes (varied
 * activations/aggregations, disabled connections, dangling hidden
 * nodes, recurrent cycles) through both paths, and separately pins
 * the rewritten graph analysis against a straight transcription of
 * the original (pre-optimization) layering algorithm, since both
 * production paths now share the new analysis code.
 *
 * Every genome derives from deriveSeed(kFuzzBase, index) via
 * common::rng, so any failure names a reproducible genome index.
 */

#include <gtest/gtest.h>

#include <bit>
#include <cstdint>
#include <set>
#include <string>

#include "common/rng.hh"
#include "nn/compiled_plan.hh"
#include "nn/levelize.hh"
#include "support/feedforward.hh"

using namespace genesys;
using namespace genesys::neat;
using namespace genesys::nn;

namespace
{

constexpr uint64_t kFuzzBase = 0x9E3779B97F4A7C15ULL;

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

/** A config with every activation/aggregation in play. */
NeatConfig
fuzzConfig(XorWow &rng, bool allow_cycles)
{
    NeatConfig cfg;
    cfg.numInputs = rng.uniformInt(1, 6);
    cfg.numOutputs = rng.uniformInt(1, 4);
    cfg.numHidden = rng.uniformInt(0, 2);
    cfg.feedForward = !allow_cycles;
    cfg.initialConnection = InitialConnection::FullDirect;
    cfg.activation.options = allActivations();
    cfg.activation.mutateRate = 0.5;
    cfg.aggregation.options = {
        Aggregation::Sum,    Aggregation::Product, Aggregation::Max,
        Aggregation::Min,    Aggregation::Mean,    Aggregation::Median,
        Aggregation::MaxAbs,
    };
    cfg.aggregation.mutateRate = 0.5;
    // Exercise enable/disable flips far more often than the default.
    cfg.enabled.mutateRate = 0.2;
    cfg.weight.initStdev = 2.0;
    return cfg;
}

/**
 * Random genome: mutation-grown, then structurally perturbed with the
 * hostile shapes the plan compiler must survive — disabled
 * connections, dangling hidden nodes (no inputs / no outputs), and
 * explicit two-node cycles when allowed.
 */
Genome
fuzzGenome(const NeatConfig &cfg, XorWow &rng, bool allow_cycles)
{
    NodeIndexer idx(cfg.numOutputs);
    Genome g = Genome::createNew(0, cfg, idx, rng);
    const int mutations = rng.uniformInt(0, 25);
    for (int m = 0; m < mutations; ++m)
        g.mutate(cfg, idx, rng);

    // Disable a few random connections outright.
    for (auto &&[ck, cg] : g.mutableConnections()) {
        if (rng.bernoulli(0.1))
            cg.enabled = false;
    }

    // Dangling hidden node with an inbound edge but no outbound one
    // (dead end: not required for output).
    if (rng.bernoulli(0.5)) {
        const int dead = idx.next();
        NodeGene ng = NodeGene::createNew(dead, cfg, rng);
        g.mutableNodes().emplace(dead, ng);
        ConnectionGene c;
        c.key = {-1, dead};
        c.weight = rng.gaussian();
        g.mutableConnections().emplace(c.key, c);
    }
    // Dangling hidden node with an outbound edge but no inbound one
    // (never "ready": required but unresolvable, the sentinel-slot
    // case).
    if (rng.bernoulli(0.5)) {
        const int orphan = idx.next();
        NodeGene ng = NodeGene::createNew(orphan, cfg, rng);
        g.mutableNodes().emplace(orphan, ng);
        ConnectionGene c;
        c.key = {orphan, 0};
        c.weight = rng.gaussian();
        g.mutableConnections().emplace(c.key, c);
    }
    // Fully isolated hidden node.
    if (rng.bernoulli(0.3)) {
        const int iso = idx.next();
        g.mutableNodes().emplace(iso, NodeGene::createNew(iso, cfg, rng));
    }

    if (allow_cycles && rng.bernoulli(0.8)) {
        // A two-node recurrent cycle hanging off the graph, plus an
        // edge into an output so the cycle is upstream of something
        // required.
        const int a = idx.next();
        const int b = idx.next();
        g.mutableNodes().emplace(a, NodeGene::createNew(a, cfg, rng));
        g.mutableNodes().emplace(b, NodeGene::createNew(b, cfg, rng));
        auto link = [&](int s, int d) {
            ConnectionGene c;
            c.key = {s, d};
            c.weight = rng.gaussian();
            g.mutableConnections().emplace(c.key, c);
        };
        link(a, b);
        link(b, a);
        link(-1, a); // fed by an input, still never ready
        link(b, 0);  // feeds an output: cycle members become required
    }
    return g;
}

/**
 * Straight transcription of the original requiredForOutput /
 * feedForwardLayers algorithms (pre-adjacency-rewrite), kept as the
 * reference the production analysis is diffed against.
 */
std::set<int>
referenceRequired(const Genome &genome, const NeatConfig &cfg)
{
    std::set<int> required;
    for (int out : Genome::outputKeys(cfg))
        required.insert(out);
    std::set<int> frontier = required;
    while (!frontier.empty()) {
        std::set<int> next;
        for (const auto &[ck, cg] : genome.connections()) {
            if (!cg.enabled)
                continue;
            const auto [src, dst] = ck;
            if (frontier.count(dst) && !required.count(src) && src >= 0) {
                required.insert(src);
                next.insert(src);
            }
        }
        frontier = std::move(next);
    }
    return required;
}

std::vector<std::vector<int>>
referenceLayers(const Genome &genome, const NeatConfig &cfg)
{
    const std::set<int> required = referenceRequired(genome, cfg);
    std::set<int> have;
    for (int in : Genome::inputKeys(cfg))
        have.insert(in);

    std::vector<std::vector<int>> layers;
    while (true) {
        std::set<int> candidates;
        for (const auto &[ck, cg] : genome.connections()) {
            if (!cg.enabled)
                continue;
            if (have.count(ck.first) && !have.count(ck.second))
                candidates.insert(ck.second);
        }
        std::vector<int> layer;
        for (int n : candidates) {
            if (!required.count(n))
                continue;
            bool ready = true;
            for (const auto &[ck, cg] : genome.connections()) {
                if (cg.enabled && ck.second == n && !have.count(ck.first)) {
                    ready = false;
                    break;
                }
            }
            if (ready)
                layer.push_back(n);
        }
        if (layer.empty())
            break;
        std::sort(layer.begin(), layer.end());
        for (int n : layer)
            have.insert(n);
        layers.push_back(std::move(layer));
    }
    return layers;
}

} // namespace

// --- the differential fuzz ---------------------------------------------------

TEST(CompiledPlanFuzz, MatchesInterpreterBitForBit)
{
    constexpr int kGenomes = 1000;
    for (int i = 0; i < kGenomes; ++i) {
        XorWow rng(deriveSeed(kFuzzBase, static_cast<uint64_t>(i)));
        const bool allow_cycles = i % 4 == 3;
        const NeatConfig cfg = fuzzConfig(rng, allow_cycles);
        const Genome g = fuzzGenome(cfg, rng, allow_cycles);
        SCOPED_TRACE("fuzz genome " + std::to_string(i));

        const auto net = FeedForwardNetwork::create(g, cfg);
        const auto plan = CompiledPlan::compile(g, cfg);

        ASSERT_EQ(plan.numInputs(), net.numInputs());
        ASSERT_EQ(plan.numOutputs(), net.numOutputs());
        EXPECT_EQ(plan.macsPerInference(), net.macsPerInference());
        EXPECT_EQ(plan.layerSpans().size(), net.layers().size());

        PlanScratch scratch;
        for (int t = 0; t < 4; ++t) {
            std::vector<double> in(static_cast<size_t>(cfg.numInputs));
            for (auto &x : in)
                x = rng.uniform(-5.0, 5.0);
            const auto expect = net.activate(in);
            plan.activate(in, scratch);
            ASSERT_EQ(scratch.outputs.size(), expect.size());
            for (size_t o = 0; o < expect.size(); ++o) {
                EXPECT_TRUE(bitEqual(scratch.outputs[o], expect[o]))
                    << "output " << o << " trial " << t;
            }
        }
    }
}

TEST(CompiledPlanFuzz, ScheduleAgreesWithLevelizer)
{
    // The plan's embedded ADAM schedule and the standalone levelizer
    // must describe identical packed layers — the "cost model agrees
    // with execution by construction" invariant.
    constexpr int kGenomes = 250;
    for (int i = 0; i < kGenomes; ++i) {
        XorWow rng(deriveSeed(kFuzzBase ^ 0xABCD, static_cast<uint64_t>(i)));
        const bool allow_cycles = i % 5 == 4;
        const NeatConfig cfg = fuzzConfig(rng, allow_cycles);
        const Genome g = fuzzGenome(cfg, rng, allow_cycles);
        SCOPED_TRACE("schedule genome " + std::to_string(i));

        const auto plan = CompiledPlan::compile(g, cfg);
        const auto ref = levelize(g, cfg);
        const InferenceSchedule &sched = plan.schedule();
        ASSERT_EQ(sched.layers.size(), ref.layers.size());
        for (size_t l = 0; l < ref.layers.size(); ++l) {
            EXPECT_EQ(sched.layers[l].numNodes, ref.layers[l].numNodes);
            EXPECT_EQ(sched.layers[l].vectorLen,
                      ref.layers[l].vectorLen);
            EXPECT_EQ(sched.layers[l].weights, ref.layers[l].weights);
        }
        EXPECT_EQ(sched.totalMacs(), plan.macsPerInference());
    }
}

TEST(GraphAnalysisFuzz, MatchesReferenceAlgorithm)
{
    // The production analysis (one-pass adjacency + in-degree
    // countdown) against the original two-walk algorithm. Both
    // production paths (interpreter and plan) share the new code, so
    // only this reference diff would catch a layering regression.
    constexpr int kGenomes = 400;
    for (int i = 0; i < kGenomes; ++i) {
        XorWow rng(deriveSeed(kFuzzBase ^ 0x5151, static_cast<uint64_t>(i)));
        const bool allow_cycles = i % 3 == 2;
        const NeatConfig cfg = fuzzConfig(rng, allow_cycles);
        const Genome g = fuzzGenome(cfg, rng, allow_cycles);
        SCOPED_TRACE("analysis genome " + std::to_string(i));

        const GenomeAnalysis a = analyzeGenome(g, cfg);
        EXPECT_EQ(a.required, referenceRequired(g, cfg));
        EXPECT_EQ(a.layers, referenceLayers(g, cfg));
    }
}

// --- targeted plan semantics -------------------------------------------------

namespace
{

/** The hand genome from test_feedforward: 2 inputs, hidden 1, out 0. */
Genome
handGenome()
{
    Genome g(0);
    NodeGene out;
    out.key = 0;
    out.activation = Activation::Identity;
    NodeGene hid = out;
    hid.key = 1;
    g.mutableNodes().emplace(0, out);
    g.mutableNodes().emplace(1, hid);
    auto conn = [&g](int a, int b, double w) {
        ConnectionGene c;
        c.key = {a, b};
        c.weight = w;
        g.mutableConnections().emplace(c.key, c);
    };
    conn(-1, 1, 2.0);
    conn(-2, 1, 3.0);
    conn(1, 0, 0.5);
    conn(-2, 0, -1.0);
    return g;
}

} // namespace

TEST(CompiledPlan, EvaluatesHandGenomeExactly)
{
    NeatConfig cfg;
    cfg.numInputs = 2;
    cfg.numOutputs = 1;
    const auto plan = CompiledPlan::compile(handGenome(), cfg);
    const auto out = plan.activate({1.0, 2.0});
    ASSERT_EQ(out.size(), 1u);
    EXPECT_DOUBLE_EQ(out[0], 0.5 * (2.0 + 6.0) - 2.0);
    EXPECT_EQ(plan.macsPerInference(), 4);
    EXPECT_EQ(plan.numNodes(), 2);
    EXPECT_EQ(plan.numSlots(), 4);
    ASSERT_EQ(plan.layerSpans().size(), 2u);
    EXPECT_EQ(plan.layerSpans()[0].begin, 0);
    EXPECT_EQ(plan.layerSpans()[0].end, 1);
    EXPECT_EQ(plan.layerSpans()[1].begin, 1);
    EXPECT_EQ(plan.layerSpans()[1].end, 2);
}

TEST(CompiledPlan, ScratchIsReusableAcrossPlans)
{
    // One scratch driven through two differently-sized plans must
    // produce the same outputs as fresh scratches: buffers are
    // resized on entry and no stale state leaks between plans.
    NeatConfig small;
    small.numInputs = 2;
    small.numOutputs = 1;
    const auto plan_small = CompiledPlan::compile(handGenome(), small);

    XorWow rng(deriveSeed(kFuzzBase, 77));
    const NeatConfig big = fuzzConfig(rng, false);
    const Genome g = fuzzGenome(big, rng, false);
    const auto plan_big = CompiledPlan::compile(g, big);

    PlanScratch shared;
    std::vector<double> big_in(static_cast<size_t>(big.numInputs), 0.25);
    plan_big.activate(big_in, shared);
    const auto fresh_big = plan_big.activate(big_in);
    plan_small.activate({1.0, 2.0}, shared);
    const auto small_out = shared.outputs;
    plan_big.activate(big_in, shared);

    EXPECT_EQ(small_out, plan_small.activate({1.0, 2.0}));
    EXPECT_EQ(shared.outputs, fresh_big);
}

TEST(CompiledPlan, CompileScratchReuseIsBitIdentical)
{
    // One CompileScratch driven through many differently-shaped
    // genomes must produce plans identical to fresh-scratch compiles:
    // stale buffer contents never leak into a later plan. This is the
    // per-thread reuse pattern the plan cache runs in production.
    constexpr int kGenomes = 200;
    CompileScratch shared;
    for (int i = 0; i < kGenomes; ++i) {
        XorWow rng(deriveSeed(kFuzzBase ^ 0xC0DE, static_cast<uint64_t>(i)));
        const bool allow_cycles = i % 4 == 3;
        const NeatConfig cfg = fuzzConfig(rng, allow_cycles);
        const Genome g = fuzzGenome(cfg, rng, allow_cycles);
        SCOPED_TRACE("scratch genome " + std::to_string(i));

        const auto fresh = CompiledPlan::compile(g, cfg);
        const auto reused = CompiledPlan::compile(g, cfg, shared);

        ASSERT_EQ(reused.numSlots(), fresh.numSlots());
        ASSERT_EQ(reused.numNodes(), fresh.numNodes());
        EXPECT_EQ(reused.macsPerInference(), fresh.macsPerInference());
        ASSERT_EQ(reused.layerSpans().size(), fresh.layerSpans().size());

        PlanScratch sa, sb;
        for (int t = 0; t < 3; ++t) {
            std::vector<double> in(static_cast<size_t>(cfg.numInputs));
            for (auto &x : in)
                x = rng.uniform(-5.0, 5.0);
            fresh.activate(in, sa);
            reused.activate(in, sb);
            ASSERT_EQ(sb.outputs.size(), sa.outputs.size());
            for (size_t o = 0; o < sa.outputs.size(); ++o)
                EXPECT_TRUE(bitEqual(sb.outputs[o], sa.outputs[o]))
                    << "output " << o << " trial " << t;
        }
    }
}

TEST(CompiledPlanBatch, FeedForwardLanesMatchOneLaneWithMasks)
{
    // The batched feed-forward kernel: every lane must match a
    // one-lane activate() and the interpreter oracle on the same
    // inputs bit for bit, with retired lanes masked out and the
    // survivors unperturbed.
    constexpr int kGenomes = 200;
    constexpr int kLanes = 5;
    constexpr int kTicks = 4;
    for (int i = 0; i < kGenomes; ++i) {
        XorWow rng(deriveSeed(kFuzzBase ^ 0xBA7C, static_cast<uint64_t>(i)));
        const bool allow_cycles = i % 4 == 3;
        const NeatConfig cfg = fuzzConfig(rng, allow_cycles);
        const Genome g = fuzzGenome(cfg, rng, allow_cycles);
        SCOPED_TRACE("batch genome " + std::to_string(i));

        const auto plan = CompiledPlan::compile(g, cfg);
        ASSERT_FALSE(plan.isRecurrent());
        const auto net = FeedForwardNetwork::create(g, cfg);

        BatchScratch batch;
        plan.beginBatch(kLanes, batch);
        std::vector<uint8_t> active(kLanes, 1);
        PlanScratch single;
        for (int t = 0; t < kTicks; ++t) {
            // Retire one lane per tick, from the back.
            if (t > 0)
                active[static_cast<size_t>(kLanes - t)] = 0;
            std::vector<std::vector<double>> lane_in(kLanes);
            for (int l = 0; l < kLanes; ++l) {
                lane_in[static_cast<size_t>(l)].resize(
                    static_cast<size_t>(cfg.numInputs));
                for (auto &x : lane_in[static_cast<size_t>(l)])
                    x = rng.uniform(-5.0, 5.0);
                for (int x = 0; x < cfg.numInputs; ++x)
                    batch.inputs[static_cast<size_t>(x) * kLanes +
                                 static_cast<size_t>(l)] =
                        lane_in[static_cast<size_t>(l)]
                               [static_cast<size_t>(x)];
            }
            plan.activateBatch(kLanes, active.data(), batch);
            for (int l = 0; l < kLanes; ++l) {
                if (!active[static_cast<size_t>(l)])
                    continue;
                plan.activate(lane_in[static_cast<size_t>(l)], single);
                const auto oracle =
                    net.activate(lane_in[static_cast<size_t>(l)]);
                ASSERT_EQ(single.outputs.size(), oracle.size());
                for (size_t o = 0; o < single.outputs.size(); ++o) {
                    EXPECT_TRUE(bitEqual(
                        batch.outputs[o * kLanes + static_cast<size_t>(l)],
                        single.outputs[o]))
                        << "lane " << l << " tick " << t << " output "
                        << o;
                    EXPECT_TRUE(bitEqual(single.outputs[o], oracle[o]))
                        << "lane " << l << " tick " << t << " output "
                        << o;
                }
            }
        }
    }
}

TEST(CompiledPlan, WrongInputCountThrows)
{
    NeatConfig cfg;
    cfg.numInputs = 2;
    cfg.numOutputs = 1;
    const auto plan = CompiledPlan::compile(handGenome(), cfg);
    PlanScratch scratch;
    EXPECT_ANY_THROW(plan.activate({1.0}, scratch));
}

TEST(CompiledPlan, UnreachableOutputReadsZero)
{
    NeatConfig cfg;
    cfg.numInputs = 1;
    cfg.numOutputs = 2;
    Genome g(0);
    NodeGene o0;
    o0.key = 0;
    o0.activation = Activation::Identity;
    NodeGene o1 = o0;
    o1.key = 1;
    g.mutableNodes().emplace(0, o0);
    g.mutableNodes().emplace(1, o1);
    ConnectionGene c;
    c.key = {-1, 0};
    c.weight = 1.0;
    g.mutableConnections().emplace(c.key, c);

    const auto plan = CompiledPlan::compile(g, cfg);
    const auto out = plan.activate({3.0});
    EXPECT_DOUBLE_EQ(out[0], 3.0);
    EXPECT_DOUBLE_EQ(out[1], 0.0);
}
