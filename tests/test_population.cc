/**
 * @file
 * Tests for the population loop: the classic NEAT XOR benchmark,
 * per-generation statistics, trace bookkeeping and determinism.
 */

#include <gtest/gtest.h>

#include <cmath>
#include <stdexcept>
#include <string>

#include "neat/population.hh"
#include "nn/compiled_plan.hh"
#include "support/per_genome.hh"

using namespace genesys;
using namespace genesys::neat;

namespace
{

NeatConfig
xorConfig()
{
    NeatConfig cfg;
    cfg.numInputs = 2;
    cfg.numOutputs = 1;
    cfg.populationSize = 150;
    cfg.fitnessThreshold = 3.9; // out of 4.0
    cfg.connAddProb = 0.5;
    cfg.connDeleteProb = 0.2;
    cfg.nodeAddProb = 0.3;
    cfg.nodeDeleteProb = 0.1;
    cfg.bias.initStdev = 1.0;
    return cfg;
}

/** Classic XOR fitness: 4 - sum of squared errors. */
double
xorFitness(const Genome &g, const NeatConfig &cfg)
{
    static const double xs[4][2] = {{0, 0}, {0, 1}, {1, 0}, {1, 1}};
    static const double ys[4] = {0, 1, 1, 0};
    const auto plan = nn::CompiledPlan::compileFor(g, cfg);
    nn::PlanScratch scratch;
    double fitness = 4.0;
    for (int i = 0; i < 4; ++i) {
        plan.activate({xs[i][0], xs[i][1]}, scratch);
        const double e = scratch.outputs[0] - ys[i];
        fitness -= e * e;
    }
    return fitness;
}

/** xorFitness over a whole generation, for Population::stepBatch. */
Population::BatchFitnessFn
xorBatch(const NeatConfig &cfg)
{
    return perGenome([&cfg](const Genome &g) { return xorFitness(g, cfg); });
}

} // namespace

TEST(Population, InitialPopulationSpeciated)
{
    const auto cfg = xorConfig();
    Population pop(cfg, 1);
    EXPECT_EQ(pop.genomes().size(), 150u);
    EXPECT_GE(pop.species().count(), 1u);
    EXPECT_EQ(pop.generation(), 0);
}

TEST(Population, StepRecordsStats)
{
    const auto cfg = xorConfig();
    Population pop(cfg, 2);
    pop.stepBatch(xorBatch(cfg));
    ASSERT_EQ(pop.history().size(), 1u);
    const auto &s = pop.history().front();
    EXPECT_EQ(s.generation, 0);
    EXPECT_GT(s.totalGenes, 0);
    EXPECT_EQ(s.totalGenes, s.totalNodeGenes + s.totalConnectionGenes);
    EXPECT_EQ(s.memoryBytes, s.totalGenes * 8);
    EXPECT_GE(s.bestFitness, s.meanFitness);
    EXPECT_TRUE(pop.hasBest());
}

TEST(Population, SolvesXor)
{
    const auto cfg = xorConfig();
    // XOR is probabilistic; allow a couple of seeds.
    bool solved = false;
    for (uint64_t seed : {11ULL, 17ULL, 23ULL}) {
        Population pop(cfg, seed);
        const auto result = pop.runBatch(xorBatch(cfg), 150);
        if (result.solved) {
            solved = true;
            EXPECT_GE(result.bestFitness, 3.9);
            // The solution must actually compute XOR.
            const auto plan =
                nn::CompiledPlan::compileFor(result.bestGenome, cfg);
            nn::PlanScratch scratch;
            auto out = [&](double a, double b) {
                plan.activate({a, b}, scratch);
                return scratch.outputs[0];
            };
            EXPECT_GT(out(0, 1), 0.5);
            EXPECT_GT(out(1, 0), 0.5);
            EXPECT_LT(out(0, 0), 0.5);
            EXPECT_LT(out(1, 1), 0.5);
            break;
        }
    }
    EXPECT_TRUE(solved);
}

TEST(Population, DeterministicGivenSeed)
{
    const auto cfg = xorConfig();
    Population a(cfg, 99), b(cfg, 99);
    const auto fit = xorBatch(cfg);
    for (int i = 0; i < 5; ++i) {
        a.stepBatch(fit);
        b.stepBatch(fit);
    }
    ASSERT_EQ(a.history().size(), b.history().size());
    for (size_t i = 0; i < a.history().size(); ++i) {
        EXPECT_DOUBLE_EQ(a.history()[i].bestFitness,
                         b.history()[i].bestFitness);
        EXPECT_EQ(a.history()[i].totalGenes, b.history()[i].totalGenes);
        EXPECT_EQ(a.history()[i].evolutionOps,
                  b.history()[i].evolutionOps);
    }
}

TEST(Population, DifferentSeedsDiverge)
{
    const auto cfg = xorConfig();
    Population a(cfg, 1), b(cfg, 2);
    const auto fit = xorBatch(cfg);
    for (int i = 0; i < 3; ++i) {
        a.stepBatch(fit);
        b.stepBatch(fit);
    }
    // Gene totals almost surely differ after mutations.
    EXPECT_NE(a.history().back().totalGenes,
              b.history().back().totalGenes);
}

TEST(Population, TracesMatchGenerations)
{
    const auto cfg = xorConfig();
    Population pop(cfg, 3);
    const auto fit = xorBatch(cfg);
    for (int i = 0; i < 4; ++i)
        pop.stepBatch(fit);
    // 4 steps of an unsolved run -> 4 reproduction events... unless
    // solved early; tolerate both but sizes must be consistent.
    EXPECT_EQ(pop.traces().size(),
              static_cast<size_t>(pop.generation()));
    for (const auto &t : pop.traces())
        EXPECT_GT(t.children.size(), 0u);
}

TEST(Population, TraceWindowBoundsMemory)
{
    const auto cfg = xorConfig();
    Population pop(cfg, 4);
    pop.setTraceWindow(2);
    const auto fit = xorBatch(cfg);
    for (int i = 0; i < 5; ++i)
        pop.stepBatch(fit);
    EXPECT_LE(pop.traces().size(), 2u);
}

TEST(Population, GeneCountGrowsFromMinimalTopology)
{
    const auto cfg = xorConfig();
    Population pop(cfg, 5);
    const auto fit = xorBatch(cfg);
    for (int i = 0; i < 10; ++i)
        pop.stepBatch(fit);
    // Networks start minimal (Section III-B) and complexify
    // (Fig 4(b)).
    const long first = pop.history().front().totalGenes;
    const long last = pop.history().back().totalGenes;
    EXPECT_EQ(first, 150 * (1 + 2)); // 1 output node + 2 connections
    EXPECT_GT(last, first);
}

TEST(Population, AllGenomesEvaluatedEachGeneration)
{
    const auto cfg = xorConfig();
    Population pop(cfg, 6);
    int evals = 0;
    pop.stepBatch(
        perGenome([&](const Genome &) { return static_cast<double>(evals++); }));
    EXPECT_EQ(evals, 150);
}

TEST(Population, RunStopsAtThreshold)
{
    auto cfg = xorConfig();
    cfg.fitnessThreshold = 0.5;
    Population pop(cfg, 7);
    const auto result =
        pop.runBatch(perGenome([](const Genome &) { return 1.0; }), 50);
    EXPECT_TRUE(result.solved);
    EXPECT_EQ(result.generations, 1);
}

TEST(Population, NonFiniteBatchFitnessRejected)
{
    // A NaN would reach reproduction's species ranking (std::sort with
    // a comparator NaN breaks) and an infinity its adjusted-fitness
    // normalization; stepBatch must refuse both before setFitness.
    const auto cfg = xorConfig();
    for (const double bad : {std::nan(""), HUGE_VAL}) {
        Population pop(cfg, 8);
        // The last genome of the batch, so a half-applied batch would
        // show as fitness on the genomes before it.
        const int bad_key = pop.genomes().rbegin()->first;
        const auto fitness = perGenome([&](const Genome &g) {
            return g.key() == bad_key ? bad : 1.0;
        });
        try {
            pop.stepBatch(fitness);
            ADD_FAILURE() << "fitness " << bad << " accepted";
        } catch (const std::logic_error &e) {
            const std::string msg = e.what();
            EXPECT_NE(msg.find("genome " + std::to_string(bad_key)),
                      std::string::npos)
                << msg;
            EXPECT_NE(msg.find(bad > 0 ? "inf" : "nan"), std::string::npos)
                << msg;
        }
        EXPECT_TRUE(pop.history().empty());
        for (const auto &[key, g] : pop.genomes())
            EXPECT_FALSE(g.hasFitness()) << "genome " << key;
    }
}
