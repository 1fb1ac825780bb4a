/**
 * @file
 * Bit-identity tests for per-genome episode batching: the BSP
 * lockstep wave loop (env::evaluateBatched) against the serial
 * episode loop, at the kernel, engine and whole-System levels, for
 * feed-forward and recurrent genomes, across batch widths and thread
 * counts. "Identical" always means bit-identical — the batched path
 * is a pure throughput lever and must never perturb a result.
 */

#include <gtest/gtest.h>

#include <memory>

#include "core/genesys.hh"
#include "env/runner.hh"
#include "exec/eval_engine.hh"
#include "nn/compiled_plan.hh"
#include "support/oracle_episode.hh"

using namespace genesys;
using namespace genesys::exec;

namespace
{

/** Mutation-grown genomes on the CartPole config. */
std::pair<neat::NeatConfig, std::vector<neat::Genome>>
makeGenomes(int count, uint64_t seed, bool feed_forward = true)
{
    auto env = env::makeEnvironment("CartPole_v0");
    neat::NeatConfig cfg = env::configForEnvironment(*env);
    cfg.populationSize = count;
    cfg.feedForward = feed_forward;
    // Non-trivial policies: perturb weights away from the paper's
    // all-zero init so episodes take varied lengths.
    cfg.weight.initStdev = 1.0;
    neat::NodeIndexer idx(cfg.numOutputs);
    XorWow rng(seed);
    std::vector<neat::Genome> genomes;
    genomes.reserve(static_cast<size_t>(count));
    for (int i = 0; i < count; ++i) {
        auto g = neat::Genome::createNew(i, cfg, idx, rng);
        for (int m = 0; m < 10; ++m)
            g.mutate(cfg, idx, rng);
        genomes.push_back(std::move(g));
    }
    return {cfg, std::move(genomes)};
}

std::vector<neat::GenomeHandle>
handlesOf(const std::vector<neat::Genome> &genomes)
{
    std::vector<neat::GenomeHandle> hs;
    hs.reserve(genomes.size());
    for (size_t i = 0; i < genomes.size(); ++i)
        hs.push_back({static_cast<int>(i), &genomes[i]});
    return hs;
}

void
expectDetailIdentical(const env::EvalDetail &a, const env::EvalDetail &b)
{
    EXPECT_EQ(a.fitness, b.fitness);
    EXPECT_EQ(a.inferences, b.inferences);
    EXPECT_EQ(a.macs, b.macs);
    EXPECT_EQ(a.maxEpisodeSteps, b.maxEpisodeSteps);
    ASSERT_EQ(a.episodes.size(), b.episodes.size());
    for (size_t e = 0; e < a.episodes.size(); ++e) {
        EXPECT_EQ(a.episodes[e].fitness, b.episodes[e].fitness);
        EXPECT_EQ(a.episodes[e].cumulativeReward,
                  b.episodes[e].cumulativeReward);
        EXPECT_EQ(a.episodes[e].steps, b.episodes[e].steps);
        EXPECT_EQ(a.episodes[e].inferences, b.episodes[e].inferences);
        EXPECT_EQ(a.episodes[e].macs, b.episodes[e].macs);
    }
}

} // namespace

// --- kernel level: evaluateBatched vs the serial episode loop ----------------

TEST(EpisodeBatchTest, BatchedMatchesSerialAcrossWidths)
{
    const auto [cfg, genomes] = makeGenomes(12, 41);
    const std::vector<uint64_t> seeds{11, 22, 33, 44, 55, 66, 77, 88,
                                      99, 110};

    for (const neat::Genome &g : genomes) {
        const auto plan = nn::CompiledPlan::compileFor(g, cfg);

        auto serial_env = env::makeEnvironment("CartPole_v0");
        env::EpisodeRunner runner(*serial_env);
        const auto serial = runner.evaluateDetailed(plan, seeds);

        for (int width : {1, 2, 5, 8}) {
            SCOPED_TRACE("genome " + std::to_string(g.key()) +
                         " width " + std::to_string(width));
            std::vector<std::unique_ptr<env::Environment>> owned;
            std::vector<env::Environment *> lanes;
            for (int l = 0; l < width; ++l) {
                owned.push_back(env::makeEnvironment("CartPole_v0"));
                lanes.push_back(owned.back().get());
            }
            env::EpisodeBatchScratch scratch;
            const auto batched =
                env::evaluateBatched(plan, seeds, lanes, scratch);
            expectDetailIdentical(batched, serial);
        }
    }
}

TEST(EpisodeBatchTest, RecurrentBatchedMatchesSerialAndInterpreter)
{
    // Recurrent genomes through the full dispatch: the genome-level
    // interpreter reference (RecurrentNetwork), the serial compiled
    // path and the batched compiled path must agree bit for bit.
    const auto [cfg, genomes] = makeGenomes(10, 43, /*feed_forward=*/false);
    const std::vector<uint64_t> seeds{5, 6, 7, 8, 9};

    for (const neat::Genome &g : genomes) {
        SCOPED_TRACE("recurrent genome " + std::to_string(g.key()));
        const auto plan = nn::CompiledPlan::compileFor(g, cfg);
        ASSERT_TRUE(plan.isRecurrent());

        auto env1 = env::makeEnvironment("CartPole_v0");
        const auto interp = env::evaluateOracle(*env1, g, cfg, seeds);

        auto env2 = env::makeEnvironment("CartPole_v0");
        env::EpisodeRunner plan_runner(*env2);
        const auto serial = plan_runner.evaluateDetailed(plan, seeds);
        expectDetailIdentical(serial, interp);

        for (int width : {1, 2, 5}) {
            SCOPED_TRACE("width " + std::to_string(width));
            std::vector<std::unique_ptr<env::Environment>> owned;
            std::vector<env::Environment *> lanes;
            for (int l = 0; l < width; ++l) {
                owned.push_back(env::makeEnvironment("CartPole_v0"));
                lanes.push_back(owned.back().get());
            }
            env::EpisodeBatchScratch scratch;
            const auto batched =
                env::evaluateBatched(plan, seeds, lanes, scratch);
            expectDetailIdentical(batched, serial);
        }
    }
}

// --- engine level: batched vs serial episode loops ---------------------------

namespace
{

std::vector<GenomeEvalResult>
evaluateEngine(const neat::NeatConfig &cfg,
               const std::vector<neat::Genome> &genomes, int threads,
               bool batch, int lanes = 0)
{
    EvalEngineConfig ecfg;
    ecfg.envName = "CartPole_v0";
    ecfg.numThreads = threads;
    ecfg.episodes = 5;
    ecfg.batchEpisodes = batch;
    ecfg.episodeLanes = lanes;
    EvalEngine engine(ecfg);
    return engine.evaluateGeneration(handlesOf(genomes), cfg,
                                     EvalEngine::perGenomeSeeds(77));
}

} // namespace

TEST(EpisodeBatchTest, EngineBatchedMatchesSerialAcrossThreads)
{
    for (const bool feed_forward : {true, false}) {
        const auto [cfg, genomes] = makeGenomes(16, 47, feed_forward);
        const auto reference =
            evaluateEngine(cfg, genomes, 1, /*batch=*/false);

        for (int threads : {1, 8}) {
            for (int lanes : {0, 1, 2}) {
                SCOPED_TRACE(std::string(feed_forward ? "ff" : "rec") +
                             " threads " + std::to_string(threads) +
                             " lanes " + std::to_string(lanes));
                const auto batched = evaluateEngine(
                    cfg, genomes, threads, /*batch=*/true, lanes);
                ASSERT_EQ(batched.size(), reference.size());
                for (size_t i = 0; i < reference.size(); ++i) {
                    EXPECT_EQ(batched[i].genomeKey,
                              reference[i].genomeKey);
                    expectDetailIdentical(batched[i].detail,
                                          reference[i].detail);
                }
            }
        }
    }
}

// --- system level: whole-run RunSummary digests ------------------------------

namespace
{

std::pair<core::RunSummary, std::vector<core::GenerationReport>>
runSystem(int threads, bool batchEpisodes, bool feed_forward)
{
    core::SystemConfig cfg;
    cfg.envName = "CartPole_v0";
    cfg.maxGenerations = 4;
    cfg.episodesPerEval = 3;
    cfg.seed = 23;
    cfg.numThreads = threads;
    cfg.batchEpisodes = batchEpisodes;
    if (!feed_forward)
        cfg.tweakNeat = [](neat::NeatConfig &ncfg) {
            ncfg.feedForward = false;
        };
    core::System sys(cfg);
    auto summary = sys.run();
    return {summary, sys.reports()};
}

} // namespace

TEST(EpisodeBatchTest, SystemDigestsIdenticalBatchedVsSerial)
{
    for (const bool feed_forward : {true, false}) {
        const auto [s_ref, r_ref] =
            runSystem(1, /*batchEpisodes=*/false, feed_forward);

        for (int threads : {1, 8}) {
            SCOPED_TRACE(std::string(feed_forward ? "ff" : "rec") +
                         " threads " + std::to_string(threads));
            const auto [s, r] =
                runSystem(threads, /*batchEpisodes=*/true, feed_forward);
            EXPECT_EQ(s.solved, s_ref.solved);
            EXPECT_EQ(s.generations, s_ref.generations);
            EXPECT_EQ(s.bestFitness, s_ref.bestFitness);
            EXPECT_EQ(s.totalEvolutionEnergyJ,
                      s_ref.totalEvolutionEnergyJ);
            EXPECT_EQ(s.totalInferenceEnergyJ,
                      s_ref.totalInferenceEnergyJ);
            EXPECT_EQ(s.totalEvolutionSeconds,
                      s_ref.totalEvolutionSeconds);
            EXPECT_EQ(s.totalInferenceSeconds,
                      s_ref.totalInferenceSeconds);
            ASSERT_EQ(r.size(), r_ref.size());
            for (size_t i = 0; i < r_ref.size(); ++i) {
                EXPECT_EQ(r[i].algo.bestFitness,
                          r_ref[i].algo.bestFitness);
                EXPECT_EQ(r[i].algo.meanFitness,
                          r_ref[i].algo.meanFitness);
                EXPECT_EQ(r[i].inferenceSteps, r_ref[i].inferenceSteps);
                EXPECT_EQ(r[i].maxEpisodeSteps,
                          r_ref[i].maxEpisodeSteps);
                EXPECT_EQ(r[i].macsPerStep, r_ref[i].macsPerStep);
                EXPECT_EQ(r[i].hw.eve.cycles, r_ref[i].hw.eve.cycles);
                EXPECT_EQ(r[i].hw.adam.cycles, r_ref[i].hw.adam.cycles);
            }
        }
    }
}

TEST(EpisodeBatchTest, EnginePoolShardsSizedToEpisodeLanes)
{
    EvalEngineConfig ecfg;
    ecfg.envName = "CartPole_v0";
    ecfg.numThreads = 2;
    ecfg.episodes = 5;
    ecfg.batchEpisodes = true;
    ecfg.episodeLanes = 8; // clamped to episodes
    EvalEngine engine(ecfg);
    EXPECT_EQ(engine.config().episodeLanes, 5);

    EvalEngineConfig serial = ecfg;
    serial.batchEpisodes = false;
    EvalEngine serial_engine(serial);
    EXPECT_EQ(serial_engine.config().episodeLanes, 1);
}
