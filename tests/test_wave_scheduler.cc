/**
 * @file
 * Differential tests for the cross-genome wave scheduler: the
 * plan-heterogeneous lane kernel (env::evaluateWave) and the engine
 * path built on it must be bit-identical to the serial episode loop —
 * episode for episode, genome for genome, and down to whole-run
 * RunSummary digests — at 1 and 8 threads, for feed-forward and
 * recurrent populations. The suite also locks the scheduler's
 * observability: occupancy counters populated, refill accounting
 * exact, shared-plan lanes grouped into batched dispatches.
 */

#include <gtest/gtest.h>

#include <cstdlib>
#include <memory>

#include "core/genesys.hh"
#include "env/runner.hh"
#include "exec/eval_engine.hh"
#include "nn/compiled_plan.hh"

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

std::vector<env::Environment *>
makeLanes(std::vector<std::unique_ptr<env::Environment>> &owned,
          int width)
{
    std::vector<env::Environment *> lanes;
    for (int l = 0; l < width; ++l) {
        owned.push_back(env::makeEnvironment("CartPole_v0"));
        lanes.push_back(owned.back().get());
    }
    return lanes;
}

void
expectEpisodeIdentical(const env::EpisodeResult &a,
                       const env::EpisodeResult &b)
{
    EXPECT_EQ(a.fitness, b.fitness);
    EXPECT_EQ(a.cumulativeReward, b.cumulativeReward);
    EXPECT_EQ(a.steps, b.steps);
    EXPECT_EQ(a.inferences, b.inferences);
    EXPECT_EQ(a.macs, b.macs);
}

void
expectDetailIdentical(const env::EvalDetail &a, const env::EvalDetail &b)
{
    EXPECT_EQ(a.fitness, b.fitness);
    EXPECT_EQ(a.inferences, b.inferences);
    EXPECT_EQ(a.macs, b.macs);
    EXPECT_EQ(a.maxEpisodeSteps, b.maxEpisodeSteps);
    ASSERT_EQ(a.episodes.size(), b.episodes.size());
    for (size_t e = 0; e < a.episodes.size(); ++e)
        expectEpisodeIdentical(a.episodes[e], b.episodes[e]);
}

} // namespace

// --- kernel level: evaluateWave vs one-episode-at-a-time ---------------------

TEST(WaveSchedulerTest, HeterogeneousWaveMatchesSerialAcrossWidths)
{
    for (const bool feed_forward : {true, false}) {
        const auto [cfg, genomes] = makeGenomes(13, 61, feed_forward);

        // One episode of each genome, every genome a different plan —
        // the plan-heterogeneous packing the scheduler exists for.
        std::vector<nn::CompiledPlan> plans;
        plans.reserve(genomes.size());
        for (const auto &g : genomes)
            plans.push_back(nn::CompiledPlan::compileFor(g, cfg));

        std::vector<env::WaveItem> items;
        std::vector<env::EpisodeResult> expect;
        auto serial_env = env::makeEnvironment("CartPole_v0");
        for (size_t i = 0; i < plans.size(); ++i) {
            const uint64_t seed = 1000 + 17 * i;
            items.push_back({&plans[i], seed});
            env::EpisodeRunner runner(*serial_env);
            nn::PlanScratch scratch;
            expect.push_back(
                runner.runEpisode(plans[i], scratch, seed));
        }

        for (int width : {1, 2, 5, 8, 16}) {
            SCOPED_TRACE(std::string(feed_forward ? "ff" : "rec") +
                         " width " + std::to_string(width));
            std::vector<std::unique_ptr<env::Environment>> owned;
            const auto lanes = makeLanes(owned, width);
            env::WaveScratch scratch;
            const auto wave =
                env::evaluateWave(items, lanes, scratch);

            ASSERT_EQ(wave.episodes.size(), expect.size());
            for (size_t i = 0; i < expect.size(); ++i) {
                SCOPED_TRACE("item " + std::to_string(i));
                expectEpisodeIdentical(wave.episodes[i], expect[i]);
            }

            // Refill accounting: every episode beyond the initial
            // lane fill entered through a refill.
            const long fill = std::min<long>(
                width, static_cast<long>(items.size()));
            EXPECT_EQ(wave.stats.refills,
                      static_cast<long>(items.size()) - fill);
            EXPECT_GT(wave.stats.supersteps, 0);
            EXPECT_EQ(wave.stats.laneSlotSteps,
                      wave.stats.supersteps * width);
            EXPECT_GE(wave.stats.laneSlotSteps,
                      wave.stats.activeLaneSteps);
            // Useful lane-steps are exactly the forward passes.
            long inferences = 0;
            for (const auto &r : wave.episodes)
                inferences += r.inferences;
            EXPECT_EQ(wave.stats.activeLaneSteps, inferences);
            EXPECT_GT(wave.stats.occupancy(), 0.0);
            EXPECT_LE(wave.stats.occupancy(), 1.0);
        }
    }
}

TEST(WaveSchedulerTest, SharedPlanLanesGroupIntoBatchedDispatch)
{
    // Several episodes of the same plans, adjacent in the item queue:
    // same-plan lanes must execute through the grouped activateBatch
    // dispatch (observable in the stats) and stay bit-identical to
    // the serial loop.
    const auto [cfg, genomes] = makeGenomes(4, 67);
    std::vector<nn::CompiledPlan> plans;
    plans.reserve(genomes.size());
    for (const auto &g : genomes)
        plans.push_back(nn::CompiledPlan::compileFor(g, cfg));

    std::vector<env::WaveItem> items;
    std::vector<std::vector<uint64_t>> seeds(plans.size());
    for (size_t i = 0; i < plans.size(); ++i) {
        for (int e = 0; e < 4; ++e) {
            const uint64_t seed = 31 * (i + 1) + 7 * e;
            items.push_back({&plans[i], seed});
            seeds[i].push_back(seed);
        }
    }

    std::vector<std::unique_ptr<env::Environment>> owned;
    const auto lanes = makeLanes(owned, 8);
    env::WaveScratch scratch;
    const auto wave = env::evaluateWave(items, lanes, scratch);

    // The initial fill packs 2 plans x 4 episodes onto the 8 lanes,
    // so grouped dispatch must have fired.
    EXPECT_GT(wave.stats.groupedLaneActivations, 0);

    size_t k = 0;
    for (size_t i = 0; i < plans.size(); ++i) {
        auto serial_env = env::makeEnvironment("CartPole_v0");
        env::EpisodeRunner runner(*serial_env);
        const auto serial = runner.evaluateDetailed(plans[i], seeds[i]);
        for (size_t e = 0; e < seeds[i].size(); ++e, ++k) {
            SCOPED_TRACE("plan " + std::to_string(i) + " episode " +
                         std::to_string(e));
            expectEpisodeIdentical(wave.episodes[k],
                                   serial.episodes[e]);
        }
    }
}

TEST(WaveSchedulerTest, EmptyAndUndersubscribedWaves)
{
    const auto [cfg, genomes] = makeGenomes(2, 71);
    const auto plan = nn::CompiledPlan::compileFor(genomes[0], cfg);

    std::vector<std::unique_ptr<env::Environment>> owned;
    const auto lanes = makeLanes(owned, 8);
    env::WaveScratch scratch;

    // No items: nothing runs, nothing counted.
    const auto empty = env::evaluateWave({}, lanes, scratch);
    EXPECT_TRUE(empty.episodes.empty());
    EXPECT_EQ(empty.stats.supersteps, 0);

    // Fewer items than lanes: spare lanes idle but are accounted as
    // unoccupied slots, and results still match the serial episode.
    std::vector<env::WaveItem> items{{&plan, 5}};
    const auto wave = env::evaluateWave(items, lanes, scratch);
    ASSERT_EQ(wave.episodes.size(), 1u);
    auto serial_env = env::makeEnvironment("CartPole_v0");
    env::EpisodeRunner runner(*serial_env);
    nn::PlanScratch pscratch;
    expectEpisodeIdentical(wave.episodes[0],
                           runner.runEpisode(plan, pscratch, 5));
    EXPECT_EQ(wave.stats.refills, 0);
    EXPECT_EQ(wave.stats.laneSlotSteps, wave.stats.supersteps * 8);
    EXPECT_EQ(wave.stats.activeLaneSteps, wave.stats.supersteps);
}

// --- engine level: heterogeneous waves vs serial episode loop ----------------

namespace
{

std::vector<GenomeEvalResult>
evaluateEngine(const neat::NeatConfig &cfg,
               const std::vector<neat::Genome> &genomes, int threads,
               bool heterogeneous, int waveLanes = 0)
{
    EvalEngineConfig ecfg;
    ecfg.envName = "CartPole_v0";
    ecfg.numThreads = threads;
    ecfg.episodes = 1;
    ecfg.batchEpisodes = heterogeneous;
    ecfg.heterogeneousLanes = heterogeneous;
    ecfg.waveLanes = waveLanes;
    EvalEngine engine(ecfg);
    return engine.evaluateGeneration(handlesOf(genomes), cfg,
                                     EvalEngine::perGenomeSeeds(83));
}

} // namespace

TEST(WaveSchedulerTest, EngineWavePathMatchesSerialAcrossThreads)
{
    for (const bool feed_forward : {true, false}) {
        const auto [cfg, genomes] = makeGenomes(26, 73, feed_forward);
        const auto reference =
            evaluateEngine(cfg, genomes, 1, /*heterogeneous=*/false);

        for (int threads : {1, 8}) {
            for (int lanes : {0, 3, 16}) {
                SCOPED_TRACE(std::string(feed_forward ? "ff" : "rec") +
                             " threads " + std::to_string(threads) +
                             " waveLanes " + std::to_string(lanes));
                const auto waved = evaluateEngine(
                    cfg, genomes, threads, /*heterogeneous=*/true,
                    lanes);
                ASSERT_EQ(waved.size(), reference.size());
                for (size_t i = 0; i < reference.size(); ++i) {
                    EXPECT_EQ(waved[i].genomeKey,
                              reference[i].genomeKey);
                    expectDetailIdentical(waved[i].detail,
                                          reference[i].detail);
                }
            }
        }
    }
}

TEST(WaveSchedulerTest, OccupancyCountersObservableAndHigh)
{
    // A batch large enough to keep every refill queue full: measured
    // lane occupancy must be high (the whole point of the scheduler)
    // and the counters must be populated.
    const auto [cfg, genomes] = makeGenomes(96, 79);

    EvalEngineConfig ecfg;
    ecfg.envName = "CartPole_v0";
    ecfg.numThreads = 2;
    ecfg.episodes = 1;
    ecfg.waveLanes = 8;
    EvalEngine engine(ecfg);
    ASSERT_TRUE(engine.usesHeterogeneousWaves());
    EXPECT_EQ(engine.config().waveLanes, 8);

    engine.evaluateGeneration(handlesOf(genomes), cfg,
                              EvalEngine::sharedEpisodeSeeds(3));
    const BatchStats &stats = engine.lastBatchStats();
    EXPECT_EQ(stats.laneCount, 8);
    EXPECT_GT(stats.waveSupersteps, 0);
    EXPECT_GT(stats.waveRefills, 0);
    EXPECT_EQ(stats.waveLaneSlotSteps,
              stats.waveSupersteps * 8);
    EXPECT_GT(stats.laneOccupancy(), 0.75);
    EXPECT_LE(stats.laneOccupancy(), 1.0);

    // The serial and per-genome-batched paths leave the wave
    // counters untouched.
    EvalEngineConfig scfg = ecfg;
    scfg.heterogeneousLanes = false;
    EvalEngine serial_engine(scfg);
    EXPECT_FALSE(serial_engine.usesHeterogeneousWaves());
    serial_engine.evaluateGeneration(handlesOf(genomes), cfg,
                                     EvalEngine::sharedEpisodeSeeds(3));
    EXPECT_EQ(serial_engine.lastBatchStats().waveLaneSlotSteps, 0);
    EXPECT_EQ(serial_engine.lastBatchStats().laneOccupancy(), 0.0);
}

TEST(WaveSchedulerTest, WaveShardSizingAndFallback)
{
    // episodes > 1 falls back to per-genome batching: wave shards
    // resolve to a single lane and the episode-lane resolution is
    // unchanged.
    EvalEngineConfig ecfg;
    ecfg.envName = "CartPole_v0";
    ecfg.numThreads = 1;
    ecfg.episodes = 3;
    ecfg.heterogeneousLanes = true;
    ecfg.waveLanes = 16;
    EvalEngine engine(ecfg);
    EXPECT_FALSE(engine.usesHeterogeneousWaves());
    EXPECT_EQ(engine.config().waveLanes, 1);
    EXPECT_EQ(engine.config().episodeLanes, 3);

    // episodes == 1 activates waves; the default lane width is 8.
    EvalEngineConfig wcfg = ecfg;
    wcfg.episodes = 1;
    wcfg.waveLanes = 0;
    EvalEngine wave_engine(wcfg);
    EXPECT_TRUE(wave_engine.usesHeterogeneousWaves());
    EXPECT_EQ(wave_engine.config().waveLanes, 8);
}

TEST(WaveSchedulerTest, EvalModeFromEnv)
{
    const auto flags = [](const char *mode) {
        setenv("GENESYS_EVAL_MODE", mode, 1);
        EvalEngineConfig cfg;
        cfg.batchEpisodes = false;
        cfg.heterogeneousLanes = false;
        applyEvalModeFromEnv(cfg);
        unsetenv("GENESYS_EVAL_MODE");
        return std::make_pair(cfg.batchEpisodes,
                              cfg.heterogeneousLanes);
    };
    EXPECT_EQ(flags("serial"), std::make_pair(false, false));
    EXPECT_EQ(flags("batch"), std::make_pair(true, false));
    EXPECT_EQ(flags("waves"), std::make_pair(true, true));

    // Unset leaves the config untouched.
    unsetenv("GENESYS_EVAL_MODE");
    EvalEngineConfig cfg;
    cfg.batchEpisodes = false;
    cfg.heterogeneousLanes = true;
    applyEvalModeFromEnv(cfg);
    EXPECT_FALSE(cfg.batchEpisodes);
    EXPECT_TRUE(cfg.heterogeneousLanes);

    // Unknown modes are a configuration error, not a silent default.
    setenv("GENESYS_EVAL_MODE", "bogus", 1);
    EXPECT_THROW(applyEvalModeFromEnv(cfg), std::runtime_error);
    unsetenv("GENESYS_EVAL_MODE");
}

// --- system level: whole-run RunSummary digests ------------------------------

namespace
{

std::pair<core::RunSummary, std::vector<core::GenerationReport>>
runSystem(int threads, bool heterogeneous, bool feed_forward)
{
    core::SystemConfig cfg;
    cfg.envName = "CartPole_v0";
    cfg.maxGenerations = 4;
    cfg.episodesPerEval = 1; // the wave scheduler's home turf
    cfg.seed = 29;
    cfg.numThreads = threads;
    cfg.batchEpisodes = heterogeneous;
    cfg.heterogeneousLanes = heterogeneous;
    if (!feed_forward)
        cfg.tweakNeat = [](neat::NeatConfig &ncfg) {
            ncfg.feedForward = false;
        };
    core::System sys(cfg);
    auto summary = sys.run();
    return {summary, sys.reports()};
}

} // namespace

TEST(WaveSchedulerTest, SystemDigestsIdenticalWavesVsSerial)
{
    // This differential pins the mode comparison itself, so the CI
    // mode matrix must not collapse both sides onto one path.
    unsetenv("GENESYS_EVAL_MODE");

    for (const bool feed_forward : {true, false}) {
        const auto [s_ref, r_ref] =
            runSystem(1, /*heterogeneous=*/false, feed_forward);

        for (int threads : {1, 8}) {
            SCOPED_TRACE(std::string(feed_forward ? "ff" : "rec") +
                         " threads " + std::to_string(threads));
            const auto [s, r] =
                runSystem(threads, /*heterogeneous=*/true,
                          feed_forward);
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
                EXPECT_EQ(r[i].hw.adam.cycles,
                          r_ref[i].hw.adam.cycles);
                // Generation 0 is evaluated as a whole batch, so the
                // wave path's occupancy counters surface in its
                // report. Later generations were streamed into the
                // engine while being bred and took the per-genome
                // path. The serial path never has wave counters.
                if (i == 0) {
                    EXPECT_TRUE(r[i].waveStatsValid);
                    EXPECT_GT(r[i].batches.waveLaneSlotSteps, 0);
                } else {
                    EXPECT_FALSE(r[i].waveStatsValid);
                    EXPECT_GT(r[i].batches.streamedGenomes, 0);
                }
                EXPECT_EQ(r_ref[i].batches.waveLaneSlotSteps, 0);
            }
        }
    }
}
