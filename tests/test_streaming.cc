/**
 * @file
 * Tests for the breeding/evaluation pipeline: neat::Reproduction hands
 * each bred genome to exec::EvalEngine through a GenomeSink, and the
 * pool's workers evaluate it while the rest of the generation is
 * still being bred. Streaming must be invisible in the results — a
 * streamed core::System matches the same generations driven through
 * Population::stepBatch + evaluateGeneration without a sink, at any
 * thread count and in every GENESYS_EVAL_MODE — and streamed work
 * must never outlive the genomes it reads.
 */

#include <gtest/gtest.h>

#include <cstdlib>
#include <filesystem>
#include <string>
#include <unistd.h>

#include "core/genesys.hh"
#include "exec/eval_engine.hh"
#include "persist/snapshot.hh"

using namespace genesys;
using namespace genesys::exec;

namespace
{

/** Save/restore GENESYS_EVAL_MODE around a test. */
class EvalModeGuard
{
  public:
    EvalModeGuard()
    {
        const char *v = std::getenv("GENESYS_EVAL_MODE");
        had_ = v != nullptr;
        if (had_)
            old_ = v;
    }

    ~EvalModeGuard()
    {
        if (had_)
            ::setenv("GENESYS_EVAL_MODE", old_.c_str(), 1);
        else
            ::unsetenv("GENESYS_EVAL_MODE");
    }

    void set(const std::string &v)
    {
        ::setenv("GENESYS_EVAL_MODE", v.c_str(), 1);
    }

  private:
    bool had_ = false;
    std::string old_;
};

constexpr int kGenerations = 5;
constexpr uint64_t kSeed = 41;

void
tweak(neat::NeatConfig &ncfg, bool feed_forward)
{
    ncfg.populationSize = 32;
    ncfg.feedForward = feed_forward;
    ncfg.fitnessThreshold = 1e18; // never solve: breed every generation
}

/** The per-generation record both loops produce. */
struct Record
{
    neat::GenerationStats algo;
    long inferenceSteps = 0;
    long maxEpisodeSteps = 0;
    double macs = 0.0;
};

/** Keys, parents and elite flags of every child, trace by trace. */
std::vector<std::tuple<int, int, int, bool>>
flatten(const std::vector<neat::EvolutionTrace> &traces)
{
    std::vector<std::tuple<int, int, int, bool>> out;
    for (const neat::EvolutionTrace &t : traces)
        for (const neat::ChildRecord &c : t.children)
            out.emplace_back(c.childKey, c.parent1Key, c.parent2Key,
                             c.isElite);
    return out;
}

struct Run
{
    std::vector<Record> records;
    std::vector<std::tuple<int, int, int, bool>> children;
    std::vector<int> finalKeys;
};

/** core::System — streamed from generation 1 on. */
Run
runSystem(int threads, bool feed_forward)
{
    core::SystemConfig cfg;
    cfg.envName = "CartPole_v0";
    cfg.maxGenerations = kGenerations;
    cfg.seed = kSeed;
    cfg.numThreads = threads;
    cfg.tweakNeat = [feed_forward](neat::NeatConfig &n) {
        tweak(n, feed_forward);
    };
    core::System sys(cfg);
    Run run;
    for (int g = 0; g < kGenerations; ++g) {
        const int popSize =
            static_cast<int>(sys.population().genomes().size());
        sys.stepGeneration();
        const core::GenerationReport &r = sys.reports().back();
        // Generation 0 has nothing streamed; every later generation
        // was streamed whole while its parents bred it.
        EXPECT_EQ(r.batches.streamedGenomes, g == 0 ? 0 : popSize)
            << "generation " << g;
        run.records.push_back(
            {r.algo, r.inferenceSteps, r.maxEpisodeSteps,
             r.macsPerStep * static_cast<double>(r.inferenceSteps)});
    }
    run.children = flatten(sys.population().traces());
    for (const auto &[k, g] : sys.population().genomes())
        run.finalKeys.push_back(k);
    return run;
}

/** The same generations through stepBatch + evaluateGeneration. */
Run
runSinkless(int threads, bool feed_forward)
{
    const core::SystemConfig defaults;
    core::WorkloadSpec spec = core::workload("CartPole_v0");
    spec.episodes = 1;
    neat::NeatConfig ncfg = core::neatConfigFor(spec);
    tweak(ncfg, feed_forward);

    EvalEngineConfig ecfg;
    ecfg.envName = "CartPole_v0";
    ecfg.numThreads = threads;
    ecfg.episodes = spec.episodes;
    ecfg.waveWidth = defaults.soc.numEvePe;
    // System applies both CI matrix hooks; so must its twin.
    applyEvalModeFromEnv(ecfg);
    applyNumericsFromEnv(ecfg);
    EvalEngine engine(ecfg);
    neat::Population pop(ncfg, kSeed);

    Run run;
    for (int g = 0; g < kGenerations; ++g) {
        Record rec;
        const auto seeds = EvalEngine::sharedEpisodeSeeds(
            deriveSeed(kSeed, static_cast<uint64_t>(pop.generation())));
        pop.stepBatch([&](const std::vector<neat::GenomeHandle> &batch) {
            const auto results =
                engine.evaluateGeneration(batch, ncfg, seeds);
            EXPECT_EQ(engine.lastBatchStats().streamedGenomes, 0);
            std::vector<double> fits;
            for (const GenomeEvalResult &r : results) {
                fits.push_back(r.detail.fitness);
                rec.inferenceSteps += r.detail.inferences;
                rec.macs += static_cast<double>(r.detail.macs);
                rec.maxEpisodeSteps =
                    std::max(rec.maxEpisodeSteps,
                             static_cast<long>(r.detail.maxEpisodeSteps));
            }
            return fits;
        });
        rec.algo = pop.history().back();
        run.records.push_back(rec);
    }
    run.children = flatten(pop.traces());
    for (const auto &[k, g] : pop.genomes())
        run.finalKeys.push_back(k);
    return run;
}

void
expectSameRun(const Run &streamed, const Run &sinkless)
{
    ASSERT_EQ(streamed.records.size(), sinkless.records.size());
    for (size_t i = 0; i < sinkless.records.size(); ++i) {
        SCOPED_TRACE("generation " + std::to_string(i));
        const Record &a = streamed.records[i];
        const Record &b = sinkless.records[i];
        // Bit-identical, not approximately equal.
        EXPECT_EQ(a.algo.bestFitness, b.algo.bestFitness);
        EXPECT_EQ(a.algo.meanFitness, b.algo.meanFitness);
        EXPECT_EQ(a.algo.bestGenomeKey, b.algo.bestGenomeKey);
        EXPECT_EQ(a.algo.totalGenes, b.algo.totalGenes);
        EXPECT_EQ(a.algo.numSpecies, b.algo.numSpecies);
        EXPECT_EQ(a.inferenceSteps, b.inferenceSteps);
        EXPECT_EQ(a.maxEpisodeSteps, b.maxEpisodeSteps);
        EXPECT_EQ(a.macs, b.macs);
    }
    // Same RNG draws: same keys, parents and trace order.
    EXPECT_EQ(streamed.children, sinkless.children);
    EXPECT_EQ(streamed.finalKeys, sinkless.finalKeys);
}

} // namespace

TEST(StreamingTest, SystemMatchesSinklessLoopEveryModeAndThreadCount)
{
    EvalModeGuard guard;
    for (const char *mode : {"serial", "batch", "waves"}) {
        guard.set(mode);
        for (int threads : {1, 2, 8}) {
            SCOPED_TRACE(std::string(mode) + " threads " +
                         std::to_string(threads));
            expectSameRun(runSystem(threads, true),
                          runSinkless(threads, true));
        }
    }
    // Recurrent genomes stream through the same per-genome body.
    guard.set("waves");
    SCOPED_TRACE("recurrent, waves, 8 threads");
    expectSameRun(runSystem(8, false), runSinkless(8, false));
}

TEST(StreamingTest, StreamedKeysAbsentFromTheBatchAreDiscarded)
{
    // An extinction restart replaces the population with fresh keys:
    // whatever was streamed for the old keys must be dropped, and the
    // new batch evaluated from scratch, exactly as by a fresh engine.
    auto env = env::makeEnvironment("CartPole_v0");
    neat::NeatConfig cfg = env::configForEnvironment(*env);
    cfg.populationSize = 12;
    neat::NodeIndexer idx(cfg.numOutputs);
    XorWow rng(19);
    std::vector<neat::Genome> genomes;
    for (int i = 0; i < cfg.populationSize; ++i) {
        genomes.push_back(neat::Genome::createNew(i, cfg, idx, rng));
        for (int m = 0; m < 6; ++m)
            genomes.back().mutate(cfg, idx, rng);
    }
    std::vector<neat::GenomeHandle> oldKeys, newKeys, mixed;
    for (int i = 0; i < cfg.populationSize; ++i) {
        oldKeys.push_back({i, &genomes[static_cast<size_t>(i)]});
        newKeys.push_back({100 + i, &genomes[static_cast<size_t>(i)]});
        // Half streamed (keys shared with oldKeys), half fresh.
        mixed.push_back(i % 2 == 0 ? oldKeys.back() : newKeys.back());
    }
    const auto seeds = EvalEngine::sharedEpisodeSeeds(3);

    for (int threads : {1, 4}) {
        SCOPED_TRACE("threads " + std::to_string(threads));
        EvalEngineConfig ecfg;
        ecfg.envName = "CartPole_v0";
        ecfg.numThreads = threads;
        EvalEngine reference(ecfg);
        EvalEngine engine(ecfg);

        auto stream = [&](const std::vector<neat::GenomeHandle> &hs) {
            const auto sink = engine.streamSink(cfg, seeds);
            sink.begin({});
            for (const neat::GenomeHandle &h : hs)
                sink.genome(h);
        };

        for (const auto *batch : {&newKeys, &mixed}) {
            stream(oldKeys);
            const auto got = engine.evaluateGeneration(*batch, cfg, seeds);
            const auto want =
                reference.evaluateGeneration(*batch, cfg, seeds);
            const int expect_streamed = batch == &mixed ? 6 : 0;
            EXPECT_EQ(engine.lastBatchStats().streamedGenomes,
                      expect_streamed);
            // Plans of the discarded keys were shed with them.
            EXPECT_EQ(engine.planCache().size(), batch->size());
            ASSERT_EQ(got.size(), want.size());
            for (size_t i = 0; i < want.size(); ++i) {
                EXPECT_EQ(got[i].genomeKey, want[i].genomeKey);
                EXPECT_EQ(got[i].detail.fitness, want[i].detail.fitness);
                EXPECT_EQ(got[i].detail.inferences,
                          want[i].detail.inferences);
            }
        }
    }
}

TEST(StreamingTest, ExtinctionRestartIsEvaluatedFresh)
{
    // Flat fitness + no species protection drives the population to
    // complete extinction; resetOnExtinction restarts it with fresh
    // keys. Reproduction streams nothing on extinction, so the
    // restart generation is evaluated whole, and streaming resumes
    // the generation after. Per-genome results equal a sinkless twin.
    auto env = env::makeEnvironment("CartPole_v0");
    neat::NeatConfig cfg = env::configForEnvironment(*env);
    cfg.populationSize = 16;
    cfg.fitnessThreshold = 1e18;
    cfg.maxStagnation = 1;
    cfg.speciesElitism = 0;
    cfg.resetOnExtinction = true;

    // Populations first: the engine, destroyed before them, drains
    // its last stream while the streamed genomes are still alive.
    neat::Population pop(cfg, 5);
    neat::Population twin(cfg, 5);
    EvalEngineConfig ecfg;
    ecfg.envName = "CartPole_v0";
    ecfg.numThreads = 4;
    EvalEngine engine(ecfg);
    EvalEngine twinEngine(ecfg);

    bool restarted = false;
    int streamedAfterRestart = -1;
    for (int g = 0; g < 12 && streamedAfterRestart < 0; ++g) {
        const auto seeds = EvalEngine::sharedEpisodeSeeds(
            static_cast<uint64_t>(pop.generation()));
        std::vector<GenomeEvalResult> got, want;
        pop.stepBatch(
            [&](const std::vector<neat::GenomeHandle> &batch) {
                got = engine.evaluateGeneration(batch, cfg, seeds);
                return std::vector<double>(batch.size(), 1.0);
            },
            engine.streamSink(
                cfg, EvalEngine::sharedEpisodeSeeds(
                         static_cast<uint64_t>(pop.generation() + 1))));
        twin.stepBatch([&](const std::vector<neat::GenomeHandle> &batch) {
            want = twinEngine.evaluateGeneration(batch, cfg, seeds);
            return std::vector<double>(batch.size(), 1.0);
        });
        const int streamed = engine.lastBatchStats().streamedGenomes;
        ASSERT_EQ(got.size(), want.size());
        for (size_t i = 0; i < want.size(); ++i) {
            EXPECT_EQ(got[i].genomeKey, want[i].genomeKey);
            EXPECT_EQ(got[i].detail.fitness, want[i].detail.fitness);
        }
        if (restarted)
            streamedAfterRestart = streamed;
        // A restart leaves a trace that bred no children (a normal
        // reproduction records at least its elites).
        if (pop.traces().back().children.empty())
            restarted = true;
        if (g == 0) {
            EXPECT_EQ(streamed, 0);
        }
    }
    ASSERT_TRUE(restarted) << "flat fitness never caused extinction";
    EXPECT_EQ(streamedAfterRestart, 0)
        << "the restart generation must be evaluated whole";
}

TEST(StreamingTest, DestroyingSystemMidStreamIsSafe)
{
    // stepGeneration returns with the next generation still being
    // evaluated on the pool. Tearing the System down right there must
    // drain that work before the genomes, environments and scratch it
    // reads are freed (the sanitizer jobs run this test).
    for (int threads : {2, 8}) {
        core::SystemConfig cfg;
        cfg.envName = "AirRaid-ram-v0";
        cfg.seed = 3;
        cfg.numThreads = threads;
        cfg.tweakNeat = [](neat::NeatConfig &n) {
            n.populationSize = 24;
            n.fitnessThreshold = 1e18;
        };
        core::System sys(cfg);
        sys.stepGeneration();
        sys.stepGeneration();
    }
}

TEST(StreamingTest, ResumeDropsTheStreamOfTheReplacedPopulation)
{
    // A System that already stepped has a stream in flight for keys
    // that may survive (as elites) into the snapshot's population.
    // Resuming must drop that stream, or those elites would keep
    // results computed with the wrong generation's seeds.
    namespace fs = std::filesystem;
    const fs::path dir = fs::temp_directory_path() /
                         ("genesys-streaming-resume-" +
                          std::to_string(::getpid()));
    fs::remove_all(dir);

    core::SystemConfig cfg;
    cfg.envName = "CartPole_v0";
    cfg.seed = 13;
    cfg.numThreads = 4;
    cfg.tweakNeat = [](neat::NeatConfig &n) {
        n.populationSize = 24;
        n.fitnessThreshold = 1e18;
    };

    core::SystemConfig writer = cfg;
    writer.checkpointDir = dir.string();
    core::System a(writer);
    for (int g = 0; g < 4; ++g)
        a.stepGeneration();

    core::System b(cfg);
    b.stepGeneration(); // leaves generation 1 streaming
    b.resumeFrom((dir / persist::snapshotFileName(2)).string());
    b.stepGeneration();
    b.stepGeneration();

    ASSERT_EQ(b.reports().size(), 3u);
    for (size_t i = 0; i < 2; ++i) {
        const core::GenerationReport &got = b.reports()[i + 1];
        const core::GenerationReport &want = a.reports()[i + 2];
        EXPECT_EQ(got.algo.generation, want.algo.generation);
        EXPECT_EQ(got.algo.bestFitness, want.algo.bestFitness);
        EXPECT_EQ(got.algo.meanFitness, want.algo.meanFitness);
        EXPECT_EQ(got.inferenceSteps, want.inferenceSteps);
    }
    fs::remove_all(dir);
}
