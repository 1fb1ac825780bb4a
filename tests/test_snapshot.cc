/**
 * @file
 * Tests for the persist:: snapshot subsystem: lossless genome codec,
 * population capture/restore, System-level checkpoint/resume
 * bit-identity, corruption handling (distinct errors, no partial
 * state mutation), provenance validation and the env hooks.
 */

#include <gtest/gtest.h>

#include <bit>
#include <cstdlib>
#include <filesystem>
#include <fstream>

#include "core/genesys.hh"
#include "hw/gene_encoding.hh"
#include "obs/metrics.hh"
#include "persist/snapshot.hh"
#include "support/per_genome.hh"

using namespace genesys;
namespace fs = std::filesystem;

namespace
{

/** Fresh scratch directory under the system temp dir. */
fs::path
scratchDir(const std::string &name)
{
    const fs::path dir = fs::temp_directory_path() / ("genesys-test-" + name);
    fs::remove_all(dir);
    fs::create_directories(dir);
    return dir;
}

/** A genome with a few mutation rounds of structure on it. */
neat::Genome
makeMutatedGenome(uint64_t seed)
{
    neat::NeatConfig cfg;
    cfg.numInputs = 4;
    cfg.numOutputs = 2;
    neat::NodeIndexer idx(cfg.numOutputs);
    XorWow rng(seed);
    neat::Genome g = neat::Genome::createNew(9, cfg, idx, rng);
    for (int i = 0; i < 12; ++i)
        g.mutate(cfg, idx, rng);
    g.setFitness(0.1 + 0.2); // deliberately not exactly representable
    return g;
}

/** Base config for the System-level round-trip tests. */
core::SystemConfig
smallSystemConfig()
{
    core::SystemConfig cfg;
    cfg.envName = "CartPole_v0";
    cfg.maxGenerations = 5;
    cfg.episodesPerEval = 1;
    cfg.seed = 424242;
    cfg.numThreads = 2;
    cfg.tweakNeat = [](neat::NeatConfig &ncfg) {
        ncfg.populationSize = 24;
        // Unreachable threshold: these tests need all 5 generations
        // to actually run, solved runs stop checkpointing.
        ncfg.fitnessThreshold = 1e18;
    };
    return cfg;
}

/** Digest the observable per-generation state of a report list. */
uint64_t
digestReports(const std::vector<core::GenerationReport> &reports)
{
    uint64_t h = 0xcbf29ce484222325ull;
    auto fold = [&h](uint64_t v) {
        for (int b = 0; b < 8; ++b) {
            h ^= (v >> (8 * b)) & 0xffu;
            h *= 0x100000001b3ull;
        }
    };
    for (const core::GenerationReport &r : reports) {
        fold(static_cast<uint64_t>(r.algo.generation));
        fold(std::bit_cast<uint64_t>(r.algo.bestFitness));
        fold(std::bit_cast<uint64_t>(r.algo.meanFitness));
        fold(static_cast<uint64_t>(r.algo.totalGenes));
        fold(static_cast<uint64_t>(r.algo.evolutionOps));
        fold(static_cast<uint64_t>(r.algo.numSpecies));
        fold(static_cast<uint64_t>(r.inferenceSteps));
        fold(std::bit_cast<uint64_t>(r.macsPerStep));
        fold(static_cast<uint64_t>(r.hw.eve.cycles));
        fold(static_cast<uint64_t>(r.hw.adam.cycles));
    }
    return h;
}

/** Genome equality down to the last attribute bit. */
void
expectGenomesBitIdentical(const neat::Genome &a, const neat::Genome &b)
{
    EXPECT_EQ(a.key(), b.key());
    EXPECT_EQ(a.nodeDeletions(), b.nodeDeletions());
    ASSERT_EQ(a.hasFitness(), b.hasFitness());
    if (a.hasFitness()) {
        EXPECT_EQ(std::bit_cast<uint64_t>(a.fitness()),
                  std::bit_cast<uint64_t>(b.fitness()));
    }
    ASSERT_EQ(a.numNodeGenes(), b.numNodeGenes());
    for (const auto &[nk, ng] : a.nodes()) {
        ASSERT_TRUE(b.nodes().contains(nk));
        const neat::NodeGene &bg = b.nodes().at(nk);
        EXPECT_EQ(std::bit_cast<uint64_t>(ng.bias),
                  std::bit_cast<uint64_t>(bg.bias));
        EXPECT_EQ(std::bit_cast<uint64_t>(ng.response),
                  std::bit_cast<uint64_t>(bg.response));
        EXPECT_EQ(ng.activation, bg.activation);
        EXPECT_EQ(ng.aggregation, bg.aggregation);
    }
    ASSERT_EQ(a.numConnectionGenes(), b.numConnectionGenes());
    for (const auto &[ck, cg] : a.connections()) {
        ASSERT_TRUE(b.connections().contains(ck));
        const neat::ConnectionGene &bg = b.connections().at(ck);
        EXPECT_EQ(std::bit_cast<uint64_t>(cg.weight),
                  std::bit_cast<uint64_t>(bg.weight));
        EXPECT_EQ(cg.enabled, bg.enabled);
    }
}

} // namespace

// --- lossless genome codec --------------------------------------------------

TEST(LosslessGenomeCodec, RoundTripIsBitExact)
{
    const neat::Genome g = makeMutatedGenome(7);
    const auto bytes = persist::encodeGenomeLossless(g);
    const neat::Genome back = persist::decodeGenomeLossless(bytes);
    expectGenomesBitIdentical(g, back);
}

TEST(LosslessGenomeCodec, BitExactWhereHwCodecIsNot)
{
    // The contrast the ROADMAP correction is about: the Q6.10 hw
    // codec quantizes attributes (resolution 2^-10), the persist
    // codec stores the raw IEEE-754 bits. 0.3 is representable in
    // neither Q6.10 nor any finite binary expansion — only the
    // bit-copy survives.
    neat::ConnectionGene cg;
    cg.key = {0, 1};
    cg.weight = 0.3;

    hw::GeneCodec hw_codec;
    const auto hw_back =
        hw_codec.decodeConnection(hw_codec.encodeConnection(cg));
    EXPECT_NE(hw_back.weight, 0.3);

    neat::Genome g(1);
    neat::NodeGene ng;
    ng.key = 0;
    ng.bias = 0.3;
    g.mutableNodes().emplace(0, ng);
    g.mutableConnections().emplace(cg.key, cg);
    const neat::Genome back =
        persist::decodeGenomeLossless(persist::encodeGenomeLossless(g));
    EXPECT_EQ(std::bit_cast<uint64_t>(back.connections().at(cg.key).weight),
              std::bit_cast<uint64_t>(0.3));
    EXPECT_EQ(std::bit_cast<uint64_t>(back.nodes().at(0).bias),
              std::bit_cast<uint64_t>(0.3));
}

TEST(LosslessGenomeCodec, RejectsTrailingGarbage)
{
    auto bytes = persist::encodeGenomeLossless(makeMutatedGenome(11));
    bytes.push_back(0xab);
    EXPECT_THROW((void)persist::decodeGenomeLossless(bytes),
                 persist::SnapshotError);
}

TEST(LosslessGenomeCodec, RejectsInvalidActivationId)
{
    // Corrupt the first node's activation id to the enum sentinel.
    // Layout: key 4 + deletions 4 + hasFitness 1 + fitness 8 +
    // node count 8 + node key 4 + bias 8 + response 8 = offset 45.
    auto bytes = persist::encodeGenomeLossless(makeMutatedGenome(13));
    bytes[45] = 0xee;
    EXPECT_THROW((void)persist::decodeGenomeLossless(bytes),
                 persist::SnapshotError);
}

// --- population capture / restore -------------------------------------------

TEST(PopulationSnapshot, RestoredPopulationEvolvesBitIdentically)
{
    neat::NeatConfig cfg;
    cfg.numInputs = 3;
    cfg.numOutputs = 1;
    cfg.populationSize = 20;
    cfg.fitnessThreshold = 1e18;

    // Any deterministic pure function of the genome works as fitness.
    const auto fitness = neat::perGenome([](const neat::Genome &g) {
        return static_cast<double>(g.numGenes()) * 0.125 +
               static_cast<double>(g.key() % 7) * 0.0625;
    });

    neat::Population a(cfg, 99);
    for (int i = 0; i < 4; ++i)
        ASSERT_FALSE(a.stepBatch(fitness));

    const neat::PopulationSnapshot snap = a.capture();
    neat::Population b(cfg, 12345); // different seed; restore overwrites
    b.restore(snap);

    EXPECT_EQ(b.generation(), a.generation());
    for (int i = 0; i < 4; ++i) {
        ASSERT_FALSE(a.stepBatch(fitness));
        ASSERT_FALSE(b.stepBatch(fitness));
        const neat::GenerationStats &sa = a.history().back();
        const neat::GenerationStats &sb = b.history().back();
        EXPECT_EQ(sa.generation, sb.generation);
        EXPECT_EQ(std::bit_cast<uint64_t>(sa.bestFitness),
                  std::bit_cast<uint64_t>(sb.bestFitness));
        EXPECT_EQ(std::bit_cast<uint64_t>(sa.meanFitness),
                  std::bit_cast<uint64_t>(sb.meanFitness));
        EXPECT_EQ(sa.totalGenes, sb.totalGenes);
        EXPECT_EQ(sa.evolutionOps, sb.evolutionOps);
        EXPECT_EQ(sa.numSpecies, sb.numSpecies);
    }
    // The RNG streams stayed in lockstep through all of it.
    EXPECT_EQ(a.rng().saveState().weyl, b.rng().saveState().weyl);
}

// --- snapshot file round trip -----------------------------------------------

TEST(SnapshotFile, WriteReadRoundTrip)
{
    const fs::path dir = scratchDir("snapfile");
    neat::NeatConfig cfg;
    cfg.populationSize = 12;
    cfg.fitnessThreshold = 1e18;
    neat::Population pop(cfg, 5);
    pop.stepBatch(neat::perGenome([](const neat::Genome &g) {
        return static_cast<double>(g.numGenes());
    }));

    persist::SystemSnapshot snap;
    snap.envName = "CartPole_v0";
    snap.seed = 5;
    snap.populationSize = cfg.populationSize;
    snap.numInputs = cfg.numInputs;
    snap.numOutputs = cfg.numOutputs;
    snap.feedForward = cfg.feedForward;
    snap.population = pop.capture();
    snap.counters = {{"a.b", 3}, {"c", 42}};

    const std::string path = (dir / persist::snapshotFileName(1)).string();
    persist::writeSnapshotFile(snap, path);
    EXPECT_TRUE(fs::exists(path));
    EXPECT_FALSE(fs::exists(path + ".tmp")) << "tmp file left behind";

    const persist::SystemSnapshot back = persist::readSnapshotFile(path);
    EXPECT_EQ(back.envName, snap.envName);
    EXPECT_EQ(back.seed, snap.seed);
    EXPECT_EQ(back.populationSize, snap.populationSize);
    EXPECT_EQ(back.counters, snap.counters);
    EXPECT_EQ(back.population.generation, snap.population.generation);
    EXPECT_EQ(back.population.nextSpeciesKey,
              snap.population.nextSpeciesKey);
    EXPECT_EQ(back.population.nextGenomeKey,
              snap.population.nextGenomeKey);
    EXPECT_EQ(back.population.nextNodeKey, snap.population.nextNodeKey);
    ASSERT_EQ(back.population.genomes.size(),
              snap.population.genomes.size());
    for (const auto &[gk, g] : snap.population.genomes) {
        ASSERT_TRUE(back.population.genomes.count(gk));
        expectGenomesBitIdentical(g, back.population.genomes.at(gk));
    }
    ASSERT_EQ(back.population.species.size(),
              snap.population.species.size());
    for (const auto &[sk, sp] : snap.population.species) {
        ASSERT_TRUE(back.population.species.count(sk));
        const neat::Species &bsp = back.population.species.at(sk);
        EXPECT_EQ(bsp.memberKeys, sp.memberKeys);
        EXPECT_EQ(bsp.fitnessHistory, sp.fitnessHistory);
        EXPECT_EQ(bsp.lastImprovedGeneration, sp.lastImprovedGeneration);
        expectGenomesBitIdentical(sp.representative, bsp.representative);
    }
    const XorWowState &ra = snap.population.rngState;
    const XorWowState &rb = back.population.rngState;
    for (int i = 0; i < 5; ++i)
        EXPECT_EQ(ra.state[i], rb.state[i]);
    EXPECT_EQ(ra.weyl, rb.weyl);
    EXPECT_EQ(ra.hasCachedGaussian, rb.hasCachedGaussian);
    EXPECT_EQ(std::bit_cast<uint64_t>(ra.cachedGaussian),
              std::bit_cast<uint64_t>(rb.cachedGaussian));
    ASSERT_EQ(back.population.traces.size(),
              snap.population.traces.size());
    if (!snap.population.traces.empty()) {
        EXPECT_EQ(back.population.traces[0].children.size(),
                  snap.population.traces[0].children.size());
        EXPECT_EQ(back.population.traces[0].totalOps(),
                  snap.population.traces[0].totalOps());
    }
    fs::remove_all(dir);
}

TEST(SnapshotFile, FileNameIsStable)
{
    EXPECT_EQ(persist::snapshotFileName(3), "snapshot-gen-000003.gsnap");
    EXPECT_EQ(persist::snapshotFileName(123456),
              "snapshot-gen-123456.gsnap");
}

// --- corruption: distinct errors, no crash, no partial mutation -------------

class SnapshotCorruptionTest : public ::testing::Test
{
  protected:
    void
    SetUp() override
    {
        dir_ = scratchDir("corrupt");
        core::SystemConfig cfg = smallSystemConfig();
        cfg.checkpointDir = dir_.string();
        core::System sys(cfg);
        ASSERT_FALSE(sys.stepGeneration());
        ASSERT_FALSE(sys.stepGeneration());
        path_ = (dir_ / persist::snapshotFileName(2)).string();
        ASSERT_TRUE(fs::exists(path_));
        bytes_ = slurp(path_);
    }

    void TearDown() override { fs::remove_all(dir_); }

    static std::vector<char>
    slurp(const std::string &p)
    {
        std::ifstream is(p, std::ios::binary);
        return {std::istreambuf_iterator<char>(is),
                std::istreambuf_iterator<char>()};
    }

    std::string
    writeVariant(const std::string &name, const std::vector<char> &bytes)
    {
        const std::string p = (dir_ / name).string();
        std::ofstream os(p, std::ios::binary);
        os.write(bytes.data(), static_cast<std::streamsize>(bytes.size()));
        return p;
    }

    /** The SnapshotError message for reading `p` (fails if none). */
    std::string
    errorFor(const std::string &p)
    {
        try {
            (void)persist::readSnapshotFile(p);
        } catch (const persist::SnapshotError &e) {
            return e.what();
        }
        ADD_FAILURE() << "expected SnapshotError for " << p;
        return "";
    }

    fs::path dir_;
    std::string path_;
    std::vector<char> bytes_;
};

TEST_F(SnapshotCorruptionTest, MissingFile)
{
    const std::string msg = errorFor((dir_ / "nope.gsnap").string());
    EXPECT_NE(msg.find("cannot open"), std::string::npos) << msg;
}

TEST_F(SnapshotCorruptionTest, TruncatedBelowHeader)
{
    auto v = bytes_;
    v.resize(10);
    const std::string msg = errorFor(writeVariant("tiny.gsnap", v));
    EXPECT_NE(msg.find("truncated"), std::string::npos) << msg;
    EXPECT_NE(msg.find("header"), std::string::npos) << msg;
}

TEST_F(SnapshotCorruptionTest, TruncatedPayload)
{
    auto v = bytes_;
    v.resize(v.size() - 100);
    const std::string msg = errorFor(writeVariant("trunc.gsnap", v));
    EXPECT_NE(msg.find("truncated"), std::string::npos) << msg;
    EXPECT_NE(msg.find("payload bytes"), std::string::npos) << msg;
}

TEST_F(SnapshotCorruptionTest, FlippedPayloadByte)
{
    auto v = bytes_;
    v[v.size() / 2] = static_cast<char>(v[v.size() / 2] ^ 0x40);
    const std::string msg = errorFor(writeVariant("flip.gsnap", v));
    EXPECT_NE(msg.find("corrupted"), std::string::npos) << msg;
    EXPECT_NE(msg.find("digest mismatch"), std::string::npos) << msg;
}

TEST_F(SnapshotCorruptionTest, BadMagic)
{
    auto v = bytes_;
    v[0] = 'X';
    const std::string msg = errorFor(writeVariant("magic.gsnap", v));
    EXPECT_NE(msg.find("not a GeneSys snapshot"), std::string::npos)
        << msg;
}

TEST_F(SnapshotCorruptionTest, VersionBumpedHeader)
{
    auto v = bytes_;
    v[4] = static_cast<char>(persist::kSnapshotVersion + 1);
    const std::string msg = errorFor(writeVariant("vers.gsnap", v));
    EXPECT_NE(msg.find("unsupported snapshot version"),
              std::string::npos)
        << msg;
}

TEST_F(SnapshotCorruptionTest, DistinctMessagesPerFailureMode)
{
    // The three ISSUE failure modes must be told apart by message.
    auto trunc = bytes_;
    trunc.resize(trunc.size() - 1);
    auto flip = bytes_;
    flip[flip.size() - 1] = static_cast<char>(flip[flip.size() - 1] ^ 1);
    auto vers = bytes_;
    vers[4] = static_cast<char>(persist::kSnapshotVersion + 9);

    const std::string m1 = errorFor(writeVariant("a.gsnap", trunc));
    const std::string m2 = errorFor(writeVariant("b.gsnap", flip));
    const std::string m3 = errorFor(writeVariant("c.gsnap", vers));
    EXPECT_NE(m1, m2);
    EXPECT_NE(m2, m3);
    EXPECT_NE(m1, m3);
}

TEST_F(SnapshotCorruptionTest, FailedResumeLeavesSystemUntouched)
{
    // A System that survives a failed resumeFrom must keep running
    // exactly as if the attempt never happened: same per-generation
    // bits as an undisturbed control.
    auto flip = bytes_;
    flip[flip.size() / 3] =
        static_cast<char>(flip[flip.size() / 3] ^ 0x10);
    const std::string bad = writeVariant("bad.gsnap", flip);

    core::SystemConfig cfg = smallSystemConfig();
    core::System control(cfg);
    core::System victim(cfg);
    ASSERT_FALSE(control.stepGeneration());
    ASSERT_FALSE(victim.stepGeneration());

    EXPECT_THROW(victim.resumeFrom(bad), persist::SnapshotError);

    for (int i = 0; i < 2; ++i) {
        control.stepGeneration();
        victim.stepGeneration();
    }
    EXPECT_EQ(digestReports(victim.reports()),
              digestReports(control.reports()));
}

// --- provenance validation ---------------------------------------------------

TEST(SnapshotResume, RejectsMismatchedConfig)
{
    const fs::path dir = scratchDir("provenance");
    core::SystemConfig cfg = smallSystemConfig();
    cfg.checkpointDir = dir.string();
    {
        core::System sys(cfg);
        ASSERT_FALSE(sys.stepGeneration());
    }
    const std::string path =
        (dir / persist::snapshotFileName(1)).string();

    {
        core::SystemConfig other = smallSystemConfig();
        other.seed = cfg.seed + 1;
        core::System sys(other);
        try {
            sys.resumeFrom(path);
            FAIL() << "seed mismatch accepted";
        } catch (const persist::SnapshotError &e) {
            EXPECT_NE(std::string(e.what()).find("seed"),
                      std::string::npos)
                << e.what();
        }
    }
    {
        core::SystemConfig other = smallSystemConfig();
        other.envName = "AirRaid-ram-v0";
        core::System sys(other);
        try {
            sys.resumeFrom(path);
            FAIL() << "environment mismatch accepted";
        } catch (const persist::SnapshotError &e) {
            EXPECT_NE(std::string(e.what()).find("environment"),
                      std::string::npos)
                << e.what();
        }
    }
    fs::remove_all(dir);
}

// --- System-level resume bit-identity ---------------------------------------

TEST(SnapshotResume, ResumedRunMatchesUninterruptedRun)
{
    const fs::path dir = scratchDir("resume");

    // Uninterrupted control: 5 generations straight through.
    core::SystemConfig cfg = smallSystemConfig();
    core::System control(cfg);
    for (int i = 0; i < 5; ++i)
        control.stepGeneration();

    // Interrupted run: 2 generations with checkpointing, then the
    // System is destroyed ("killed") and a fresh one resumes.
    std::vector<core::GenerationReport> reports;
    {
        core::SystemConfig ckpt = cfg;
        ckpt.checkpointDir = dir.string();
        core::System first(ckpt);
        ASSERT_FALSE(first.stepGeneration());
        ASSERT_FALSE(first.stepGeneration());
        reports = first.reports();
    }
    core::SystemConfig rest = cfg;
    rest.maxGenerations = 3; // the remaining horizon
    core::System second(rest);
    second.resumeFrom((dir / persist::snapshotFileName(2)).string());
    for (int i = 0; i < 3; ++i)
        second.stepGeneration();
    reports.insert(reports.end(), second.reports().begin(),
                   second.reports().end());

    ASSERT_EQ(reports.size(), control.reports().size());
    EXPECT_EQ(digestReports(reports), digestReports(control.reports()));

    // Best-genome continuity: the resumed System's best matches the
    // control's down to the last bit.
    ASSERT_TRUE(second.population().hasBest());
    expectGenomesBitIdentical(control.population().bestGenome(),
                              second.population().bestGenome());
    fs::remove_all(dir);
}

TEST(SnapshotResume, CheckpointEveryNWritesOnlyMultiples)
{
    const fs::path dir = scratchDir("everyn");
    core::SystemConfig cfg = smallSystemConfig();
    cfg.checkpointDir = dir.string();
    cfg.checkpointEveryN = 2;
    core::System sys(cfg);
    for (int i = 0; i < 5; ++i)
        sys.stepGeneration();
    EXPECT_FALSE(fs::exists(dir / persist::snapshotFileName(1)));
    EXPECT_TRUE(fs::exists(dir / persist::snapshotFileName(2)));
    EXPECT_FALSE(fs::exists(dir / persist::snapshotFileName(3)));
    EXPECT_TRUE(fs::exists(dir / persist::snapshotFileName(4)));
    fs::remove_all(dir);
}

// --- metrics counter continuity ---------------------------------------------

TEST(MetricsSnapshot, CounterSnapshotRestoreRoundTrip)
{
    obs::MetricsRegistry a;
    a.counter("x.y").add(7);
    a.counter("z").add(40);
    a.counter("z").add(2);
    const auto snap = a.counterSnapshot();
    ASSERT_EQ(snap.size(), 2u);
    EXPECT_EQ(snap[0], (std::pair<std::string, long>{"x.y", 7}));
    EXPECT_EQ(snap[1], (std::pair<std::string, long>{"z", 42}));

    obs::MetricsRegistry b;
    b.counter("z").add(999); // overwritten by restore
    b.restoreCounters(snap);
    EXPECT_EQ(b.counter("x.y").value(), 7);
    EXPECT_EQ(b.counter("z").value(), 42);
    // Restored counters keep counting from the saved totals.
    b.counter("z").add(1);
    EXPECT_EQ(b.counter("z").value(), 43);
}

// --- env hooks ---------------------------------------------------------------

TEST(CheckpointEnv, AppliesDirAndEvery)
{
    setenv("GENESYS_CHECKPOINT_DIR", "/tmp/ckpt-env-test", 1);
    setenv("GENESYS_CHECKPOINT_EVERY", "5", 1);
    std::string dir = "preset";
    int every = 1;
    persist::applyCheckpointFromEnv(dir, every);
    EXPECT_EQ(dir, "/tmp/ckpt-env-test");
    EXPECT_EQ(every, 5);
    unsetenv("GENESYS_CHECKPOINT_DIR");
    unsetenv("GENESYS_CHECKPOINT_EVERY");
}

TEST(CheckpointEnv, UnsetLeavesConfigUntouched)
{
    unsetenv("GENESYS_CHECKPOINT_DIR");
    unsetenv("GENESYS_CHECKPOINT_EVERY");
    std::string dir = "preset";
    int every = 3;
    persist::applyCheckpointFromEnv(dir, every);
    EXPECT_EQ(dir, "preset");
    EXPECT_EQ(every, 3);
}

TEST(CheckpointEnv, GarbageEveryIsFatal)
{
    setenv("GENESYS_CHECKPOINT_EVERY", "sometimes", 1);
    std::string dir;
    int every = 1;
    EXPECT_THROW(persist::applyCheckpointFromEnv(dir, every),
                 std::runtime_error);
    setenv("GENESYS_CHECKPOINT_EVERY", "0", 1);
    EXPECT_THROW(persist::applyCheckpointFromEnv(dir, every),
                 std::runtime_error);
    // Values that do not fit an int are rejected, not narrowed:
    // 3000000000 would wrap negative (checkpointing silently off),
    // 4294967297 would wrap to 1, and 99999999999999999999 overflows
    // strtol itself (ERANGE).
    for (const char *big :
         {"3000000000", "4294967297", "99999999999999999999"}) {
        SCOPED_TRACE(big);
        setenv("GENESYS_CHECKPOINT_EVERY", big, 1);
        every = 7;
        EXPECT_THROW(persist::applyCheckpointFromEnv(dir, every),
                     std::runtime_error);
        EXPECT_EQ(every, 7);
    }
    // The largest int is still accepted.
    setenv("GENESYS_CHECKPOINT_EVERY", "2147483647", 1);
    persist::applyCheckpointFromEnv(dir, every);
    EXPECT_EQ(every, 2147483647);
    unsetenv("GENESYS_CHECKPOINT_EVERY");
}
