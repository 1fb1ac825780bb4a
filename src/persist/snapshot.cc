#include "persist/snapshot.hh"

#include <bit>
#include <cctype>
#include <cerrno>
#include <climits>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <iomanip>
#include <sstream>

#include "common/check.hh"
#include "common/logging.hh"
#include "neat/activations.hh"
#include "neat/aggregations.hh"

namespace genesys::persist
{

namespace
{

// --- primitives -------------------------------------------------------------

constexpr char kMagic[4] = {'G', 'S', 'N', 'P'};
constexpr size_t kHeaderBytes = 4 + 4 + 8 + 8;

/** The one RNG stream a snapshot currently carries (see RNGS chunk). */
constexpr const char *kEvolutionRngStream = "population.evolution";

uint64_t
fnv1a(const uint8_t *data, size_t n)
{
    uint64_t h = 0xcbf29ce484222325ull;
    for (size_t i = 0; i < n; ++i) {
        h ^= data[i];
        h *= 0x100000001b3ull;
    }
    return h;
}

uint32_t
fourcc(const char (&tag)[5])
{
    return static_cast<uint32_t>(static_cast<uint8_t>(tag[0])) |
           static_cast<uint32_t>(static_cast<uint8_t>(tag[1])) << 8 |
           static_cast<uint32_t>(static_cast<uint8_t>(tag[2])) << 16 |
           static_cast<uint32_t>(static_cast<uint8_t>(tag[3])) << 24;
}

std::string
tagName(uint32_t tag)
{
    std::string s(4, '?');
    for (int i = 0; i < 4; ++i) {
        const char c = static_cast<char>((tag >> (8 * i)) & 0xff);
        s[static_cast<size_t>(i)] = std::isprint(c) ? c : '?';
    }
    return s;
}

// Chunk tags. Every chunk is always written; the reader requires each
// exactly once.
const uint32_t kChunkConfig = fourcc("CFG0");
const uint32_t kChunkPopulation = fourcc("POPL");
const uint32_t kChunkSpecies = fourcc("SPCS");
const uint32_t kChunkReproduction = fourcc("RPRO");
const uint32_t kChunkRngStreams = fourcc("RNGS");
const uint32_t kChunkBest = fourcc("BEST");
const uint32_t kChunkTraces = fourcc("TRCE");
const uint32_t kChunkMetrics = fourcc("METR");

/** Append-only little-endian byte buffer with chunk framing. */
class ByteWriter
{
  public:
    void
    u8(uint8_t v)
    {
        buf_.push_back(v);
    }

    void
    u32(uint32_t v)
    {
        for (int i = 0; i < 4; ++i)
            buf_.push_back(static_cast<uint8_t>(v >> (8 * i)));
    }

    void
    u64(uint64_t v)
    {
        for (int i = 0; i < 8; ++i)
            buf_.push_back(static_cast<uint8_t>(v >> (8 * i)));
    }

    void i32(int32_t v) { u32(static_cast<uint32_t>(v)); }
    void i64(int64_t v) { u64(static_cast<uint64_t>(v)); }
    /** Doubles as raw IEEE-754 bits — the lossless attribute path. */
    void f64(double v) { u64(std::bit_cast<uint64_t>(v)); }

    void
    str(const std::string &s)
    {
        u64(s.size());
        buf_.insert(buf_.end(), s.begin(), s.end());
    }

    /** Open a chunk; returns a token for endChunk. */
    size_t
    beginChunk(uint32_t tag)
    {
        u32(tag);
        const size_t patch_at = buf_.size();
        u64(0); // size, patched by endChunk
        return patch_at;
    }

    /** Close a chunk: patch its declared size to the bytes written. */
    void
    endChunk(size_t patch_at)
    {
        const uint64_t size = buf_.size() - (patch_at + 8);
        for (int i = 0; i < 8; ++i)
            buf_[patch_at + static_cast<size_t>(i)] =
                static_cast<uint8_t>(size >> (8 * i));
    }

    const std::vector<uint8_t> &bytes() const { return buf_; }

  private:
    std::vector<uint8_t> buf_;
};

/**
 * Bounds-checked little-endian reader over a byte span. Every overrun
 * throws SnapshotError naming the field — a malformed chunk can never
 * read past its declared size.
 */
class ByteReader
{
  public:
    ByteReader(const uint8_t *data, size_t size, std::string context)
        : data_(data), size_(size), context_(std::move(context))
    {
    }

    uint8_t
    u8(const char *what)
    {
        need(1, what);
        return data_[pos_++];
    }

    uint32_t
    u32(const char *what)
    {
        need(4, what);
        uint32_t v = 0;
        for (int i = 0; i < 4; ++i)
            v |= static_cast<uint32_t>(data_[pos_++]) << (8 * i);
        return v;
    }

    uint64_t
    u64(const char *what)
    {
        need(8, what);
        uint64_t v = 0;
        for (int i = 0; i < 8; ++i)
            v |= static_cast<uint64_t>(data_[pos_++]) << (8 * i);
        return v;
    }

    int32_t i32(const char *what) { return static_cast<int32_t>(u32(what)); }
    int64_t i64(const char *what) { return static_cast<int64_t>(u64(what)); }
    double f64(const char *what) { return std::bit_cast<double>(u64(what)); }

    std::string
    str(const char *what)
    {
        const uint64_t n = u64(what);
        need(n, what);
        std::string s(reinterpret_cast<const char *>(data_ + pos_),
                      static_cast<size_t>(n));
        pos_ += static_cast<size_t>(n);
        return s;
    }

    /**
     * Validate an element count against the bytes actually left in
     * the chunk (each element needs at least `min_bytes`), so a
     * corrupted count can never drive a huge allocation.
     */
    size_t
    count(const char *what, size_t min_bytes)
    {
        const uint64_t n = u64(what);
        if (min_bytes > 0 && n > remaining() / min_bytes) {
            throw SnapshotError("malformed snapshot: " + context_ +
                                ": " + what + " count " +
                                std::to_string(n) +
                                " exceeds the bytes left in the chunk");
        }
        return static_cast<size_t>(n);
    }

    size_t remaining() const { return size_ - pos_; }

    void
    expectConsumed() const
    {
        if (pos_ != size_) {
            throw SnapshotError(
                "malformed snapshot: " + context_ + " has " +
                std::to_string(size_ - pos_) + " unparsed trailing bytes");
        }
    }

  private:
    void
    need(uint64_t n, const char *what)
    {
        // The SnapshotError below is the user-facing bounds check; the
        // DCHECK guards the reader's own cursor arithmetic (size_ -
        // pos_ underflows if the cursor ever escapes the span).
        GENESYS_DCHECK(pos_ <= size_,
                       "ByteReader cursor " << pos_ << " escaped a "
                                            << size_ << "-byte chunk ("
                                            << context_ << ")");
        if (n > size_ - pos_) {
            throw SnapshotError("malformed snapshot: " + context_ +
                                ": field \"" + what +
                                "\" overruns the chunk");
        }
    }

    const uint8_t *data_;
    size_t size_;
    size_t pos_ = 0;
    std::string context_;
};

// --- genome / species / trace codecs ---------------------------------------

void
writeGenome(ByteWriter &w, const neat::Genome &g)
{
    w.i32(g.key());
    w.i32(g.nodeDeletions());
    w.u8(g.hasFitness() ? 1 : 0);
    w.f64(g.hasFitness() ? g.fitness() : 0.0);

    w.u64(g.numNodeGenes());
    for (const auto &[nk, ng] : g.nodes()) {
        w.i32(nk);
        w.f64(ng.bias);
        w.f64(ng.response);
        w.u8(static_cast<uint8_t>(ng.activation));
        w.u8(static_cast<uint8_t>(ng.aggregation));
    }
    w.u64(g.numConnectionGenes());
    for (const auto &[ck, cg] : g.connections()) {
        w.i32(ck.first);
        w.i32(ck.second);
        w.f64(cg.weight);
        w.u8(cg.enabled ? 1 : 0);
    }
}

neat::Genome
readGenome(ByteReader &r)
{
    neat::Genome g(r.i32("genome key"));
    g.restoreNodeDeletions(r.i32("node deletions"));
    const bool has_fitness = r.u8("has-fitness flag") != 0;
    const double fitness = r.f64("fitness");
    if (has_fitness)
        g.setFitness(fitness);

    // Node gene: key 4 + bias 8 + response 8 + activation 1 + aggregation 1.
    const size_t node_count = r.count("node gene", 22);
    g.mutableNodes().reserve(node_count);
    for (size_t i = 0; i < node_count; ++i) {
        neat::NodeGene ng;
        ng.key = r.i32("node key");
        ng.bias = r.f64("node bias");
        ng.response = r.f64("node response");
        const uint8_t act = r.u8("node activation");
        const uint8_t agg = r.u8("node aggregation");
        if (act >= static_cast<uint8_t>(neat::Activation::NumActivations))
            throw SnapshotError("malformed snapshot: node " +
                                std::to_string(ng.key) +
                                " has invalid activation id " +
                                std::to_string(act));
        if (agg >= static_cast<uint8_t>(neat::Aggregation::NumAggregations))
            throw SnapshotError("malformed snapshot: node " +
                                std::to_string(ng.key) +
                                " has invalid aggregation id " +
                                std::to_string(agg));
        ng.activation = static_cast<neat::Activation>(act);
        ng.aggregation = static_cast<neat::Aggregation>(agg);
        g.mutableNodes().emplace(ng.key, ng);
    }

    // Connection gene: src 4 + dst 4 + weight 8 + enabled 1.
    const size_t conn_count = r.count("connection gene", 17);
    g.mutableConnections().reserve(conn_count);
    for (size_t i = 0; i < conn_count; ++i) {
        neat::ConnectionGene cg;
        const int src = r.i32("connection source");
        const int dst = r.i32("connection destination");
        cg.key = {src, dst};
        cg.weight = r.f64("connection weight");
        cg.enabled = r.u8("connection enabled") != 0;
        g.mutableConnections().emplace(cg.key, cg);
    }
    // A snapshot writer emits genes in ascending key order; emplace
    // keeps whatever order arrives, so a tampered byte stream could
    // otherwise smuggle in a gene whose embedded key disagrees with
    // its sort position.
    g.nodes().dcheckInvariants("persist::readGenome nodes");
    g.connections().dcheckInvariants("persist::readGenome connections");
    return g;
}

void
writeSpecies(ByteWriter &w, const neat::Species &sp)
{
    w.i32(sp.key);
    w.i32(sp.createdGeneration);
    w.i32(sp.lastImprovedGeneration);
    writeGenome(w, sp.representative);
    w.u64(sp.memberKeys.size());
    for (int mk : sp.memberKeys)
        w.i32(mk);
    w.u8(sp.fitness.has_value() ? 1 : 0);
    w.f64(sp.fitness.value_or(0.0));
    w.u64(sp.fitnessHistory.size());
    for (double f : sp.fitnessHistory)
        w.f64(f);
    w.f64(sp.adjustedFitness);
}

neat::Species
readSpecies(ByteReader &r)
{
    neat::Species sp;
    sp.key = r.i32("species key");
    sp.createdGeneration = r.i32("species created generation");
    sp.lastImprovedGeneration = r.i32("species last-improved generation");
    sp.representative = readGenome(r);
    const size_t members = r.count("species member", 4);
    sp.memberKeys.reserve(members);
    for (size_t i = 0; i < members; ++i)
        sp.memberKeys.push_back(r.i32("species member key"));
    const bool has_fitness = r.u8("species has-fitness flag") != 0;
    const double fitness = r.f64("species fitness");
    if (has_fitness)
        sp.fitness = fitness;
    const size_t history = r.count("species fitness history entry", 8);
    sp.fitnessHistory.reserve(history);
    for (size_t i = 0; i < history; ++i)
        sp.fitnessHistory.push_back(r.f64("species fitness history"));
    sp.adjustedFitness = r.f64("species adjusted fitness");
    return sp;
}

void
writeTrace(ByteWriter &w, const neat::EvolutionTrace &t)
{
    w.i32(t.generation);
    w.u64(t.children.size());
    for (const neat::ChildRecord &c : t.children) {
        w.i32(c.childKey);
        w.i32(c.parent1Key);
        w.i32(c.parent2Key);
        w.u8(c.isElite ? 1 : 0);
        w.i64(c.ops.crossoverOps);
        w.i64(c.ops.cloneOps);
        w.i64(c.ops.perturbOps);
        w.i64(c.ops.addOps);
        w.i64(c.ops.deleteOps);
        w.u64(c.parent1Genes);
        w.u64(c.parent2Genes);
        w.u64(c.alignedStreamLen);
        w.u64(c.childNodeGenes);
        w.u64(c.childConnGenes);
    }
}

neat::EvolutionTrace
readTrace(ByteReader &r)
{
    neat::EvolutionTrace t;
    t.generation = r.i32("trace generation");
    // Child record: 3 keys + flag + 5 op counters + 5 size fields.
    const size_t children = r.count("trace child record", 93);
    t.children.reserve(children);
    for (size_t i = 0; i < children; ++i) {
        neat::ChildRecord c;
        c.childKey = r.i32("child key");
        c.parent1Key = r.i32("parent1 key");
        c.parent2Key = r.i32("parent2 key");
        c.isElite = r.u8("is-elite flag") != 0;
        c.ops.crossoverOps = r.i64("crossover ops");
        c.ops.cloneOps = r.i64("clone ops");
        c.ops.perturbOps = r.i64("perturb ops");
        c.ops.addOps = r.i64("add ops");
        c.ops.deleteOps = r.i64("delete ops");
        c.parent1Genes = static_cast<size_t>(r.u64("parent1 genes"));
        c.parent2Genes = static_cast<size_t>(r.u64("parent2 genes"));
        c.alignedStreamLen =
            static_cast<size_t>(r.u64("aligned stream length"));
        c.childNodeGenes = static_cast<size_t>(r.u64("child node genes"));
        c.childConnGenes = static_cast<size_t>(r.u64("child conn genes"));
        t.children.push_back(c);
    }
    return t;
}

void
writeRngState(ByteWriter &w, const XorWowState &s)
{
    for (uint32_t word : s.state)
        w.u32(word);
    w.u32(s.weyl);
    w.u8(s.hasCachedGaussian ? 1 : 0);
    w.f64(s.cachedGaussian);
}

XorWowState
readRngState(ByteReader &r)
{
    XorWowState s;
    for (uint32_t &word : s.state)
        word = r.u32("rng state word");
    s.weyl = r.u32("rng weyl counter");
    s.hasCachedGaussian = r.u8("rng cached-gaussian flag") != 0;
    s.cachedGaussian = r.f64("rng cached gaussian");
    return s;
}

} // namespace

// --- public API -------------------------------------------------------------

std::vector<uint8_t>
encodeGenomeLossless(const neat::Genome &g)
{
    ByteWriter w;
    writeGenome(w, g);
    return w.bytes();
}

neat::Genome
decodeGenomeLossless(const std::vector<uint8_t> &bytes)
{
    ByteReader r(bytes.data(), bytes.size(), "genome");
    neat::Genome g = readGenome(r);
    r.expectConsumed();
    return g;
}

std::string
snapshotFileName(int generation)
{
    std::ostringstream oss;
    oss << "snapshot-gen-" << std::setw(6) << std::setfill('0')
        << generation << ".gsnap";
    return oss.str();
}

void
applyCheckpointFromEnv(std::string &dir, int &every_n)
{
    if (const char *d = std::getenv("GENESYS_CHECKPOINT_DIR");
        d != nullptr && *d != '\0') {
        dir = d;
    }
    if (const char *e = std::getenv("GENESYS_CHECKPOINT_EVERY");
        e != nullptr && *e != '\0') {
        char *end = nullptr;
        errno = 0;
        const long n = std::strtol(e, &end, 10);
        if (end == e || *end != '\0' || errno == ERANGE || n <= 0 ||
            n > INT_MAX) {
            fatal("bad GENESYS_CHECKPOINT_EVERY \"" + std::string(e) +
                  "\" (expected a positive integer)");
        }
        every_n = static_cast<int>(n);
    }
}

void
writeSnapshotFile(const SystemSnapshot &snap, const std::string &path)
{
    ByteWriter w;

    size_t c = w.beginChunk(kChunkConfig);
    w.str(snap.envName);
    w.u64(snap.seed);
    w.i32(snap.populationSize);
    w.i32(snap.numInputs);
    w.i32(snap.numOutputs);
    w.u8(snap.feedForward ? 1 : 0);
    w.u8(static_cast<uint8_t>(snap.numericsTier));
    w.endChunk(c);

    c = w.beginChunk(kChunkPopulation);
    w.i32(snap.population.generation);
    w.u64(snap.population.genomes.size());
    for (const auto &[gk, g] : snap.population.genomes) {
        GENESYS_ASSERT(gk == g.key(), "population map key "
                                          << gk << " != genome key "
                                          << g.key());
        writeGenome(w, g);
    }
    w.endChunk(c);

    c = w.beginChunk(kChunkSpecies);
    w.i32(snap.population.nextSpeciesKey);
    w.u64(snap.population.species.size());
    for (const auto &[sk, sp] : snap.population.species)
        writeSpecies(w, sp);
    w.endChunk(c);

    c = w.beginChunk(kChunkReproduction);
    w.i32(snap.population.nextGenomeKey);
    w.i32(snap.population.nextNodeKey);
    w.endChunk(c);

    c = w.beginChunk(kChunkRngStreams);
    w.u32(1);
    w.str(kEvolutionRngStream);
    writeRngState(w, snap.population.rngState);
    w.endChunk(c);

    c = w.beginChunk(kChunkBest);
    w.u8(snap.population.hasBest ? 1 : 0);
    if (snap.population.hasBest)
        writeGenome(w, snap.population.bestGenome);
    w.endChunk(c);

    c = w.beginChunk(kChunkTraces);
    w.u32(static_cast<uint32_t>(snap.population.traces.size()));
    for (const neat::EvolutionTrace &t : snap.population.traces)
        writeTrace(w, t);
    w.endChunk(c);

    c = w.beginChunk(kChunkMetrics);
    w.u64(snap.counters.size());
    for (const auto &[name, value] : snap.counters) {
        w.str(name);
        w.i64(value);
    }
    w.endChunk(c);

    const std::vector<uint8_t> &payload = w.bytes();

    // Header + payload into a temporary sibling, then an atomic
    // rename: a crash mid-write never leaves a truncated file under
    // the final name (and loads of an in-progress save see the
    // previous complete snapshot).
    const std::string tmp = path + ".tmp";
    {
        std::ofstream os(tmp, std::ios::binary | std::ios::trunc);
        if (!os)
            throw SnapshotError("cannot open \"" + tmp +
                                "\" for writing");
        os.write(kMagic, 4);
        uint8_t header[4 + 8 + 8];
        const uint32_t version = kSnapshotVersion;
        const uint64_t size = payload.size();
        const uint64_t digest = fnv1a(payload.data(), payload.size());
        for (int i = 0; i < 4; ++i)
            header[i] = static_cast<uint8_t>(version >> (8 * i));
        for (int i = 0; i < 8; ++i)
            header[4 + i] = static_cast<uint8_t>(size >> (8 * i));
        for (int i = 0; i < 8; ++i)
            header[12 + i] = static_cast<uint8_t>(digest >> (8 * i));
        os.write(reinterpret_cast<const char *>(header), sizeof(header));
        os.write(reinterpret_cast<const char *>(payload.data()),
                 static_cast<std::streamsize>(payload.size()));
        os.flush();
        if (!os)
            throw SnapshotError("failed writing snapshot to \"" + tmp +
                                "\"");
    }
    std::error_code ec;
    std::filesystem::rename(tmp, path, ec);
    if (ec) {
        throw SnapshotError("cannot rename \"" + tmp + "\" to \"" +
                            path + "\": " + ec.message());
    }
}

SystemSnapshot
readSnapshotFile(const std::string &path)
{
    std::ifstream is(path, std::ios::binary);
    if (!is)
        throw SnapshotError("cannot open snapshot file \"" + path + "\"");
    std::vector<uint8_t> file((std::istreambuf_iterator<char>(is)),
                              std::istreambuf_iterator<char>());

    if (file.size() < kHeaderBytes) {
        throw SnapshotError(
            "truncated snapshot \"" + path + "\": " +
            std::to_string(file.size()) +
            " bytes is smaller than the " +
            std::to_string(kHeaderBytes) + "-byte header");
    }
    if (std::memcmp(file.data(), kMagic, 4) != 0) {
        throw SnapshotError("\"" + path +
                            "\" is not a GeneSys snapshot (bad magic)");
    }
    uint32_t version = 0;
    for (int i = 0; i < 4; ++i)
        version |= static_cast<uint32_t>(file[4 + static_cast<size_t>(i)])
                   << (8 * i);
    if (version != kSnapshotVersion) {
        throw SnapshotError(
            "unsupported snapshot version " + std::to_string(version) +
            " in \"" + path + "\" (this build reads version " +
            std::to_string(kSnapshotVersion) + ")");
    }
    uint64_t declared = 0, digest = 0;
    for (int i = 0; i < 8; ++i)
        declared |= static_cast<uint64_t>(file[8 + static_cast<size_t>(i)])
                    << (8 * i);
    for (int i = 0; i < 8; ++i)
        digest |= static_cast<uint64_t>(file[16 + static_cast<size_t>(i)])
                  << (8 * i);
    const size_t actual = file.size() - kHeaderBytes;
    if (declared != actual) {
        throw SnapshotError(
            "truncated snapshot \"" + path + "\": header declares " +
            std::to_string(declared) + " payload bytes, file holds " +
            std::to_string(actual));
    }
    const uint8_t *payload = file.data() + kHeaderBytes;
    const uint64_t computed = fnv1a(payload, actual);
    if (computed != digest) {
        std::ostringstream oss;
        oss << "corrupted snapshot \"" << path
            << "\": payload digest mismatch (header 0x" << std::hex
            << digest << ", computed 0x" << computed << ")";
        throw SnapshotError(oss.str());
    }

    // Payload validated end to end; now walk the chunks. Each chunk
    // parses through a bounds-limited sub-reader and must consume its
    // declared size exactly.
    SystemSnapshot snap;
    ByteReader top(payload, actual, "chunk table");
    bool seen_config = false, seen_population = false,
         seen_species = false, seen_reproduction = false,
         seen_rng = false, seen_best = false, seen_traces = false,
         seen_metrics = false;

    while (top.remaining() > 0) {
        const uint32_t tag = top.u32("chunk tag");
        const uint64_t size = top.u64("chunk size");
        if (size > top.remaining()) {
            throw SnapshotError(
                "malformed snapshot \"" + path + "\": chunk " +
                tagName(tag) + " declares " + std::to_string(size) +
                " bytes but only " + std::to_string(top.remaining()) +
                " remain");
        }
        const uint8_t *chunk = payload + (actual - top.remaining());
        ByteReader r(chunk, static_cast<size_t>(size),
                     "chunk " + tagName(tag));
        // Advance the outer cursor past the chunk body.
        top = ByteReader(chunk + size,
                         top.remaining() - static_cast<size_t>(size),
                         "chunk table");

        auto mark_once = [&](bool &seen) {
            if (seen) {
                throw SnapshotError("malformed snapshot \"" + path +
                                    "\": duplicate chunk " +
                                    tagName(tag));
            }
            seen = true;
        };

        if (tag == kChunkConfig) {
            mark_once(seen_config);
            snap.envName = r.str("environment name");
            snap.seed = r.u64("run seed");
            snap.populationSize = r.i32("population size");
            snap.numInputs = r.i32("input count");
            snap.numOutputs = r.i32("output count");
            snap.feedForward = r.u8("feed-forward flag") != 0;
            const uint8_t tier = r.u8("numerics tier");
            if (tier > static_cast<uint8_t>(
                           nn::NumericsTier::HwFaithful)) {
                throw SnapshotError(
                    "malformed snapshot \"" + path +
                    "\": numerics tier byte " + std::to_string(tier) +
                    " out of range");
            }
            snap.numericsTier = static_cast<nn::NumericsTier>(tier);
        } else if (tag == kChunkPopulation) {
            mark_once(seen_population);
            snap.population.generation = r.i32("generation counter");
            const size_t n = r.count("genome", 22);
            for (size_t i = 0; i < n; ++i) {
                neat::Genome g = readGenome(r);
                const int key = g.key();
                if (!snap.population.genomes.emplace(key, std::move(g))
                         .second) {
                    throw SnapshotError(
                        "malformed snapshot \"" + path +
                        "\": duplicate genome key " +
                        std::to_string(key));
                }
            }
        } else if (tag == kChunkSpecies) {
            mark_once(seen_species);
            snap.population.nextSpeciesKey = r.i32("next species key");
            const size_t n = r.count("species", 16);
            for (size_t i = 0; i < n; ++i) {
                neat::Species sp = readSpecies(r);
                const int key = sp.key;
                if (!snap.population.species.emplace(key, std::move(sp))
                         .second) {
                    throw SnapshotError(
                        "malformed snapshot \"" + path +
                        "\": duplicate species key " +
                        std::to_string(key));
                }
            }
        } else if (tag == kChunkReproduction) {
            mark_once(seen_reproduction);
            snap.population.nextGenomeKey = r.i32("next genome key");
            snap.population.nextNodeKey = r.i32("next node key");
        } else if (tag == kChunkRngStreams) {
            mark_once(seen_rng);
            const uint32_t n = r.u32("rng stream count");
            bool found = false;
            for (uint32_t i = 0; i < n; ++i) {
                const std::string name = r.str("rng stream name");
                const XorWowState s = readRngState(r);
                if (name == kEvolutionRngStream) {
                    snap.population.rngState = s;
                    found = true;
                } else {
                    throw SnapshotError("malformed snapshot \"" + path +
                                        "\": unknown RNG stream \"" +
                                        name + "\"");
                }
            }
            if (!found) {
                throw SnapshotError("malformed snapshot \"" + path +
                                    "\": missing RNG stream \"" +
                                    std::string(kEvolutionRngStream) +
                                    "\"");
            }
        } else if (tag == kChunkBest) {
            mark_once(seen_best);
            snap.population.hasBest = r.u8("has-best flag") != 0;
            if (snap.population.hasBest)
                snap.population.bestGenome = readGenome(r);
        } else if (tag == kChunkTraces) {
            mark_once(seen_traces);
            const uint32_t n = r.u32("trace count");
            for (uint32_t i = 0; i < n; ++i)
                snap.population.traces.push_back(readTrace(r));
        } else if (tag == kChunkMetrics) {
            mark_once(seen_metrics);
            const size_t n = r.count("metrics counter", 16);
            for (size_t i = 0; i < n; ++i) {
                const std::string name = r.str("counter name");
                const long value = static_cast<long>(r.i64("counter value"));
                snap.counters.emplace_back(name, value);
            }
        } else {
            throw SnapshotError("malformed snapshot \"" + path +
                                "\": unknown chunk " + tagName(tag));
        }
        r.expectConsumed();
    }

    const struct { bool seen; const char *name; } required[] = {
        {seen_config, "CFG0"},       {seen_population, "POPL"},
        {seen_species, "SPCS"},      {seen_reproduction, "RPRO"},
        {seen_rng, "RNGS"},          {seen_best, "BEST"},
        {seen_traces, "TRCE"},       {seen_metrics, "METR"},
    };
    for (const auto &req : required) {
        if (!req.seen) {
            throw SnapshotError("malformed snapshot \"" + path +
                                "\": missing chunk " +
                                std::string(req.name));
        }
    }

    // Cross-chunk sanity: species member lists must reference genomes
    // the population chunk actually holds.
    for (const auto &[sk, sp] : snap.population.species) {
        for (int mk : sp.memberKeys) {
            if (snap.population.genomes.find(mk) ==
                snap.population.genomes.end()) {
                throw SnapshotError(
                    "malformed snapshot \"" + path + "\": species " +
                    std::to_string(sk) + " references genome " +
                    std::to_string(mk) + " absent from the population");
            }
        }
    }
    if (snap.population.genomes.empty()) {
        throw SnapshotError("malformed snapshot \"" + path +
                            "\": empty population");
    }
    return snap;
}

} // namespace genesys::persist
