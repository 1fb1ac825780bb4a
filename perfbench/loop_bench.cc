/**
 * @file
 * Closed-loop benchmark of core::System: EvE (neat::Population
 * reproduce + speciate) and ADAM (compiled-plan inference) run
 * against the environment instances generation after generation,
 * with the SoC cost model alongside.
 *
 *   loop_bench --workload NAME --seed N --seconds S --trace 0|1
 *              [--gens G] [--expect-hash HEX] [--out DIR]
 *              [--git-sha SHA] [--source-digest HEX]
 *
 * --trace 0 runs untraced System repetitions and reports the
 * end-to-end metrics. --trace 1 alternates an untraced System run with
 * a traced run of the same generation loop rebuilt from the layers'
 * public calls, and reports the per-layer metrics. Either way the last
 * stdout line is one JSON object {correct, attempted, failed, metrics};
 * a fuller record (provenance, hashes, sample counts, layer shares)
 * goes to DIR/result-<workload>-seed<N>-trace<T>.json, and the traced
 * run's spans to DIR/trace-<workload>-seed<N>.json (Chrome trace).
 *
 * Exit codes: 0 ok, 1 runtime error, 2 usage error or a GENESYS_*
 * override set, 3 correctness gate tripped.
 */

#include <sched.h>
#include <unistd.h>

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <iostream>
#include <limits>
#include <map>
#include <sstream>
#include <stdexcept>
#include <string>
#include <utility>
#include <vector>

#include "common/check.hh"
#include "common/rng.hh"
#include "core/genesys.hh"
#include "core/workloads.hh"
#include "env/runner.hh"
#include "exec/eval_engine.hh"
#include "hw/soc.hh"
#include "neat/population.hh"
#include "nn/compiled_plan.hh"
#include "persist/snapshot.hh"

#ifdef __clang__
#define PERFBENCH_COMPILER __VERSION__
#else
#define PERFBENCH_COMPILER "gcc " __VERSION__
#endif
#ifndef PERFBENCH_BUILD_TYPE
#define PERFBENCH_BUILD_TYPE "unknown"
#endif
#ifndef PERFBENCH_CXX_FLAGS
#define PERFBENCH_CXX_FLAGS "unknown"
#endif

namespace
{

using namespace genesys;
using Clock = std::chrono::steady_clock;

constexpr int kExitError = 1;
constexpr int kExitUsage = 2;
constexpr int kExitGate = 3;

/** Thrown when a correctness check fails; main maps it to kExitGate. */
struct GateFailure : std::runtime_error
{
    using std::runtime_error::runtime_error;
};

/**
 * One benchmark workload. Each stresses a different layer: see `why`
 * and BENCHMARK.json.
 */
struct Workload
{
    const char *name;
    const char *envName;
    int episodes;
    nn::NumericsTier tier;
    /** Write a snapshot at every generation barrier. */
    bool checkpoint;
    /** Generations per repetition. */
    int generations;
    /**
     * Populations evolved per run, each from its own seed (see
     * trajectorySeed), so that one run averages over several
     * evolutionary trajectories: how fast genomes grow differs by seed.
     */
    int trajectories;
    /** Eval path System must select for this configuration. */
    bool heterogeneousWaves;
};

/**
 * Every workload evaluates on one thread per CPU: a single thread's
 * speed depends on which virtual CPU it lands on (65 vs 120 ms for the
 * same generation on a shared 4-vCPU host), while the engine's work
 * claiming spreads over all of them. No workload has short,
 * barrier-bound generations: CPU time the host steals from any one
 * thread stalls every barrier (35% run-to-run spread for LunarLander's
 * ~6 ms generations).
 */
const Workload kWorkloads[] = {
    // 128-input genomes of ~770 connections: ADAM activate, plan
    // compile and EvE reproduce; runs the heterogeneous-wave path.
    {"airraid_wide", "AirRaid-ram-v0", 1, nn::NumericsTier::Reference,
     false, 150, 3, true},
    // Environment stepping dominates; per-genome batched lanes, hw
    // numerics kernels and a snapshot per generation, little EvE work.
    {"bipedal_e4_hw_ckpt", "Bipedal", 4, nn::NumericsTier::HwFaithful,
     true, 60, 4, false},
};

/** Environment variables through which System overrides its config. */
const char *const kOverrideVars[] = {
    "GENESYS_EVAL_MODE",      "GENESYS_NUMERICS",
    "GENESYS_TRACE",          "GENESYS_METRICS",
    "GENESYS_TELEMETRY_DIR",  "GENESYS_CHECKPOINT_DIR",
    "GENESYS_CHECKPOINT_EVERY",
};

struct Options
{
    const Workload *workload = nullptr;
    uint64_t seed = 1;
    double seconds = 10.0;
    bool trace = false;
    int generations = 0;
    std::string expectHash;
    std::string outDir = ".bench_results";
    std::string gitSha = "unknown";
    std::string sourceDigest = "unknown";
};

int
cpuCount()
{
    cpu_set_t set;
    CPU_ZERO(&set);
    if (sched_getaffinity(0, sizeof(set), &set) == 0)
        return std::max(1, CPU_COUNT(&set));
    return 1;
}

/** System seed of trajectory `k` of a run given `seed`. */
uint64_t
trajectorySeed(uint64_t seed, int k)
{
    return k == 0 ? seed : deriveSeed(seed, static_cast<uint64_t>(k));
}

double
nsSince(Clock::time_point t0)
{
    return std::chrono::duration<double, std::nano>(Clock::now() - t0)
        .count();
}

// --- correctness gate ---------------------------------------------------

/** FNV-1a over the per-generation record. */
class RecordHash
{
  public:
    void
    add(const neat::GenerationStats &algo, const hw::SocGenStats &hw)
    {
        mix(algo.generation);
        mix(algo.bestFitness);
        mix(algo.meanFitness);
        mix(algo.totalGenes);
        mix(algo.numSpecies);
        mix(hw.evolutionSeconds);
        mix(hw.inferenceSeconds());
        mix(hw.evolutionEnergyJ);
        mix(hw.inferenceEnergyJ);
    }

    std::string
    hex() const
    {
        char buf[17];
        std::snprintf(buf, sizeof(buf), "%016llx",
                      static_cast<unsigned long long>(h_));
        return buf;
    }

  private:
    template <typename T>
    void
    mix(T v)
    {
        unsigned char bytes[sizeof(T)];
        std::memcpy(bytes, &v, sizeof(T));
        for (unsigned char b : bytes) {
            h_ ^= b;
            h_ *= 1099511628211ull;
        }
    }

    uint64_t h_ = 1469598103934665603ull;
};

bool
generationFailed(const neat::GenerationStats &algo)
{
    return !std::isfinite(algo.bestFitness) ||
           !std::isfinite(algo.meanFitness);
}

// --- configuration shared by the untraced and traced loops -------------

void
disableTargetTermination(neat::NeatConfig &cfg)
{
    cfg.fitnessThreshold = std::numeric_limits<double>::infinity();
}

core::SystemConfig
systemConfig(const Workload &w, uint64_t seed, const std::string &ckptDir)
{
    core::SystemConfig cfg;
    cfg.envName = w.envName;
    cfg.episodesPerEval = w.episodes;
    cfg.seed = seed;
    cfg.numThreads = cpuCount();
    cfg.numericsTier = w.tier;
    cfg.tweakNeat = disableTargetTermination;
    if (w.checkpoint)
        cfg.checkpointDir = ckptDir;
    return cfg;
}

void
checkDeclared(const Workload &w, nn::NumericsTier tier, bool waves)
{
    if (tier != w.tier || waves != w.heterogeneousWaves)
        throw GateFailure(
            std::string("workload ") + w.name + " resolved tier " +
            nn::numericsTierName(tier) + ", eval path " +
            (waves ? "heterogeneous waves" : "per-genome batch") +
            ", not its declared configuration");
}

/**
 * The run's checkpoint directory, removed when this goes away. It
 * exists before any System is built, so set-up times never include
 * creating it, and is emptied after each rep.
 */
class ScratchDir
{
  public:
    explicit ScratchDir(const std::string &parent)
        : path_(parent + "/ckpt-" + std::to_string(getpid()))
    {
        std::filesystem::remove_all(path_);
        std::filesystem::create_directories(path_);
    }
    ~ScratchDir()
    {
        std::error_code ec;
        std::filesystem::remove_all(path_, ec);
    }
    ScratchDir(const ScratchDir &) = delete;
    ScratchDir &operator=(const ScratchDir &) = delete;

    const std::string &path() const { return path_; }

    void
    clear() const
    {
        for (const auto &entry : std::filesystem::directory_iterator(path_))
            std::filesystem::remove_all(entry.path());
    }

  private:
    std::string path_;
};

/** One repetition of a workload: every generation's wall and record. */
struct Rep
{
    /** The numerics tier and eval path the run resolved. */
    nn::NumericsTier tier = nn::NumericsTier::Reference;
    bool heterogeneousWaves = false;
    std::string hash;
    std::vector<double> genNs;
    long envSteps = 0;
    int attempted = 0;
    int failed = 0;
};

// --- untraced: core::System --------------------------------------------

double
timeSetup(const Workload &w, const Options &opt, const ScratchDir &dir)
{
    const auto t0 = Clock::now();
    core::System sys(systemConfig(w, opt.seed, dir.path()));
    return nsSince(t0) * 1e-9;
}

Rep
runSystem(const Workload &w, uint64_t seed, int gens, const ScratchDir &dir,
          double *setupSeconds)
{
    Rep rep;
    RecordHash hash;
    const auto s0 = Clock::now();
    core::System sys(systemConfig(w, seed, dir.path()));
    *setupSeconds = nsSince(s0) * 1e-9;
    rep.tier = sys.numericsTier();
    rep.heterogeneousWaves = sys.evalEngine().usesHeterogeneousWaves();

    for (int g = 0; g < gens; ++g) {
        ++rep.attempted;
        const auto t0 = Clock::now();
        try {
            sys.stepGeneration();
        } catch (const std::exception &e) {
            std::cerr << "generation " << g << " threw: " << e.what()
                      << "\n";
            ++rep.failed;
            break;
        }
        rep.genNs.push_back(nsSince(t0));
        const core::GenerationReport &r = sys.reports().back();
        rep.failed += generationFailed(r.algo) ? 1 : 0;
        rep.envSteps += r.inferenceSteps;
        hash.add(r.algo, r.hw);
    }
    rep.hash = hash.hex();
    return rep;
}

// --- traced: the same loop from the layers' public calls ---------------

/** One span: a call into a layer, made from this file. */
struct SpanRecord
{
    std::string name;
    std::string layer;
    double startNs = 0.0;
    double endNs = 0.0;
    /** The generation the span belongs to. */
    int traceId = 0;
    int id = 0;
    /** -1 for a root span. */
    int parent = -1;
};

/** In-memory span log; written out as Chrome trace JSON at exit. */
class SpanLog
{
  public:
    explicit SpanLog(Clock::time_point epoch) : epoch_(epoch) {}

    int
    open(std::string name, std::string layer, int traceId)
    {
        SpanRecord s;
        s.name = std::move(name);
        s.layer = std::move(layer);
        s.traceId = traceId;
        s.id = static_cast<int>(spans_.size());
        s.parent = stack_.empty() ? -1 : stack_.back();
        s.startNs = now();
        spans_.push_back(std::move(s));
        stack_.push_back(spans_.back().id);
        return spans_.back().id;
    }

    /** Close span `id` and any span still open inside it. */
    void
    close(int id)
    {
        const double end = now();
        while (!stack_.empty()) {
            const int top = stack_.back();
            stack_.pop_back();
            spans_[static_cast<size_t>(top)].endNs = end;
            if (top == id)
                break;
        }
    }

    const std::vector<SpanRecord> &spans() const { return spans_; }

    /**
     * Self time per layer of the span tree rooted at `root`: each
     * span's duration minus the part its children cover. The values
     * sum to the root's duration.
     */
    std::map<std::string, double>
    selfTimes(int root) const
    {
        std::map<std::string, double> self;
        for (size_t i = static_cast<size_t>(root); i < spans_.size(); ++i) {
            const SpanRecord &s = spans_[i];
            if (static_cast<int>(i) != root && !inTree(s, root))
                continue;
            self[s.layer] += s.endNs - s.startNs;
            if (s.parent >= 0 && static_cast<int>(i) != root)
                self[spans_[static_cast<size_t>(s.parent)].layer] -=
                    s.endNs - s.startNs;
        }
        return self;
    }

    void
    writeChromeTrace(const std::string &path) const
    {
        std::ofstream out(path);
        out << "{\"displayTimeUnit\":\"ms\",\"traceEvents\":[";
        for (size_t i = 0; i < spans_.size(); ++i) {
            const SpanRecord &s = spans_[i];
            char buf[512];
            std::snprintf(
                buf, sizeof(buf),
                "%s\n{\"name\":\"%s\",\"cat\":\"%s\",\"ph\":\"X\","
                "\"ts\":%.3f,\"dur\":%.3f,\"pid\":1,\"tid\":1,"
                "\"args\":{\"trace_id\":%d,\"span_id\":%d,"
                "\"parent_id\":%d}}",
                i == 0 ? "" : ",", s.name.c_str(), s.layer.c_str(),
                s.startNs * 1e-3, (s.endNs - s.startNs) * 1e-3, s.traceId,
                s.id, s.parent);
            out << buf;
        }
        out << "\n]}\n";
    }

  private:
    bool
    inTree(const SpanRecord &s, int root) const
    {
        for (int p = s.parent; p >= 0;
             p = spans_[static_cast<size_t>(p)].parent)
            if (p == root)
                return true;
        return false;
    }

    double now() const { return nsSince(epoch_); }

    Clock::time_point epoch_;
    std::vector<SpanRecord> spans_;
    std::vector<int> stack_;
};

class ScopedSpan
{
  public:
    ScopedSpan(SpanLog &log, std::string name, std::string layer,
               int traceId)
        : log_(log),
          id_(log.open(std::move(name), std::move(layer), traceId))
    {
    }
    ~ScopedSpan() { log_.close(id_); }
    ScopedSpan(const ScopedSpan &) = delete;
    ScopedSpan &operator=(const ScopedSpan &) = delete;

    int id() const { return id_; }

  private:
    SpanLog &log_;
    int id_;
};

/** Per-layer sums over every traced generation. */
struct LayerTotals
{
    int generations = 0;
    /** Generation wall and span self time per layer. */
    double genNs = 0.0;
    std::map<std::string, double> selfNs;

    /** Engine-side counts. */
    long genes = 0;
    long submitted = 0;
    long engineCompiles = 0;
    long planHits = 0;
    double evalNs = 0.0;
    double evalWorkerNs = 0.0;
    double busyNs = 0.0;
    int snapshots = 0;
    double snapshotBytes = 0.0;

    /** Serial replay of every generation's genomes. */
    double compileNs = 0.0;
    /** Replayed compile cost of the plans the engine compiled. */
    double engineCompileWorkNs = 0.0;
    double activateNs = 0.0;
    double macs = 0.0;
    long envSteps = 0;
    long episodes = 0;
    double envNs = 0.0;
    /** Genomes replayed; each took the engine's steps and fitness. */
    long replayMatched = 0;
};

/** What the engine reported for one genome, kept for the replay. */
struct EngineOutcome
{
    int key = -1;
    long inferences = 0;
    double fitness = 0.0;
};

/**
 * Replay one generation's genomes serially with the engine's episode
 * seeds, outside the generation's span. Chunk by chunk of genomes, one
 * pass (and one span) per layer: compile the plans; run the episodes,
 * recording observations and actions; step the environment alone on
 * the recorded actions; run the policies alone on the recorded
 * observations. Clocks are read per pass, not per call. The replayed
 * step count (one forward pass per step) and fitness must equal the
 * engine's for every genome.
 */
class Replayer
{
  public:
    /**
     * `lanes`: run the policy-only pass through the batched kernel,
     * one lane per episode, as the engine's per-genome batch path
     * does; otherwise one activate() per step.
     */
    Replayer(const std::string &envName, const neat::NeatConfig &cfg,
             nn::NumericsTier tier, int episodes, bool lanes)
        : env_(env::makeEnvironment(envName)), cfg_(cfg), tier_(tier),
          episodes_(episodes), lanes_(lanes), space_(env_->actionSpace())
    {
    }

    void
    replay(const std::map<int, neat::Genome> &genomes,
           const std::vector<EngineOutcome> &engine,
           const exec::EvalEngine::SeedFn &seedFor, long engineCompiles,
           SpanLog &log, int gen, LayerTotals &t)
    {
        ScopedSpan root(log, "replay", "replay", gen);
        const double stepBytes =
            static_cast<double>(cfg_.numInputs) * sizeof(double);
        double compileNs = 0.0;
        size_t begin = 0;
        while (begin < engine.size()) {
            // Chunks small enough that the recorded observations are
            // still in cache when the policy-only pass reads them, as
            // they are in the engine.
            size_t end = begin + 1;
            double bytes = static_cast<double>(engine[begin].inferences) *
                           stepBytes;
            while (end < engine.size() &&
                   bytes + static_cast<double>(engine[end].inferences) *
                                   stepBytes <=
                       kChunkBytes) {
                bytes += static_cast<double>(engine[end].inferences) *
                         stepBytes;
                ++end;
            }
            compileNs += replayChunk(genomes, engine, begin, end, seedFor,
                                     log, gen, t);
            begin = end;
        }
        t.compileNs += compileNs;
        if (!engine.empty())
            t.engineCompileWorkNs += compileNs /
                                     static_cast<double>(engine.size()) *
                                     static_cast<double>(engineCompiles);
    }

  private:
    static constexpr double kChunkBytes = 512.0 * 1024.0;

    /** Replay genomes [begin, end); returns their compile time. */
    double
    replayChunk(const std::map<int, neat::Genome> &genomes,
                const std::vector<EngineOutcome> &engine, size_t begin,
                size_t end, const exec::EvalEngine::SeedFn &seedFor,
                SpanLog &log, int gen, LayerTotals &t)
    {
        plans_.clear();
        double compileNs = 0.0;
        {
            ScopedSpan span(log, "nn.compileFor", "nn", gen);
            const auto t0 = Clock::now();
            for (size_t i = begin; i < end; ++i)
                plans_.push_back(nn::CompiledPlan::compileFor(
                    genomes.at(engine[i].key), cfg_, compileScratch_,
                    tier_));
            compileNs = nsSince(t0);
        }
        {
            ScopedSpan span(log, "replay.record", "replay", gen);
            record(engine, begin, seedFor, gen);
        }
        {
            ScopedSpan span(log, "env.step", "env", gen);
            const auto t0 = Clock::now();
            for (const Episode &e : recorded_) {
                env_->reset(e.seed);
                for (size_t k = e.first; k < e.first + e.steps; ++k)
                    env_->step(actions_[k]);
            }
            t.envNs += nsSince(t0);
        }
        {
            ScopedSpan span(log, "nn.activate", "nn", gen);
            const auto t0 = Clock::now();
            for (size_t i = 0; i < plans_.size(); ++i) {
                const size_t e0 = i * static_cast<size_t>(episodes_);
                if (lanes_)
                    activateLanes(plans_[i], e0);
                else
                    activate(plans_[i], e0);
            }
            t.activateNs += nsSince(t0);
        }
        for (size_t i = 0; i < plans_.size(); ++i) {
            long steps = 0;
            for (int e = 0; e < episodes_; ++e)
                steps += static_cast<long>(
                    recorded_[i * static_cast<size_t>(episodes_) +
                              static_cast<size_t>(e)]
                        .steps);
            t.macs += static_cast<double>(plans_[i].macsPerInference()) *
                      static_cast<double>(steps);
            t.envSteps += steps;
        }
        t.episodes += static_cast<long>(recorded_.size());
        t.replayMatched += static_cast<long>(plans_.size());
        return compileNs;
    }

    /** One recorded episode: its steps are [first, first + steps). */
    struct Episode
    {
        uint64_t seed = 0;
        size_t first = 0;
        size_t steps = 0;
    };

    /** Run the chunk's episodes, recording observations and actions. */
    void
    record(const std::vector<EngineOutcome> &engine, size_t begin,
           const exec::EvalEngine::SeedFn &seedFor, int gen)
    {
        obs_.clear();
        actions_.clear();
        recorded_.clear();
        for (size_t i = 0; i < plans_.size(); ++i) {
            const EngineOutcome &o = engine[begin + i];
            const nn::CompiledPlan &plan = plans_[i];
            double fitnessSum = 0.0;
            long steps = 0;
            for (int e = 0; e < episodes_; ++e) {
                Episode ep;
                ep.seed = seedFor(o.key, e);
                ep.first = obs_.size();
                plan.reset(scratch_);
                std::vector<double> obs = env_->reset(ep.seed);
                bool done = false;
                while (!done) {
                    plan.activate(obs, scratch_);
                    env::Action a =
                        env::decodeAction(space_, scratch_.outputs);
                    obs_.push_back(obs);
                    env::StepResult sr = env_->step(a);
                    actions_.push_back(std::move(a));
                    obs = std::move(sr.observation);
                    done = sr.done;
                }
                ep.steps = obs_.size() - ep.first;
                fitnessSum += env_->episodeFitness();
                steps += static_cast<long>(ep.steps);
                recorded_.push_back(ep);
            }
            const double fitness =
                fitnessSum / static_cast<double>(episodes_);
            if (steps != o.inferences || fitness != o.fitness) {
                std::ostringstream msg;
                msg << "replay of genome " << o.key << " in generation "
                    << gen << " took " << steps << " steps, fitness "
                    << fitness << "; the engine reported "
                    << o.inferences << " inferences, fitness "
                    << o.fitness;
                throw GateFailure(msg.str());
            }
        }
    }

    /** One activate() per step, episode after episode. */
    void
    activate(const nn::CompiledPlan &plan, size_t firstEpisode)
    {
        for (int e = 0; e < episodes_; ++e) {
            const Episode &ep =
                recorded_[firstEpisode + static_cast<size_t>(e)];
            plan.reset(scratch_);
            for (size_t k = ep.first; k < ep.first + ep.steps; ++k) {
                plan.activate(obs_[k], scratch_);
                sink_ += env::decodeAction(space_, scratch_.outputs).discrete;
            }
        }
    }

    /** The episodes in BSP lockstep, one lane each (evaluateBatched). */
    void
    activateLanes(const nn::CompiledPlan &plan, size_t firstEpisode)
    {
        const size_t width = static_cast<size_t>(episodes_);
        const size_t numIn = plan.numInputs();
        const size_t numOut = plan.numOutputs();
        plan.beginBatch(episodes_, batch_);
        active_.assign(width, 1);
        laneOutputs_.resize(numOut);
        size_t longest = 0;
        for (size_t l = 0; l < width; ++l)
            longest = std::max(longest,
                               recorded_[firstEpisode + l].steps);
        for (size_t s = 0; s < longest; ++s) {
            for (size_t l = 0; l < width; ++l) {
                const Episode &ep = recorded_[firstEpisode + l];
                active_[l] = s < ep.steps ? 1 : 0;
                if (!active_[l])
                    continue;
                const std::vector<double> &o = obs_[ep.first + s];
                for (size_t i = 0; i < numIn; ++i)
                    batch_.inputs[i * width + l] = o[i];
            }
            plan.activateBatch(episodes_, active_.data(), batch_);
            for (size_t l = 0; l < width; ++l) {
                if (!active_[l])
                    continue;
                for (size_t o = 0; o < numOut; ++o)
                    laneOutputs_[o] = batch_.outputs[o * width + l];
                sink_ += env::decodeAction(space_, laneOutputs_).discrete;
            }
        }
    }

    std::unique_ptr<env::Environment> env_;
    neat::NeatConfig cfg_;
    nn::NumericsTier tier_;
    int episodes_;
    bool lanes_;
    env::ActionSpace space_;
    nn::CompileScratch compileScratch_;
    nn::PlanScratch scratch_;
    nn::BatchScratch batch_;
    std::vector<uint8_t> active_;
    std::vector<double> laneOutputs_;
    /** The chunk's plans, recorded steps and episodes. */
    std::vector<nn::CompiledPlan> plans_;
    std::vector<std::vector<double>> obs_;
    std::vector<env::Action> actions_;
    std::vector<Episode> recorded_;
    long sink_ = 0;
};

/**
 * The generation loop of core::System::stepGeneration, rebuilt from
 * neat::Population, exec::EvalEngine, hw::GenesysSoc and persist, with
 * a span around each call. Must reproduce System's records exactly.
 */
Rep
runTraced(const Workload &w, uint64_t seed, int gens, const ScratchDir &dir,
          SpanLog &log, LayerTotals &t)
{
    core::WorkloadSpec spec = core::workload(w.envName);
    spec.episodes = w.episodes;
    neat::NeatConfig neatCfg = core::neatConfigFor(spec);
    disableTargetTermination(neatCfg);
    const core::SystemConfig defaults;

    neat::Population pop(neatCfg, seed);
    exec::EvalEngineConfig ecfg;
    ecfg.envName = w.envName;
    ecfg.numThreads = cpuCount();
    ecfg.episodes = spec.episodes;
    ecfg.waveWidth = defaults.soc.numEvePe;
    ecfg.batchEpisodes = defaults.batchEpisodes;
    ecfg.heterogeneousLanes = defaults.heterogeneousLanes;
    ecfg.waveLanes = defaults.waveLanes;
    ecfg.numericsTier = w.tier;
    exec::EvalEngine engine(ecfg);
    Rep rep;
    rep.tier = ecfg.numericsTier;
    rep.heterogeneousWaves = engine.usesHeterogeneousWaves();
    checkDeclared(w, rep.tier, rep.heterogeneousWaves);
    const hw::GenesysSoc soc(defaults.soc, defaults.energy);
    Replayer replayer(w.envName, neatCfg, w.tier, spec.episodes,
                      !engine.usesHeterogeneousWaves());
    const double threads = static_cast<double>(engine.numThreads());
    const neat::EvolutionTrace emptyTrace;

    RecordHash hash;
    for (int g = 0; g < gens; ++g) {
        ++rep.attempted;
        const int gen = pop.generation();
        // Copied before the generation's span opens: the replay needs
        // the genomes after reproduce has replaced them.
        const std::map<int, neat::Genome> genomes = pop.genomes();
        const auto seedFor = exec::EvalEngine::sharedEpisodeSeeds(
            deriveSeed(seed, static_cast<uint64_t>(gen)));
        std::vector<EngineOutcome> outcomes;
        long compiles = 0;
        core::GenerationReport report;
        int genSpanId = -1;
        try {
            ScopedSpan genSpan(log, "generation", "core", gen);
            genSpanId = genSpan.id();
            std::vector<hw::GenomeInferenceWork> work;
            long steps = 0;
            long maxEpisodeSteps = 0;
            double macs = 0.0;
            double compactCells = 0.0;
            double sparseCells = 0.0;
            auto evaluate = [&](const std::vector<neat::GenomeHandle>
                                    &batch) {
                ScopedSpan cb(log, "fitness_callback", "core", gen);
                const long c0 = engine.planCache().compiles();
                const long h0 = engine.planCache().hits();
                const uint64_t b0 = engine.workerBusyNs();
                std::vector<exec::GenomeEvalResult> results;
                {
                    ScopedSpan span(log, "exec.evaluateGeneration",
                                    "exec", gen);
                    const auto e0 = Clock::now();
                    results = engine.evaluateGeneration(batch, neatCfg,
                                                        seedFor);
                    report.batches = engine.lastBatchStats();
                    const double evalNs = nsSince(e0);
                    t.evalNs += evalNs;
                    t.evalWorkerNs += evalNs * threads;
                }
                t.busyNs +=
                    static_cast<double>(engine.workerBusyNs() - b0);
                compiles = engine.planCache().compiles() - c0;
                t.engineCompiles += compiles;
                t.planHits += engine.planCache().hits() - h0;
                t.submitted += static_cast<long>(batch.size());

                // System::stepGeneration's per-genome bookkeeping.
                std::vector<double> fits;
                fits.reserve(results.size());
                for (size_t i = 0; i < results.size(); ++i) {
                    const env::EvalDetail &d = results[i].detail;
                    fits.push_back(d.fitness);
                    steps += d.inferences;
                    macs += static_cast<double>(d.macs);
                    maxEpisodeSteps =
                        std::max(maxEpisodeSteps,
                                 static_cast<long>(d.maxEpisodeSteps));
                    outcomes.push_back(
                        {batch[i].key, d.inferences, d.fitness});
                    hw::GenomeInferenceWork wk;
                    wk.schedule = results[i].plan->schedule();
                    wk.inferences = d.inferences;
                    compactCells +=
                        static_cast<double>(wk.schedule.denseCells());
                    int maxKey = 0;
                    for (const auto &[nk, ng] : batch[i].genome->nodes())
                        maxKey = std::max(maxKey, nk);
                    const double dim = maxKey + neatCfg.numInputs + 1;
                    sparseCells += dim * dim;
                    work.push_back(std::move(wk));
                }
                return fits;
            };
            bool done = false;
            {
                ScopedSpan neatSpan(log, "neat.stepBatch", "neat", gen);
                done = pop.stepBatch(evaluate);
            }
            const double popSize = static_cast<double>(genomes.size());
            report.algo = pop.history().back();
            report.inferenceSteps = steps;
            report.maxEpisodeSteps = maxEpisodeSteps;
            report.macsPerStep =
                steps > 0 ? macs / static_cast<double>(steps) : 0.0;
            report.compactCellsPerGenome = compactCells / popSize;
            report.sparseCellsPerGenome = sparseCells / popSize;
            {
                ScopedSpan span(log, "hw.simulateGeneration", "hw", gen);
                const neat::EvolutionTrace &trace =
                    (!done && !pop.traces().empty()) ? pop.traces().back()
                                                     : emptyTrace;
                report.algo.evolutionOps = trace.totalOps();
                report.algo.opBreakdown = trace.opTotals();
                report.algo.maxParentReuse = trace.maxParentReuse();
                report.hw = soc.simulateGeneration(trace, work,
                                                   report.algo.memoryBytes);
            }
            if (w.checkpoint && !done) {
                persist::SystemSnapshot snap;
                {
                    ScopedSpan span(log, "persist.capture", "persist", gen);
                    snap.envName = w.envName;
                    snap.seed = seed;
                    snap.populationSize = neatCfg.populationSize;
                    snap.numInputs = neatCfg.numInputs;
                    snap.numOutputs = neatCfg.numOutputs;
                    snap.feedForward = neatCfg.feedForward;
                    snap.numericsTier = w.tier;
                    snap.population = pop.capture();
                }
                const std::string path =
                    dir.path() + "/" +
                    persist::snapshotFileName(pop.generation());
                {
                    ScopedSpan span(log, "persist.writeSnapshotFile",
                                    "persist", gen);
                    persist::writeSnapshotFile(snap, path);
                }
                ++t.snapshots;
                t.snapshotBytes +=
                    static_cast<double>(std::filesystem::file_size(path));
            }
        } catch (const std::exception &e) {
            std::cerr << "traced generation " << gen
                      << " threw: " << e.what() << "\n";
            ++rep.failed;
            break;
        }

        const SpanRecord &gs = log.spans()[static_cast<size_t>(genSpanId)];
        const double genNs = gs.endNs - gs.startNs;
        rep.genNs.push_back(genNs);
        rep.envSteps += report.inferenceSteps;
        rep.failed += generationFailed(report.algo) ? 1 : 0;
        hash.add(report.algo, report.hw);
        ++t.generations;
        t.genNs += genNs;
        t.genes += report.algo.totalGenes;
        for (const auto &[layer, ns] : log.selfTimes(genSpanId))
            t.selfNs[layer] += ns;

        replayer.replay(genomes, outcomes, seedFor, compiles, log, gen, t);
    }
    rep.hash = hash.hex();
    return rep;
}

// --- statistics and output ----------------------------------------------

/** Linear-interpolation quantile (q in [0, 1]) of unsorted samples. */
double
quantile(std::vector<double> v, double q)
{
    if (v.empty())
        return 0.0;
    std::sort(v.begin(), v.end());
    const double pos = q * static_cast<double>(v.size() - 1);
    const size_t lo = static_cast<size_t>(pos);
    const size_t hi = std::min(lo + 1, v.size() - 1);
    return v[lo] + (v[hi] - v[lo]) * (pos - static_cast<double>(lo));
}

double
ratio(double num, double den)
{
    return den != 0.0 ? num / den : 0.0;
}

struct Metric
{
    std::string name;
    double value;
    std::string unit;
};

std::string
jsonNumber(double v)
{
    if (!std::isfinite(v))
        return "null";
    char buf[64];
    std::snprintf(buf, sizeof(buf), "%.12g", v);
    return buf;
}

std::string
metricsJson(const std::vector<Metric> &metrics)
{
    std::ostringstream o;
    o << "{";
    for (size_t i = 0; i < metrics.size(); ++i)
        o << (i ? ", " : "") << "\"" << metrics[i].name
          << "\": {\"value\": " << jsonNumber(metrics[i].value)
          << ", \"unit\": \"" << metrics[i].unit << "\"}";
    o << "}";
    return o.str();
}

std::string
cpuModel()
{
    std::ifstream in("/proc/cpuinfo");
    std::string line;
    while (std::getline(in, line)) {
        if (line.rfind("model name", 0) == 0) {
            const size_t colon = line.find(':');
            if (colon != std::string::npos)
                return line.substr(line.find_first_not_of(' ', colon + 1));
        }
    }
    return "unknown";
}

/**
 * Peak resident set of this process image, from VmHWM. getrusage's
 * ru_maxrss would also count the parent's footprint at fork, which
 * exec does not reset.
 */
double
peakRssMb()
{
    std::ifstream in("/proc/self/status");
    std::string line;
    while (std::getline(in, line))
        if (line.rfind("VmHWM:", 0) == 0)
            return std::stod(line.substr(6)) / 1024.0; // kB
    throw std::runtime_error("no VmHWM in /proc/self/status");
}

/** Escape a string for a JSON string literal. */
std::string
jsonString(const std::string &s)
{
    std::string out = "\"";
    for (char c : s) {
        if (c == '"' || c == '\\')
            out += '\\';
        if (static_cast<unsigned char>(c) >= 0x20)
            out += c;
    }
    return out + "\"";
}

/** Everything a result file records besides the metrics. */
struct RunRecord
{
    /** As resolved by core::System, e.g. "reference", "waves". */
    std::string tier = "unresolved";
    std::string evalPath = "unresolved";
    std::vector<std::string> hashes;
    int reps = 0;
    int generationsPerRep = 0;
    long genSamples = 0;
    /** Per-generation wall of each untraced rep, in ms. */
    std::vector<std::vector<double>> genMsByRep;
    int setupSamples = 0;
    long attempted = 0;
    long failed = 0;
    bool correct = true;
    std::string gateMessage;
    /** Layer shares of the traced generation wall (trace runs). */
    std::vector<std::pair<std::string, double>> shares;
    /** Serial replay against the engine (trace runs). */
    long genomesSubmitted = 0;
    long genomesReplayed = 0;
    long engineInferences = 0;
    long replaySteps = 0;
};

/** Record what System resolved; throws unless it is as declared. */
void
recordResolved(const Workload &w, const Rep &rep, RunRecord &rec)
{
    rec.tier = nn::numericsTierName(rep.tier);
    rec.evalPath = rep.heterogeneousWaves ? "heterogeneous_waves"
                                          : "per_genome_batch";
    checkDeclared(w, rep.tier, rep.heterogeneousWaves);
}

void
writeResultFile(const Options &opt, const RunRecord &rec,
                const std::vector<Metric> &metrics)
{
    const Workload &w = *opt.workload;
    const bool release = std::string(PERFBENCH_BUILD_TYPE) == "Release";
    const bool comparable = release && !checkedBuild() &&
                            std::string(sanitizerName()) == "none";
    std::ostringstream o;
    o << "{\n  \"workload\": " << jsonString(w.name)
      << ",\n  \"env\": " << jsonString(w.envName)
      << ",\n  \"seed\": " << opt.seed
      << ",\n  \"trace\": " << (opt.trace ? 1 : 0)
      << ",\n  \"episodes_per_genome\": " << w.episodes
      << ",\n  \"threads\": " << cpuCount()
      << ",\n  \"numerics_tier\": " << jsonString(rec.tier)
      << ",\n  \"eval_path\": " << jsonString(rec.evalPath)
      << ",\n  \"checkpoint_every_generation\": "
      << (w.checkpoint ? "true" : "false")
      << ",\n  \"generations_per_rep\": " << rec.generationsPerRep
      << ",\n  \"reps\": " << rec.reps
      << ",\n  \"generation_samples\": " << rec.genSamples
      << ",\n  \"setup_samples\": " << rec.setupSamples
      << ",\n  \"attempted\": " << rec.attempted
      << ",\n  \"failed\": " << rec.failed
      << ",\n  \"failed_gen_frac\": "
      << jsonNumber(ratio(static_cast<double>(rec.failed),
                          static_cast<double>(rec.attempted)))
      << ",\n  \"correct\": " << (rec.correct ? "true" : "false")
      << ",\n  \"gate\": " << jsonString(rec.gateMessage)
      << ",\n  \"record_hashes\": [";
    for (size_t i = 0; i < rec.hashes.size(); ++i)
        o << (i ? ", " : "")
          << (rec.hashes[i].empty() ? "null" : jsonString(rec.hashes[i]));
    o << "],\n  \"gen_ms_by_rep\": [";
    for (size_t r = 0; r < rec.genMsByRep.size(); ++r) {
        o << (r ? ",\n    [" : "\n    [");
        for (size_t i = 0; i < rec.genMsByRep[r].size(); ++i)
            o << (i ? ", " : "") << jsonNumber(rec.genMsByRep[r][i]);
        o << "]";
    }
    o << "],\n  \"layer_share_of_generation_wall\": {";
    for (size_t i = 0; i < rec.shares.size(); ++i)
        o << (i ? ", " : "") << jsonString(rec.shares[i].first) << ": "
          << jsonNumber(rec.shares[i].second);
    o << "},\n  \"replay\": {\"genomes_submitted\": " << rec.genomesSubmitted
      << ", \"genomes_replayed\": " << rec.genomesReplayed
      << ", \"engine_inferences\": " << rec.engineInferences
      << ", \"replay_steps\": " << rec.replaySteps
      << "},\n  \"metrics\": " << metricsJson(metrics)
      << ",\n  \"provenance\": {\"git_sha\": " << jsonString(opt.gitSha)
      << ", \"source_digest\": " << jsonString(opt.sourceDigest)
      << ", \"nproc\": " << cpuCount()
      << ", \"cpu_model\": " << jsonString(cpuModel())
      << ", \"compiler\": " << jsonString(PERFBENCH_COMPILER)
      << ", \"build_type\": " << jsonString(PERFBENCH_BUILD_TYPE)
      << ", \"cxx_flags\": " << jsonString(PERFBENCH_CXX_FLAGS)
      << ", \"checked_build\": " << (checkedBuild() ? "true" : "false")
      << ", \"sanitizer\": " << jsonString(sanitizerName())
      << ", \"comparable\": " << (comparable ? "true" : "false")
      << "}\n}\n";

    const std::string path = opt.outDir + "/result-" + w.name + "-seed" +
                             std::to_string(opt.seed) + "-trace" +
                             (opt.trace ? "1" : "0") + ".json";
    std::ofstream(path) << o.str();
    if (!comparable)
        std::cerr << "warning: " << PERFBENCH_BUILD_TYPE
                  << " build, checked=" << checkedBuild()
                  << ", sanitizer=" << sanitizerName()
                  << ": numbers are not comparable\n";
}

/**
 * The correctness gate across repetitions: every rep of trajectory k
 * must reproduce the record hash of its first rep, and trajectory 0
 * the expected hash when one is given.
 */
class HashGate
{
  public:
    HashGate(const Options &opt, int trajectories)
        : expect_(opt.expectHash),
          hashes_(static_cast<size_t>(trajectories))
    {
    }

    void
    check(int k, const std::string &hash)
    {
        std::string &first = hashes_[static_cast<size_t>(k)];
        if (first.empty()) {
            first = hash;
            if (k == 0 && !expect_.empty() && hash != expect_)
                throw GateFailure("record hash " + hash +
                                  " differs from the expected " + expect_);
        } else if (hash != first) {
            throw GateFailure("trajectory " + std::to_string(k) +
                              ": record hash " + hash + " differs from " +
                              first + " on a repetition of the same seed");
        }
    }

    const std::vector<std::string> &hashes() const { return hashes_; }

  private:
    std::string expect_;
    std::vector<std::string> hashes_;
};

int
generationsFor(const Options &opt)
{
    return opt.generations > 0 ? opt.generations
                               : opt.workload->generations;
}

/**
 * Extra System constructions after each rep, so setup_s is a median
 * of samples spread over the run.
 */
constexpr int kSetupProbesPerRep = 4;

/**
 * Untraced core::System reps, trajectory after trajectory, until every
 * trajectory ran and trajectory 0 ran twice, and then until the time
 * is up.
 */
std::vector<Metric>
runEndToEnd(const Options &opt, RunRecord &rec)
{
    const Workload &w = *opt.workload;
    const int gens = generationsFor(opt);
    const auto start = Clock::now();
    const ScratchDir dir(opt.outDir);
    std::vector<double> setups;

    HashGate gate(opt, w.trajectories);
    std::vector<double> genNs;
    long steps = 0;
    do {
        const int k = rec.reps % w.trajectories;
        double setup = 0.0;
        const Rep rep =
            runSystem(w, trajectorySeed(opt.seed, k), gens, dir, &setup);
        dir.clear();
        recordResolved(w, rep, rec);
        gate.check(k, rep.hash);
        setups.push_back(setup);
        for (int i = 0; i < kSetupProbesPerRep; ++i)
            setups.push_back(timeSetup(w, opt, dir));
        rec.genMsByRep.emplace_back();
        for (double ns : rep.genNs)
            rec.genMsByRep.back().push_back(ns * 1e-6);
        genNs.insert(genNs.end(), rep.genNs.begin(), rep.genNs.end());
        steps += rep.envSteps;
        rec.attempted += rep.attempted;
        rec.failed += rep.failed;
        ++rec.reps;
    } while (rec.reps <= w.trajectories ||
             nsSince(start) < opt.seconds * 1e9);
    rec.hashes = gate.hashes();
    rec.generationsPerRep = gens;
    rec.genSamples = static_cast<long>(genNs.size());
    rec.setupSamples = static_cast<int>(setups.size());

    double wallNs = 0.0;
    for (double ns : genNs)
        wallNs += ns;
    const double wallS = wallNs * 1e-9;
    std::cout << w.name << ": " << rec.reps << " reps of " << gens
              << " generations over " << w.trajectories
              << " trajectories (" << genNs.size()
              << " generation samples), " << setups.size()
              << " set-ups, failed_gen_frac "
              << ratio(static_cast<double>(rec.failed),
                       static_cast<double>(rec.attempted))
              << "\n";
    return {
        {"gens_per_s", static_cast<double>(genNs.size()) / wallS, "1/s"},
        {"env_steps_per_s", static_cast<double>(steps) / wallS, "1/s"},
        {"gen_ms_p50", quantile(genNs, 0.5) * 1e-6, "ms"},
        {"gen_ms_p90", quantile(genNs, 0.9) * 1e-6, "ms"},
        {"setup_s", quantile(setups, 0.5), "s"},
        {"peak_rss_mb", peakRssMb(), "MB"},
    };
}

/**
 * Pairs of an untraced System rep and a traced rep of the same
 * trajectory, until the time is up; the two must hash alike.
 */
std::vector<Metric>
runLayers(const Options &opt, RunRecord &rec)
{
    const Workload &w = *opt.workload;
    const int gens = generationsFor(opt);
    const auto start = Clock::now();
    SpanLog log(start);
    LayerTotals t;
    HashGate gate(opt, w.trajectories);
    const ScratchDir dir(opt.outDir);
    double untracedNs = 0.0;
    long untracedGens = 0;
    double tracedNs = 0.0;
    long tracedGens = 0;
    do {
        const int k = (rec.reps / 2) % w.trajectories;
        const uint64_t seed = trajectorySeed(opt.seed, k);
        double setup = 0.0;
        const Rep plain = runSystem(w, seed, gens, dir, &setup);
        dir.clear();
        recordResolved(w, plain, rec);
        gate.check(k, plain.hash);
        const Rep traced = runTraced(w, seed, gens, dir, log, t);
        dir.clear();
        gate.check(k, traced.hash);
        for (const Rep *r : {&plain, &traced}) {
            rec.attempted += r->attempted;
            rec.failed += r->failed;
            rec.genSamples += static_cast<long>(r->genNs.size());
        }
        for (double ns : plain.genNs)
            untracedNs += ns;
        for (double ns : traced.genNs)
            tracedNs += ns;
        untracedGens += static_cast<long>(plain.genNs.size());
        tracedGens += static_cast<long>(traced.genNs.size());
        rec.engineInferences += traced.envSteps;
        rec.reps += 2;
    } while (nsSince(start) < opt.seconds * 1e9);
    rec.hashes = gate.hashes();
    rec.generationsPerRep = gens;
    rec.genomesSubmitted = t.submitted;
    rec.genomesReplayed = t.replayMatched;
    rec.replaySteps = t.envSteps;
    log.writeChromeTrace(opt.outDir + "/trace-" + w.name + "-seed" +
                         std::to_string(opt.seed) + ".json");

    // The span tree's self times must account for the generation wall.
    double selfSum = 0.0;
    for (const auto &[layer, ns] : t.selfNs)
        selfSum += ns;
    if (std::fabs(selfSum - t.genNs) > 1e-6 * t.genNs)
        throw GateFailure("layer self times do not add up to the "
                          "traced generation wall");

    const double genCount = static_cast<double>(t.generations);
    const double threads = static_cast<double>(cpuCount());
    auto self = [&](const char *layer) {
        const auto it = t.selfNs.find(layer);
        return it == t.selfNs.end() ? 0.0 : it->second;
    };
    const double evalWork =
        t.engineCompileWorkNs + t.activateNs + t.envNs;

    // Each layer's share of the traced generation wall. The serial
    // compile/activate/env work measured by the replay is spread over
    // the engine's threads; exec keeps the rest of evaluate's wall.
    rec.shares = {
        {"neat", self("neat")},
        {"nn.compile", t.engineCompileWorkNs / threads},
        {"nn.activate", t.activateNs / threads},
        {"env.step", t.envNs / threads},
        {"exec", self("exec") - evalWork / threads},
        {"hw", self("hw")},
        {"persist", self("persist")},
        {"core", self("core")},
    };
    for (auto &[layer, ns] : rec.shares)
        ns = ratio(ns, t.genNs);

    const double traceOverhead =
        ratio(tracedNs / static_cast<double>(tracedGens),
              untracedNs / static_cast<double>(untracedGens)) -
        1.0;
    std::cout << w.name << ": " << rec.reps / 2 << " traced + "
              << rec.reps / 2 << " untraced reps x " << gens
              << " generations; replay matched the engine on "
              << t.replayMatched << " genomes (" << t.envSteps
              << " steps)\nlayer self time as a share of the traced "
                 "generation wall ("
              << jsonNumber(t.genNs / genCount * 1e-6)
              << " ms/gen), trace.overhead_frac "
              << jsonNumber(traceOverhead) << ":\n";
    for (const auto &[layer, share] : rec.shares) {
        char line[96];
        std::snprintf(line, sizeof(line), "  %-12s %6.1f%%\n",
                      layer.c_str(), share * 100.0);
        std::cout << line;
    }

    return {
        {"neat.step_ms", self("neat") / genCount * 1e-6, "ms"},
        {"neat.genes", static_cast<double>(t.genes) / genCount, "count"},
        {"neat.ns_per_gene",
         ratio(self("neat"), static_cast<double>(t.genes)), "ns"},
        {"nn.compile_us",
         ratio(t.compileNs, static_cast<double>(t.replayMatched)) * 1e-3,
         "us"},
        {"nn.compiles",
         static_cast<double>(t.engineCompiles) / genCount, "count"},
        {"nn.plan_reuse_frac",
         ratio(static_cast<double>(t.planHits),
               static_cast<double>(t.submitted)),
         "fraction"},
        {"nn.activate_ns",
         ratio(t.activateNs, static_cast<double>(t.envSteps)), "ns"},
        {"nn.macs", ratio(t.macs, static_cast<double>(t.envSteps)),
         "count"},
        {"nn.activate_ns_per_mac", ratio(t.activateNs, t.macs), "ns"},
        {"env.step_ns", ratio(t.envNs, static_cast<double>(t.envSteps)),
         "ns"},
        {"env.steps_per_episode",
         ratio(static_cast<double>(t.envSteps),
               static_cast<double>(t.episodes)),
         "count"},
        {"exec.evaluate_ms", t.evalNs / genCount * 1e-6, "ms"},
        {"exec.busy_frac", ratio(t.busyNs, t.evalWorkerNs), "fraction"},
        {"exec.overhead_frac", 1.0 - ratio(evalWork, t.evalWorkerNs),
         "fraction"},
        {"persist.write_ms", self("persist") / genCount * 1e-6, "ms"},
        {"persist.snapshot_kb",
         ratio(t.snapshotBytes, static_cast<double>(t.snapshots)) / 1024.0,
         "kB"},
        {"hw.simulate_ms", self("hw") / genCount * 1e-6, "ms"},
        {"core.other_ms", self("core") / genCount * 1e-6, "ms"},
        {"trace.overhead_frac", traceOverhead, "fraction"},
    };
}

int
usage(const std::string &why)
{
    std::cerr << "loop_bench: " << why
              << "\nusage: loop_bench --workload NAME --seed N --seconds S"
                 " --trace 0|1 [--gens G] [--expect-hash HEX] [--out DIR]"
                 " [--git-sha SHA] [--source-digest HEX]\nworkloads:";
    for (const Workload &w : kWorkloads)
        std::cerr << " " << w.name;
    std::cerr << "\n";
    return kExitUsage;
}

} // namespace

int
main(int argc, char **argv)
{
    Options opt;
    for (int i = 1; i < argc; ++i) {
        const std::string arg = argv[i];
        if (i + 1 >= argc)
            return usage("missing value for " + arg);
        const std::string val = argv[++i];
        try {
            if (arg == "--workload") {
                for (const Workload &w : kWorkloads)
                    if (val == w.name)
                        opt.workload = &w;
                if (opt.workload == nullptr)
                    return usage("unknown workload " + val);
            } else if (arg == "--seed") {
                opt.seed = std::stoull(val);
            } else if (arg == "--seconds") {
                opt.seconds = std::stod(val);
            } else if (arg == "--trace") {
                if (val != "0" && val != "1")
                    return usage("--trace takes 0 or 1");
                opt.trace = val == "1";
            } else if (arg == "--gens") {
                opt.generations = std::stoi(val);
            } else if (arg == "--expect-hash") {
                opt.expectHash = val;
            } else if (arg == "--out") {
                opt.outDir = val;
            } else if (arg == "--git-sha") {
                opt.gitSha = val;
            } else if (arg == "--source-digest") {
                opt.sourceDigest = val;
            } else {
                return usage("unknown option " + arg);
            }
        } catch (const std::exception &) {
            return usage("bad value for " + arg + ": " + val);
        }
    }
    if (opt.workload == nullptr)
        return usage("--workload is required");
    if (opt.generations < 0 || !(opt.seconds >= 0.0))
        return usage("--gens and --seconds must not be negative");

    // core::System applies these on top of its config, which would
    // silently change what a workload measures.
    for (const char *var : kOverrideVars) {
        if (std::getenv(var) != nullptr) {
            std::cerr << "loop_bench: refusing to run with " << var
                      << " set; unset it so each workload measures its "
                         "declared configuration\n";
            return kExitUsage;
        }
    }

    RunRecord rec;
    std::vector<Metric> metrics;
    int code = 0;
    try {
        std::filesystem::create_directories(opt.outDir);
        metrics = opt.trace ? runLayers(opt, rec) : runEndToEnd(opt, rec);
    } catch (const GateFailure &e) {
        std::cerr << "loop_bench: correctness gate: " << e.what() << "\n";
        rec.correct = false;
        rec.gateMessage = e.what();
        code = kExitGate;
    } catch (const std::exception &e) {
        std::cerr << "loop_bench: " << e.what() << "\n";
        return kExitError;
    }
    if (rec.failed > 0)
        rec.correct = false;
    writeResultFile(opt, rec, metrics);
    std::cout << "{\"correct\": " << (rec.correct ? "true" : "false")
              << ", \"attempted\": " << std::max(1L, rec.attempted)
              << ", \"failed\": " << rec.failed
              << ", \"metrics\": " << metricsJson(metrics) << "}"
              << std::endl;
    return code;
}
