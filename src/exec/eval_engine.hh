/**
 * @file
 * EvalEngine — the parallel batched evaluation engine (the software
 * analogue of GeneSys' population-level parallelism, Table III). A
 * whole NEAT generation is submitted as one batch; a persistent
 * thread pool fans the genomes out across workers, each of which
 * owns a private shard of environment instances (EnvPool), so the
 * episode hot loop takes no locks. Within a worker, a genome's E
 * episodes step in BSP lockstep waves through the batched compiled
 * plan kernel (env::evaluateBatched) — one shared plan, one
 * environment lane per episode — mirroring the paper's PE-array wave
 * execution at episode granularity. Episode seeds come from a
 * SplitMix-style per-(genome, episode) mixer, which makes results a
 * pure function of (genome, seed) — bit-identical whether the batch
 * runs on 1 thread or N, and in whatever order workers claim items.
 *
 * Evaluation can also be pipelined with breeding: streamSink() hands
 * neat::Reproduction a sink that publishes each genome of the next
 * generation to the pool's workers the moment it is bred, so ADAM
 * work overlaps EvE work (the paper's two engines running side by
 * side). The next evaluateGeneration call collects those results by
 * key and evaluates only what was never streamed.
 *
 * The engine also records how the batch would map onto the EvE
 * PE-array: genomes are grouped into waves of `waveWidth` (one PE
 * per genome), each wave running in BSP lockstep until its longest
 * episode finishes. These BatchStats feed the hw::GenesysSoc
 * generation model.
 */

#ifndef GENESYS_EXEC_EVAL_ENGINE_HH
#define GENESYS_EXEC_EVAL_ENGINE_HH

#include <atomic>
#include <cstdint>
#include <exception>
#include <functional>
#include <mutex>
#include <span>
#include <string>
#include <vector>

#include "env/runner.hh"
#include "exec/env_pool.hh"
#include "exec/thread_pool.hh"
#include "neat/population.hh"
#include "nn/plan_cache.hh"

namespace genesys::exec
{

/** Evaluation outcome for one genome in a batch. */
struct GenomeEvalResult
{
    int genomeKey = -1;
    env::EvalDetail detail;
    /**
     * The compiled plan that executed the episodes — shared with the
     * engine's per-generation cache. Carries the levelized ADAM
     * schedule (plan->schedule()) so workload accounting reads the
     * exact structure the software executed.
     */
    std::shared_ptr<const nn::CompiledPlan> plan;
};

/**
 * One EvE PE-array wave: up to `waveWidth` genomes evaluated in BSP
 * lockstep — every PE steps its episode each superstep, and the wave
 * retires when its longest episode finishes.
 */
struct BatchWave
{
    /** Genomes mapped onto this wave (its occupancy). */
    int genomes = 0;
    /** Supersteps the wave runs: max inferences over its genomes. */
    long lockstepSteps = 0;
    /** Useful forward passes retired by the wave. */
    long totalInferences = 0;
};

/** How one generation's batch mapped onto PE-array waves. */
struct BatchStats
{
    int waveWidth = 0;
    std::vector<BatchWave> waves;

    /**
     * Measured lane occupancy of the heterogeneous-wave execution
     * path (env::evaluateWave), aggregated across every worker's
     * rolling wave. All zero when the batch ran through the
     * per-genome episode loop (env::evaluateBatched) instead. `laneCount` is the
     * configured lane width per worker wave shard; the remaining
     * counters aggregate the per-worker WaveStats — see
     * env::WaveStats for field semantics.
     */
    int laneCount = 0;
    /**
     * Genomes of the batch whose results came from a stream (see
     * EvalEngine::streamSink) rather than being evaluated by this
     * call; they ran the per-genome path, never the wave scheduler.
     */
    int streamedGenomes = 0;
    long waveSupersteps = 0;
    long waveLaneSlotSteps = 0;
    long waveActiveLaneSteps = 0;
    long waveRefills = 0;
    long waveGroupedLaneActivations = 0;

    /** Total BSP supersteps across all waves (waves run back to back). */
    long lockstepSteps() const;
    /** Useful forward passes across all waves. */
    long totalInferences() const;
    /** Mean fraction of wave slots holding a genome. */
    double meanOccupancy() const;
    /**
     * Useful work / lockstep-slot work: 1.0 when every genome in a
     * wave runs episodes of equal length, lower when short episodes
     * idle behind the wave's longest one.
     */
    double lockstepEfficiency() const;
    /**
     * Fraction of heterogeneous-wave lane slots that held a live
     * episode (waveActiveLaneSteps / waveLaneSlotSteps); 0 when the
     * wave path did not run. The headline occupancy counter: > 0.9
     * on an episodesPerEval == 1 batch large enough to keep the
     * refill queue full, where per-genome batching idles at 1/lane.
     */
    double laneOccupancy() const;
};

/** Engine configuration. */
struct EvalEngineConfig
{
    /** Table I environment name; each worker gets its own instances. */
    std::string envName = "CartPole_v0";
    /** Worker threads (caller included). 0 = hardware concurrency. */
    int numThreads = 1;
    /** Episodes per genome evaluation. */
    int episodes = 1;
    /**
     * Genomes per EvE PE-array wave for the batch statistics.
     * 0 = the whole generation fits one wave.
     */
    int waveWidth = 0;
    /**
     * Step each genome's episodes in BSP lockstep waves of
     * `episodeLanes` lanes. false is exactly `episodeLanes = 1`: the
     * same env::evaluateBatched loop, one episode at a time. The
     * field outlives its meaning only because the closed-loop
     * benchmark sets it; deleting it waits for the benchmark change
     * that retires the eval-mode knobs (ROADMAP item 1).
     */
    bool batchEpisodes = true;
    /**
     * Concurrent episode lanes per worker when batching: each worker
     * shard holds this many environment instances and a genome's
     * episodes run in waves of this width. 0 = all `episodes` in one
     * wave; values above `episodes` are clamped to it.
     */
    int episodeLanes = 0;
    /**
     * Pack one episode each of up to `waveLanes` *different* genomes
     * into a plan-heterogeneous BSP wave (env::evaluateWave) when
     * `episodes == 1` — the occupancy lever for the common
     * single-episode configuration, where per-genome episode
     * batching degenerates to lane width 1. Lanes freed by finished
     * episodes refill from the worker's pending-genome queue, so
     * measured lane occupancy (BatchStats::laneOccupancy) stays near
     * 1. Falls back to per-genome episode batching when
     * `episodes > 1`. Results are bit-identical across both
     * execution paths.
     */
    bool heterogeneousLanes = true;
    /**
     * Lane width of each worker's wave shard in heterogeneous mode
     * (0 = 8). The engine-wide lane count is numThreads * waveLanes.
     * Resolved to 1 when the wave path is inactive.
     */
    int waveLanes = 0;
    /**
     * Numerics tier every genome compiles under (see nn/numerics.hh):
     * Reference is the bit-identical float path; HwFaithful quantizes
     * attributes and activations through the Q6.10 gene format and
     * runs the branch-free approximation kernels. Tiers are distinct
     * numerics by design — digests match within a tier, not across.
     */
    nn::NumericsTier numericsTier = nn::NumericsTier::Reference;
};

/**
 * Apply the GENESYS_EVAL_MODE environment variable to `cfg`:
 * "serial" runs the per-genome loop one episode at a time (episode
 * batching and heterogeneous waves off),
 * "batch" selects per-genome episode batching only, and "waves"
 * enables the full heterogeneous-wave scheduler. Unset (or empty)
 * leaves `cfg` untouched; anything else is a fatal configuration
 * error. This is the CI test-matrix hook — the workflow runs the
 * whole suite once per mode — and core::System applies it on top of
 * SystemConfig, so every System-level test exercises the selected
 * path. All three modes are bit-identical by contract.
 */
void applyEvalModeFromEnv(EvalEngineConfig &cfg);

/**
 * Apply the GENESYS_NUMERICS environment variable to `cfg`:
 * "reference" selects the float tier, "hw" the hardware-faithful
 * fixed-point tier. Unset (or empty) leaves `cfg` untouched; anything
 * else is a fatal configuration error. Like GENESYS_EVAL_MODE this is
 * a CI matrix hook — core::System applies it on top of SystemConfig —
 * but unlike the eval modes the tiers are *not* bit-identical to each
 * other, so digest-pinning tests must set the tier explicitly.
 */
void applyNumericsFromEnv(EvalEngineConfig &cfg);

/**
 * Persistent batch evaluator: construct once per run, submit one
 * generation at a time.
 */
class EvalEngine
{
  public:
    /** Maps (genomeKey, episode index) to an episode seed. */
    using SeedFn = std::function<uint64_t(int genomeKey, int episode)>;

    explicit EvalEngine(EvalEngineConfig cfg);
    /** Discards an open stream (see discardStream) first. */
    ~EvalEngine();

    EvalEngine(const EvalEngine &) = delete;
    EvalEngine &operator=(const EvalEngine &) = delete;

    /**
     * Evaluate one generation's genomes concurrently. Results are
     * returned in submission order regardless of which worker ran
     * which genome; given the same seeds they are bit-identical
     * across thread counts.
     *
     * If a stream is open (see streamSink), this first joins it:
     * genomes whose key was streamed take the streamed result, and
     * streamed keys absent from `batch` are discarded. Only the
     * genomes never streamed are evaluated here, routed exactly as a
     * whole batch is (wave scheduler or per-genome fan-out). An
     * exception thrown by any genome, streamed or not, surfaces here.
     */
    std::vector<GenomeEvalResult>
    evaluateGeneration(const std::vector<neat::GenomeHandle> &batch,
                       const neat::NeatConfig &cfg,
                       const SeedFn &seedFor);

    /**
     * A sink that streams the next generation into this engine while
     * it is bred (neat::Population::stepBatch's sink overload):
     *   - begin(eliteKeys) prunes the plan cache to the elites — the
     *     cache never holds two generations, and elites still skip
     *     recompilation — and opens the stream;
     *   - genome(h) publishes `h` to the pool's workers, which
     *     compile it and run its episodes with `seedFor` right away;
     *   - abandon() is discardStream().
     * A stream holds at most cfg.populationSize genomes (what
     * reproduction breeds). `seedFor` must be the seed function the
     * collecting evaluateGeneration call will pass. Streamed genomes always run
     * the per-genome path (the wave scheduler needs the whole batch
     * up front), which is bit-identical to it by contract. The
     * streamed genomes must stay alive and unmodified until that
     * call (or discardStream) returns.
     */
    neat::GenomeSink streamSink(const neat::NeatConfig &cfg,
                                SeedFn seedFor);

    /**
     * Drop an open stream: genomes not yet started are skipped,
     * in-flight ones finish, and every streamed result is
     * discarded. A no-op without an open stream. Call it before
     * freeing streamed genomes the engine will not collect.
     */
    void discardStream();

    /**
     * SplitMix-style per-(genome, episode) seed mixer: two chained
     * deriveSeed() (SplitMix64 finalizer) rounds, one per coordinate.
     */
    static uint64_t mixSeed(uint64_t base, uint64_t genomeKey,
                            uint64_t episode);

    /**
     * The default seed policy: every genome sees the same episode
     * seeds (the paper's level playing field — the population is
     * ranked on identical episode sets).
     */
    static SeedFn sharedEpisodeSeeds(uint64_t base);

    /**
     * Independent episodes per genome via mixSeed — for stochastic
     * fitness averaging where correlated episodes are undesirable.
     */
    static SeedFn perGenomeSeeds(uint64_t base);

    /** Wave mapping of the most recent batch. */
    const BatchStats &lastBatchStats() const { return lastBatch_; }

    /**
     * The plan cache: pruned at the top of every evaluateGeneration
     * call to the submitted keys (or, for a streamed generation,
     * when the stream begins, to the elite keys), so its size is
     * bounded by the generation's batch size while elite genomes
     * (same key as the previous generation) keep their compiled plan
     * across generations — zero recompiles for elites.
     */
    const nn::PlanCache &planCache() const { return planCache_; }

    int numThreads() const { return pool_.size(); }
    int episodes() const { return cfg_.episodes; }
    const EvalEngineConfig &config() const { return cfg_; }

    /**
     * Aggregate nanoseconds the pool's workers (caller included)
     * spent inside evaluation bodies — see ThreadPool::busyNs().
     * core::System differences this across a generation to compute
     * the barrier-idle fraction.
     */
    uint64_t workerBusyNs() const { return pool_.busyNs(); }

    /**
     * Does this engine route whole batches through the plan-
     * heterogeneous wave scheduler? True iff batching is enabled,
     * `heterogeneousLanes` is set and the config evaluates one
     * episode per genome. Streamed genomes never take it; a batch
     * that did reports laneCount > 0 in lastBatchStats().
     */
    bool usesHeterogeneousWaves() const;

  private:
    /**
     * Open a per-genome job on the pool: up to `capacity` genomes,
     * each evaluated by evaluateOne with `cfg` and `seedFor`.
     */
    void openJob(const neat::NeatConfig &cfg, const SeedFn &seedFor,
                 std::size_t capacity);
    /** Publish genomes to the open job, in order. */
    void submit(std::span<const neat::GenomeHandle> genomes);
    /**
     * Join the open job; its results in submission order. Rethrows
     * the first exception a genome threw, with the job closed and
     * the engine ready for the next one.
     */
    std::vector<GenomeEvalResult> joinJob();
    /**
     * The per-genome body: compile (plan cache) and run one job
     * genome's episodes on `worker`'s private shard.
     */
    void evaluateOne(std::size_t item, int worker);

    /**
     * parallelFor with exception containment: a throwing item (e.g. a
     * plan-compile validation panic) is captured and rethrown on the
     * calling thread after the batch joins, instead of escaping a
     * pool worker and terminating the process. First exception wins;
     * remaining items still run (their results are discarded by the
     * rethrow).
     */
    void runParallel(std::size_t count,
                     const std::function<void(std::size_t item,
                                              int worker)> &body);

    /** The heterogeneous-wave evaluation path (episodes == 1 fast
     *  lane; also correct for episodes > 1). */
    void evaluateWaves(const std::vector<neat::GenomeHandle> &batch,
                       const neat::NeatConfig &cfg,
                       const SeedFn &seedFor,
                       std::vector<GenomeEvalResult> &results);

    /** The per-genome fan-out: submit every genome, then collect. */
    void evaluatePerGenome(const std::vector<neat::GenomeHandle> &batch,
                           const neat::NeatConfig &cfg,
                           const SeedFn &seedFor,
                           std::vector<GenomeEvalResult> &results);

    /**
     * Publish the batch that just finished into the active
     * MetricsRegistry (no-op when none is installed): BatchStats
     * occupancy/superstep counters, plan-cache compile/hit/
     * carry-over deltas since the last publish, and the episode-step
     * histogram. Runs once per generation, after the parallel phase.
     */
    void publishMetrics(const std::vector<GenomeEvalResult> &results);

    EvalEngineConfig cfg_;
    ThreadPool pool_;
    EnvPool envs_;
    BatchStats lastBatch_;
    nn::PlanCache planCache_;
    /** Plan-cache counter snapshots from the last publishMetrics. */
    long seenCompiles_ = 0;
    long seenHits_ = 0;
    long seenCarriedOver_ = 0;
    long seenRaces_ = 0;
    long seenCompileNs_ = 0;
    /**
     * One batched-episode scratch per worker, reused across genomes
     * and generations — the runner side of the episode hot loop
     * allocates nothing once the buffers have warmed up.
     */
    std::vector<env::EpisodeBatchScratch> batchScratch_;
    /** One heterogeneous-wave scratch per worker, reused likewise. */
    std::vector<env::WaveScratch> waveScratch_;

    /**
     * The open per-genome job. Both vectors are sized to the job's
     * capacity when it opens and never reallocate while it runs, so
     * the caller can fill slot n while workers read slot m < n.
     */
    neat::NeatConfig jobCfg_;
    SeedFn jobSeeds_;
    std::vector<neat::GenomeHandle> jobGenomes_;
    std::vector<GenomeEvalResult> jobResults_;
    std::size_t jobSubmitted_ = 0;
    /** Is the open job a stream (collected by evaluateGeneration)? */
    bool streamOpen_ = false;
    /** Set while discarding: job genomes not yet started are skipped. */
    std::atomic<bool> discarding_{false};
    /** First exception a job genome threw (guarded by jobErrorMutex_). */
    std::mutex jobErrorMutex_;
    std::exception_ptr jobError_;
};

} // namespace genesys::exec

#endif // GENESYS_EXEC_EVAL_ENGINE_HH
