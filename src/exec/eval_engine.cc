#include "exec/eval_engine.hh"

#include <algorithm>
#include <cstdlib>
#include <exception>
#include <mutex>

#include "common/logging.hh"
#include "common/rng.hh"
#include "obs/metrics.hh"
#include "obs/tracer.hh"

namespace genesys::exec
{

long
BatchStats::lockstepSteps() const
{
    long total = 0;
    for (const auto &w : waves)
        total += w.lockstepSteps;
    return total;
}

long
BatchStats::totalInferences() const
{
    long total = 0;
    for (const auto &w : waves)
        total += w.totalInferences;
    return total;
}

double
BatchStats::meanOccupancy() const
{
    if (waves.empty() || waveWidth <= 0)
        return 0.0;
    long slots = 0;
    long used = 0;
    for (const auto &w : waves) {
        slots += waveWidth;
        used += w.genomes;
    }
    return static_cast<double>(used) / static_cast<double>(slots);
}

double
BatchStats::lockstepEfficiency() const
{
    long slot_steps = 0;
    for (const auto &w : waves)
        slot_steps += w.lockstepSteps * w.genomes;
    return slot_steps > 0 ? static_cast<double>(totalInferences()) /
                                static_cast<double>(slot_steps)
                          : 0.0;
}

double
BatchStats::laneOccupancy() const
{
    return waveLaneSlotSteps > 0
               ? static_cast<double>(waveActiveLaneSteps) /
                     static_cast<double>(waveLaneSlotSteps)
               : 0.0;
}

void
applyEvalModeFromEnv(EvalEngineConfig &cfg)
{
    const char *mode = std::getenv("GENESYS_EVAL_MODE");
    if (mode == nullptr || *mode == '\0')
        return;
    const std::string m(mode);
    if (m == "serial") {
        cfg.batchEpisodes = false;
        cfg.heterogeneousLanes = false;
    } else if (m == "batch") {
        cfg.batchEpisodes = true;
        cfg.heterogeneousLanes = false;
    } else if (m == "waves") {
        cfg.batchEpisodes = true;
        cfg.heterogeneousLanes = true;
    } else {
        fatal("unknown GENESYS_EVAL_MODE \"" + m +
              "\" (expected serial, batch or waves)");
    }
}

void
applyNumericsFromEnv(EvalEngineConfig &cfg)
{
    const char *tier = std::getenv("GENESYS_NUMERICS");
    if (tier == nullptr || *tier == '\0')
        return;
    cfg.numericsTier = nn::numericsTierFromName(tier);
}

uint64_t
EvalEngine::mixSeed(uint64_t base, uint64_t genomeKey, uint64_t episode)
{
    return deriveSeed(deriveSeed(base, genomeKey), episode);
}

EvalEngine::SeedFn
EvalEngine::sharedEpisodeSeeds(uint64_t base)
{
    return [base](int /*genomeKey*/, int episode) {
        return deriveSeed(base, static_cast<uint64_t>(episode));
    };
}

EvalEngine::SeedFn
EvalEngine::perGenomeSeeds(uint64_t base)
{
    return [base](int genomeKey, int episode) {
        return mixSeed(base, static_cast<uint64_t>(genomeKey),
                       static_cast<uint64_t>(episode));
    };
}

namespace
{

/** Episode lanes each worker shard needs for `cfg`'s episode loop. */
int
resolveLanes(const EvalEngineConfig &cfg)
{
    if (!cfg.batchEpisodes)
        return 1;
    const int lanes =
        cfg.episodeLanes > 0 ? cfg.episodeLanes : cfg.episodes;
    return std::max(1, std::min(lanes, cfg.episodes));
}

/** Default lane width of a worker's heterogeneous wave shard. */
constexpr int kDefaultWaveLanes = 8;

/**
 * The single wave-path activation predicate — shard sizing
 * (resolveWaveLanes) and batch routing (usesHeterogeneousWaves) must
 * agree, so both read this. batchEpisodes == false is the blanket
 * batching opt-out: it selects the plain serial loop, never the wave
 * scheduler.
 */
bool
wavesActive(const EvalEngineConfig &cfg)
{
    return cfg.batchEpisodes && cfg.heterogeneousLanes &&
           cfg.episodes == 1;
}

/** Wave-shard lanes `cfg` needs (1 when the wave path is inactive). */
int
resolveWaveLanes(const EvalEngineConfig &cfg)
{
    if (!wavesActive(cfg))
        return 1;
    return cfg.waveLanes > 0 ? cfg.waveLanes : kDefaultWaveLanes;
}

} // namespace

EvalEngine::EvalEngine(EvalEngineConfig cfg)
    : cfg_(std::move(cfg)),
      pool_(ThreadPool::resolveThreads(cfg_.numThreads)),
      envs_(cfg_.envName, pool_.size(),
            std::max(resolveLanes(cfg_), resolveWaveLanes(cfg_))),
      batchScratch_(static_cast<size_t>(pool_.size())),
      waveScratch_(static_cast<size_t>(pool_.size()))
{
    GENESYS_ASSERT(cfg_.episodes > 0,
                   "EvalEngine needs episodes > 0, got "
                       << cfg_.episodes);
    cfg_.numThreads = pool_.size();
    cfg_.episodeLanes = resolveLanes(cfg_);
    cfg_.waveLanes = resolveWaveLanes(cfg_);
}

bool
EvalEngine::usesHeterogeneousWaves() const
{
    return wavesActive(cfg_);
}

void
EvalEngine::runParallel(std::size_t count,
                        const std::function<void(std::size_t, int)> &body)
{
    // An exception escaping a pool worker's jobBody_ would terminate
    // the process (workers have no handler); capture the first one
    // here and rethrow it on the calling thread once the batch joins,
    // so a bad genome (e.g. a plan-compile validation failure)
    // surfaces as an ordinary exception at any thread count.
    std::mutex mutex;
    std::exception_ptr first;
    pool_.parallelFor(count, [&](std::size_t i, int worker) {
        try {
            body(i, worker);
        } catch (...) {
            std::lock_guard<std::mutex> lock(mutex);
            if (!first)
                first = std::current_exception();
        }
    });
    if (first)
        std::rethrow_exception(first);
}

EvalEngine::~EvalEngine()
{
    // Members die in reverse order — scratch and environment shards
    // before the pool joins its threads — so no streamed genome may
    // still be running once this body returns.
    discardStream();
}

void
EvalEngine::openJob(const neat::NeatConfig &cfg, const SeedFn &seedFor,
                    std::size_t capacity)
{
    jobCfg_ = cfg;
    jobSeeds_ = seedFor;
    jobGenomes_.assign(capacity, neat::GenomeHandle{});
    jobResults_.assign(capacity, GenomeEvalResult{});
    jobSubmitted_ = 0;
    pool_.beginJob(
        [this](std::size_t item, int worker) { evaluateOne(item, worker); });
}

void
EvalEngine::submit(std::span<const neat::GenomeHandle> genomes)
{
    GENESYS_ASSERT(jobSubmitted_ + genomes.size() <= jobGenomes_.size(),
                   "eval job over capacity: "
                       << jobSubmitted_ + genomes.size() << " > "
                       << jobGenomes_.size() << " genomes");
    // Fill the slots before publishing them: a worker may claim an
    // item the moment it is published.
    for (const neat::GenomeHandle &h : genomes)
        jobGenomes_[jobSubmitted_++] = h;
    pool_.publish(genomes.size());
}

std::vector<GenomeEvalResult>
EvalEngine::joinJob()
{
    pool_.join();
    streamOpen_ = false;
    jobResults_.resize(jobSubmitted_);
    std::vector<GenomeEvalResult> results = std::move(jobResults_);
    jobResults_.clear();
    std::exception_ptr error;
    {
        std::lock_guard<std::mutex> lock(jobErrorMutex_);
        std::swap(error, jobError_);
    }
    if (error)
        std::rethrow_exception(error);
    return results;
}

void
EvalEngine::evaluateOne(std::size_t item, int worker)
{
    if (discarding_.load(std::memory_order_relaxed))
        return;
    // An exception escaping a pool worker would terminate the
    // process; keep the first one for joinJob to rethrow on the
    // caller. The job's other genomes still run.
    try {
        // Each item touches only its own result slot and the
        // worker's private environment shard, so the hot loop is
        // lock-free (the plan cache takes a brief lock per genome,
        // once, outside the episode loop). Each genome is compiled
        // exactly once and the resulting immutable plan is shared
        // read-only by all of its episodes and by workload
        // accounting. A genome's episodes run in BSP lockstep waves
        // across the worker's episode lanes (batched kernel) unless
        // batching is disabled — both paths are bit-identical, per
        // episode and in aggregate.
        const neat::GenomeHandle &h = jobGenomes_[item];
        obs::Span span("eval.genome", "evaluate", h.key);
        std::vector<uint64_t> seeds(static_cast<std::size_t>(cfg_.episodes));
        for (int e = 0; e < cfg_.episodes; ++e)
            seeds[static_cast<std::size_t>(e)] = jobSeeds_(h.key, e);

        GenomeEvalResult &out = jobResults_[item];
        out.genomeKey = h.key;
        out.plan = planCache_.acquire(h.key, *h.genome, jobCfg_,
                                      cfg_.numericsTier);
        if (cfg_.batchEpisodes) {
            out.detail = env::evaluateBatched(
                *out.plan, seeds, envs_.shard(worker),
                batchScratch_[static_cast<std::size_t>(worker)]);
        } else {
            env::EpisodeRunner runner(envs_.at(worker));
            out.detail = runner.evaluateDetailed(*out.plan, seeds);
        }
    } catch (...) {
        std::lock_guard<std::mutex> lock(jobErrorMutex_);
        if (!jobError_)
            jobError_ = std::current_exception();
    }
}

neat::GenomeSink
EvalEngine::streamSink(const neat::NeatConfig &cfg, SeedFn seedFor)
{
    neat::GenomeSink sink;
    sink.begin = [this, cfg, seedFor = std::move(seedFor)](
                     const std::vector<int> &eliteKeys) {
        GENESYS_ASSERT(!pool_.jobOpen(),
                       "stream begun while another job is open");
        // Drop the previous generation's plans before the first child
        // compiles: elites keep theirs, and the cache never holds two
        // generations at once.
        planCache_.beginGeneration(eliteKeys);
        openJob(cfg, seedFor, static_cast<std::size_t>(cfg.populationSize));
        streamOpen_ = true;
    };
    sink.genome = [this](const neat::GenomeHandle &h) {
        GENESYS_ASSERT(streamOpen_, "genome streamed before begin()");
        submit({&h, 1});
    };
    sink.abandon = [this] { discardStream(); };
    return sink;
}

void
EvalEngine::discardStream()
{
    if (!streamOpen_)
        return;
    discarding_.store(true, std::memory_order_relaxed);
    try {
        joinJob();
    } catch (...) {
        // A discarded genome's failure has no one to report to.
    }
    discarding_.store(false, std::memory_order_relaxed);
}

void
EvalEngine::evaluatePerGenome(const std::vector<neat::GenomeHandle> &batch,
                              const neat::NeatConfig &cfg,
                              const SeedFn &seedFor,
                              std::vector<GenomeEvalResult> &results)
{
    if (batch.empty())
        return;
    openJob(cfg, seedFor, batch.size());
    submit(batch);
    results = joinJob();
}

std::vector<GenomeEvalResult>
EvalEngine::evaluateGeneration(const std::vector<neat::GenomeHandle> &batch,
                               const neat::NeatConfig &cfg,
                               const SeedFn &seedFor)
{
    obs::Span batch_span("eval.batch", "evaluate",
                         static_cast<int64_t>(batch.size()));

    // Collect the stream first: the caller thread joins the workers
    // on whatever streamed genomes are still pending.
    const bool streamed = streamOpen_;
    std::vector<GenomeEvalResult> ahead;
    if (streamed)
        ahead = joinJob();
    std::sort(ahead.begin(), ahead.end(),
              [](const GenomeEvalResult &a, const GenomeEvalResult &b) {
                  return a.genomeKey < b.genomeKey;
              });

    std::vector<int> batchKeys;
    batchKeys.reserve(batch.size());
    for (const neat::GenomeHandle &h : batch)
        batchKeys.push_back(h.key);
    if (streamed) {
        // Pruned to the elites when the stream began; now shed the
        // plans of streamed genomes this batch does not contain.
        planCache_.retain(batchKeys);
    } else {
        // New generation: keep plans for keys that survived (elites
        // are copied unchanged under the same key — the paper's
        // "genome stays resident in the Genome Buffer, no EvE work"),
        // drop the rest so the cache stays bounded at the batch
        // size. Elite genomes are therefore never recompiled.
        planCache_.beginGeneration(batchKeys);
    }

    lastBatch_ = BatchStats{};

    // Take streamed results by key; evaluate the rest now.
    std::vector<GenomeEvalResult> results(batch.size());
    std::vector<neat::GenomeHandle> rest;
    std::vector<std::size_t> restAt;
    for (std::size_t i = 0; i < batch.size(); ++i) {
        const auto it = std::lower_bound(
            ahead.begin(), ahead.end(), batch[i].key,
            [](const GenomeEvalResult &r, int key) {
                return r.genomeKey < key;
            });
        if (it != ahead.end() && it->genomeKey == batch[i].key) {
            results[i] = std::move(*it);
            ++lastBatch_.streamedGenomes;
        } else {
            rest.push_back(batch[i]);
            restAt.push_back(i);
        }
    }

    std::vector<GenomeEvalResult> restResults(rest.size());
    if (usesHeterogeneousWaves()) {
        // Cross-genome wave scheduling: one episode each of many
        // different genomes per lane wave, with lane refill — the
        // occupancy lever when episodes == 1 collapses per-genome
        // batching to a single lane.
        evaluateWaves(rest, cfg, seedFor, restResults);
    } else {
        evaluatePerGenome(rest, cfg, seedFor, restResults);
    }
    for (std::size_t j = 0; j < rest.size(); ++j)
        results[restAt[j]] = std::move(restResults[j]);

    // Map the batch onto EvE PE-array waves: genomes fill waves in
    // submission order, one PE per genome; each wave runs in BSP
    // lockstep until its longest episode set finishes.
    const int width =
        cfg_.waveWidth > 0
            ? cfg_.waveWidth
            : std::max<int>(1, static_cast<int>(batch.size()));
    lastBatch_.waveWidth = width;
    for (std::size_t start = 0; start < results.size();
         start += static_cast<std::size_t>(width)) {
        const std::size_t end =
            std::min(results.size(),
                     start + static_cast<std::size_t>(width));
        BatchWave wave;
        wave.genomes = static_cast<int>(end - start);
        for (std::size_t i = start; i < end; ++i) {
            wave.totalInferences += results[i].detail.inferences;
            wave.lockstepSteps = std::max(
                wave.lockstepSteps, results[i].detail.inferences);
        }
        lastBatch_.waves.push_back(wave);
    }

    publishMetrics(results);
    return results;
}

void
EvalEngine::publishMetrics(const std::vector<GenomeEvalResult> &results)
{
    obs::MetricsRegistry *m = obs::MetricsRegistry::active();
    if (m == nullptr)
        return;

    // Batch totals + the wave scheduler's occupancy counters — the
    // registry form of BatchStats, so downstream consumers read one
    // metrics surface instead of plumbing engine structs around.
    m->counter("eval.genomes").add(static_cast<long>(results.size()));
    m->counter("eval.streamed_genomes").add(lastBatch_.streamedGenomes);
    m->counter("eval.inferences").add(lastBatch_.totalInferences());
    m->counter("eval.supersteps").add(lastBatch_.lockstepSteps());
    m->counter("wave.supersteps").add(lastBatch_.waveSupersteps);
    m->counter("wave.lane_slot_steps").add(lastBatch_.waveLaneSlotSteps);
    m->counter("wave.active_lane_steps")
        .add(lastBatch_.waveActiveLaneSteps);
    m->counter("wave.refills").add(lastBatch_.waveRefills);
    m->counter("wave.grouped_lane_activations")
        .add(lastBatch_.waveGroupedLaneActivations);
    m->gauge("wave.lane_occupancy").set(lastBatch_.laneOccupancy());

    // Plan-cache lifetime counters, differenced so the registry's
    // counters track per-run increments exactly.
    const long compiles = planCache_.compiles();
    const long hits = planCache_.hits();
    const long carried = planCache_.carriedOver();
    const long races = planCache_.racesDiscarded();
    const long compile_ns = planCache_.compileNs();
    m->counter("plan.compiles").add(compiles - seenCompiles_);
    m->counter("plan.cache_hits").add(hits - seenHits_);
    m->counter("plan.carried_over").add(carried - seenCarriedOver_);
    m->counter("plan.races_discarded").add(races - seenRaces_);
    m->counter("plan.compile_ns").add(compile_ns - seenCompileNs_);
    seenCompiles_ = compiles;
    seenHits_ = hits;
    seenCarriedOver_ = carried;
    seenRaces_ = races;
    seenCompileNs_ = compile_ns;

    long episodes = 0;
    auto &steps_histo = m->histogram("eval.episode_steps");
    for (const GenomeEvalResult &r : results) {
        episodes += static_cast<long>(r.detail.episodes.size());
        for (const env::EpisodeResult &e : r.detail.episodes)
            steps_histo.observe(static_cast<double>(e.steps));
    }
    m->counter("eval.episodes").add(episodes);
}

void
EvalEngine::evaluateWaves(const std::vector<neat::GenomeHandle> &batch,
                          const neat::NeatConfig &cfg,
                          const SeedFn &seedFor,
                          std::vector<GenomeEvalResult> &results)
{
    if (batch.empty())
        return;

    // Phase 1 — compile. Plans must exist before lanes can be packed
    // (a wave dispatches per-lane plans), so the compile fan-out runs
    // as its own parallel pass; the cache guarantees one compile per
    // genome and elite carry-over exactly as on the per-genome path.
    runParallel(batch.size(), [&](std::size_t i, int) {
        const neat::GenomeHandle &h = batch[i];
        results[i].genomeKey = h.key;
        results[i].plan = planCache_.acquire(h.key, *h.genome, cfg,
                                             cfg_.numericsTier);
    });

    // Phase 2 — rolling waves. The batch splits into contiguous
    // chunks claimed by the workers; each chunk's episodes run
    // through one rolling heterogeneous wave over the claiming
    // worker's private lane shard (env::evaluateWave), refilling
    // freed lanes from the chunk's pending queue. Every (genome,
    // episode) outcome is a pure function of (plan, seed), so the
    // chunking — like work stealing on the per-genome path — never
    // affects results, only which shard computes them.
    //
    // Chunk count balances two pressures: more chunks even out the
    // tail when episode lengths cluster unevenly across the batch (a
    // worker stuck with the long-episode chunk would otherwise gate
    // the generation), while a chunk needs a refill queue several
    // waves deep to keep lane occupancy high (the drain tail costs
    // about one wave per chunk). So: one chunk per worker by
    // default, split finer — up to 4 per worker — only while every
    // chunk keeps at least ~8 waves of items.
    const std::size_t pool = static_cast<std::size_t>(pool_.size());
    const std::size_t minChunk =
        8 * static_cast<std::size_t>(cfg_.waveLanes);
    std::size_t chunks = pool;
    if (minChunk > 0 && batch.size() / minChunk > chunks)
        chunks = std::min(batch.size() / minChunk, pool * 4);
    chunks = std::min(chunks, batch.size());
    const std::size_t per = (batch.size() + chunks - 1) / chunks;
    const int episodes = cfg_.episodes;
    std::vector<env::WaveStats> chunkStats(chunks);
    runParallel(chunks, [&](std::size_t c, int worker) {
        const std::size_t lo = c * per;
        const std::size_t hi =
            std::min(batch.size(), lo + per);
        if (lo >= hi)
            return;
        obs::Span span("eval.wave_chunk", "evaluate",
                       static_cast<int64_t>(hi - lo));
        // Items ordered by (genome, episode): a genome's episodes are
        // adjacent, so at episodes > 1 same-plan lanes pack next to
        // each other and group into one batched dispatch.
        std::vector<env::WaveItem> items;
        items.reserve((hi - lo) * static_cast<std::size_t>(episodes));
        for (std::size_t i = lo; i < hi; ++i)
            for (int e = 0; e < episodes; ++e)
                items.push_back({results[i].plan.get(),
                                 seedFor(batch[i].key, e)});

        env::WaveResult wave = env::evaluateWave(
            items, envs_.shard(worker),
            waveScratch_[static_cast<std::size_t>(worker)]);
        chunkStats[c] = wave.stats;

        // Assemble each genome's EvalDetail from its episode slice,
        // accumulating in episode order — the exact order of the
        // serial evaluateDetailed loop, so the mean and totals are
        // bit-identical, not merely equal up to reassociation.
        std::size_t k = 0;
        for (std::size_t i = lo; i < hi; ++i) {
            env::EvalDetail &d = results[i].detail;
            d = env::EvalDetail{};
            d.episodes.reserve(static_cast<std::size_t>(episodes));
            double total = 0.0;
            for (int e = 0; e < episodes; ++e, ++k) {
                env::EpisodeResult &res = wave.episodes[k];
                total += res.fitness;
                d.inferences += res.inferences;
                d.macs += res.macs;
                d.maxEpisodeSteps =
                    std::max(d.maxEpisodeSteps, res.steps);
                d.episodes.push_back(std::move(res));
            }
            d.fitness = total / static_cast<double>(episodes);
        }
    });

    lastBatch_.laneCount = cfg_.waveLanes;
    for (const env::WaveStats &s : chunkStats) {
        lastBatch_.waveSupersteps += s.supersteps;
        lastBatch_.waveLaneSlotSteps += s.laneSlotSteps;
        lastBatch_.waveActiveLaneSteps += s.activeLaneSteps;
        lastBatch_.waveRefills += s.refills;
        lastBatch_.waveGroupedLaneActivations +=
            s.groupedLaneActivations;
    }
}

} // namespace genesys::exec
