/**
 * @file
 * Compiled-plan cache with cross-generation elite carry-over. A NEAT
 * generation evaluates every genome over several episodes (and,
 * under the parallel engine, potentially from several threads); the
 * cache guarantees each genome is compiled exactly once and the
 * resulting immutable CompiledPlan is shared read-only by every
 * consumer — episode loops, the hardware-model workload accounting,
 * replay.
 *
 * Elite genomes are copied unchanged into the next generation under
 * the same globally-unique key — on chip they simply stay resident
 * in the Genome Buffer with no EvE work. beginGeneration(surviving)
 * mirrors that: plans whose key reappears in the next generation are
 * carried over, so elites incur zero recompiles, while every other
 * plan is dropped and the cache never outgrows the population size.
 */

#ifndef GENESYS_NN_PLAN_CACHE_HH
#define GENESYS_NN_PLAN_CACHE_HH

#include <map>
#include <memory>
#include <mutex>
#include <utility>
#include <vector>

#include "nn/compiled_plan.hh"

namespace genesys::nn
{

/**
 * Thread-safe map from genome key to its compiled plan. Keys are
 * globally unique within a run, so a key fully identifies a genome's
 * structure: the same key in a later generation is the same genome
 * (an elite), and its plan is still valid.
 */
class PlanCache
{
  public:
    /**
     * Start a new generation, keeping plans whose genome key appears
     * in `survivingKeys` (the new generation's keys — only elites
     * overlap, since children always get fresh keys). Everything
     * else is dropped, so the cache stays bounded by the generation
     * size while elites skip recompilation entirely.
     */
    void beginGeneration(const std::vector<int> &survivingKeys);

    /**
     * Drop every plan whose key is not in `keys`, within the current
     * generation (nothing counts as carried over). A streamed
     * generation calls beginGeneration(eliteKeys) when its stream
     * begins and this when it is collected, to shed plans of streamed
     * genomes that did not make it into the evaluated batch.
     */
    void retain(const std::vector<int> &keys);

    /**
     * The plan for `genome`, compiling it on first request — via
     * CompiledPlan::compileFor, so feed-forward configs get levelized
     * plans and recurrent configs (NeatConfig::feedForward == false)
     * get recurrent plans under the same caching and elite carry-over
     * rules. Compilation runs outside the lock so distinct genomes
     * compile concurrently; if two threads race on the same key the
     * first insert wins and both receive the same shared plan.
     *
     * Plans are keyed by (genomeKey, tier): the HwFaithful lowering
     * quantizes attributes at compile time, so a Reference plan can
     * never be served to a hw-tier consumer (differential harnesses
     * acquire both tiers of one genome side by side).
     */
    std::shared_ptr<const CompiledPlan>
    acquire(int genomeKey, const neat::Genome &genome,
            const neat::NeatConfig &cfg,
            NumericsTier tier = NumericsTier::Reference);

    /** Plans currently cached (bounded by the generation size). */
    size_t size() const;

    /**
     * Lifetime count of compiles that entered the cache — the
     * leak/dedup observability hook. Racing compiles that lost the
     * insert are tallied separately (racesDiscarded()), so this is
     * exactly the number of distinct (generation, key) compilations.
     */
    long compiles() const;
    /** Lifetime cache-hit count. */
    long hits() const;
    /** Lifetime count of plans carried across generations (elites). */
    long carriedOver() const;
    /** Lifetime count of same-key compile races whose result was dropped. */
    long racesDiscarded() const;
    /**
     * Aggregate nanoseconds spent compiling plans, summed across all
     * threads (CPU time, not wall clock — concurrent compiles
     * overlap). Includes race losers: their compile work was really
     * spent. Two clock reads per compile (~16 us each), so the
     * accounting is always on.
     */
    long compileNs() const;

  private:
    /**
     * A cached plan plus a cheap structural fingerprint of the
     * genome it was compiled from. Carry-over rests on run-global
     * key uniqueness; the fingerprint turns a violated precondition
     * (e.g. one engine reused across independent populations whose
     * key counters both start at 0) into an assertion instead of a
     * silently wrong phenotype.
     */
    struct Entry
    {
        std::shared_ptr<const CompiledPlan> plan;
        uint64_t fingerprint = 0;
    };

    static uint64_t fingerprintOf(const neat::Genome &genome);

    /** Erase plans absent from `keys`; returns how many were kept. */
    long prune(const std::vector<int> &keys);

    mutable std::mutex mutex_;
    /** Keyed by (genome key, numerics tier) — see acquire(). */
    std::map<std::pair<int, NumericsTier>, Entry> plans_;
    long compiles_ = 0;
    long hits_ = 0;
    long carriedOver_ = 0;
    long racesDiscarded_ = 0;
    long compileNs_ = 0;
};

} // namespace genesys::nn

#endif // GENESYS_NN_PLAN_CACHE_HH
