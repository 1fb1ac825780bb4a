#include "nn/plan_cache.hh"

#include <algorithm>
#include <bit>
#include <chrono>

#include "common/logging.hh"
#include "obs/tracer.hh"

namespace genesys::nn
{

uint64_t
PlanCache::fingerprintOf(const neat::Genome &genome)
{
    // O(1) digest: gene counts, the last key of each sorted array,
    // and weight-sensitive terms (last connection weight, last node
    // bias) so a same-key genome whose attributes were rewritten in
    // place is caught too, not just structural divergence. Collisions
    // across all terms are possible but vanishingly unlikely for the
    // misuse this guards.
    const auto &nk = genome.nodes().keys();
    const auto &ck = genome.connections().keys();
    uint64_t fp = (static_cast<uint64_t>(nk.size()) << 48) ^
                  (static_cast<uint64_t>(ck.size()) << 32);
    if (!nk.empty()) {
        fp ^= static_cast<uint64_t>(static_cast<uint32_t>(nk.back()));
        fp ^= std::rotr(std::bit_cast<uint64_t>(
                            genome.nodes().values().back().bias),
                        31);
    }
    if (!ck.empty()) {
        fp ^= static_cast<uint64_t>(
                  static_cast<uint32_t>(ck.back().first))
              << 16;
        fp ^= static_cast<uint64_t>(
                  static_cast<uint32_t>(ck.back().second))
              << 8;
        fp ^= std::rotr(
            std::bit_cast<uint64_t>(
                genome.connections().values().back().weight),
            17);
    }
    return fp;
}

void
PlanCache::beginGeneration(const std::vector<int> &survivingKeys)
{
    const long kept = prune(survivingKeys);
    std::lock_guard<std::mutex> lock(mutex_);
    carriedOver_ += kept;
}

void
PlanCache::retain(const std::vector<int> &keys)
{
    prune(keys);
}

long
PlanCache::prune(const std::vector<int> &keys)
{
    std::vector<int> sorted = keys;
    std::sort(sorted.begin(), sorted.end());

    long kept = 0;
    std::lock_guard<std::mutex> lock(mutex_);
    for (auto it = plans_.begin(); it != plans_.end();) {
        if (std::binary_search(sorted.begin(), sorted.end(),
                               it->first.first)) {
            ++kept;
            ++it;
        } else {
            it = plans_.erase(it);
        }
    }
    return kept;
}

std::shared_ptr<const CompiledPlan>
PlanCache::acquire(int genomeKey, const neat::Genome &genome,
                   const neat::NeatConfig &cfg, NumericsTier tier)
{
    const uint64_t fp = fingerprintOf(genome);
    const std::pair<int, NumericsTier> key{genomeKey, tier};
    {
        std::lock_guard<std::mutex> lock(mutex_);
        auto it = plans_.find(key);
        if (it != plans_.end()) {
            GENESYS_ASSERT(it->second.fingerprint == fp,
                           "plan cache hit on key "
                               << genomeKey
                               << " for a structurally different "
                                  "genome — genome keys must be "
                                  "unique for a cache's lifetime");
            ++hits_;
            return it->second.plan;
        }
    }
    // One compile scratch per thread: steady-state compilation is
    // allocation-free, and workers never contend on compile buffers.
    // compileFor dispatches on cfg.feedForward, so recurrent genomes
    // lower to recurrent plans under the same cache/carry-over rules.
    // genesys-lint: allow(global-state, per-thread compile scratch) - keeps
    // steady-state compiles allocation-free; holds no cross-compile data.
    thread_local CompileScratch compile_scratch;
    const auto c0 = std::chrono::steady_clock::now();
    std::shared_ptr<const CompiledPlan> plan;
    {
        obs::Span span("plan.compile", "compile", genomeKey);
        plan = std::make_shared<const CompiledPlan>(
            CompiledPlan::compileFor(genome, cfg, compile_scratch,
                                     tier));
    }
    const long spent_ns = static_cast<long>(
        std::chrono::duration_cast<std::chrono::nanoseconds>(
            std::chrono::steady_clock::now() - c0)
            .count());
    std::lock_guard<std::mutex> lock(mutex_);
    compileNs_ += spent_ns;
    auto [it, inserted] = plans_.emplace(key, Entry{std::move(plan), fp});
    // Only the winning insert is a compile that exists; a racing
    // thread's duplicate is discarded and must not inflate the
    // observability counter.
    if (inserted) {
        ++compiles_;
    } else {
        GENESYS_ASSERT(it->second.fingerprint == fp,
                       "racing compiles for key "
                           << genomeKey
                           << " saw structurally different genomes");
        ++racesDiscarded_;
    }
    return it->second.plan;
}

size_t
PlanCache::size() const
{
    std::lock_guard<std::mutex> lock(mutex_);
    return plans_.size();
}

long
PlanCache::compiles() const
{
    std::lock_guard<std::mutex> lock(mutex_);
    return compiles_;
}

long
PlanCache::hits() const
{
    std::lock_guard<std::mutex> lock(mutex_);
    return hits_;
}

long
PlanCache::carriedOver() const
{
    std::lock_guard<std::mutex> lock(mutex_);
    return carriedOver_;
}

long
PlanCache::racesDiscarded() const
{
    std::lock_guard<std::mutex> lock(mutex_);
    return racesDiscarded_;
}

long
PlanCache::compileNs() const
{
    std::lock_guard<std::mutex> lock(mutex_);
    return compileNs_;
}

} // namespace genesys::nn
