/**
 * @file
 * Episode loops: close the loop between a genome's phenotype and an
 * environment (steps 2-5 of the walkthrough in Section IV-B), and
 * adapt episode outcomes into NEAT fitness values (step 6, "reward
 * to fitness"). evaluateBatched is the per-genome loop (a single
 * episode is its one-lane case); evaluateWave packs episodes of
 * different genomes into one wave.
 */

#ifndef GENESYS_ENV_RUNNER_HH
#define GENESYS_ENV_RUNNER_HH

#include <memory>

#include "env/env.hh"
#include "nn/compiled_plan.hh"

namespace genesys::env
{

/** Outcome of one episode. */
struct EpisodeResult
{
    double cumulativeReward = 0.0;
    double fitness = 0.0;
    /**
     * Environment steps taken. The policy runs exactly one forward
     * pass per step, so this is also the episode's inference count.
     */
    int steps = 0;
    /** Total MACs executed by the policy network. */
    long macs = 0;
};

/** Detailed outcome of evaluating one genome over several episodes. */
struct EvalDetail
{
    /** Mean episode fitness — the genome's NEAT fitness. */
    double fitness = 0.0;
    /** Forward passes across all episodes (the summed episode steps). */
    long inferences = 0;
    /** MACs across all episodes. */
    long macs = 0;
    /** Longest single episode (the BSP lockstep count). */
    int maxEpisodeSteps = 0;
    /** Per-episode results, in episode order. */
    std::vector<EpisodeResult> episodes;
};

/**
 * Caller-owned mutable state for evaluateBatched: the network-side
 * batch scratch plus the episode-loop lane buffers, so one warmed
 * scratch per worker makes the batched episode loop allocation-free
 * (environments write their observations straight into `obs`). Not
 * shareable across threads.
 */
struct EpisodeBatchScratch
{
    /** Plan activation buffers (sized by CompiledPlan::beginBatch). */
    nn::BatchScratch net;
    /**
     * Latest observation per lane, lane-major: lane l's observation
     * is the plan-input-wide row starting at l * numInputs.
     */
    std::vector<double> obs;
    /** Live-episode mask per lane. */
    std::vector<uint8_t> active;
    /** One lane's outputs, staged for action decoding. */
    std::vector<double> laneOutputs;
    /** The decoded action, reused across lanes and steps. */
    Action action;
};

/**
 * Evaluate one compiled plan over explicit per-episode seeds — the
 * library's one per-genome episode loop (steps 2-5 of the Section
 * IV-B walkthrough). Every episode takes an explicit seed, so
 * evaluation is reproducible and callers hand every genome in a
 * generation the same episode set. Episodes run in BSP lockstep
 * waves — the software mirror of the paper's PE-array wave
 * execution, with the episode lanes of one genome standing in for
 * the PEs. Episodes are grouped into waves of `lanes.size()`
 * concurrent episodes; every wave step activates the shared plan
 * once across all still-running lanes (CompiledPlan::activateBatch)
 * and steps each live lane's environment, with finished episodes
 * masked out until the wave drains. Works for feed-forward and
 * recurrent plans (recurrent lane state is cleared per wave via
 * beginBatch). A single episode on a single environment is the
 * one-lane case: evaluateBatched(plan, {seed}, {&env}, scratch).
 *
 * `lanes` are distinct environment instances (one per concurrent
 * episode — e.g. an exec::EnvPool worker shard); `scratch` is the
 * caller's reusable batch scratch. Results are bit-identical, field
 * for field and episode for episode, at every lane count and to the
 * interpreter oracle (env::evaluateOracle in tests/support) —
 * batching never reassociates a lane's arithmetic or reorders its
 * environment stepping. Panics before a lane's reset when its
 * observation size differs from the plan's input count.
 */
EvalDetail
evaluateBatched(const nn::CompiledPlan &plan,
                const std::vector<uint64_t> &episodeSeeds,
                const std::vector<Environment *> &lanes,
                EpisodeBatchScratch &scratch);

/**
 * One unit of heterogeneous-wave work: a single episode of a single
 * compiled plan. Unlike evaluateBatched — where every lane runs the
 * *same* plan — a wave mixes items of different genomes, so each item
 * names the plan that drives its lane (borrowed, read-only).
 */
struct WaveItem
{
    const nn::CompiledPlan *plan = nullptr;
    /** Episode seed — fully determines the episode given the plan. */
    uint64_t seed = 0;
};

/**
 * Lane-occupancy accounting for one evaluateWave call — the
 * observable form of the PE-array utilization the heterogeneous wave
 * path exists to raise. One "lane slot step" is one lane for one BSP
 * superstep; occupancy is the fraction of those slots that held a
 * live episode.
 */
struct WaveStats
{
    /** BSP supersteps executed (one batched lockstep each). */
    long supersteps = 0;
    /** lanes.size() slots per superstep, summed over supersteps. */
    long laneSlotSteps = 0;
    /** Live-lane slots summed over supersteps (<= laneSlotSteps). */
    long activeLaneSteps = 0;
    /** Episodes started on a lane freed mid-wave (the refill queue). */
    long refills = 0;
    /**
     * Live lanes executed through a shared-plan grouped
     * CompiledPlan::activateBatch dispatch rather than a per-lane
     * activate — nonzero only when a wave holds several episodes of
     * one plan (e.g. episodesPerEval > 1 mixes).
     */
    long groupedLaneActivations = 0;

    /** activeLaneSteps / laneSlotSteps; 0 when nothing ran. */
    double occupancy() const;
};

/**
 * Caller-owned mutable state for evaluateWave: per-lane one-lane plan
 * scratches (recurrent lane state lives here across supersteps),
 * observation buffers and item bindings, plus the staging buffers for
 * shared-plan grouped dispatch. Reusing one WaveScratch per worker
 * across calls makes the wave loop allocation-light once warm. Not
 * shareable across threads.
 */
struct WaveScratch
{
    /** Per-lane one-lane plan activation state (index = lane). */
    std::vector<nn::PlanScratch> net;
    /** Latest observation per lane (plan-input wide). */
    std::vector<std::vector<double>> obs;
    /** The decoded action, reused across lanes and supersteps. */
    Action action;
    /** Item index driving each lane; -1 = idle. */
    std::vector<int> item;
    /** Per-superstep "already executed" marker (plan grouping). */
    std::vector<uint8_t> executed;
    /** Lanes gathered into the current shared-plan group. */
    std::vector<int> groupLanes;
    /** All-live mask for grouped dispatch. */
    std::vector<uint8_t> groupActive;
    /** Batch buffers for shared-plan grouped dispatch. */
    nn::BatchScratch groupNet;
};

/** Outcome of one evaluateWave call. */
struct WaveResult
{
    /** One result per item, in item order. */
    std::vector<EpisodeResult> episodes;
    WaveStats stats;
};

/**
 * Evaluate a queue of plan-heterogeneous episodes in BSP lockstep
 * waves — the cross-genome generalization of evaluateBatched, and the
 * software mirror of the paper's PE array keeping every PE busy with
 * a *different* genome in the same wave. The first lanes.size() items
 * fill the lanes; every superstep activates each live lane's plan on
 * its observation and steps its environment, and a lane whose episode
 * terminates is immediately refilled from the pending item queue, so
 * lane occupancy stays near 1 until the queue drains (WaveStats
 * reports it). Lanes whose items share one feed-forward plan are
 * executed as a single grouped activateBatch dispatch (lanes scanned
 * in order, so items sorted by plan keep the per-edge CSR
 * accumulation contiguous across the group); recurrent plans and
 * singleton groups dispatch per lane.
 *
 * `lanes` are distinct same-named environment instances (an
 * exec::EnvPool wave shard); `scratch` is the caller's reusable wave
 * scratch. Each item's EpisodeResult is bit-identical, field for
 * field, to running that (plan, seed) episode alone through
 * evaluateBatched — lane packing, grouping and refill never
 * reassociate a lane's arithmetic or reorder its environment
 * stepping.
 */
WaveResult
evaluateWave(const std::vector<WaveItem> &items,
             const std::vector<Environment *> &lanes,
             WaveScratch &scratch);

/**
 * Build a NEAT config matched to an environment: observation size in,
 * recommended outputs out, paper defaults elsewhere (population 150,
 * full direct initial connectivity).
 */
neat::NeatConfig configForEnvironment(const Environment &env);

/** Instantiate an environment by its Table I name; throws if unknown. */
std::unique_ptr<Environment> makeEnvironment(const std::string &name);

/** All environment names available (Table I rows). */
std::vector<std::string> environmentNames();

} // namespace genesys::env

#endif // GENESYS_ENV_RUNNER_HH
