#include "env/runner.hh"

#include <algorithm>

#include "common/check.hh"
#include "common/logging.hh"
#include "obs/tracer.hh"

#include "env/acrobot.hh"
#include "env/atari_ram.hh"
#include "env/bipedal.hh"
#include "env/cartpole.hh"
#include "env/lunar_lander.hh"
#include "env/mountain_car.hh"

namespace genesys::env
{

namespace
{

/**
 * The per-episode shape check every episode loop makes before reset:
 * the environment writes exactly the observation the plan reads, so
 * the per-step gathers below never index past either buffer.
 */
void
checkObservationFits(const Environment &env, const nn::CompiledPlan &plan)
{
    GENESYS_ASSERT(static_cast<size_t>(env.observationSize()) ==
                       plan.numInputs(),
                   env.name() << " observes " << env.observationSize()
                              << " values but the plan takes "
                              << plan.numInputs() << " inputs");
}

/** Lane `l`'s row of a lane-major observation buffer. */
std::span<double>
laneObs(std::vector<double> &obs, size_t l, size_t stride)
{
    return {obs.data() + l * stride, stride};
}

} // namespace

EpisodeResult
EpisodeRunner::runEpisode(const nn::CompiledPlan &plan,
                          nn::PlanScratch &scratch, uint64_t seed)
{
    checkObservationFits(*env_, plan);
    plan.reset(scratch); // clears recurrent state; no-op feed-forward
    const ActionSpace space = env_->actionSpace();

    obs_.resize(plan.numInputs());
    env_->reset(seed, obs_);
    bool done = false;
    while (!done) {
        plan.activate(obs_, scratch);
        decodeAction(space, scratch.outputs, action_);
        done = env_->step(action_, obs_).done;
    }
    EpisodeResult result;
    result.cumulativeReward = env_->cumulativeReward();
    result.fitness = env_->episodeFitness();
    result.steps = env_->stepsTaken();
    result.inferences = result.steps; // one forward pass per step
    result.macs = plan.macsPerInference() * result.inferences;
    return result;
}

EvalDetail
EpisodeRunner::evaluateDetailed(const nn::CompiledPlan &plan,
                                const std::vector<uint64_t> &episodeSeeds)
{
    GENESYS_ASSERT(!episodeSeeds.empty(),
                   "evaluateDetailed needs at least one episode seed");
    nn::PlanScratch scratch; // warmed once, reused by every episode
    EvalDetail detail;
    detail.episodes.reserve(episodeSeeds.size());
    double total = 0.0;
    for (uint64_t seed : episodeSeeds) {
        EpisodeResult res = runEpisode(plan, scratch, seed);
        total += res.fitness;
        detail.inferences += res.inferences;
        detail.macs += res.macs;
        detail.maxEpisodeSteps =
            std::max(detail.maxEpisodeSteps, res.steps);
        detail.episodes.push_back(std::move(res));
    }
    detail.fitness = total / static_cast<double>(episodeSeeds.size());
    return detail;
}

EvalDetail
evaluateBatched(const nn::CompiledPlan &plan,
                const std::vector<uint64_t> &episodeSeeds,
                const std::vector<Environment *> &lanes,
                EpisodeBatchScratch &scratch)
{
    GENESYS_ASSERT(!episodeSeeds.empty(),
                   "evaluateBatched needs at least one episode seed");
    GENESYS_ASSERT(!lanes.empty(),
                   "evaluateBatched needs at least one environment lane");

    const size_t num_inputs = plan.numInputs();
    const int num_outputs = static_cast<int>(plan.numOutputs());
    const long macs_per_step = plan.macsPerInference();
    const ActionSpace space = lanes.front()->actionSpace();

    EvalDetail detail;
    detail.episodes.resize(episodeSeeds.size());
    double total = 0.0;

    // Lane-major: lane l's observation is obs[l * num_inputs, ...).
    std::vector<double> &obs = scratch.obs;
    std::vector<uint8_t> &active = scratch.active;
    std::vector<double> &lane_outputs = scratch.laneOutputs;
    obs.resize(lanes.size() * num_inputs);
    active.resize(lanes.size());
    lane_outputs.resize(static_cast<size_t>(num_outputs));

    for (size_t wave = 0; wave < episodeSeeds.size();
         wave += lanes.size()) {
        const size_t wave_lanes =
            std::min(lanes.size(), episodeSeeds.size() - wave);
        const size_t W = wave_lanes;

        for (size_t l = 0; l < W; ++l) {
            checkObservationFits(*lanes[l], plan);
            lanes[l]->reset(episodeSeeds[wave + l],
                            laneObs(obs, l, num_inputs));
            active[l] = 1;
        }
        plan.beginBatch(static_cast<int>(W), scratch.net);

        // BSP lockstep superstep: one shared batched forward pass
        // across every live lane, then each live lane steps its own
        // environment. Finished lanes are masked until the wave
        // drains — the per-episode termination masking that keeps
        // the accounting identical to the serial loop.
        size_t running = W;
        while (running > 0) {
            for (size_t l = 0; l < W; ++l) {
                if (!active[l])
                    continue;
                const double *lane_obs = obs.data() + l * num_inputs;
                for (size_t i = 0; i < num_inputs; ++i)
                    scratch.net.inputs[i * W + l] = lane_obs[i];
            }
            plan.activateBatch(static_cast<int>(W), active.data(),
                               scratch.net);
            for (size_t l = 0; l < W; ++l) {
                if (!active[l])
                    continue;
                for (int o = 0; o < num_outputs; ++o)
                    lane_outputs[static_cast<size_t>(o)] =
                        scratch.net
                            .outputs[static_cast<size_t>(o) * W + l];
                decodeAction(space, lane_outputs, scratch.action);
                if (lanes[l]->step(scratch.action,
                                   laneObs(obs, l, num_inputs))
                        .done) {
                    active[l] = 0;
                    --running;
                    GENESYS_DCHECK_RANGE(wave + l, size_t{0},
                                         detail.episodes.size(),
                                         "evaluateBatched: episode slot"
                                         " of finishing lane");
                    EpisodeResult &res =
                        detail.episodes[wave + l];
                    res.cumulativeReward =
                        lanes[l]->cumulativeReward();
                    res.fitness = lanes[l]->episodeFitness();
                    res.steps = lanes[l]->stepsTaken();
                    res.inferences = res.steps; // one pass per step
                    res.macs = macs_per_step * res.inferences;
                }
            }
        }
    }

    // Aggregate in episode (seed) order — the exact accumulation
    // order of the serial evaluateDetailed loop, so the mean and the
    // totals are bit-identical, not merely equal up to reassociation.
    for (const EpisodeResult &res : detail.episodes) {
        total += res.fitness;
        detail.inferences += res.inferences;
        detail.macs += res.macs;
        detail.maxEpisodeSteps =
            std::max(detail.maxEpisodeSteps, res.steps);
    }
    detail.fitness = total / static_cast<double>(episodeSeeds.size());
    return detail;
}

double
WaveStats::occupancy() const
{
    return laneSlotSteps > 0 ? static_cast<double>(activeLaneSteps) /
                                   static_cast<double>(laneSlotSteps)
                             : 0.0;
}

WaveResult
evaluateWave(const std::vector<WaveItem> &items,
             const std::vector<Environment *> &lanes,
             WaveScratch &scratch)
{
    GENESYS_ASSERT(!lanes.empty(),
                   "evaluateWave needs at least one environment lane");
    WaveResult out;
    out.episodes.resize(items.size());
    if (items.empty())
        return out;
    for (const WaveItem &it : items)
        GENESYS_ASSERT(it.plan != nullptr,
                       "evaluateWave item carries no compiled plan");

    const ActionSpace space = lanes.front()->actionSpace();
    const size_t num_lanes = lanes.size();
    const size_t W = std::min(num_lanes, items.size());

    scratch.net.resize(num_lanes);
    scratch.obs.resize(num_lanes);
    scratch.item.assign(num_lanes, -1);
    scratch.executed.assign(num_lanes, 0);

    // Bind item `next` to lane `l`: reset the lane's recurrent state
    // and its environment. The lane first activates on the *next*
    // superstep — exactly when a freshly filled PE would join the BSP
    // lockstep.
    size_t next = 0;
    auto fillLane = [&](size_t l) {
        const WaveItem &it = items[next];
        checkObservationFits(*lanes[l], *it.plan);
        scratch.item[l] = static_cast<int>(next);
        ++next;
        it.plan->reset(scratch.net[l]);
        scratch.obs[l].resize(it.plan->numInputs());
        lanes[l]->reset(it.seed, scratch.obs[l]);
    };
    for (size_t l = 0; l < W; ++l)
        fillLane(l);

    size_t live = W;
    while (live > 0) {
        ++out.stats.supersteps;
        out.stats.laneSlotSteps += static_cast<long>(num_lanes);
        out.stats.activeLaneSteps += static_cast<long>(live);

        // --- forward pass: every live lane's plan on its observation.
        // Live lanes sharing a feed-forward plan execute as one
        // grouped activateBatch (gathered in lane order, so callers
        // that sort items by plan get contiguous CSR accumulation
        // across the group); recurrent lanes keep their cross-tick
        // state in the per-lane scratch and dispatch individually.
        std::fill(scratch.executed.begin(), scratch.executed.end(),
                  uint8_t{0});
        for (size_t l = 0; l < W; ++l) {
            if (scratch.item[l] < 0 || scratch.executed[l])
                continue;
            const nn::CompiledPlan &plan =
                *items[static_cast<size_t>(scratch.item[l])].plan;
            scratch.groupLanes.clear();
            scratch.groupLanes.push_back(static_cast<int>(l));
            if (!plan.isRecurrent()) {
                for (size_t m = l + 1; m < W; ++m) {
                    if (scratch.item[m] >= 0 && !scratch.executed[m] &&
                        items[static_cast<size_t>(scratch.item[m])]
                                .plan == &plan)
                        scratch.groupLanes.push_back(
                            static_cast<int>(m));
                }
            }

            if (scratch.groupLanes.size() == 1) {
                // activate() forwards recurrent plans to the tick
                // dispatch itself.
                plan.activate(scratch.obs[l], scratch.net[l]);
                scratch.executed[l] = 1;
                continue;
            }

            const int G = static_cast<int>(scratch.groupLanes.size());
            const size_t Gz = static_cast<size_t>(G);
            plan.beginBatch(G, scratch.groupNet);
            const int num_inputs = static_cast<int>(plan.numInputs());
            const int num_outputs =
                static_cast<int>(plan.numOutputs());
            for (int g = 0; g < G; ++g) {
                const size_t lane =
                    static_cast<size_t>(scratch.groupLanes
                                            [static_cast<size_t>(g)]);
                for (int i = 0; i < num_inputs; ++i)
                    scratch.groupNet
                        .inputs[static_cast<size_t>(i) * Gz +
                                static_cast<size_t>(g)] =
                        scratch.obs[lane][static_cast<size_t>(i)];
            }
            scratch.groupActive.assign(Gz, 1);
            plan.activateBatch(G, scratch.groupActive.data(),
                               scratch.groupNet);
            out.stats.groupedLaneActivations += G;
            // Scatter each lane's output column into its per-lane
            // scratch so the environment-step phase below reads one
            // uniform location regardless of dispatch shape.
            for (int g = 0; g < G; ++g) {
                const size_t lane =
                    static_cast<size_t>(scratch.groupLanes
                                            [static_cast<size_t>(g)]);
                scratch.net[lane].outputs.resize(
                    static_cast<size_t>(num_outputs));
                for (int o = 0; o < num_outputs; ++o)
                    scratch.net[lane]
                        .outputs[static_cast<size_t>(o)] =
                        scratch.groupNet
                            .outputs[static_cast<size_t>(o) * Gz +
                                     static_cast<size_t>(g)];
                scratch.executed[lane] = 1;
            }
        }

        // --- environment step: each live lane advances its own
        // episode, in lane order. A terminating lane records its
        // result and is refilled from the pending queue (or parked
        // when the queue is dry).
        for (size_t l = 0; l < W; ++l) {
            if (scratch.item[l] < 0)
                continue;
            const size_t idx = static_cast<size_t>(scratch.item[l]);
            GENESYS_DCHECK_RANGE(idx, size_t{0}, items.size(),
                                 "evaluateWave: lane bound to an item"
                                 " index outside the wave");
            GENESYS_DCHECK(scratch.executed[l],
                           "evaluateWave: lane " << l << " reached the"
                           " environment-step phase without a forward"
                           " pass this superstep");
            decodeAction(space, scratch.net[l].outputs, scratch.action);
            if (!lanes[l]->step(scratch.action, scratch.obs[l]).done)
                continue;
            EpisodeResult &res = out.episodes[idx];
            res.cumulativeReward = lanes[l]->cumulativeReward();
            res.fitness = lanes[l]->episodeFitness();
            res.steps = lanes[l]->stepsTaken();
            res.inferences = res.steps; // one pass per step
            res.macs =
                items[idx].plan->macsPerInference() * res.inferences;
            if (next < items.size()) {
                fillLane(l);
                ++out.stats.refills;
                // Timeline marker: a lane turned over mid-wave — the
                // scheduler event that keeps occupancy near 1.
                obs::traceInstant("wave.refill", "wave");
            } else {
                scratch.item[l] = -1;
                --live;
            }
        }
    }
    return out;
}

neat::NeatConfig
configForEnvironment(const Environment &env)
{
    neat::NeatConfig cfg;
    cfg.numInputs = env.observationSize();
    cfg.numOutputs = env.recommendedOutputs();
    cfg.populationSize = 150; // paper's population size
    cfg.fitnessThreshold = env.targetFitness();
    cfg.initialConnection = neat::InitialConnection::FullDirect;
    // Match the paper's setup: simple initial topology with all
    // input-output connections present but zero-weighted
    // (Section III-B: "fully-connected but the weight on each
    // connection is set to zero").
    cfg.weight.initMean = 0.0;
    cfg.weight.initStdev = 0.0;
    return cfg;
}

std::unique_ptr<Environment>
makeEnvironment(const std::string &name)
{
    if (name == "CartPole_v0")
        return std::make_unique<CartPole>();
    if (name == "MountainCar_v0")
        return std::make_unique<MountainCar>();
    if (name == "Acrobot")
        return std::make_unique<Acrobot>();
    if (name == "LunarLander_v2")
        return std::make_unique<LunarLander>();
    if (name == "Bipedal")
        return std::make_unique<BipedalWalker>();
    if (name == "AirRaid-ram-v0")
        return std::make_unique<AtariRam>(AtariVariant::AirRaid);
    if (name == "Alien-ram-v0")
        return std::make_unique<AtariRam>(AtariVariant::Alien);
    if (name == "Amidar-ram-v0")
        return std::make_unique<AtariRam>(AtariVariant::Amidar);
    if (name == "Asterix-ram-v0")
        return std::make_unique<AtariRam>(AtariVariant::Asterix);
    fatal("unknown environment: " + name);
}

std::vector<std::string>
environmentNames()
{
    return {
        "CartPole_v0",    "MountainCar_v0", "Acrobot",
        "LunarLander_v2", "Bipedal",        "AirRaid-ram-v0",
        "Alien-ram-v0",   "Amidar-ram-v0",  "Asterix-ram-v0",
    };
}

} // namespace genesys::env
