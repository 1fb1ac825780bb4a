#include "support/oracle_episode.hh"

#include <algorithm>

#include "common/logging.hh"
#include "support/recurrent.hh"

namespace genesys::env
{

namespace
{

/** The episode loop over `episodeSeeds`, with `net` as the policy. */
template <typename Net>
EvalDetail
evaluateWith(Environment &env, Net &net,
             const std::vector<uint64_t> &episodeSeeds)
{
    GENESYS_ASSERT(!episodeSeeds.empty(),
                   "evaluateOracle needs at least one episode seed");
    const ActionSpace space = env.actionSpace();
    std::vector<double> obs(static_cast<size_t>(env.observationSize()));
    Action action;
    EvalDetail detail;
    double total = 0.0;
    for (uint64_t seed : episodeSeeds) {
        if constexpr (requires { net.reset(); })
            net.reset(); // episodes never share recurrent state
        env.reset(seed, obs);
        bool done = false;
        while (!done) {
            decodeAction(space, net.activate(obs), action);
            done = env.step(action, obs).done;
        }
        EpisodeResult res;
        res.cumulativeReward = env.cumulativeReward();
        res.fitness = env.episodeFitness();
        res.steps = env.stepsTaken();
        res.inferences = res.steps; // one forward pass per step
        res.macs = net.macsPerInference() * res.inferences;
        total += res.fitness;
        detail.inferences += res.inferences;
        detail.macs += res.macs;
        detail.maxEpisodeSteps = std::max(detail.maxEpisodeSteps, res.steps);
        detail.episodes.push_back(res);
    }
    detail.fitness = total / static_cast<double>(episodeSeeds.size());
    return detail;
}

} // namespace

EvalDetail
evaluateOracle(Environment &env, const neat::Genome &genome,
               const neat::NeatConfig &cfg,
               const std::vector<uint64_t> &episodeSeeds)
{
    if (cfg.feedForward) {
        auto net = nn::FeedForwardNetwork::create(genome, cfg);
        return evaluateWith(env, net, episodeSeeds);
    }
    auto net = nn::RecurrentNetwork::create(genome, cfg);
    return evaluateWith(env, net, episodeSeeds);
}

} // namespace genesys::env
