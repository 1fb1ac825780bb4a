/**
 * @file
 * Episode-level oracle: evaluates a genome through the interpreter
 * phenotypes (FeedForwardNetwork / RecurrentNetwork) with the same
 * episode loop and accounting as env::EpisodeRunner, so tests can diff
 * the compiled-plan episode paths against an independent reference
 * field for field.
 */

#ifndef GENESYS_TESTS_SUPPORT_ORACLE_EPISODE_HH
#define GENESYS_TESTS_SUPPORT_ORACLE_EPISODE_HH

#include <cstdint>
#include <vector>

#include "env/runner.hh"

namespace genesys::env
{

/**
 * Evaluate `genome` over explicit per-episode seeds through the
 * interpreter matching `cfg.feedForward` (recurrent state is reset at
 * every episode start). Fills every EvalDetail field the way
 * EpisodeRunner::evaluateDetailed does for a compiled plan.
 */
EvalDetail evaluateOracle(Environment &env, const neat::Genome &genome,
                          const neat::NeatConfig &cfg,
                          const std::vector<uint64_t> &episodeSeeds);

} // namespace genesys::env

#endif // GENESYS_TESTS_SUPPORT_ORACLE_EPISODE_HH
