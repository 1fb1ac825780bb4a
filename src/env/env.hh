/**
 * @file
 * Environment interface for the GeneSys closed loop ("n Environment
 * Instances" in Fig 6). These play the role of the OpenAI-gym suite
 * in Table I: each exposes an observation vector, an action space,
 * per-step rewards, and an episode-level fitness used by NEAT.
 */

#ifndef GENESYS_ENV_ENV_HH
#define GENESYS_ENV_ENV_HH

#include <memory>
#include <span>
#include <string>
#include <vector>

#include "common/rng.hh"

namespace genesys::env
{

/** Action space descriptor. */
struct ActionSpace
{
    enum class Kind
    {
        Discrete,
        Continuous,
    };

    Kind kind = Kind::Discrete;
    /** Number of discrete actions, or continuous dimensions. */
    int n = 1;
    /** Bounds for continuous actions. */
    double low = -1.0;
    double high = 1.0;
};

/** A decoded action: exactly one of the two fields is meaningful. */
struct Action
{
    int discrete = 0;
    std::vector<double> continuous;
};

/** What one step reports besides the observation it writes. */
struct StepOutcome
{
    double reward = 0.0;
    bool done = false;
};

/** One simulation step's outcome, observation included (adaptor form). */
struct StepResult
{
    std::vector<double> observation;
    double reward = 0.0;
    bool done = false;
};

/**
 * Abstract environment. Implementations are deterministic given the
 * seed passed to reset().
 *
 * Observations are written into a caller-owned span of exactly
 * observationSize() elements, so an episode loop that keeps its
 * buffers steps without touching the heap. Each environment
 * implements the two private hooks doReset/doStep once; the public
 * span entry points check the span size and forward to them. The
 * vector-returning reset(seed)/step(action) are thin adaptors over
 * the same hooks for callers that want a value (tests, one-off
 * replays); they allocate per call.
 */
class Environment
{
  public:
    virtual ~Environment() = default;

    virtual const std::string &name() const = 0;

    /** Dimension of the observation vector (Table I). */
    virtual int observationSize() const = 0;

    virtual ActionSpace actionSpace() const = 0;

    /**
     * Network outputs the policy should produce for this
     * environment: 1 for binary/continuous-scalar actions, n for
     * argmax-decoded discrete spaces, dims for continuous vectors.
     */
    virtual int recommendedOutputs() const = 0;

    /** Episode step cap. */
    virtual int maxSteps() const = 0;

    /**
     * Start a new episode, writing the initial observation into `obs`
     * (observationSize() elements).
     */
    void
    reset(uint64_t seed, std::span<double> obs)
    {
        checkObservationSpan(obs);
        doReset(seed, obs);
    }

    /**
     * Advance one step, writing the next observation into `obs`
     * (observationSize() elements). Calling after done is an error.
     */
    StepOutcome
    step(const Action &action, std::span<double> obs)
    {
        checkObservationSpan(obs);
        return doStep(action, obs);
    }

    /** Adaptor: reset(seed, obs) into a fresh vector. */
    std::vector<double> reset(uint64_t seed);

    /** Adaptor: step(action, obs) into a fresh StepResult. */
    StepResult step(const Action &action);

    /**
     * Fitness of the episode so far. Defaults to the cumulative
     * reward; environments with sparse rewards add shaping here
     * (the per-application "fitness function" of Section III-B).
     */
    virtual double episodeFitness() const { return cumulativeReward_; }

    /**
     * Fitness at which the task counts as solved ("target fitness").
     */
    virtual double targetFitness() const = 0;

    double cumulativeReward() const { return cumulativeReward_; }
    int stepsTaken() const { return stepsTaken_; }

  protected:
    /** Book-keeping helper for subclasses' doStep() implementations. */
    void
    accumulate(double reward)
    {
        cumulativeReward_ += reward;
        ++stepsTaken_;
    }

    void
    resetBookkeeping()
    {
        cumulativeReward_ = 0.0;
        stepsTaken_ = 0;
    }

    double cumulativeReward_ = 0.0;
    int stepsTaken_ = 0;

  private:
    /** The environment's reset: re-seed the episode, write obs. */
    virtual void doReset(uint64_t seed, std::span<double> obs) = 0;

    /** The environment's step: apply `action`, write obs. */
    virtual StepOutcome doStep(const Action &action,
                               std::span<double> obs) = 0;

    /** Panics unless `obs` holds exactly observationSize() elements. */
    void checkObservationSpan(std::span<const double> obs) const;
};

/**
 * Decode raw network outputs into `out`, reusing its storage (a
 * warmed Action decodes continuous actions without allocating):
 *  - Discrete n==2 with one output: threshold at 0.5.
 *  - Discrete: argmax over n outputs.
 *  - Continuous: clamp each output into [low, high] (outputs in
 *    [0,1] from sigmoid-style activations are rescaled).
 */
void decodeAction(const ActionSpace &space,
                  std::span<const double> outputs, Action &out);

/** Adaptor: decodeAction into a fresh Action. */
Action decodeAction(const ActionSpace &space,
                    const std::vector<double> &outputs);

} // namespace genesys::env

#endif // GENESYS_ENV_ENV_HH
