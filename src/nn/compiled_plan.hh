/**
 * @file
 * Compiled phenotype plans: the flat vectorized inference path.
 *
 * The paper's premise is that NEAT inference "is basically processing
 * an acyclic directed graph" and that ADAM's vectorize routine packs
 * ready vertices into dense matrix-vector products (Section IV-D). A
 * CompiledPlan is the software mirror of that lowering: a genome is
 * compiled **once** into flat contiguous arrays — slot-indexed
 * values, levelized layer spans, CSR-style weight/source arrays, and
 * per-node activation/bias/response tables — and activate() executes
 * the levelized layers as dense inner loops with no maps, no
 * allocation, and a caller-provided scratch buffer.
 *
 * A plan is immutable after compileFor(), so it is safe to share
 * read-only across exec::EvalEngine workers; all mutable state lives
 * in the caller's BatchScratch (alias PlanScratch). It is the library's
 * only phenotype. Outputs are bit-identical to the feed-forward and
 * recurrent interpreter oracles in tests/support: the plan preserves
 * the interpreters' node order, per-node link order and accumulation
 * order exactly, which the differential fuzz
 * harnesses in tests/test_compiled_plan.cc and
 * tests/test_recurrent_plan.cc lock down.
 *
 * compileFor() is the one lowering: it index-compresses the genome,
 * builds the in-edge adjacency once, chooses a list of waves, and
 * lowers the waves into the node tables, the CSR edges and the ADAM
 * schedule in one loop. NeatConfig::feedForward chooses the waves, so
 * every genome — acyclic or cyclic — runs through the same execution
 * substrate:
 *
 *  * Feed-forward: the required nodes, levelized into topological
 *    waves; each activate() is one stateless forward pass. A genome
 *    containing cycles compiles to the same phenotype the
 *    feed-forward oracle builds — cycle members never become "ready",
 *    so they (and everything downstream) stay unevaluated and read
 *    as 0.
 *
 *  * Recurrent (NeatConfig::feedForward == false): the single-wave
 *    case — every node gene, ascending key. Each node updates every
 *    tick from the *previous* tick's values, held in double-buffered
 *    prev/curr slot arrays in the scratch. Each activate() advances
 *    one tick; reset() clears the state at episode boundaries.
 *
 * Both modes run through one forward-pass body, the batched kernel
 * (activateBatch): one shared plan evaluated across N independent
 * episode lanes, the per-edge accumulation loop running contiguously
 * across the lane dimension — the software mirror of the EvE PE-array
 * stepping a wave of episodes in BSP lockstep. A single activate() is
 * its one-lane case. Each lane's floating-point operation order is
 * independent of the lane count, so results are bit-identical at
 * every width.
 */

#ifndef GENESYS_NN_COMPILED_PLAN_HH
#define GENESYS_NN_COMPILED_PLAN_HH

#include <cstdint>
#include <vector>

#include "neat/genome.hh"
#include "nn/levelize.hh"
#include "nn/numerics.hh"

namespace genesys::nn
{

using neat::Genome;
using neat::NeatConfig;

/**
 * Caller-owned mutable state for CompiledPlan::activateBatch: one
 * shared plan, L independent episode lanes. Every array is laid out
 * lane-minor — element [i][lane] lives at i * lanes + lane — so the
 * per-edge accumulation loop walks contiguous memory across lanes.
 * Size the buffers with beginBatch(). Reusing one scratch across
 * calls makes the hot loop allocation-free once warm; a scratch may
 * be moved between plans (beginBatch resizes it) but must not be
 * shared across threads. Recurrent plans keep their cross-tick node
 * state here (prev/curr), so the plan itself stays immutable and
 * shareable.
 */
struct BatchScratch
{
    /** Network inputs, [input i][lane]: caller fills before each call. */
    std::vector<double> inputs;
    /** Feed-forward value slots, [slot][lane]. */
    std::vector<double> values;
    /** Recurrent prev-tick slots, [slot][lane]. */
    std::vector<double> prev;
    /** Recurrent curr-tick slots, [slot][lane]. */
    std::vector<double> curr;
    /** Output activations, [output o][lane]. */
    std::vector<double> outputs;
    /** Weighted-input staging for non-Sum aggregations (one lane). */
    std::vector<double> weighted;
    /** Per-lane pre-activation accumulator. */
    std::vector<double> acc;
};

/**
 * The one-lane scratch of CompiledPlan::activate: a single forward
 * pass is the width-1 case of activateBatch, so it runs on the same
 * buffers (outputs are then simply [output o]).
 */
using PlanScratch = BatchScratch;

/**
 * Reusable buffers for CompiledPlan::compileFor.
 * Compilation is allocation-bound (~15 small vectors per compile);
 * keeping one scratch per thread and passing it to every compile
 * makes steady-state compilation allocation-free. The fields are an
 * implementation detail of the compiler — callers only default
 * construct and reuse. Not shareable across threads.
 */
struct CompileScratch
{
    std::vector<int> keys;
    std::vector<const neat::NodeGene *> genes;
    std::vector<int32_t> keyToIndex;
    // Flattened enabled edges (parallel arrays).
    std::vector<int32_t> edgeSrc;
    std::vector<int32_t> edgeDst;
    std::vector<double> edgeWeight;
    // CSR adjacency.
    std::vector<int32_t> inDeg, outDeg;
    std::vector<int32_t> inOff, outOff, inFill, outFill;
    std::vector<int32_t> inSrc, outDst;
    std::vector<double> inW;
    // Reachability + levelization.
    std::vector<char> required;
    std::vector<int32_t> stack, frontier, next;
    /** Flattened waves: wave w spans waveNodes[waveOffs[w] .. waveOffs[w+1]). */
    std::vector<int32_t> waveNodes, waveOffs;
    std::vector<int32_t> slotOf, remaining;
    std::vector<int32_t> layerSources;
};

/** A genome lowered to flat arrays, executable without the genome. */
class CompiledPlan
{
  public:
    /** Node-index range [begin, end) of one topological layer. */
    struct LayerSpan
    {
        int32_t begin = 0;
        int32_t end = 0;
    };

    /**
     * Lower `genome` into a flat execution plan — the only compile
     * entry point. NeatConfig::feedForward selects the plan mode:
     * levelized feed-forward waves, or one recurrent wave of every
     * node gene (see the file comment). Under NumericsTier::HwFaithful
     * the lowering additionally quantizes every bias/response/weight
     * through the Q6.10 codec and the activate paths run the hw
     * approximation + Limit & Quantize kernels (see nn/numerics.hh);
     * the default Reference tier is the bit-identical float path.
     */
    static CompiledPlan
    compileFor(const Genome &genome, const NeatConfig &cfg,
               NumericsTier tier = NumericsTier::Reference);
    /**
     * As compileFor(), reusing the caller's per-thread scratch (the
     * plan cache's path: steady-state compiles allocate nothing
     * beyond the plan itself).
     */
    static CompiledPlan
    compileFor(const Genome &genome, const NeatConfig &cfg,
               CompileScratch &scratch,
               NumericsTier tier = NumericsTier::Reference);

    /** Was this plan lowered with recurrent (stateful) semantics? */
    bool isRecurrent() const { return recurrent_; }

    /** The numerics tier this plan was lowered under. */
    NumericsTier numericsTier() const { return tier_; }

    /**
     * Evaluate the plan on one input vector: the one-lane case of
     * activateBatch, reading `inputs` in place. Feed-forward plans
     * run one stateless forward pass and size `scratch` on entry;
     * recurrent plans advance one tick from the state reset() left
     * in `scratch`. Leaves the outputs in `scratch.outputs`.
     * Allocation-free once `scratch` has warmed up. Thread-safe for
     * concurrent callers with distinct scratches.
     */
    void activate(const std::vector<double> &inputs,
                  PlanScratch &scratch) const;

    /**
     * Prepare `scratch` for one-lane activate() calls and clear any
     * recurrent state (start of an episode): beginBatch(1, scratch).
     */
    void reset(PlanScratch &scratch) const;

    /**
     * Size `scratch` for `lanes` concurrent episode lanes and clear
     * any recurrent state. Call once per episode wave, before the
     * first activateBatch().
     */
    void beginBatch(int lanes, BatchScratch &scratch) const;

    /**
     * Evaluate all `lanes` episode lanes in lockstep: reads
     * scratch.inputs ([input][lane]), leaves scratch.outputs
     * ([output][lane]). `activeLanes[lane]` masks finished episodes —
     * inactive lanes are carried through the accumulation loops
     * branch-free but skip the per-node activation write, so their
     * slots go stale and are never consumed. Each active lane's
     * result is bit-identical to a one-lane activate() fed the same
     * inputs. Recurrent plans advance every active lane one tick.
     */
    void activateBatch(int lanes, const uint8_t *activeLanes,
                       BatchScratch &scratch) const;

    size_t numInputs() const { return static_cast<size_t>(numInputs_); }
    size_t numOutputs() const
    {
        return static_cast<size_t>(numOutputs_);
    }
    /** Value slots (inputs + evaluated nodes). */
    int numSlots() const { return numSlots_; }
    /** Evaluated nodes (layered for feed-forward, all for recurrent). */
    int numNodes() const
    {
        return static_cast<int>(nodeSlot_.size());
    }

    /**
     * Multiply-accumulates per activate() call (per tick for
     * recurrent plans) — counts every enabled inbound edge of an
     * evaluated node, matching the interpreter oracles' counts and
     * the schedule's totalMacs.
     */
    long macsPerInference() const { return macs_; }

    /**
     * The ADAM inference schedule derived from the *same* structure
     * this plan executes, so software execution and the EvE/ADAM cost
     * model agree by construction. Feed-forward plans schedule their
     * levelized layers; recurrent plans schedule one packed layer per
     * tick (every node updates each tick, so the whole graph is one
     * ready wave).
     */
    const InferenceSchedule &schedule() const { return schedule_; }

    /** Node-index spans of the execution layers, in order. */
    const std::vector<LayerSpan> &layerSpans() const
    {
        return layerSpans_;
    }

  private:
    /**
     * The genome-to-plan lowering behind compileFor. kFeedForward
     * selects only the wave list; every other step is shared. It is a
     * compile-time parameter so the out-edge adjacency the
     * feed-forward countdown needs costs the recurrent instantiation
     * nothing and the feed-forward one no per-edge mode branch (a
     * runtime flag measured ~7% slower on BM_CompilePlan*).
     */
    template <bool kFeedForward>
    static CompiledPlan lower(const Genome &genome, const NeatConfig &cfg,
                              CompileScratch &scratch, NumericsTier tier);

    /** Lane-width switch of activateBatch for one numerics tier. */
    template <NumericsTier kTier>
    void activateBatchDispatch(int lanes, const uint8_t *activeLanes,
                               BatchScratch &scratch) const;

    /**
     * The batched kernel body, specialized on a compile-time lane
     * count (kLanes > 0) so the per-edge lane loop fully unrolls and
     * vectorizes without per-edge trip-count setup; kLanes == 0 is
     * the any-width fallback reading the runtime `lanes`. kTier
     * selects the activation step: reference libm (masked per lane)
     * or the branch-free hw approximation + Limit & Quantize, which
     * vectorizes across the lane dimension. `inputs` is [input][lane]
     * (scratch.inputs for activateBatch, the caller's vector for a
     * one-lane activate). It is the only forward-pass body.
     */
    template <int kLanes, NumericsTier kTier>
    void activateBatchImpl(int lanes, const double *inputs,
                           const uint8_t *activeLanes,
                           BatchScratch &scratch) const;

    /**
     * Full post-compile structure walk (checked builds only): CSR
     * edge offsets monotone and covering the edge arrays, every edge
     * source and node/output slot inside [0, numSlots), layer spans
     * contiguous and covering every node. Runs once per compile, so
     * its O(edges) cost never touches the activate hot path.
     */
    void dcheckCompiled(const char *what) const;

    int numInputs_ = 0;
    int numOutputs_ = 0;
    int numSlots_ = 0;
    long macs_ = 0;
    bool recurrent_ = false;
    NumericsTier tier_ = NumericsTier::Reference;

    // Per-node tables, structure-of-arrays in execution order.
    std::vector<neat::Activation> activation_;
    std::vector<neat::Aggregation> aggregation_;
    std::vector<double> bias_;
    std::vector<double> response_;
    /** Destination value slot of each node. */
    std::vector<int32_t> nodeSlot_;

    // CSR edge arrays: node n reads edges
    // [edgeOffset_[n], edgeOffset_[n+1]).
    std::vector<int32_t> edgeOffset_; // numNodes + 1 entries
    /**
     * Source value slot per edge. Sum-aggregated nodes carry only
     * resolvable sources (the interpreters' fast paths skip the rest,
     * so dropping them at compile time is bit-identical and keeps the
     * inner loop branch-free in practice); other aggregations keep a
     * -1 sentinel per out-of-graph source, which contributes an
     * explicit 0-valued operand exactly like the interpreters.
     */
    std::vector<int32_t> edgeSrc_;
    std::vector<double> edgeWeight_;

    std::vector<LayerSpan> layerSpans_;
    /** Value slot of each output key; -1 when unreachable (reads 0). */
    std::vector<int32_t> outputSlot_;

    InferenceSchedule schedule_;
};

} // namespace genesys::nn

#endif // GENESYS_NN_COMPILED_PLAN_HH
