#include "nn/compiled_plan.hh"

#include <algorithm>

#include "common/check.hh"
#include "common/fixed_point.hh"
#include "common/logging.hh"
#include "neat/activations.hh"
#include "neat/aggregations.hh"
#include "nn/hw_activations.hh"

namespace genesys::nn
{

namespace
{

/** The HwFaithful per-node Limit & Quantize stage (Q6.10). */
constexpr FixedPointQuantizer kHwQuantizer = hwact::hwQuantizer();

/**
 * Compile-time attribute quantization for the HwFaithful lowering:
 * bias/response/weight pass through the same Q6.10 codec the gene
 * wire format uses, so a plan executes exactly the values the
 * hardware's Genome Buffer would hold. Reference plans copy
 * attributes untouched.
 */
double
lowerAttr(double v, NumericsTier tier, const FixedPointCodec &codec)
{
    return tier == NumericsTier::HwFaithful ? codec.quantize(v) : v;
}

/**
 * Key compression shared by both lowerings. Index space: inputs
 * -numInputs..-1 first (ascending key), then every node gene
 * (ascending key; all keys >= 0). The genome's flat SoA storage
 * already holds the node keys as one sorted contiguous array, so this
 * is two bulk copies — no per-gene tree walk — and lookups are O(1)
 * direct-address hits or binary searches over a dense vector.
 */
void
compressKeys(const Genome &genome, int num_inputs, CompileScratch &s)
{
    const auto &node_keys = genome.nodes().keys();
    const auto &node_genes = genome.nodes().values();
    s.keys.clear();
    s.genes.clear();
    s.keys.reserve(static_cast<size_t>(num_inputs) + node_keys.size());
    s.genes.reserve(s.keys.capacity());
    for (int i = num_inputs; i >= 1; --i) {
        s.keys.push_back(-i);
        s.genes.push_back(nullptr);
    }
    s.keys.insert(s.keys.end(), node_keys.begin(), node_keys.end());
    for (const neat::NodeGene &ng : node_genes)
        s.genes.push_back(&ng);

    // Key -> index lookup. The edge-endpoint lookups, two per
    // connection, were the dominant cost of compiling dense genomes,
    // so when the key space is dense use a direct-address table
    // (O(1) per lookup). Node ids are issued by a run-global indexer
    // and never reused, so late-run genomes can hold a few hundred
    // genes with ids in the hundreds of thousands — there the table
    // would cost more to zero than the searches it saves, so fall
    // back to binary search over the sorted key array (keyToIndex
    // left empty signals the sparse fallback).
    const int num_vertices = static_cast<int>(s.keys.size());
    const int max_key = node_keys.empty() ? -1 : node_keys.back();
    const size_t table_size =
        static_cast<size_t>(num_inputs + std::max(max_key, -1) + 1);
    const bool dense =
        table_size <= 4 * static_cast<size_t>(num_vertices) + 64;
    s.keyToIndex.clear();
    if (dense) {
        s.keyToIndex.assign(table_size, -1);
        for (int v = 0; v < num_vertices; ++v)
            s.keyToIndex[static_cast<size_t>(
                s.keys[static_cast<size_t>(v)] + num_inputs)] = v;
    }
}

/** Compressed index of `key`, -1 when not in the graph. */
int32_t
indexOf(const CompileScratch &s, int num_inputs, int key)
{
    if (!s.keyToIndex.empty()) {
        const auto pos = static_cast<size_t>(key + num_inputs);
        // Out-of-range keys are dangling references (below the
        // input range or above every node key): not in the graph.
        if (key < -num_inputs || pos >= s.keyToIndex.size())
            return -1;
        return s.keyToIndex[pos];
    }
    auto it = std::lower_bound(s.keys.begin(), s.keys.end(), key);
    if (it == s.keys.end() || *it != key)
        return -1;
    return static_cast<int32_t>(it - s.keys.begin());
}

} // namespace

/*
 * compile() re-implements the analyzeGenome walks over dense
 * index-compressed arrays instead of std::map adjacency — it runs
 * once per genome per generation and its cost is the plan cache's
 * only fixed overhead, so it avoids per-edge map lookups entirely.
 * The semantics are identical by contract (same required set, same
 * layers, same slot assignment, same per-node link order); the
 * differential fuzz harness diffs the result against the map-based
 * feed-forward interpreter oracle bit-for-bit. Requires a structurally
 * valid genome (no dangling connection endpoints — Genome::validate's
 * invariant).
 */
CompiledPlan
CompiledPlan::compile(const Genome &genome, const NeatConfig &cfg,
                      CompileScratch &s, NumericsTier tier)
{
    CompiledPlan plan;
    plan.tier_ = tier;
    plan.numInputs_ = cfg.numInputs;
    plan.numOutputs_ = cfg.numOutputs;
    const FixedPointCodec codec(kHwIntBits, kHwFracBits);

    const int num_inputs = cfg.numInputs;
    compressKeys(genome, num_inputs, s);
    const int num_vertices = static_cast<int>(s.keys.size());

    // --- flatten enabled edges -------------------------------------------
    // The gene array is stored in (src, dst) order, so edges grouped
    // by destination later come out in ascending source order — the
    // interpreter's per-node link order, which activate() must
    // reproduce for bit-identical accumulation. This is a single
    // contiguous walk over the connection SoA array.
    s.edgeSrc.clear();
    s.edgeDst.clear();
    s.edgeWeight.clear();
    s.edgeSrc.reserve(genome.connections().size());
    s.edgeDst.reserve(genome.connections().size());
    s.edgeWeight.reserve(genome.connections().size());
    for (const neat::ConnectionGene &cg : genome.connections().values()) {
        if (!cg.enabled)
            continue;
        const int32_t dst = indexOf(s, num_inputs, cg.key.second);
        if (dst < 0)
            continue; // dangling destination: nothing to evaluate
        s.edgeSrc.push_back(indexOf(s, num_inputs, cg.key.first));
        s.edgeDst.push_back(dst);
        s.edgeWeight.push_back(cg.weight);
    }
    const size_t num_edges = s.edgeDst.size();

    // --- adjacency (CSR over compressed indices) --------------------------
    s.inDeg.assign(static_cast<size_t>(num_vertices), 0);
    s.outDeg.assign(static_cast<size_t>(num_vertices), 0);
    for (size_t e = 0; e < num_edges; ++e) {
        // In-degree counts every enabled in-edge — including ones
        // from unresolvable sources, which must block the node
        // forever (they never count down).
        ++s.inDeg[static_cast<size_t>(s.edgeDst[e])];
        if (s.edgeSrc[e] >= 0)
            ++s.outDeg[static_cast<size_t>(s.edgeSrc[e])];
    }
    s.inOff.assign(static_cast<size_t>(num_vertices) + 1, 0);
    s.outOff.assign(static_cast<size_t>(num_vertices) + 1, 0);
    for (int v = 0; v < num_vertices; ++v) {
        s.inOff[static_cast<size_t>(v) + 1] =
            s.inOff[static_cast<size_t>(v)] +
            s.inDeg[static_cast<size_t>(v)];
        s.outOff[static_cast<size_t>(v) + 1] =
            s.outOff[static_cast<size_t>(v)] +
            s.outDeg[static_cast<size_t>(v)];
    }
    // In-lists keep (source index, weight) in edge order — ascending
    // source per destination. Out-lists only need targets.
    s.inSrc.resize(num_edges);
    s.inW.resize(num_edges);
    s.outDst.resize(
        static_cast<size_t>(s.outOff[static_cast<size_t>(num_vertices)]));
    s.inFill = s.inOff;
    s.outFill = s.outOff;
    for (size_t e = 0; e < num_edges; ++e) {
        const int32_t src = s.edgeSrc[e];
        const int32_t dst = s.edgeDst[e];
        const auto slot =
            static_cast<size_t>(s.inFill[static_cast<size_t>(dst)]++);
        s.inSrc[slot] = src;
        s.inW[slot] = s.edgeWeight[e];
        if (src >= 0)
            s.outDst[static_cast<size_t>(
                s.outFill[static_cast<size_t>(src)]++)] = dst;
    }

    // --- backward reachability from the outputs ---------------------------
    // required == analyzeGenome().required: outputs plus every
    // non-input vertex on an enabled path into them.
    s.required.assign(static_cast<size_t>(num_vertices), 0);
    s.stack.clear();
    for (int o = 0; o < cfg.numOutputs; ++o) {
        const int32_t idx = indexOf(s, num_inputs, o);
        GENESYS_ASSERT(idx >= 0, "output node " << o << " missing gene");
        s.required[static_cast<size_t>(idx)] = 1;
        s.stack.push_back(idx);
    }
    while (!s.stack.empty()) {
        const int32_t dst = s.stack.back();
        s.stack.pop_back();
        for (int32_t e = s.inOff[static_cast<size_t>(dst)];
             e < s.inOff[static_cast<size_t>(dst) + 1]; ++e) {
            const int32_t src = s.inSrc[static_cast<size_t>(e)];
            // Inputs (index < numInputs) terminate the walk.
            if (src >= num_inputs && !s.required[static_cast<size_t>(src)]) {
                s.required[static_cast<size_t>(src)] = 1;
                s.stack.push_back(src);
            }
        }
    }

    // --- levelization by in-degree countdown ------------------------------
    // A required node joins the wave after its last source resolved;
    // zero-in-edge nodes (inDeg 0) never join, matching analyzeGenome.
    s.remaining = s.inDeg;
    s.frontier.clear();
    for (int i = 0; i < num_inputs; ++i)
        s.frontier.push_back(i);
    s.waveNodes.clear();
    s.waveOffs.clear();
    s.waveOffs.push_back(0);
    while (!s.frontier.empty()) {
        s.next.clear();
        for (int32_t src : s.frontier) {
            for (int32_t e = s.outOff[static_cast<size_t>(src)];
                 e < s.outOff[static_cast<size_t>(src) + 1]; ++e) {
                const int32_t dst = s.outDst[static_cast<size_t>(e)];
                if (s.required[static_cast<size_t>(dst)] &&
                    --s.remaining[static_cast<size_t>(dst)] == 0)
                    s.next.push_back(dst);
            }
        }
        // Ascending index == ascending key (keys are sorted), so this
        // matches the interpreter's within-layer order.
        std::sort(s.next.begin(), s.next.end());
        if (!s.next.empty()) {
            s.waveNodes.insert(s.waveNodes.end(), s.next.begin(),
                               s.next.end());
            s.waveOffs.push_back(
                static_cast<int32_t>(s.waveNodes.size()));
        }
        std::swap(s.frontier, s.next);
    }
    const size_t num_waves = s.waveOffs.size() - 1;

    // --- lowering: slots, SoA node tables, CSR edges, schedule ------------
    // Slot assignment matches the feed-forward oracle: input key
    // -i-1 gets slot i, then layered nodes in emission order.
    s.slotOf.assign(static_cast<size_t>(num_vertices), -1);
    for (int i = 0; i < num_inputs; ++i)
        s.slotOf[static_cast<size_t>(i)] = num_inputs - 1 - i;
    int32_t next_slot = num_inputs;
    for (int32_t idx : s.waveNodes)
        s.slotOf[static_cast<size_t>(idx)] = next_slot++;
    plan.numSlots_ = next_slot;

    const size_t n_nodes = s.waveNodes.size();
    plan.activation_.reserve(n_nodes);
    plan.aggregation_.reserve(n_nodes);
    plan.bias_.reserve(n_nodes);
    plan.response_.reserve(n_nodes);
    plan.nodeSlot_.reserve(n_nodes);
    plan.edgeOffset_.reserve(n_nodes + 1);
    plan.edgeOffset_.push_back(0);
    plan.layerSpans_.reserve(num_waves);
    plan.schedule_.layers.reserve(num_waves);

    int32_t span_begin = 0;
    for (size_t w = 0; w < num_waves; ++w) {
        const int32_t w0 = s.waveOffs[w];
        const int32_t w1 = s.waveOffs[w + 1];
        PackedLayer packed;
        packed.numNodes = static_cast<int>(w1 - w0);
        s.layerSources.clear();
        for (int32_t wi = w0; wi < w1; ++wi) {
            const int32_t idx = s.waveNodes[static_cast<size_t>(wi)];
            const neat::NodeGene *ng = s.genes[static_cast<size_t>(idx)];
            GENESYS_ASSERT(ng != nullptr,
                           "layered vertex "
                               << s.keys[static_cast<size_t>(idx)]
                               << " missing gene");
            plan.activation_.push_back(ng->activation);
            plan.aggregation_.push_back(ng->aggregation);
            plan.bias_.push_back(lowerAttr(ng->bias, tier, codec));
            plan.response_.push_back(lowerAttr(ng->response, tier, codec));
            plan.nodeSlot_.push_back(s.slotOf[static_cast<size_t>(idx)]);

            for (int32_t e = s.inOff[static_cast<size_t>(idx)];
                 e < s.inOff[static_cast<size_t>(idx) + 1]; ++e) {
                const int32_t src = s.inSrc[static_cast<size_t>(e)];
                ++plan.macs_;
                ++packed.weights;
                s.layerSources.push_back(src);
                const int32_t src_slot =
                    src >= 0 ? s.slotOf[static_cast<size_t>(src)] : -1;
                if (src_slot < 0 &&
                    ng->aggregation == neat::Aggregation::Sum)
                    continue; // see edgeSrc_ docs
                plan.edgeSrc_.push_back(src_slot);
                plan.edgeWeight_.push_back(lowerAttr(
                    s.inW[static_cast<size_t>(e)], tier, codec));
            }
            plan.edgeOffset_.push_back(
                static_cast<int32_t>(plan.edgeSrc_.size()));
        }
        const auto span_end = span_begin + static_cast<int32_t>(w1 - w0);
        plan.layerSpans_.push_back({span_begin, span_end});
        span_begin = span_end;

        // Packed input vector length: distinct sources feeding the
        // layer (levelize's vectorLen).
        std::sort(s.layerSources.begin(), s.layerSources.end());
        packed.vectorLen = static_cast<int>(
            std::unique(s.layerSources.begin(), s.layerSources.end()) -
            s.layerSources.begin());
        plan.schedule_.layers.push_back(packed);
    }

    plan.outputSlot_.assign(static_cast<size_t>(cfg.numOutputs), -1);
    for (int o = 0; o < cfg.numOutputs; ++o) {
        const int32_t idx = indexOf(s, num_inputs, o);
        if (idx >= 0)
            plan.outputSlot_[static_cast<size_t>(o)] =
                s.slotOf[static_cast<size_t>(idx)];
    }
    plan.dcheckCompiled("CompiledPlan::compile");
    return plan;
}

/*
 * compileRecurrent() lowers the recurrent interpreter's structure to
 * the same flat arrays: no reachability pruning and no levelization —
 * every node gene updates every tick (cycles are well-defined because
 * reads come from the previous tick's double buffer), in ascending
 * key order, each node reading its enabled in-edges in ascending
 * source order. The MAC count and the per-node link order match the
 * interpreter exactly; tests/test_recurrent_plan.cc fuzzes the
 * equivalence bit for bit.
 */
CompiledPlan
CompiledPlan::compileRecurrent(const Genome &genome,
                               const NeatConfig &cfg, CompileScratch &s,
                               NumericsTier tier)
{
    CompiledPlan plan;
    plan.recurrent_ = true;
    plan.tier_ = tier;
    plan.numInputs_ = cfg.numInputs;
    plan.numOutputs_ = cfg.numOutputs;
    const FixedPointCodec codec(kHwIntBits, kHwFracBits);

    const int num_inputs = cfg.numInputs;
    compressKeys(genome, num_inputs, s);
    const int num_vertices = static_cast<int>(s.keys.size());
    const int n_nodes = num_vertices - num_inputs;

    // Slots match the recurrent oracle: input key -i-1 gets slot
    // i, then every node gene in ascending key order. Vertex index v
    // therefore maps to slot (num_inputs - 1 - v) for inputs and to
    // its own index for nodes (both orderings are ascending-key).
    plan.numSlots_ = num_vertices;
    const auto slot_of_vertex = [num_inputs](int32_t v) -> int32_t {
        return v < num_inputs ? num_inputs - 1 - v : v;
    };

    // --- per-destination in-edges (CSR, node destinations only) ----------
    // The interpreter groups connections by destination while
    // iterating in (src, dst) order, so per destination the sources
    // come out ascending; edges whose destination is not a node gene
    // have no evaluator and drop out (dangling sources stay, as -1
    // slot sentinels — they block nothing in recurrent mode but do
    // count as MACs, exactly like the interpreter's slotLinks).
    s.inDeg.assign(static_cast<size_t>(num_vertices), 0);
    size_t kept_edges = 0;
    for (const neat::ConnectionGene &cg : genome.connections().values()) {
        if (!cg.enabled)
            continue;
        const int32_t dst = indexOf(s, num_inputs, cg.key.second);
        if (dst < num_inputs)
            continue; // dangling or input destination: no evaluator
        ++s.inDeg[static_cast<size_t>(dst)];
        ++kept_edges;
    }
    s.inOff.assign(static_cast<size_t>(num_vertices) + 1, 0);
    for (int v = 0; v < num_vertices; ++v)
        s.inOff[static_cast<size_t>(v) + 1] =
            s.inOff[static_cast<size_t>(v)] +
            s.inDeg[static_cast<size_t>(v)];
    s.inSrc.resize(kept_edges);
    s.inW.resize(kept_edges);
    s.inFill = s.inOff;
    for (const neat::ConnectionGene &cg : genome.connections().values()) {
        if (!cg.enabled)
            continue;
        const int32_t dst = indexOf(s, num_inputs, cg.key.second);
        if (dst < num_inputs)
            continue;
        const auto slot =
            static_cast<size_t>(s.inFill[static_cast<size_t>(dst)]++);
        s.inSrc[slot] = indexOf(s, num_inputs, cg.key.first);
        s.inW[slot] = cg.weight;
    }

    // --- lowering: every node, ascending key, one wave per tick ----------
    plan.activation_.reserve(static_cast<size_t>(n_nodes));
    plan.aggregation_.reserve(static_cast<size_t>(n_nodes));
    plan.bias_.reserve(static_cast<size_t>(n_nodes));
    plan.response_.reserve(static_cast<size_t>(n_nodes));
    plan.nodeSlot_.reserve(static_cast<size_t>(n_nodes));
    plan.edgeOffset_.reserve(static_cast<size_t>(n_nodes) + 1);
    plan.edgeOffset_.push_back(0);
    s.layerSources.clear();
    for (int32_t idx = num_inputs; idx < num_vertices; ++idx) {
        const neat::NodeGene *ng = s.genes[static_cast<size_t>(idx)];
        plan.activation_.push_back(ng->activation);
        plan.aggregation_.push_back(ng->aggregation);
        plan.bias_.push_back(lowerAttr(ng->bias, tier, codec));
        plan.response_.push_back(lowerAttr(ng->response, tier, codec));
        plan.nodeSlot_.push_back(slot_of_vertex(idx));

        for (int32_t e = s.inOff[static_cast<size_t>(idx)];
             e < s.inOff[static_cast<size_t>(idx) + 1]; ++e) {
            const int32_t src = s.inSrc[static_cast<size_t>(e)];
            ++plan.macs_;
            s.layerSources.push_back(src);
            const int32_t src_slot = src >= 0 ? slot_of_vertex(src) : -1;
            if (src_slot < 0 && ng->aggregation == neat::Aggregation::Sum)
                continue; // see edgeSrc_ docs
            plan.edgeSrc_.push_back(src_slot);
            plan.edgeWeight_.push_back(
                lowerAttr(s.inW[static_cast<size_t>(e)], tier, codec));
        }
        plan.edgeOffset_.push_back(
            static_cast<int32_t>(plan.edgeSrc_.size()));
    }
    if (n_nodes > 0)
        plan.layerSpans_.push_back({0, n_nodes});

    // One packed layer per tick: the whole graph is simultaneously
    // ready (every node reads the previous tick), so ADAM sees a
    // single M x K step per inference with M = all nodes and K = the
    // distinct sources feeding them. totalMacs == macsPerInference by
    // construction — the invariant the hw cost model relies on.
    if (n_nodes > 0) {
        PackedLayer packed;
        packed.numNodes = n_nodes;
        packed.weights = plan.macs_;
        std::sort(s.layerSources.begin(), s.layerSources.end());
        packed.vectorLen = static_cast<int>(
            std::unique(s.layerSources.begin(), s.layerSources.end()) -
            s.layerSources.begin());
        plan.schedule_.layers.push_back(packed);
    }

    plan.outputSlot_.assign(static_cast<size_t>(cfg.numOutputs), -1);
    for (int o = 0; o < cfg.numOutputs; ++o) {
        const int32_t idx = indexOf(s, num_inputs, o);
        if (idx >= 0)
            plan.outputSlot_[static_cast<size_t>(o)] =
                slot_of_vertex(idx);
    }
    plan.dcheckCompiled("CompiledPlan::compileRecurrent");
    return plan;
}

void
CompiledPlan::dcheckCompiled(const char *what) const
{
#ifdef GENESYS_CHECKED
    if (!checksEnabled())
        return;
    const size_t n_nodes = nodeSlot_.size();
    const auto slots = static_cast<size_t>(numSlots_);
    GENESYS_DCHECK(edgeOffset_.size() == n_nodes + 1 &&
                       edgeOffset_.front() == 0,
                   what << ": CSR offset array must hold numNodes + 1"
                        << " entries starting at 0");
    GENESYS_DCHECK(edgeSrc_.size() == edgeWeight_.size() &&
                       static_cast<size_t>(edgeOffset_.back()) ==
                           edgeSrc_.size(),
                   what << ": CSR edge arrays diverge from the final"
                        << " offset");
    for (size_t n = 0; n < n_nodes; ++n) {
        GENESYS_DCHECK(edgeOffset_[n] <= edgeOffset_[n + 1],
                       what << ": CSR offsets not monotone at node "
                            << n);
        GENESYS_DCHECK_RANGE(static_cast<size_t>(nodeSlot_[n]),
                             static_cast<size_t>(numInputs_), slots,
                             what << ": destination slot of node " << n);
    }
    for (size_t e = 0; e < edgeSrc_.size(); ++e) {
        // -1 is the out-of-graph sentinel kept for non-Sum
        // aggregations; anything else must be a readable slot.
        GENESYS_DCHECK(edgeSrc_[e] == -1 ||
                           (edgeSrc_[e] >= 0 &&
                            static_cast<size_t>(edgeSrc_[e]) < slots),
                       what << ": edge " << e << " reads slot "
                            << edgeSrc_[e] << " outside [-1, "
                            << numSlots_ << ")");
    }
    int32_t covered = 0;
    for (const LayerSpan &span : layerSpans_) {
        GENESYS_DCHECK(span.begin == covered && span.end >= span.begin,
                       what << ": layer spans must tile [0, numNodes)"
                            << " contiguously");
        covered = span.end;
    }
    GENESYS_DCHECK(static_cast<size_t>(covered) == n_nodes,
                   what << ": layer spans cover " << covered << " of "
                        << n_nodes << " nodes");
    for (size_t o = 0; o < outputSlot_.size(); ++o) {
        GENESYS_DCHECK(outputSlot_[o] == -1 ||
                           (outputSlot_[o] >= 0 &&
                            static_cast<size_t>(outputSlot_[o]) < slots),
                       what << ": output " << o << " reads slot "
                            << outputSlot_[o]);
    }
#else
    (void)what;
#endif
}

CompiledPlan
CompiledPlan::compile(const Genome &genome, const NeatConfig &cfg,
                      NumericsTier tier)
{
    CompileScratch scratch;
    return compile(genome, cfg, scratch, tier);
}

CompiledPlan
CompiledPlan::compileRecurrent(const Genome &genome, const NeatConfig &cfg,
                               NumericsTier tier)
{
    CompileScratch scratch;
    return compileRecurrent(genome, cfg, scratch, tier);
}

CompiledPlan
CompiledPlan::compileFor(const Genome &genome, const NeatConfig &cfg,
                         CompileScratch &scratch, NumericsTier tier)
{
    return cfg.feedForward ? compile(genome, cfg, scratch, tier)
                           : compileRecurrent(genome, cfg, scratch, tier);
}

CompiledPlan
CompiledPlan::compileFor(const Genome &genome, const NeatConfig &cfg,
                         NumericsTier tier)
{
    CompileScratch scratch;
    return compileFor(genome, cfg, scratch, tier);
}

void
CompiledPlan::activate(const std::vector<double> &inputs,
                       PlanScratch &scratch) const
{
    GENESYS_ASSERT(inputs.size() == static_cast<size_t>(numInputs_),
                   "expected " << numInputs_ << " inputs, got "
                               << inputs.size());
    if (recurrent_) {
        GENESYS_ASSERT(scratch.prev.size() ==
                           static_cast<size_t>(numSlots_),
                       "recurrent scratch not reset for this plan — "
                       "call reset() before the first tick");
    } else {
        // No zero-fill: every slot read is an input slot or the
        // destination of an earlier node, both written before the
        // read (out-of-graph sources are compiled out or sentinels).
        scratch.values.resize(static_cast<size_t>(numSlots_));
        scratch.outputs.resize(static_cast<size_t>(numOutputs_));
        scratch.acc.resize(1);
    }
    static constexpr uint8_t kLive = 1;
    if (tier_ == NumericsTier::HwFaithful)
        activateBatchImpl<1, NumericsTier::HwFaithful>(1, inputs.data(),
                                                       &kLive, scratch);
    else
        activateBatchImpl<1, NumericsTier::Reference>(1, inputs.data(),
                                                      &kLive, scratch);
}

void
CompiledPlan::reset(PlanScratch &scratch) const
{
    beginBatch(1, scratch);
}

std::vector<double>
CompiledPlan::activate(const std::vector<double> &inputs) const
{
    PlanScratch scratch;
    reset(scratch);
    activate(inputs, scratch);
    return std::move(scratch.outputs);
}

void
CompiledPlan::beginBatch(int lanes, BatchScratch &scratch) const
{
    GENESYS_ASSERT(lanes > 0, "beginBatch needs lanes > 0, got "
                                  << lanes);
    const size_t L = static_cast<size_t>(lanes);
    scratch.inputs.resize(static_cast<size_t>(numInputs_) * L);
    scratch.outputs.resize(static_cast<size_t>(numOutputs_) * L);
    scratch.acc.resize(L);
    if (recurrent_) {
        scratch.prev.assign(static_cast<size_t>(numSlots_) * L, 0.0);
        scratch.curr.assign(static_cast<size_t>(numSlots_) * L, 0.0);
    } else {
        scratch.values.resize(static_cast<size_t>(numSlots_) * L);
    }
}

/*
 * The batched kernel: every lane runs the same per-lane operation
 * order (per node, edges accumulate in CSR order), whatever the lane
 * count, so each lane is bit-identical to a one-lane activate() fed
 * the same inputs — lane interleaving never reassociates a lane's
 * arithmetic.
 * The Sum accumulation runs branch-free across all lanes (stale
 * inactive-lane values are accumulated and discarded); the expensive
 * per-node activation (libm) is masked to active lanes.
 */
void
CompiledPlan::activateBatch(int lanes, const uint8_t *activeLanes,
                            BatchScratch &scratch) const
{
    GENESYS_ASSERT(lanes > 0 &&
                       scratch.inputs.size() ==
                           static_cast<size_t>(numInputs_) *
                               static_cast<size_t>(lanes),
                   "batch scratch not sized for " << lanes
                                                  << " lanes — call "
                                                     "beginBatch first");
    if (tier_ == NumericsTier::HwFaithful)
        activateBatchDispatch<NumericsTier::HwFaithful>(
            lanes, activeLanes, scratch);
    else
        activateBatchDispatch<NumericsTier::Reference>(
            lanes, activeLanes, scratch);
}

template <NumericsTier kTier>
void
CompiledPlan::activateBatchDispatch(int lanes,
                                    const uint8_t *activeLanes,
                                    BatchScratch &scratch) const
{
    // Dispatch to a fixed-width instantiation when the lane count is
    // a common small width: with the trip count known at compile time
    // the per-edge lane loop unrolls into straight vector code. The
    // engine's defaults (episodes per evaluation) land in this range.
    const double *const in = scratch.inputs.data();
    switch (lanes) {
      case 1:
        return activateBatchImpl<1, kTier>(lanes, in, activeLanes, scratch);
      case 2:
        return activateBatchImpl<2, kTier>(lanes, in, activeLanes, scratch);
      case 3:
        return activateBatchImpl<3, kTier>(lanes, in, activeLanes, scratch);
      case 4:
        return activateBatchImpl<4, kTier>(lanes, in, activeLanes, scratch);
      case 5:
        return activateBatchImpl<5, kTier>(lanes, in, activeLanes, scratch);
      case 6:
        return activateBatchImpl<6, kTier>(lanes, in, activeLanes, scratch);
      case 7:
        return activateBatchImpl<7, kTier>(lanes, in, activeLanes, scratch);
      case 8:
        return activateBatchImpl<8, kTier>(lanes, in, activeLanes, scratch);
      default:
        return activateBatchImpl<0, kTier>(lanes, in, activeLanes, scratch);
    }
}

template <int kLanes, NumericsTier kTier>
void
CompiledPlan::activateBatchImpl(int lanes, const double *inputs,
                                const uint8_t *activeLanes,
                                BatchScratch &scratch) const
{
    const size_t L =
        kLanes > 0 ? static_cast<size_t>(kLanes)
                   : static_cast<size_t>(lanes);
    GENESYS_ASSERT(scratch.outputs.size() ==
                       static_cast<size_t>(numOutputs_) * L,
                   "batch scratch not sized for " << lanes
                                                  << " lanes — call "
                                                     "beginBatch first");
    // The slot count is the one dimension that varies per genome
    // (inputs/outputs are environment-fixed), so the value arrays are
    // exactly the buffers a plan-switch without beginBatch would
    // overrun — check them explicitly.
    if (recurrent_) {
        GENESYS_ASSERT(scratch.prev.size() ==
                           static_cast<size_t>(numSlots_) * L,
                       "recurrent batch scratch not sized — call "
                       "beginBatch first");
    } else {
        GENESYS_ASSERT(scratch.values.size() ==
                           static_cast<size_t>(numSlots_) * L,
                       "batch scratch not sized for this plan — call "
                       "beginBatch first");
    }
    // The accumulator is the one buffer the size ASSERTs above do not
    // cover; a caller that resized the lane buffers by hand instead of
    // through beginBatch() would overrun it silently.
    GENESYS_DCHECK(scratch.acc.size() >= L,
                   "activateBatch: accumulator sized for "
                       << scratch.acc.size() << " lanes, need " << L
                       << " — call beginBatch first");

    // Read/write frames: feed-forward lanes read and write one values
    // array; recurrent lanes read the previous tick and write the
    // current one, then swap.
    double *const rd =
        recurrent_ ? scratch.prev.data() : scratch.values.data();
    double *const wr =
        recurrent_ ? scratch.curr.data() : scratch.values.data();

    // Latch inputs: input i occupies slot i in both modes. Inactive
    // lanes latch stale inputs into stale slots — never consumed.
    const size_t in_count = static_cast<size_t>(numInputs_) * L;
    std::copy(inputs, inputs + in_count, rd);
    if constexpr (kTier == NumericsTier::HwFaithful) {
        // Sensor Limit & Quantize, applied after the latch so the
        // caller's input buffer stays untouched.
        for (size_t i = 0; i < in_count; ++i)
            rd[i] = kHwQuantizer(rd[i]);
    }
    if (recurrent_)
        std::copy(rd, rd + in_count, wr);

    const double *const w = edgeWeight_.data();
    const int32_t *const src = edgeSrc_.data();
    const int32_t *const offs = edgeOffset_.data();
    const int32_t *const slot_of = nodeSlot_.data();
    const neat::Activation *const act = activation_.data();
    const neat::Aggregation *const agg = aggregation_.data();
    const double *const bias = bias_.data();
    const double *const response = response_.data();
    double *const acc = scratch.acc.data();

    // One mask scan per batch step (not per node): lanes retire
    // monotonically within an episode wave, and the all-active fast
    // path in the activation step needs only this bool.
    bool all_active = true;
    for (size_t l = 0; l < L; ++l)
        all_active &= activeLanes[l] != 0;

    const int n_nodes = static_cast<int>(nodeSlot_.size());
    for (int n = 0; n < n_nodes; ++n) {
        const int32_t e0 = offs[n];
        const int32_t e1 = offs[n + 1];
        if (agg[n] == neat::Aggregation::Sum) {
            // Summation order per lane is exactly the CSR edge
            // order in both branches — only where the running sums
            // live differs, so the change is invisible to the
            // bit-identity contract.
            if constexpr (kLanes > 0) {
                // Fixed width: a stack array of kLanes running sums
                // fully unrolls, so the accumulators stay in vector
                // registers across the whole edge loop instead of
                // round-tripping through memory per edge (the
                // store-to-load chain was the batched path's largest
                // cost on dense genomes). The final copy into the
                // shared accumulator keeps the activation step a
                // single call site below, which GCC needs to inline
                // it (a two-site helper gets outlined and costs more
                // than the 8 stores here save).
                double lacc[kLanes] = {};
                for (int32_t e = e0; e < e1; ++e) {
                    const double we = w[e];
                    const double *const __restrict sv =
                        rd + static_cast<size_t>(src[e]) *
                                 static_cast<size_t>(kLanes);
                    for (int l = 0; l < kLanes; ++l)
                        lacc[l] += sv[l] * we;
                }
                for (int l = 0; l < kLanes; ++l)
                    acc[l] = lacc[l];
            } else {
                // Generic width: accumulate in the lane-sized scratch
                // vector. __restrict: the accumulator is distinct
                // from every value array by construction, which
                // unlocks vectorization of the lane loop.
                double *const __restrict accr = acc;
                std::fill(accr, accr + L, 0.0);
                for (int32_t e = e0; e < e1; ++e) {
                    const double we = w[e];
                    const double *const __restrict sv =
                        rd + static_cast<size_t>(src[e]) * L;
                    for (size_t l = 0; l < L; ++l)
                        accr[l] += sv[l] * we;
                }
            }
        } else {
            for (size_t l = 0; l < L; ++l) {
                if (!activeLanes[l])
                    continue;
                scratch.weighted.clear();
                for (int32_t e = e0; e < e1; ++e) {
                    scratch.weighted.push_back(
                        (src[e] >= 0
                             ? rd[static_cast<size_t>(src[e]) * L + l]
                             : 0.0) *
                        w[e]);
                }
                acc[l] = neat::aggregate(agg[n], scratch.weighted);
            }
        }
        const neat::Activation a = act[n];
        const double b = bias[n];
        const double r = response[n];
        double *const dst = wr + static_cast<size_t>(slot_of[n]) * L;
        if constexpr (kTier == NumericsTier::HwFaithful) {
            // Branch-free hw approximation + Limit & Quantize across
            // the whole lane vector — the step the reference tier
            // cannot vectorize because of the per-lane libm call.
            hwact::activateLanesQuantized<kLanes>(
                a, b, r, acc, activeLanes, all_active, dst,
                static_cast<int>(L), kHwQuantizer);
        } else {
            for (size_t l = 0; l < L; ++l) {
                if (activeLanes[l])
                    dst[l] = neat::activate(a, b + r * acc[l]);
            }
        }
    }

    if (recurrent_)
        std::swap(scratch.prev, scratch.curr);
    const double *const settled =
        recurrent_ ? scratch.prev.data() : scratch.values.data();
    double *const outputs = scratch.outputs.data();
    for (int o = 0; o < numOutputs_; ++o) {
        const int32_t slot = outputSlot_[static_cast<size_t>(o)];
        for (size_t l = 0; l < L; ++l) {
            outputs[static_cast<size_t>(o) * L + l] =
                slot >= 0 ? settled[static_cast<size_t>(slot) * L + l]
                          : 0.0;
        }
    }
}

} // namespace genesys::nn
