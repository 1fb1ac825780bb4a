#include "support/genome_analysis.hh"

#include <algorithm>
#include <map>
#include <set>

namespace genesys::nn
{

GenomeAnalysis
analyzeGenome(const Genome &genome, const NeatConfig &cfg)
{
    GenomeAnalysis out;

    // One pass over the connection genes builds the adjacency both
    // walks run on; nothing below touches the gene storage again.
    std::map<int, std::vector<int>> in_of;  // dst -> enabled sources
    std::map<int, std::vector<int>> out_of; // src -> enabled dests
    for (const auto &[ck, cg] : genome.connections()) {
        if (!cg.enabled)
            continue;
        in_of[ck.second].push_back(ck.first);
        out_of[ck.first].push_back(ck.second);
    }

    // Backward reachability from the outputs. Inputs (negative keys)
    // terminate the walk: they are always available, never "required".
    std::vector<int> stack;
    for (int o : Genome::outputKeys(cfg)) {
        out.required.insert(o);
        stack.push_back(o);
    }
    while (!stack.empty()) {
        const int dst = stack.back();
        stack.pop_back();
        auto it = in_of.find(dst);
        if (it == in_of.end())
            continue;
        for (int src : it->second) {
            if (src >= 0 && out.required.insert(src).second)
                stack.push_back(src);
        }
    }

    // Levelization by in-degree countdown over the required subgraph.
    // A node joins a layer the wave after its last source became
    // available; nodes with zero enabled in-edges never join (they
    // are never "fed by something available"), and edges from
    // unresolvable sources — cycle members, dangling references —
    // simply never count down, excluding everything downstream.
    std::map<int, int> remaining;
    for (int n : out.required) {
        auto it = in_of.find(n);
        remaining[n] =
            it == in_of.end() ? 0 : static_cast<int>(it->second.size());
    }
    std::vector<int> frontier = Genome::inputKeys(cfg);
    while (!frontier.empty()) {
        std::vector<int> next;
        for (int src : frontier) {
            auto it = out_of.find(src);
            if (it == out_of.end())
                continue;
            for (int dst : it->second) {
                auto r = remaining.find(dst);
                if (r != remaining.end() && --r->second == 0)
                    next.push_back(dst);
            }
        }
        std::sort(next.begin(), next.end());
        if (!next.empty())
            out.layers.push_back(next);
        frontier = std::move(next);
    }
    return out;
}

InferenceSchedule
levelize(const Genome &genome, const NeatConfig &cfg)
{
    return scheduleForLayers(genome, analyzeGenome(genome, cfg).layers);
}

InferenceSchedule
scheduleForLayers(const Genome &genome,
                  const std::vector<std::vector<int>> &layers)
{
    InferenceSchedule sched;
    for (const auto &layer : layers) {
        PackedLayer pl;
        pl.numNodes = static_cast<int>(layer.size());

        // The packed input vector holds every distinct source the
        // layer's nodes read; the CPU gathers those node values
        // ("picking the ready node values to create input vectors",
        // Section IV-D).
        std::set<int> sources;
        std::set<int> members(layer.begin(), layer.end());
        for (const auto &[ck, cg] : genome.connections()) {
            if (!cg.enabled || !members.count(ck.second))
                continue;
            sources.insert(ck.first);
            ++pl.weights;
        }
        pl.vectorLen = static_cast<int>(sources.size());
        sched.layers.push_back(pl);
    }
    return sched;
}

} // namespace genesys::nn
