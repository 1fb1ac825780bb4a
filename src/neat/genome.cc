#include "neat/genome.hh"

#include <algorithm>
#include <limits>
#include <set>

#include "common/logging.hh"

namespace genesys::neat
{

MutationCounts &
MutationCounts::operator+=(const MutationCounts &o)
{
    crossoverOps += o.crossoverOps;
    cloneOps += o.cloneOps;
    perturbOps += o.perturbOps;
    addOps += o.addOps;
    deleteOps += o.deleteOps;
    return *this;
}

size_t
Genome::numEnabledConnections() const
{
    size_t n = 0;
    for (const ConnectionGene &cg : connections_.values()) {
        if (cg.enabled)
            ++n;
    }
    return n;
}

std::vector<int>
Genome::inputKeys(const NeatConfig &cfg)
{
    std::vector<int> keys;
    keys.reserve(static_cast<size_t>(cfg.numInputs));
    for (int i = 0; i < cfg.numInputs; ++i)
        keys.push_back(-i - 1);
    return keys;
}

std::vector<int>
Genome::outputKeys(const NeatConfig &cfg)
{
    std::vector<int> keys;
    keys.reserve(static_cast<size_t>(cfg.numOutputs));
    for (int i = 0; i < cfg.numOutputs; ++i)
        keys.push_back(i);
    return keys;
}

Genome
Genome::createNew(int key, const NeatConfig &cfg, NodeIndexer &indexer,
                  XorWow &rng)
{
    Genome g(key);

    for (int out : outputKeys(cfg)) {
        g.nodes_.emplace(out, NodeGene::createNew(out, cfg, rng));
        indexer.bump(out);
    }
    std::vector<int> hidden;
    for (int i = 0; i < cfg.numHidden; ++i) {
        const int nk = indexer.next();
        hidden.push_back(nk);
        g.nodes_.emplace(nk, NodeGene::createNew(nk, cfg, rng));
    }

    // Genes are drawn in input-major order, which fixes the RNG
    // stream, but input keys count down from -1, so emplacing in draw
    // order would insert each gene at the front of the sorted array:
    // quadratic in the connection count, and the bulk of System
    // construction for 128-input genomes. Stage the draws, then
    // emplace them in key order, which only appends. Every (source,
    // destination) pair below is drawn once, so the sort has no ties
    // to order.
    std::vector<std::pair<ConnKey, ConnectionGene>> conns;
    auto add_conn = [&](int src, int dst) {
        const ConnKey ck{src, dst};
        conns.emplace_back(ck, ConnectionGene::createNew(ck, cfg, rng));
    };

    switch (cfg.initialConnection) {
      case InitialConnection::Unconnected:
        break;
      case InitialConnection::FullDirect:
        for (int in : inputKeys(cfg)) {
            for (int out : outputKeys(cfg))
                add_conn(in, out);
        }
        break;
      case InitialConnection::PartialDirect:
        for (int in : inputKeys(cfg)) {
            for (int out : outputKeys(cfg)) {
                if (rng.bernoulli(cfg.partialConnectionProb))
                    add_conn(in, out);
            }
        }
        break;
    }

    // Wire any requested initial hidden nodes input->hidden->output so
    // they are live from the start.
    for (int h : hidden) {
        for (int in : inputKeys(cfg))
            add_conn(in, h);
        for (int out : outputKeys(cfg))
            add_conn(h, out);
    }

    std::sort(conns.begin(), conns.end(),
              [](const auto &a, const auto &b) { return a.first < b.first; });
    g.connections_.reserve(conns.size());
    for (auto &[ck, gene] : conns)
        g.connections_.emplace(ck, std::move(gene));
    return g;
}

Genome
Genome::crossover(int child_key, const Genome &parent1,
                  const Genome &parent2, XorWow &rng, MutationCounts *counts)
{
    Genome child(child_key);

    // Merge-join over the sorted key arrays: parent1 drives (its key
    // order fixes the RNG stream, exactly as the old map iteration
    // did), parent2 advances a cursor instead of paying a lookup per
    // gene. Parent2-only (excess/disjoint) genes are not inherited.
    {
        const auto &k1 = parent1.nodes_.keys();
        const auto &v1 = parent1.nodes_.values();
        const auto &v2 = parent2.nodes_.values();
        child.nodes_.reserve(k1.size());
        mergeJoinSorted(
            k1, parent2.nodes_.keys(),
            [&](size_t i, size_t j) {
                child.nodes_.emplace(k1[i], v1[i].crossover(v2[j], rng));
                if (counts)
                    ++counts->crossoverOps;
            },
            [&](size_t i) {
                child.nodes_.emplace(k1[i], v1[i]);
                if (counts)
                    ++counts->cloneOps;
            },
            [](size_t) {});
    }
    {
        const auto &k1 = parent1.connections_.keys();
        const auto &v1 = parent1.connections_.values();
        const auto &v2 = parent2.connections_.values();
        child.connections_.reserve(k1.size());
        mergeJoinSorted(
            k1, parent2.connections_.keys(),
            [&](size_t i, size_t j) {
                child.connections_.emplace(
                    k1[i], v1[i].crossover(v2[j], rng));
                if (counts)
                    ++counts->crossoverOps;
            },
            [&](size_t i) {
                child.connections_.emplace(k1[i], v1[i]);
                if (counts)
                    ++counts->cloneOps;
            },
            [](size_t) {});
    }
    child.nodes_.dcheckInvariants("Genome::crossover nodes");
    child.connections_.dcheckInvariants("Genome::crossover connections");
    return child;
}

MutationCounts
Genome::mutate(const NeatConfig &cfg, NodeIndexer &indexer, XorWow &rng)
{
    MutationCounts counts;

    if (cfg.singleStructuralMutation) {
        const double div = std::max(1.0, cfg.nodeAddProb +
                                             cfg.nodeDeleteProb +
                                             cfg.connAddProb +
                                             cfg.connDeleteProb);
        const double r = rng.uniform();
        double acc = cfg.nodeAddProb / div;
        if (r < acc) {
            if (mutateAddNode(cfg, indexer, rng) >= 0)
                counts.addOps += 3; // node + two connections
        } else if (r < (acc += cfg.nodeDeleteProb / div)) {
            counts.deleteOps += deleteNodeIfAllowed(cfg, rng);
        } else if (r < (acc += cfg.connAddProb / div)) {
            if (mutateAddConnection(cfg, rng))
                ++counts.addOps;
        } else if (r < acc + cfg.connDeleteProb / div) {
            counts.deleteOps += mutateDeleteConnection(rng);
        }
    } else {
        if (rng.bernoulli(cfg.nodeAddProb)) {
            if (mutateAddNode(cfg, indexer, rng) >= 0)
                counts.addOps += 3;
        }
        if (rng.bernoulli(cfg.nodeDeleteProb))
            counts.deleteOps += deleteNodeIfAllowed(cfg, rng);
        if (rng.bernoulli(cfg.connAddProb)) {
            if (mutateAddConnection(cfg, rng))
                ++counts.addOps;
        }
        if (rng.bernoulli(cfg.connDeleteProb))
            counts.deleteOps += mutateDeleteConnection(rng);
    }

    // Attribute perturbation pass over every gene (Fig 3(d)
    // "Mutation: Perturb"). One gene-op per gene, matching the
    // hardware's gene-per-cycle streaming; the flat gene arrays make
    // this a contiguous walk.
    for (NodeGene &ng : nodes_.mutableValues()) {
        ng.mutate(cfg, rng);
        ++counts.perturbOps;
    }
    for (ConnectionGene &cg : connections_.mutableValues()) {
        cg.mutate(cfg, rng);
        ++counts.perturbOps;
    }
    nodes_.dcheckInvariants("Genome::mutate nodes");
    connections_.dcheckInvariants("Genome::mutate connections");
    return counts;
}

long
Genome::deleteNodeIfAllowed(const NeatConfig &cfg, XorWow &rng)
{
    // EvE's Delete Gene Engine checks the number of previously
    // deleted nodes against a threshold "to keep the genome alive"
    // (Section IV-C3).
    if (cfg.maxNodeDeletionsPerChild > 0 &&
        nodeDeletions_ >= cfg.maxNodeDeletionsPerChild) {
        return 0;
    }
    return mutateDeleteNode(cfg, rng);
}

int
Genome::mutateAddNode(const NeatConfig &cfg, NodeIndexer &indexer,
                      XorWow &rng)
{
    if (connections_.empty())
        return -1;

    // Pick a random connection to split (same index in the sorted
    // order the map iteration used). Copy its fields out before any
    // insert below reallocates the gene array.
    const auto pick = static_cast<size_t>(rng.uniformInt(
        static_cast<uint32_t>(connections_.size())));
    ConnectionGene &conn = connections_.mutableValueAt(pick);
    conn.enabled = false;
    const auto [src, dst] = conn.key;
    const double split_weight = conn.weight;

    const int new_key = indexer.next();
    nodes_.emplace(new_key, NodeGene::createNew(new_key, cfg, rng));

    // in -> new carries weight 1, new -> out carries the old weight,
    // preserving the original function at the moment of the split.
    ConnectionGene c1;
    c1.key = {src, new_key};
    c1.weight = 1.0;
    c1.enabled = true;
    ConnectionGene c2;
    c2.key = {new_key, dst};
    c2.weight = split_weight;
    c2.enabled = true;
    connections_.insert_or_assign(c1.key, c1);
    connections_.insert_or_assign(c2.key, c2);
    return new_key;
}

bool
Genome::mutateAddConnection(const NeatConfig &cfg, XorWow &rng)
{
    // Destination: any hidden or output node. Source: any node or
    // input pin. The node key array is already the sorted candidate
    // list — only the source list (which appends the input pins)
    // needs a copy.
    const std::vector<int> &out_candidates = nodes_.keys();
    if (out_candidates.empty())
        return false;

    std::vector<int> in_candidates = out_candidates;
    for (int in : inputKeys(cfg))
        in_candidates.push_back(in);

    const int src = in_candidates[rng.choiceIndex(in_candidates)];
    const int dst = out_candidates[rng.choiceIndex(out_candidates)];
    const ConnKey key{src, dst};

    if (connections_.count(key))
        return false;

    // Avoid connecting two output nodes directly (neat-python rule).
    const bool src_is_output = src >= 0 && src < cfg.numOutputs;
    const bool dst_is_output = dst >= 0 && dst < cfg.numOutputs;
    if (src_is_output && dst_is_output)
        return false;

    if (cfg.feedForward && createsCycle(connections_, key))
        return false;

    connections_.emplace(key, ConnectionGene::createNew(key, cfg, rng));
    return true;
}

long
Genome::mutateDeleteNode(const NeatConfig &cfg, XorWow &rng)
{
    // Hidden nodes only: outputs are structural, inputs are not genes.
    std::vector<int> hidden;
    for (int nk : nodes_.keys()) {
        if (nk >= cfg.numOutputs)
            hidden.push_back(nk);
    }
    if (hidden.empty())
        return 0;

    const int victim = hidden[rng.choiceIndex(hidden)];
    long removed = 1;
    nodes_.erase(victim);
    ++nodeDeletions_;

    // Prune dangling connections in one stable pass — in hardware
    // this is the node-ID register compare in the Delete Gene Engine
    // (Fig 7).
    removed += static_cast<long>(connections_.eraseIf(
        [victim](const ConnKey &ck, const ConnectionGene &) {
            return ck.first == victim || ck.second == victim;
        }));
    return removed;
}

long
Genome::mutateDeleteConnection(XorWow &rng)
{
    if (connections_.empty())
        return 0;
    connections_.eraseAt(static_cast<size_t>(rng.uniformInt(
        static_cast<uint32_t>(connections_.size()))));
    return 1;
}

double
Genome::distance(const Genome &other, const NeatConfig &cfg) const
{
    // Merge-join over both sorted key arrays: one linear pass counts
    // the disjoint genes on both sides and accumulates homologous
    // attribute distance in ascending key order — the same summation
    // order (hence bit-identical doubles) as the old per-key map
    // lookups.
    double node_distance = 0.0;
    if (!nodes_.empty() || !other.nodes_.empty()) {
        long disjoint = 0;
        double d = 0.0;
        const auto &va = nodes_.values();
        const auto &vb = other.nodes_.values();
        mergeJoinSorted(
            nodes_.keys(), other.nodes_.keys(),
            [&](size_t i, size_t j) {
                d += va[i].distance(vb[j]) *
                     cfg.compatibilityWeightCoefficient;
            },
            [&](size_t) { ++disjoint; }, [&](size_t) { ++disjoint; });
        const double max_nodes = static_cast<double>(
            std::max(nodes_.size(), other.nodes_.size()));
        node_distance =
            (d + cfg.compatibilityDisjointCoefficient *
                     static_cast<double>(disjoint)) /
            max_nodes;
    }

    double conn_distance = 0.0;
    if (!connections_.empty() || !other.connections_.empty()) {
        long disjoint = 0;
        double d = 0.0;
        const auto &va = connections_.values();
        const auto &vb = other.connections_.values();
        mergeJoinSorted(
            connections_.keys(), other.connections_.keys(),
            [&](size_t i, size_t j) {
                d += va[i].distance(vb[j]) *
                     cfg.compatibilityWeightCoefficient;
            },
            [&](size_t) { ++disjoint; }, [&](size_t) { ++disjoint; });
        const double max_conns = static_cast<double>(
            std::max(connections_.size(), other.connections_.size()));
        conn_distance =
            (d + cfg.compatibilityDisjointCoefficient *
                     static_cast<double>(disjoint)) /
            max_conns;
    }
    return node_distance + conn_distance;
}

void
Genome::validate(const NeatConfig &cfg) const
{
    const auto &nkeys = nodes_.keys();
    for (size_t i = 0; i < nkeys.size(); ++i) {
        const NodeGene &ng = nodes_.valueAt(i);
        GENESYS_ASSERT(nkeys[i] == ng.key, "node gene key mismatch");
        GENESYS_ASSERT(nkeys[i] >= 0, "node gene with input (negative) key");
        GENESYS_ASSERT(i == 0 || nkeys[i - 1] < nkeys[i],
                       "node keys not strictly ascending");
    }
    for (int out : outputKeys(cfg)) {
        GENESYS_ASSERT(nodes_.count(out),
                       "output node " << out << " missing");
    }
    const auto valid_source = [&](int k) {
        return (k < 0 && k >= -cfg.numInputs) || nodes_.contains(k);
    };
    const auto &ckeys = connections_.keys();
    for (size_t i = 0; i < ckeys.size(); ++i) {
        const ConnKey &ck = ckeys[i];
        GENESYS_ASSERT(ck == connections_.valueAt(i).key,
                       "connection gene key mismatch");
        GENESYS_ASSERT(valid_source(ck.first),
                       "dangling connection source " << ck.first);
        GENESYS_ASSERT(nodes_.contains(ck.second),
                       "dangling connection dest " << ck.second);
        GENESYS_ASSERT(i == 0 || ckeys[i - 1] < ck,
                       "connection keys not strictly ascending");
    }
    if (cfg.feedForward) {
        // The stored graph must be acyclic (over all connections,
        // enabled or not, as neat-python maintains). One Kahn-style
        // in-degree countdown over every stored connection replaces
        // the old per-connection map copy + BFS (O(C^2) copies); any
        // vertex that never resolves sits on or downstream of a
        // cycle, and the first edge whose endpoints both fail to
        // resolve is reported as the offender.
        const int num_inputs = cfg.numInputs;
        const auto index_of = [&](int key) -> size_t {
            if (key < 0) // -numInputs..-1 -> 0..numInputs-1
                return static_cast<size_t>(key + num_inputs);
            return static_cast<size_t>(num_inputs) +
                   static_cast<size_t>(
                       std::lower_bound(nkeys.begin(), nkeys.end(), key) -
                       nkeys.begin());
        };
        const size_t nv = static_cast<size_t>(num_inputs) + nkeys.size();
        std::vector<int> in_deg(nv, 0);
        for (const ConnKey &ck : ckeys)
            ++in_deg[index_of(ck.second)];

        // Seed with every vertex that has no stored in-edge (inputs
        // always qualify: destinations are node keys).
        std::vector<char> resolved(nv, 0);
        std::vector<int> stack; // vertex keys
        for (int i = 0; i < num_inputs; ++i) {
            resolved[static_cast<size_t>(i)] = 1;
            stack.push_back(i - num_inputs);
        }
        for (size_t i = 0; i < nkeys.size(); ++i) {
            if (in_deg[static_cast<size_t>(num_inputs) + i] == 0) {
                resolved[static_cast<size_t>(num_inputs) + i] = 1;
                stack.push_back(nkeys[i]);
            }
        }
        while (!stack.empty()) {
            const int v = stack.back();
            stack.pop_back();
            // Out-edges of v are the contiguous (v, *) range of the
            // sorted connection-key array.
            auto it = std::lower_bound(
                ckeys.begin(), ckeys.end(),
                ConnKey{v, std::numeric_limits<int>::min()});
            for (; it != ckeys.end() && it->first == v; ++it) {
                const size_t dst = index_of(it->second);
                if (--in_deg[dst] == 0) {
                    resolved[dst] = 1;
                    stack.push_back(it->second);
                }
            }
        }
        bool cyclic = false;
        for (const ConnKey &ck : ckeys) {
            if (!resolved[index_of(ck.first)] &&
                !resolved[index_of(ck.second)]) {
                cyclic = true;
                break;
            }
        }
        if (cyclic) {
            // The forward pass leaves cycles *and* everything
            // downstream of them unresolved. Peel vertices with no
            // outgoing edge into the unresolved core (failure path
            // only), so the edge reported below actually lies on a
            // cycle — not merely behind one.
            std::vector<char> core(nv, 0);
            for (size_t v = 0; v < nv; ++v)
                core[v] = !resolved[v];
            for (bool changed = true; changed;) {
                changed = false;
                std::vector<int> out_in_core(nv, 0);
                for (const ConnKey &ck : ckeys) {
                    if (core[index_of(ck.first)] &&
                        core[index_of(ck.second)])
                        ++out_in_core[index_of(ck.first)];
                }
                for (size_t v = 0; v < nv; ++v) {
                    if (core[v] && out_in_core[v] == 0) {
                        core[v] = 0;
                        changed = true;
                    }
                }
            }
            for (const ConnKey &ck : ckeys) {
                GENESYS_ASSERT(!core[index_of(ck.first)] ||
                                   !core[index_of(ck.second)],
                               "cycle through connection ("
                                   << ck.first << "," << ck.second
                                   << ")");
            }
            panic("feed-forward genome has a cycle but no core edge "
                  "was identified");
        }
    }
}

bool
Genome::createsCycle(const ConnGeneMap &connections, ConnKey test)
{
    const auto [in, out] = test;
    if (in == out)
        return true;

    // DFS from `out`; a path back to `in` means the new edge closes a
    // cycle. Out-edges of a node are a contiguous range of the sorted
    // key array, so no adjacency structure is built.
    const auto &keys = connections.keys();
    std::set<int> visited{out};
    std::vector<int> stack{out};
    while (!stack.empty()) {
        const int v = stack.back();
        stack.pop_back();
        auto it = std::lower_bound(
            keys.begin(), keys.end(),
            ConnKey{v, std::numeric_limits<int>::min()});
        for (; it != keys.end() && it->first == v; ++it) {
            const int b = it->second;
            if (b == in)
                return true;
            if (visited.insert(b).second)
                stack.push_back(b);
        }
    }
    return false;
}

} // namespace genesys::neat
