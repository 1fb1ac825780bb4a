#include "neat/reproduction.hh"

#include <algorithm>
#include <cmath>

#include "common/logging.hh"

namespace genesys::neat
{

Reproduction::Reproduction(const NeatConfig &cfg)
    : cfg_(cfg), stagnation_(cfg),
      nodeIndexer_(cfg.numOutputs)
{
    cfg.validate();
}

std::map<int, Genome>
Reproduction::createNewPopulation(XorWow &rng)
{
    std::map<int, Genome> population;
    for (int i = 0; i < cfg_.populationSize; ++i) {
        const int key = nextGenomeKey_++;
        population.emplace(
            key, Genome::createNew(key, cfg_, nodeIndexer_, rng));
    }
    return population;
}

std::vector<int>
Reproduction::computeSpawn(const std::vector<double> &adjusted_fitness,
                           const std::vector<int> &previous_sizes,
                           int pop_size, int min_species_size)
{
    GENESYS_ASSERT(adjusted_fitness.size() == previous_sizes.size(),
                   "spawn input size mismatch");
    double af_sum = 0.0;
    for (double af : adjusted_fitness)
        af_sum += af;

    std::vector<double> spawn;
    spawn.reserve(adjusted_fitness.size());
    for (size_t i = 0; i < adjusted_fitness.size(); ++i) {
        const double ps = previous_sizes[i];
        double s;
        if (af_sum > 0) {
            s = std::max<double>(min_species_size,
                                 adjusted_fitness[i] / af_sum * pop_size);
        } else {
            s = min_species_size;
        }
        const double d = (s - ps) * 0.5;
        const double c = std::round(d);
        double amount = ps;
        if (std::fabs(c) > 0.0)
            amount += c;
        else if (d > 0.0)
            amount += 1.0;
        else if (d < 0.0)
            amount -= 1.0;
        spawn.push_back(amount);
    }

    double total = 0.0;
    for (double s : spawn)
        total += s;
    const double norm = total > 0 ? pop_size / total : 1.0;

    std::vector<int> result;
    result.reserve(spawn.size());
    for (double s : spawn) {
        result.push_back(std::max(
            min_species_size, static_cast<int>(std::lround(s * norm))));
    }
    return result;
}

std::map<int, Genome>
Reproduction::reproduce(SpeciesSet &species,
                        const std::map<int, Genome> &population,
                        int generation, XorWow &rng, EvolutionTrace &trace,
                        const GenomeSink *sink)
{
    trace.generation = generation;
    trace.children.clear();

    // Stagnation pass: drop species that have not improved.
    std::vector<int> remaining;
    std::vector<double> all_fitnesses;
    for (const auto &[sk, stagnant] :
         stagnation_.update(species, population, generation)) {
        if (stagnant) {
            species.remove(sk);
        } else {
            remaining.push_back(sk);
            for (double f :
                 species.species().at(sk).memberFitnesses(population)) {
                all_fitnesses.push_back(f);
            }
        }
    }
    if (remaining.empty())
        return {}; // complete extinction

    // Fitness sharing: each species' mean fitness, normalized into
    // [0,1] across the population, is its reproductive share
    // (Section II-D "Fitness sharing").
    const double min_f =
        *std::min_element(all_fitnesses.begin(), all_fitnesses.end());
    const double max_f =
        *std::max_element(all_fitnesses.begin(), all_fitnesses.end());
    const double fitness_range = std::max(1.0, max_f - min_f);

    std::vector<double> adjusted;
    std::vector<int> prev_sizes;
    for (int sk : remaining) {
        Species &sp = species.mutableSpecies().at(sk);
        const auto fits = sp.memberFitnesses(population);
        double msf = 0.0;
        for (double f : fits)
            msf += f;
        msf /= static_cast<double>(fits.size());
        sp.adjustedFitness = (msf - min_f) / fitness_range;
        adjusted.push_back(sp.adjustedFitness);
        prev_sizes.push_back(static_cast<int>(sp.memberKeys.size()));
    }

    const int min_species_size = std::max(cfg_.minSpeciesSize, cfg_.elitism);
    const auto spawn_amounts = computeSpawn(
        adjusted, prev_sizes, cfg_.populationSize, min_species_size);

    std::map<int, Genome> new_population;

    // computeSpawn normalizes with lround, so the per-species amounts
    // (each already >= elitism via min_species_size) can sum past the
    // population size. Shave the overflow deterministically from the
    // least-fit species first (`remaining` is in ascending species
    // fitness order), keeping each species' elites while any species
    // still has non-elite spawn to give up; a no-op whenever the
    // rounded total already fits — the common case.
    std::vector<int> spawns(remaining.size());
    int spawn_total = 0;
    for (size_t si = 0; si < remaining.size(); ++si) {
        spawns[si] = std::max(spawn_amounts[si], cfg_.elitism);
        spawn_total += spawns[si];
    }
    const auto shave_down_to = [&](int floor) {
        for (size_t si = 0;
             spawn_total > cfg_.populationSize && si < spawns.size();) {
            if (spawns[si] > floor) {
                --spawns[si];
                --spawn_total;
            } else {
                ++si;
            }
        }
    };
    shave_down_to(cfg_.elitism); // spare elites while possible
    shave_down_to(0);            // cut elites only if they alone overflow

    // Rank every species' members by fitness (descending; key as
    // tiebreak for determinism) before breeding anything. Ranking
    // draws no RNG, so doing it up front leaves the draw order
    // untouched — and it fixes the elite set before the first child
    // exists, which a sink needs to prune state to the survivors.
    std::vector<std::vector<std::pair<double, int>>> ranked_by_species(
        remaining.size());
    std::vector<int> elite_counts(remaining.size());
    std::vector<int> elite_keys;
    for (size_t si = 0; si < remaining.size(); ++si) {
        const Species &sp = species.species().at(remaining[si]);
        auto &ranked = ranked_by_species[si];
        for (int mk : sp.memberKeys)
            ranked.emplace_back(population.at(mk).fitness(), mk);
        std::sort(ranked.begin(), ranked.end(), [](const auto &a,
                                                   const auto &b) {
            if (a.first != b.first)
                return a.first > b.first;
            return a.second < b.second;
        });
        elite_counts[si] = std::max(
            0, std::min({cfg_.elitism, static_cast<int>(ranked.size()),
                         spawns[si]}));
        for (int i = 0; i < elite_counts[si]; ++i)
            elite_keys.push_back(ranked[static_cast<size_t>(i)].second);
    }
    if (sink && sink->begin)
        sink->begin(elite_keys);

    const auto emit = [&](int key, Genome genome) {
        const auto it = new_population.emplace(key, std::move(genome)).first;
        if (sink && sink->genome)
            sink->genome(GenomeHandle{key, &it->second});
    };

    try {
        for (size_t si = 0; si < remaining.size(); ++si) {
            const auto &ranked = ranked_by_species[si];
            int spawn = spawns[si];

            // Elitism: the species' best genomes survive unchanged. On
            // chip this is a genome that is simply left in the Genome
            // Buffer; no EvE work.
            for (int i = 0; i < elite_counts[si]; ++i, --spawn) {
                const int gid = ranked[static_cast<size_t>(i)].second;
                const Genome &src = population.at(gid);
                ChildRecord rec;
                rec.childKey = gid;
                rec.parent1Key = gid;
                rec.parent2Key = gid;
                rec.isElite = true;
                rec.childNodeGenes = src.numNodeGenes();
                rec.childConnGenes = src.numConnectionGenes();
                trace.children.push_back(rec);

                Genome elite = src;
                elite.clearFitness();
                emit(gid, std::move(elite));
            }
            if (spawn <= 0)
                continue;

            // Survival threshold: only the top fraction may be parents.
            size_t cutoff = static_cast<size_t>(
                std::ceil(cfg_.survivalThreshold *
                          static_cast<double>(ranked.size())));
            cutoff = std::max<size_t>(cutoff, 2);
            cutoff = std::min(cutoff, ranked.size());

            // Rank-biased survivor pick (see
            // NeatConfig::parentSelectionBias).
            auto pick_parent = [&]() -> size_t {
                const double u = rng.uniform();
                const double biased = std::pow(
                    u, std::max(1.0, cfg_.parentSelectionBias));
                auto idx = static_cast<size_t>(
                    biased * static_cast<double>(cutoff));
                return std::min(idx, cutoff - 1);
            };

            while (spawn-- > 0) {
                const size_t i1 = pick_parent();
                const size_t i2 = pick_parent();
                int p1_key = ranked[i1].second;
                int p2_key = ranked[i2].second;
                // Fitter parent first (parent 1 contributes disjoint
                // genes).
                if (population.at(p2_key).fitness() >
                    population.at(p1_key).fitness()) {
                    std::swap(p1_key, p2_key);
                }
                const Genome &p1 = population.at(p1_key);
                const Genome &p2 = population.at(p2_key);

                const int child_key = nextGenomeKey_++;
                ChildRecord rec;
                rec.childKey = child_key;
                rec.parent1Key = p1_key;
                rec.parent2Key = p2_key;
                rec.parent1Genes = p1.numGenes();
                rec.parent2Genes = p2.numGenes();

                Genome child = Genome::crossover(
                    child_key, p1, p2, rng, &rec.ops, &rec.alignedStreamLen);
                rec.ops += child.mutate(cfg_, nodeIndexer_, rng);

                rec.childNodeGenes = child.numNodeGenes();
                rec.childConnGenes = child.numConnectionGenes();
                trace.children.push_back(rec);
                emit(child_key, std::move(child));
            }
        }
        GENESYS_ASSERT(new_population.size() <=
                           static_cast<size_t>(cfg_.populationSize),
                       "reproduction overshot populationSize: "
                           << new_population.size() << " > "
                           << cfg_.populationSize);
    } catch (...) {
        // The sink may still be reading genomes new_population owns;
        // let it stop before unwinding destroys them.
        if (sink && sink->abandon)
            sink->abandon();
        throw;
    }
    return new_population;
}

} // namespace genesys::neat
