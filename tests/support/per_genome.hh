/**
 * @file
 * Adapter from a per-genome fitness function to the whole-generation
 * callback Population::stepBatch/runBatch take, for tests whose
 * fitness is a pure function of one genome.
 */

#ifndef GENESYS_TESTS_SUPPORT_PER_GENOME_HH
#define GENESYS_TESTS_SUPPORT_PER_GENOME_HH

#include <vector>

#include "neat/population.hh"

namespace genesys::neat
{

/**
 * Wrap `fitness(const Genome &) -> double` as a BatchFitnessFn that
 * evaluates the batch one genome at a time, in batch (ascending key)
 * order.
 */
template <typename Fn>
Population::BatchFitnessFn
perGenome(Fn fitness)
{
    return [fitness](const std::vector<GenomeHandle> &batch) {
        std::vector<double> out;
        out.reserve(batch.size());
        for (const GenomeHandle &h : batch)
            out.push_back(fitness(*h.genome));
        return out;
    };
}

} // namespace genesys::neat

#endif // GENESYS_TESTS_SUPPORT_PER_GENOME_HH
