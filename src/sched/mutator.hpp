#pragma once

/**
 * @file mutator.hpp
 * Genetic-algorithm operators over schedules.
 *
 * The paper's LSE (Algorithm 2, line 22: SchMutation) explores
 * "tiling-factor transformations for for-loops": factors migrate between
 * tile levels, tuples get resampled, and annotations flip. The same
 * operators back the evolutionary search of the Ansor baseline, so draft
 * and verify stages explore the identical space.
 */

#include "sched/sampler.hpp"

namespace pruner {

/** Mutation/crossover operators for the GA. */
class ScheduleMutator
{
  public:
    ScheduleMutator(const SubgraphTask& task, const DeviceSpec& device);
    // Keeps pointers to both arguments: temporaries would dangle.
    ScheduleMutator(SubgraphTask&&, const DeviceSpec&) = delete;
    ScheduleMutator(const SubgraphTask&, DeviceSpec&&) = delete;
    ScheduleMutator(SubgraphTask&&, DeviceSpec&&) = delete;

    /** Return a mutated copy of @p sch (always valid). */
    Schedule mutate(const Schedule& sch, Rng& rng) const;

    /** Uniform per-axis crossover of two parents (always valid). */
    Schedule crossover(const Schedule& a, const Schedule& b, Rng& rng) const;

  private:
    /** Move a factor of two between two positions of one split. */
    void migrateFactor(Schedule& sch, Rng& rng) const;
    /** Resample one spatial or reduction tuple from scratch. */
    void resampleAxis(Schedule& sch, Rng& rng) const;
    /** Flip unroll / vectorization annotation. */
    void mutateAnnotation(Schedule& sch, Rng& rng) const;

    const SubgraphTask* task_;
    const DeviceSpec* device_;
    ScheduleSampler sampler_;
};

} // namespace pruner
