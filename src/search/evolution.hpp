#pragma once

/**
 * @file evolution.hpp
 * Score-guided evolutionary search over schedules.
 *
 * This is the exploration engine shared by every search policy: Ansor /
 * TenSetMLP / TLP / MetaSchedule use it with a learned cost model as the
 * fitness function (scoring the *whole* population each iteration — the
 * expense Pruner attacks), and the Latent Schedule Explorer uses it with
 * the Symbol-based Analyzer as fitness.
 */

#include <functional>
#include <span>
#include <vector>

#include "sched/mutator.hpp"
#include "sched/sampler.hpp"
#include "support/thread_pool.hpp"

namespace pruner {

namespace obs {
class MetricsRegistry;
} // namespace obs

/** Configuration of the evolutionary search. */
struct EvolutionConfig
{
    size_t population = 256;     ///< individuals per generation
    int iterations = 4;          ///< generations after the initial scoring
    double mutation_prob = 0.85; ///< mutate vs crossover when breeding
    double elite_frac = 0.15;    ///< survivors copied unchanged
    size_t out_size = 512;       ///< size of the returned candidate set
    /** Optional pool for fitness evaluation: the population is scored in
     *  score_chunk-sized slices across workers. Every score function in
     *  this repo is per-candidate independent (documented on
     *  CostModel::predict), so chunked results equal serial results
     *  exactly; the ScoreFn must be reentrant. Borrowed, may be null. */
    ThreadPool* score_pool = nullptr;
    /** Candidates per scoring slice: each worker receives one contiguous
     *  sub-batch, which a learned-model ScoreFn turns into one batched
     *  GEMM pass (TuneOptions::predict_batch feeds this in the policy
     *  loops). */
    size_t score_chunk = 64;
    /** Metrics sink for evo_*_total counters (borrowed, may be null).
     *  Pure accounting — never changes the GA trajectory. */
    obs::MetricsRegistry* metrics = nullptr;
};

/** A schedule with its fitness score (higher = better). */
struct ScoredSchedule
{
    Schedule sch;
    double score = 0.0;
};

/** Fitness: batch-scores a contiguous span of candidates (higher =
 *  predicted faster). Spans avoid per-candidate Schedule copies when the
 *  population is sliced across workers. */
using ScoreFn =
    std::function<std::vector<double>(std::span<const Schedule>)>;

/**
 * Evaluate @p score on @p candidates, slicing the batch into @p chunk
 * pieces across @p pool when one is given. Each worker gets a zero-copy
 * sub-span (chunk -> one batched GEMM for learned-model score functions);
 * slices are concatenated in order, so for any per-candidate-independent
 * score function the result is identical to score(candidates). With a
 * null @p pool the slices run serially but the chunk cap still applies —
 * it bounds the memory of one batched pass, not just the fan-out. A
 * single-chunk batch is one direct call.
 */
std::vector<double> scoreChunked(const ScoreFn& score,
                                 std::span<const Schedule> candidates,
                                 ThreadPool* pool, size_t chunk = 64);

/** Score-guided GA returning the all-time best candidates. */
class EvolutionarySearch
{
  public:
    EvolutionarySearch(const SubgraphTask& task, const DeviceSpec& device);
    // Keeps pointers to both arguments: temporaries would dangle.
    EvolutionarySearch(SubgraphTask&&, const DeviceSpec&) = delete;
    EvolutionarySearch(const SubgraphTask&, DeviceSpec&&) = delete;
    EvolutionarySearch(SubgraphTask&&, DeviceSpec&&) = delete;

    /**
     * Run the GA.
     *
     * @param config  population / iteration settings
     * @param score   fitness function
     * @param seeds   schedules injected into the first generation (e.g.
     *                the task's measured incumbents)
     * @param rng     randomness source
     * @param n_evaluated  out: number of fitness evaluations performed
     * @return up to config.out_size distinct candidates, best first
     */
    std::vector<ScoredSchedule>
    run(const EvolutionConfig& config, const ScoreFn& score,
        const std::vector<Schedule>& seeds, Rng& rng,
        size_t* n_evaluated) const;

  private:
    const SubgraphTask* task_;
    const DeviceSpec* device_;
    ScheduleSampler sampler_;
    ScheduleMutator mutator_;
};

} // namespace pruner
