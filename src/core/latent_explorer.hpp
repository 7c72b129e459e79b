#pragma once

/**
 * @file latent_explorer.hpp
 * The Latent Schedule Explorer — the "Draft" stage (paper Algorithm 2).
 *
 * LSE treats exploration as a hardware-fitness maximization problem: a
 * genetic algorithm whose fitness is the Symbol-based Analyzer's estimate
 * (no learned model involved), with a PriorFilter that keeps the
 * best-by-SA set S_spec across all GA steps. The learned cost model then
 * only has to verify |S_spec| candidates instead of the whole explored
 * population.
 */

#include "core/symbol_analyzer.hpp"
#include "search/evolution.hpp"

namespace pruner {

/** Configuration of the draft stage. */
struct LseConfig
{
    size_t population = 256;  ///< GA individuals per step
    int n_steps = 8;          ///< GA steps (Algorithm 2's nSteps)
    size_t spec_size = 512;   ///< |S_spec| (paper's default)
    /** Optional pool: SA fitness evaluation is sliced across workers
     *  (values identical to serial; see EvolutionConfig::score_pool).
     *  Borrowed, not owned; set per tuning run. In a sharded multi-task
     *  round this is the same pool the verify stage measures through and
     *  the async trainer updates on — explore() only submits short
     *  scoring slices, so draft fan-out, measurement, and a concurrent
     *  model update interleave on it instead of draining it per stage. */
    ThreadPool* score_pool = nullptr;
    /** Metrics sink, forwarded to the underlying GA plus lse_*_total
     *  counters (borrowed, may be null). Pure accounting. */
    obs::MetricsRegistry* metrics = nullptr;
};

/** The draft-stage explorer. */
class LatentScheduleExplorer
{
  public:
    /** @param device  target platform (provides the SA peaks/limits)
     *  @param sa_config  penalty ablation switches (Table 10) */
    explicit LatentScheduleExplorer(const DeviceSpec& device,
                                    SymbolAnalyzerConfig sa_config = {});

    /**
     * Draft S_spec for @p task: run the SA-guided GA and return the
     * highest-fitness schedules, best first.
     *
     * Const and reentrant: the explorer holds no mutable state, so one
     * instance drafts every task of a sharded round back to back (and
     * never touches the learned cost model — which is what lets an async
     * model update overlap the whole draft stage).
     *
     * @param seeds   incumbent schedules injected into the population
     * @param n_evaluated  out: number of SA evaluations (for SimClock)
     */
    std::vector<ScoredSchedule>
    explore(const SubgraphTask& task, const LseConfig& config,
            const std::vector<Schedule>& seeds, Rng& rng,
            size_t* n_evaluated) const;

    const SymbolAnalyzer& analyzer() const { return analyzer_; }

  private:
    DeviceSpec device_;
    SymbolAnalyzer analyzer_;
};

} // namespace pruner
