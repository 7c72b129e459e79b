#include "core/latent_explorer.hpp"

#include "obs/metrics.hpp"

namespace pruner {

LatentScheduleExplorer::LatentScheduleExplorer(const DeviceSpec& device,
                                               SymbolAnalyzerConfig sa_config)
    : device_(device), analyzer_(device, sa_config)
{
}

std::vector<ScoredSchedule>
LatentScheduleExplorer::explore(const SubgraphTask& task,
                                const LseConfig& config,
                                const std::vector<Schedule>& seeds, Rng& rng,
                                size_t* n_evaluated) const
{
    EvolutionConfig evo_config;
    evo_config.population = config.population;
    evo_config.iterations = config.n_steps;
    evo_config.out_size = config.spec_size;
    evo_config.score_pool = config.score_pool;
    evo_config.metrics = config.metrics;
    // Fitness = hardware-fitness score from the draft model (CSA in
    // Algorithm 2): no learned model anywhere in this loop.
    const ScoreFn fitness = [&](std::span<const Schedule> cands) {
        std::vector<double> scores;
        scores.reserve(cands.size());
        for (const auto& sch : cands) {
            scores.push_back(analyzer_.score(task, sch));
        }
        return scores;
    };
    size_t evals = 0;
    const EvolutionarySearch evo(task, device_);
    std::vector<ScoredSchedule> out =
        evo.run(evo_config, fitness, seeds, rng, &evals);
    if (n_evaluated != nullptr) {
        *n_evaluated = evals;
    }
    if (config.metrics != nullptr) {
        config.metrics->counter("lse_drafts_total")->add();
        config.metrics->counter("lse_sa_evaluations_total")->add(evals);
        config.metrics->counter("lse_spec_candidates_total")
            ->add(out.size());
    }
    return out;
}

} // namespace pruner
