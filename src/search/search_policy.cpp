#include "search/search_policy.hpp"

#include <algorithm>
#include <cmath>
#include <limits>
#include <unordered_set>

#include "search/tuning_run.hpp"
#include "support/logging.hpp"

namespace pruner {

namespace {
constexpr double kInf = std::numeric_limits<double>::infinity();
} // namespace

double
TuneResult::timeToReach(double latency) const
{
    for (const auto& point : curve) {
        if (point.latency_s <= latency) {
            return point.time_s;
        }
    }
    return kInf;
}

double
workloadBest(const Workload& workload, const TuningRecordDb& db)
{
    double total = 0.0;
    for (const auto& inst : workload.tasks) {
        const double best = db.bestLatency(inst.task);
        if (!std::isfinite(best)) {
            return kInf;
        }
        total += inst.weight * best;
    }
    return total;
}

void
fillResultTotals(TuneResult& result, const Workload& workload,
                 const TuningRecordDb& db, const SimClock& clock)
{
    result.best_per_task.reserve(workload.tasks.size());
    for (const auto& inst : workload.tasks) {
        result.best_per_task.push_back(db.bestLatency(inst.task));
    }
    result.final_latency = workloadBest(workload, db);
    result.total_time_s = clock.now();
    result.exploration_s = clock.total(CostCategory::Exploration);
    result.training_s = clock.total(CostCategory::Training);
    result.measurement_s = clock.total(CostCategory::Measurement);
    result.compile_s = clock.total(CostCategory::Compile);
}

std::vector<Schedule>
selectForMeasurement(const std::vector<ScoredSchedule>& ranked,
                     const SubgraphTask& task, const TuningRecordDb& db,
                     const ScheduleSampler& sampler, size_t n, double eps,
                     Rng& rng)
{
    std::vector<Schedule> out;
    std::unordered_set<uint64_t> chosen;
    auto try_add = [&](const Schedule& sch) {
        if (out.size() >= n) {
            return;
        }
        if (db.measured(task, sch) || !chosen.insert(sch.hash()).second) {
            return;
        }
        out.push_back(sch);
    };
    // Epsilon share comes from fresh random samples (exploration).
    const size_t n_random =
        static_cast<size_t>(std::ceil(eps * static_cast<double>(n)));
    for (const auto& scored : ranked) {
        if (out.size() + n_random >= n) {
            break;
        }
        try_add(scored.sch);
    }
    size_t guard = 0;
    while (out.size() < n && guard++ < n * 30) {
        try_add(sampler.sample(rng));
    }
    return out;
}

EvoCostModelPolicy::EvoCostModelPolicy(std::string name,
                                       const DeviceSpec& device,
                                       std::unique_ptr<CostModel> model,
                                       EvoPolicyConfig config)
    : name_(std::move(name)),
      device_(device),
      model_(std::move(model)),
      config_(config)
{
    PRUNER_CHECK(model_ != nullptr);
}

bool
EvoCostModelPolicy::supportsTask(const SubgraphTask&) const
{
    return true;
}

/** The Ansor-style run: the evolutionary draft scores its population with
 *  the cost model inline, so the draft is also the verify (there is no
 *  separate verify pass; round_verify_time_us stays empty). */
class EvoCostModelPolicy::Run final : public TuningRun
{
  public:
    Run(EvoCostModelPolicy& policy, const Workload& workload,
        const TuneOptions& opts)
        : TuningRun(policy, policy.device_, *policy.model_, 0x3EA5,
                    workload, opts),
          config_(policy.config_),
          evolution_(config_.evolution)
    {
        evolution_.score_pool = pool();
        evolution_.score_chunk = scoreChunk();
        evolution_.metrics = &metrics_;
        adaptive_ = config_.adaptive_measurement;
        adaptive_time_scale_ = config_.adaptive_time_scale;
        adaptive_extra_noise_ = config_.adaptive_extra_noise;
    }

  private:
    void
    beginRound(int round) override
    {
        // Round-boundary weight swap, before the round's first predict.
        installModel(round);
    }

    size_t
    draft(RoundSlot& slot, obs::ScopedSpan& span) override
    {
        size_t evals = 0;
        const auto ranked = evolutionDraft(slot, evolution_, &evals);
        span.argU64("evals", evals);
        span.argU64("ranked", ranked.size());
        select(slot, ranked);
        return ranked.size();
    }

    void
    train(int /*round*/) override
    {
        if (config_.online_training) {
            trainModel(opts_.train_epochs);
        }
    }

    const EvoPolicyConfig& config_;
    EvolutionConfig evolution_;
};

TuneResult
EvoCostModelPolicy::tune(const Workload& workload, const TuneOptions& opts)
{
    // Operator-coverage check (Figure 8: unsupported operators abort the
    // whole workload for Adatune / Felix / TLM).
    for (const auto& inst : workload.tasks) {
        if (!supportsTask(inst.task)) {
            TuneResult result;
            result.policy = name_;
            result.failed = true;
            result.failure_reason =
                "unsupported operator: " + inst.task.key;
            result.final_latency = kInf;
            return result;
        }
    }
    return Run(*this, workload, opts).execute();
}

} // namespace pruner
