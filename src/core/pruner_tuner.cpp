#include "core/pruner_tuner.hpp"

#include <algorithm>
#include <cmath>

#include <sstream>

#include "replay/session_log.hpp"
#include "search/tuning_run.hpp"

namespace pruner {

PrunerPolicy::PrunerPolicy(const DeviceSpec& device, PrunerConfig config,
                           uint64_t model_seed)
    : device_(device),
      config_(std::move(config)),
      model_seed_(model_seed),
      model_(std::make_unique<PaCMModel>(device, model_seed, config_.pacm)),
      explorer_(device, config_.sa)
{
    if (!config_.pretrained.empty()) {
        model_->setParams(config_.pretrained);
    }
}

std::string
PrunerPolicy::name() const
{
    return config_.use_moa ? "MoA-Pruner" : "Pruner";
}

std::string
PrunerPolicy::replayConfig() const
{
    std::ostringstream out;
    out << "model_seed=" << hexU64(model_seed_)
        << "\tlse=" << (config_.use_lse ? 1 : 0)
        << "\tmoa=" << (config_.use_moa ? 1 : 0)
        << "\tfinetune=" << (config_.online_finetune ? 1 : 0)
        << "\trinit=" << config_.random_init
        << "\tmutants=" << config_.incumbent_mutants
        << "\tmoa_every=" << config_.moa_train_every
        << "\tmoa_m=" << doubleBits(config_.moa_momentum)
        << "\tpop=" << config_.lse.population
        << "\tsteps=" << config_.lse.n_steps
        << "\tspec=" << config_.lse.spec_size
        << "\tsa_c=" << (config_.sa.use_compute_penalties ? 1 : 0)
        << "\tsa_m=" << (config_.sa.use_memory_penalties ? 1 : 0)
        << "\tpacm_s=" << (config_.pacm.use_statement_features ? 1 : 0)
        << "\tpacm_d=" << (config_.pacm.use_dataflow_features ? 1 : 0)
        << "\tpretrained=" << (config_.pretrained.empty() ? 0 : 1);
    return out.str();
}

/** Pruner's run: LSE drafts S_spec without the learned model, PaCM
 *  verifies only the drafts, and the MoA cadence paces online training. */
class PrunerPolicy::Run final : public TuningRun
{
  public:
    Run(PrunerPolicy& policy, const Workload& workload,
        const TuneOptions& opts, MoAAdapter* moa)
        : TuningRun(policy, policy.device_, *policy.model_, 0x9EA5,
                    workload, opts, moa),
          config_(policy.config_),
          lse_explorer_(policy.explorer_),
          lse_(config_.lse)
    {
        lse_.score_pool = pool();
        lse_.metrics = &metrics_;
        evolution_.out_size = config_.lse.spec_size;
        evolution_.score_pool = pool();
        evolution_.score_chunk = scoreChunk();
        evolution_.metrics = &metrics_;
    }

  private:
    size_t
    draft(RoundSlot& slot, obs::ScopedSpan& span) override
    {
        // In async mode the previous round's model update trains on the
        // shared pool while LSE drafts (LSE never touches PaCM).
        const SubgraphTask& task = *slot.task;
        std::vector<Schedule>& draft = slot.draft;
        if (config_.use_lse) {
            size_t sa_evals = 0;
            const auto spec = lse_explorer_.explore(
                task, lse_, slot.seeds, rng_, &sa_evals);
            clock_.charge(CostCategory::Exploration,
                          static_cast<double>(sa_evals) *
                              opts_.constants.sa_eval_per_candidate);
            draft.reserve(spec.size() + config_.random_init);
            for (const auto& scored : spec) {
                draft.push_back(scored.sch);
            }
            // Algorithm 1, line 10: union with random-init schedules to
            // keep exploration randomness.
            const auto random_part =
                slot.sampler.sampleMany(rng_, config_.random_init);
            draft.insert(draft.end(), random_part.begin(),
                         random_part.end());
            // Mutation neighbourhood of the incumbent: judged by PaCM, so
            // hill-climbing is not capped by the draft model's biases.
            if (!slot.seeds.empty() && config_.incumbent_mutants > 0) {
                ScheduleMutator mutator(task, device_);
                for (size_t m = 0; m < config_.incumbent_mutants; ++m) {
                    draft.push_back(mutator.mutate(slot.seeds.front(), rng_));
                }
            }
        } else {
            // Ablation "w/o LSE": the learned model must score the entire
            // evolutionary population, exactly like the Ansor-style loop.
            // The model is stable during the run: async updates install
            // before this point.
            drainTraining();
            const auto ranked = evolutionDraft(slot, evolution_);
            draft.reserve(ranked.size());
            for (const auto& scored : ranked) {
                draft.push_back(scored.sch);
            }
        }
        span.argU64("drafted", draft.size());
        return draft.size();
    }

    void
    verify(int round, std::vector<RoundSlot>& slots) override
    {
        // Swap in the weights trained during the draft stage: PaCM must be
        // stable for the whole verify pass (never torn mid-round).
        installModel(round);
        // PaCM scores only the drafted candidates; predict_batch-sized
        // sub-spans fan out across the pool, each one batched GEMM pass
        // (identical values to one serial predict call).
        obs::ScopedSpan verify_span(tracer_, obs::TraceTrack::Main,
                                    &clock_, "verify", "explore");
        const double verify_begin_s = clock_.total(CostCategory::Exploration);
        for (RoundSlot& slot : slots) {
            const std::vector<double> scores = scoreChunked(
                [&](std::span<const Schedule> cands) {
                    return model_.predict(*slot.task, cands);
                },
                slot.draft, pool(), scoreChunk());
            clock_.charge(CostCategory::Exploration,
                          static_cast<double>(slot.draft.size()) *
                              model_.evalCostPerCandidate());
            std::vector<ScoredSchedule> ranked;
            ranked.reserve(slot.draft.size());
            for (size_t i = 0; i < slot.draft.size(); ++i) {
                ranked.push_back({slot.draft[i], scores[i]});
            }
            std::sort(ranked.begin(), ranked.end(),
                      [](const auto& a, const auto& b) {
                          return a.score > b.score;
                      });
            select(slot, ranked);
        }
        verify_span.close();
        stage_hists_.observeVerify(
            clock_.total(CostCategory::Exploration) - verify_begin_s);
    }

    void
    train(int round) override
    {
        if (!config_.online_finetune) {
            return;
        }
        if (!config_.use_moa) {
            trainModel(opts_.train_epochs);
        } else if (round % config_.moa_train_every == 0) {
            // MoA lowers the training *frequency*; each update compensates
            // with proportionally more fine-tune epochs from the Siamese
            // init, so the total gradient work matches the per-round
            // baseline while the simulated training time is charged less
            // often.
            trainModel(opts_.train_epochs * config_.moa_train_every);
        }
    }

    const PrunerConfig& config_;
    const LatentScheduleExplorer& lse_explorer_;
    LseConfig lse_;              ///< the LSE draft, bound to this run
    EvolutionConfig evolution_;  ///< the "w/o LSE" evolution draft
};

TuneResult
PrunerPolicy::tune(const Workload& workload, const TuneOptions& opts)
{
    // The MoA adapter exists before the run starts: a resumed run restores
    // its Siamese weights from the checkpoint.
    std::unique_ptr<MoAAdapter> moa;
    if (config_.use_moa) {
        moa = std::make_unique<MoAAdapter>(model_.get(),
                                           config_.moa_momentum);
        if (!config_.pretrained.empty()) {
            moa->initializeFromPretrained(config_.pretrained);
        }
    }
    return Run(*this, workload, opts, moa.get()).execute();
}

} // namespace pruner
