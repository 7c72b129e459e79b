#pragma once

/**
 * @file pruner_tuner.hpp
 * The full Pruner / MoA-Pruner search policy (paper Algorithm 1).
 *
 * Per tuning round:
 *   1. the gradient-based task scheduler picks a subgraph,
 *   2. Draft: LSE runs the SA-guided GA and keeps S_spec (no learned
 *      model), plus a few random-init schedules for exploration,
 *   3. Verify: PaCM scores only the drafted candidates,
 *   4. the best-predicted programs are measured, and
 *   5. PaCM is updated online — directly (Pruner), with plain online
 *      fine-tuning (the w/ O-F ablation), or through the MoA Siamese
 *      momentum strategy (MoA-Pruner).
 *
 * Every Table 12/13 ablation is a configuration of this class.
 */

#include "core/latent_explorer.hpp"
#include "core/moa.hpp"
#include "cost/pacm_model.hpp"
#include "search/search_policy.hpp"

namespace pruner {

/** Configuration of the Pruner policy (defaults = the full system). */
struct PrunerConfig
{
    LseConfig lse;                 ///< draft-stage settings
    size_t random_init = 32;       ///< RandomInitSch added to S_draft
    /** Mutation neighbourhood of the measured incumbent added to S_draft:
     *  lets PaCM hill-climb past the draft model's biases, mirroring the
     *  evolutionary refinement of measured states in the TVM integration. */
    size_t incumbent_mutants = 32;
    bool use_lse = true;           ///< Table 12 "w/o LSE" when false
    bool use_moa = false;          ///< MoA-Pruner when true
    bool online_finetune = true;   ///< false = offline mode (no updates)
    int moa_train_every = 2;       ///< MoA lowers the training frequency
    double moa_momentum = 0.99;    ///< paper's m
    PaCMConfig pacm;               ///< feature-branch ablations
    SymbolAnalyzerConfig sa;       ///< LSE penalty ablations (Table 10)
    /** Optional pre-trained PaCM weights: the cross-platform Siamese init
     *  for MoA-Pruner, or the fine-tuned model for offline mode. */
    std::vector<double> pretrained;
};

/** The Pruner / MoA-Pruner tuner. */
class PrunerPolicy : public SearchPolicy
{
  public:
    PrunerPolicy(const DeviceSpec& device, PrunerConfig config = {},
                 uint64_t model_seed = 0x9ACC);

    std::string name() const override;
    TuneResult tune(const Workload& workload,
                    const TuneOptions& options) override;

    /** Replay identity: the scalar PrunerConfig fields plus the model
     *  seed, enough for a SessionReplayer to rebuild an identical fresh
     *  policy. Sessions with pretrained weights record pretrained=1 and
     *  are refused at replay time (the weights are not in the log). */
    std::string replayFactory() const override { return name(); }
    std::string replayConfig() const override;

    PaCMModel& model() { return *model_; }
    const PrunerConfig& config() const { return config_; }

  private:
    class Run; // this policy's TuningRun (pruner_tuner.cpp)

    DeviceSpec device_;
    PrunerConfig config_;
    uint64_t model_seed_;
    std::unique_ptr<PaCMModel> model_;
    LatentScheduleExplorer explorer_;
};

} // namespace pruner
