#pragma once

/**
 * @file tlp_cost_model.hpp
 * The TLP baseline cost model: a Transformer over the high-level
 * schedule-primitive sequence.
 *
 * TLP avoids heavy feature extraction by encoding schedule primitives as
 * mostly one-hot rows. As the paper stresses, the resulting feature
 * diversity is tiny (only split factors vary between schedules of one
 * task), which makes the model data-hungry and brittle when fine-tuned on
 * small online datasets — behaviour this reproduction inherits naturally
 * from the same encoding. What TLP *is* good at — batching a whole
 * population of candidates into one tensor per forward pass — is exactly
 * what the batched inference engine reproduces here.
 */

#include "cost/cost_model.hpp"
#include "feature/primitive_features.hpp"
#include "nn/attention.hpp"
#include "nn/layers.hpp"
#include "nn/workspace.hpp"

namespace pruner {

/** Primitive-sequence Transformer cost model (TLP). */
class TlpCostModel : public CostModel
{
  public:
    TlpCostModel(const DeviceSpec& device, uint64_t seed);

    std::string name() const override { return "TLP"; }
    void predictInto(const SubgraphTask& task,
                     std::span<const Schedule> candidates, Workspace& ws,
                     double* out) const override;
    double evalCostPerCandidate() const override;
    double trainCostPerRound() const override;
    std::unique_ptr<CostModel> clone() const override;

  private:
    /** Batched-trainer state carried from scoreBatch to fitBatch (see
     *  MlpCostModel::TrainCaches). */
    struct TrainCaches
    {
        BatchActs embed_acts, head_acts;
        AttentionBatchCache attn;
        const SegmentTable* segs = nullptr;
        const SegmentTable* unit = nullptr;
    };

    std::vector<ParamRef> paramRefs() override;
    double scoreOne(const SubgraphTask& task,
                    const Schedule& sch) const override;
    void memoRecord(const MeasuredRecord& rec, SymbolSet& sym,
                    FeatureMemos& memo) const override;
    void forwardBatch(const FeaturePack& pack, Workspace& ws,
                      double* out) const override;
    void scoreBatch(const FeaturePack& pack, Workspace& ws,
                    double* out) override;
    void fitBatch(const std::vector<double>& dscores,
                  Workspace& ws) override;
    void fitReference(const std::array<Matrix, kMaxFeatureBranches>& feats,
                      double dscore) override;

    Mlp embed_;
    SelfAttention attn_;
    Mlp head_;
    TrainCaches caches_; ///< scoreBatch -> fitBatch, within one step
};

} // namespace pruner
