#pragma once

/**
 * @file mlp_cost_model.hpp
 * The TenSetMLP-style learned cost model (also used as Ansor's online
 * model in this reproduction): per-statement features through a shared
 * MLP, sum-pooled over statements, then a linear head.
 */

#include "cost/cost_model.hpp"
#include "feature/statement_features.hpp"
#include "nn/layers.hpp"
#include "nn/workspace.hpp"

namespace pruner {

/** Statement-feature MLP cost model (TenSetMLP). */
class MlpCostModel : public CostModel
{
  public:
    /** @param device  platform whose features/labels this model sees
     *  @param seed    weight-init / training-shuffle seed */
    MlpCostModel(const DeviceSpec& device, uint64_t seed);

    std::string name() const override { return "TenSetMLP"; }
    void predictInto(const SubgraphTask& task,
                     std::span<const Schedule> candidates, Workspace& ws,
                     double* out) const override;
    double evalCostPerCandidate() const override;
    double trainCostPerRound() const override;
    std::unique_ptr<CostModel> clone() const override;

  private:
    /** Batched-trainer state carried from scoreBatch to fitBatch: the
     *  activation caches plus segment tables of the pack the scores came
     *  from. Every pointer refers into the training run's workspace and
     *  is read only by the fitBatch that follows its scoreBatch. */
    struct TrainCaches
    {
        BatchActs embed_acts, head_acts;
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

    Mlp embed_; ///< per-statement encoder
    Mlp head_;  ///< pooled-vector scorer
    TrainCaches caches_; ///< scoreBatch -> fitBatch, within one step
};

} // namespace pruner
