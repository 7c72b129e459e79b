#pragma once

/**
 * @file pacm_model.hpp
 * Pruner's Pattern-aware Cost Model (paper Section 4.2, Figure 4).
 *
 * PaCM is a multi-branch "Pattern-aware Transformer":
 *  - statement branch: per-statement features -> 3 linear layers -> sum,
 *  - temporal-dataflow branch: [10, 23] movement rows -> 3 linear layers ->
 *    self-attention -> mean pool,
 *  - concat -> linear head -> normalized score.
 * Trained with LambdaRank on normalized latency, exactly as the paper
 * describes. Either branch can be disabled for the Table 12 ablations
 * (w/o S.F. and w/o T.D.F.).
 *
 * Scoring runs through the batched inference engine: both branches pack
 * every candidate's rows into one matrix (sharing a single symbol
 * extraction per candidate), each layer is one GEMM over the population,
 * and pooling is segment-aware — byte-identical to per-candidate scoring.
 */

#include "cost/cost_model.hpp"
#include "feature/dataflow_features.hpp"
#include "feature/statement_features.hpp"
#include "nn/attention.hpp"
#include "nn/layers.hpp"
#include "nn/workspace.hpp"

namespace pruner {

/** Ablation switches for PaCM's two feature branches. */
struct PaCMConfig
{
    bool use_statement_features = true; ///< S.F. branch (Table 12)
    bool use_dataflow_features = true;  ///< T.D.F. branch (Table 12)
};

/** The Pattern-aware Cost Model. */
class PaCMModel : public CostModel
{
  public:
    PaCMModel(const DeviceSpec& device, uint64_t seed, PaCMConfig cfg = {});

    std::string name() const override { return "PaCM"; }
    /** Symbols are extracted once per candidate and shared by both
     *  branches (see CostModel::predictInto for the contract). */
    void predictInto(const SubgraphTask& task,
                     std::span<const Schedule> candidates, Workspace& ws,
                     double* out) const override;
    double evalCostPerCandidate() const override;
    double trainCostPerRound() const override;
    std::unique_ptr<CostModel> clone() const override;

    const PaCMConfig& config() const { return cfg_; }

  private:
    /** Feature branches, in FeaturePack / FeatureMemos order. */
    static constexpr size_t kStmt = 0;
    static constexpr size_t kFlow = 1;

    /** Batched-trainer state carried from scoreBatch to fitBatch (see
     *  MlpCostModel::TrainCaches). */
    struct TrainCaches
    {
        BatchActs stmt_acts, flow_acts, head_acts;
        AttentionBatchCache attn;
        const SegmentTable* stmt_segs = nullptr;
        const SegmentTable* flow_segs = nullptr;
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

    PaCMConfig cfg_;
    Mlp stmt_embed_;       ///< statement branch encoder
    Mlp flow_embed_;       ///< dataflow branch encoder
    SelfAttention attn_;   ///< dataflow context modelling
    Mlp head_;             ///< fused scorer
    TrainCaches caches_;   ///< scoreBatch -> fitBatch, within one step
};

} // namespace pruner
