#include "cost/tlp_cost_model.hpp"

#include "support/logging.hpp"
#include "support/sim_clock.hpp"

namespace pruner {

namespace {
constexpr size_t kHidden = 64;
} // namespace

TlpCostModel::TlpCostModel(const DeviceSpec& device, uint64_t seed)
    : CostModel(device, seed)
{
    embed_ = Mlp({kPrimitiveFeatureDim, kHidden}, rng_);
    attn_ = SelfAttention(kHidden, rng_);
    head_ = Mlp({kHidden, kHidden, 1}, rng_);
}

double
TlpCostModel::scoreOne(const SubgraphTask& task, const Schedule& sch) const
{
    const Matrix feats = extractPrimitiveFeatures(task, sch);
    const Matrix h = attn_.inferReference(embed_.inferReference(feats));
    return head_.inferReference(h.colMean()).at(0, 0);
}

void
TlpCostModel::memoRecord(const MeasuredRecord& rec, SymbolSet&,
                         FeatureMemos& memo) const
{
    static thread_local std::vector<SchedulePrimitive> scratch;
    const size_t row0 =
        memo[0].appendRecord(kPrimitiveSteps, kPrimitiveFeatureDim);
    writePrimitiveFeatureRows(rec.task, rec.sch, memo[0].rows, row0,
                              scratch);
}

void
TlpCostModel::forwardBatch(const FeaturePack& pack, Workspace& ws,
                           double* out) const
{
    const SegmentTable& segs = *pack.segs[0];
    const Matrix& embedded = embed_.inferBatch(*pack.rows[0], ws);
    const Matrix& ctx = attn_.inferBatch(embedded, segs, ws);
    Matrix& pooled = ws.alloc(segs.count(), kHidden);
    segmentColMean(ctx, segs, pooled);
    const Matrix& scores = head_.inferBatch(pooled, ws);
    for (size_t i = 0; i < segs.count(); ++i) {
        out[i] = scores.at(i, 0);
    }
}

void
TlpCostModel::predictInto(const SubgraphTask& task,
                          std::span<const Schedule> candidates,
                          Workspace& ws, double* out) const
{
    if (candidates.empty()) {
        return;
    }
    ws.reset();
    Matrix& feats = ws.alloc(0, kPrimitiveFeatureDim);
    SegmentTable& segs = ws.allocSegments();
    extractPrimitiveFeaturesBatch(task, candidates, feats, segs);
    const FeaturePack pack{{&feats}, {&segs}, candidates.size()};
    forwardBatch(pack, ws, out);
    countInference(pack);
}

void
TlpCostModel::fitReference(
    const std::array<Matrix, kMaxFeatureBranches>& feats, double dscore)
{
    const Matrix h = attn_.forward(embed_.forward(feats[0]));
    const Matrix pooled = h.colMean();
    head_.forward(pooled);

    Matrix dy(1, 1);
    dy.at(0, 0) = dscore;
    const Matrix dpooled = head_.backward(dy);
    Matrix dh(h.rows(), h.cols());
    const double inv_t = 1.0 / static_cast<double>(h.rows());
    for (size_t r = 0; r < dh.rows(); ++r) {
        for (size_t c = 0; c < dh.cols(); ++c) {
            dh.at(r, c) = dpooled.at(0, c) * inv_t;
        }
    }
    embed_.backward(attn_.backward(dh));
}

void
TlpCostModel::scoreBatch(const FeaturePack& pack, Workspace& ws, double* out)
{
    const SegmentTable& segs = *pack.segs[0];
    const size_t n = segs.count();
    const Matrix& embedded =
        embed_.forwardBatch(*pack.rows[0], ws, caches_.embed_acts);
    const Matrix& ctx =
        attn_.forwardBatch(embedded, segs, ws, caches_.attn);
    Matrix& pooled = ws.alloc(n, kHidden);
    segmentColMean(ctx, segs, pooled);
    SegmentTable& unit = ws.allocSegments();
    for (size_t i = 0; i < n; ++i) {
        unit.append(1); // the head sees one pooled row per record
    }
    const Matrix& scores = head_.forwardBatch(pooled, ws, caches_.head_acts);
    for (size_t i = 0; i < n; ++i) {
        out[i] = scores.at(i, 0);
    }
    caches_.segs = &segs;
    caches_.unit = &unit;
}

void
TlpCostModel::fitBatch(const std::vector<double>& dscores, Workspace& ws)
{
    const size_t n = dscores.size();
    if (n == 0) {
        return;
    }
    const SegmentTable& segs = *caches_.segs;
    PRUNER_CHECK(segs.count() == n);
    // Backward from the scoring pass's activations, in the per-record
    // module order (head, attention, embed).
    Matrix& dy = ws.alloc(n, 1);
    for (size_t i = 0; i < n; ++i) {
        dy.at(i, 0) = dscores[i];
    }
    Matrix* dpooled = head_.backwardBatch(dy, caches_.head_acts,
                                          *caches_.unit, ws,
                                          /*need_dx=*/true);
    Matrix& dh = ws.alloc(segs.totalRows(), kHidden);
    segmentBroadcast(*dpooled, 0, kHidden, segs, dh, /*mean=*/true);
    Matrix* dembedded = attn_.backwardBatch(dh, caches_.attn, segs, ws,
                                            /*need_dx=*/true);
    embed_.backwardBatch(*dembedded, caches_.embed_acts, segs, ws,
                         /*need_dx=*/false);
}

double
TlpCostModel::evalCostPerCandidate() const
{
    return CostConstants::defaults().tlp_eval_per_candidate;
}

double
TlpCostModel::trainCostPerRound() const
{
    return CostConstants::defaults().tlp_train_per_round;
}

std::vector<ParamRef>
TlpCostModel::paramRefs()
{
    std::vector<ParamRef> params;
    embed_.collectParams(params);
    attn_.collectParams(params);
    head_.collectParams(params);
    return params;
}

std::unique_ptr<CostModel>
TlpCostModel::clone() const
{
    return std::make_unique<TlpCostModel>(*this);
}

} // namespace pruner
