#include "cost/mlp_cost_model.hpp"

#include "support/logging.hpp"
#include "support/sim_clock.hpp"

namespace pruner {

namespace {
constexpr size_t kHidden = 64;
} // namespace

MlpCostModel::MlpCostModel(const DeviceSpec& device, uint64_t seed)
    : CostModel(device, seed)
{
    embed_ = Mlp({kStatementFeatureDim, kHidden, kHidden}, rng_);
    head_ = Mlp({kHidden, kHidden, 1}, rng_);
}

double
MlpCostModel::scoreOne(const SubgraphTask& task, const Schedule& sch) const
{
    const Matrix feats = extractStatementFeatures(task, sch, device_);
    const Matrix embedded = embed_.inferReference(feats);
    const Matrix pooled = embedded.colSum();
    return head_.inferReference(pooled).at(0, 0);
}

void
MlpCostModel::memoRecord(const MeasuredRecord& rec, SymbolSet& sym,
                         FeatureMemos& memo) const
{
    extractSymbolsInto(rec.task, rec.sch, sym);
    const size_t row0 =
        memo[0].appendRecord(sym.statements.size(), kStatementFeatureDim);
    writeStatementFeatureRows(sym, rec.task, rec.sch, device_, memo[0].rows,
                              row0);
}

void
MlpCostModel::forwardBatch(const FeaturePack& pack, Workspace& ws,
                           double* out) const
{
    const SegmentTable& segs = *pack.segs[0];
    const Matrix& embedded = embed_.inferBatch(*pack.rows[0], ws);
    Matrix& pooled = ws.alloc(segs.count(), kHidden);
    segmentColSum(embedded, segs, pooled);
    const Matrix& scores = head_.inferBatch(pooled, ws);
    for (size_t i = 0; i < segs.count(); ++i) {
        out[i] = scores.at(i, 0);
    }
}

void
MlpCostModel::predictInto(const SubgraphTask& task,
                          std::span<const Schedule> candidates,
                          Workspace& ws, double* out) const
{
    if (candidates.empty()) {
        return;
    }
    ws.reset();
    Matrix& feats = ws.alloc(0, kStatementFeatureDim);
    SegmentTable& segs = ws.allocSegments();
    extractStatementFeaturesBatch(task, candidates, device_, feats, segs);
    const FeaturePack pack{{&feats}, {&segs}, candidates.size()};
    forwardBatch(pack, ws, out);
    countInference(pack);
}

void
MlpCostModel::fitReference(
    const std::array<Matrix, kMaxFeatureBranches>& feats, double dscore)
{
    const Matrix embedded = embed_.forward(feats[0]);
    const Matrix pooled = embedded.colSum();
    head_.forward(pooled);
    Matrix dy(1, 1);
    dy.at(0, 0) = dscore;
    const Matrix dpooled = head_.backward(dy);
    // Sum-pooling backward: broadcast to every statement row.
    Matrix dembedded(embedded.rows(), embedded.cols());
    for (size_t r = 0; r < dembedded.rows(); ++r) {
        for (size_t c = 0; c < dembedded.cols(); ++c) {
            dembedded.at(r, c) = dpooled.at(0, c);
        }
    }
    embed_.backward(dembedded);
}

void
MlpCostModel::scoreBatch(const FeaturePack& pack, Workspace& ws, double* out)
{
    const SegmentTable& segs = *pack.segs[0];
    const size_t n = segs.count();
    const Matrix& embedded =
        embed_.forwardBatch(*pack.rows[0], ws, caches_.embed_acts);
    Matrix& pooled = ws.alloc(n, kHidden);
    segmentColSum(embedded, segs, pooled);
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
MlpCostModel::fitBatch(const std::vector<double>& dscores, Workspace& ws)
{
    const size_t n = dscores.size();
    if (n == 0) {
        return;
    }
    const SegmentTable& segs = *caches_.segs;
    PRUNER_CHECK(segs.count() == n);
    // Backward from the scoring pass's activations: one segment-aware
    // pass per module, in the per-record module order (head, then embed).
    Matrix& dy = ws.alloc(n, 1);
    for (size_t i = 0; i < n; ++i) {
        dy.at(i, 0) = dscores[i];
    }
    Matrix* dpooled = head_.backwardBatch(dy, caches_.head_acts,
                                          *caches_.unit, ws,
                                          /*need_dx=*/true);
    Matrix& dembedded = ws.alloc(segs.totalRows(), kHidden);
    segmentBroadcast(*dpooled, 0, kHidden, segs, dembedded, /*mean=*/false);
    embed_.backwardBatch(dembedded, caches_.embed_acts, segs, ws,
                         /*need_dx=*/false);
}

double
MlpCostModel::evalCostPerCandidate() const
{
    return CostConstants::defaults().mlp_eval_per_candidate;
}

double
MlpCostModel::trainCostPerRound() const
{
    return CostConstants::defaults().mlp_train_per_round;
}

std::vector<ParamRef>
MlpCostModel::paramRefs()
{
    std::vector<ParamRef> params;
    embed_.collectParams(params);
    head_.collectParams(params);
    return params;
}

std::unique_ptr<CostModel>
MlpCostModel::clone() const
{
    return std::make_unique<MlpCostModel>(*this);
}

} // namespace pruner
