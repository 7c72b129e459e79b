#include "cost/pacm_model.hpp"

#include "support/logging.hpp"
#include "support/sim_clock.hpp"

namespace pruner {

namespace {

constexpr size_t kHidden = 64;

/** Copy the [n, kHidden] branch pool into columns [col0, col0 + kHidden)
 *  of the fused head input. */
void
copyIntoFused(const Matrix& pooled, size_t col0, Matrix& fused)
{
    for (size_t i = 0; i < pooled.rows(); ++i) {
        const double* p = pooled.row(i);
        double* f = fused.row(i) + col0;
        for (size_t c = 0; c < kHidden; ++c) {
            f[c] = p[c];
        }
    }
}

} // namespace

PaCMModel::PaCMModel(const DeviceSpec& device, uint64_t seed, PaCMConfig cfg)
    : CostModel(device, seed), cfg_(cfg)
{
    PRUNER_CHECK_MSG(cfg_.use_statement_features ||
                         cfg_.use_dataflow_features,
                     "PaCM needs at least one feature branch");
    stmt_embed_ = Mlp({kStatementFeatureDim, kHidden, kHidden, kHidden},
                      rng_);
    flow_embed_ = Mlp({kDataflowFeatureDim, kHidden, kHidden, kHidden},
                      rng_);
    attn_ = SelfAttention(kHidden, rng_);
    head_ = Mlp({2 * kHidden, kHidden, 1}, rng_);
}

double
PaCMModel::scoreOne(const SubgraphTask& task, const Schedule& sch) const
{
    Matrix fused(1, 2 * kHidden);
    if (cfg_.use_statement_features) {
        const Matrix stmt_feats =
            extractStatementFeatures(task, sch, device_);
        const Matrix pooled =
            stmt_embed_.inferReference(stmt_feats).colSum();
        for (size_t c = 0; c < kHidden; ++c) {
            fused.at(0, c) = pooled.at(0, c);
        }
    }
    if (cfg_.use_dataflow_features) {
        const Matrix flow_feats =
            extractDataflowFeatures(task, sch, device_);
        const Matrix ctx =
            attn_.inferReference(flow_embed_.inferReference(flow_feats));
        const Matrix pooled = ctx.colMean();
        for (size_t c = 0; c < kHidden; ++c) {
            fused.at(0, kHidden + c) = pooled.at(0, c);
        }
    }
    return head_.inferReference(fused).at(0, 0);
}

void
PaCMModel::memoRecord(const MeasuredRecord& rec, SymbolSet& sym,
                      FeatureMemos& memo) const
{
    // One symbol extraction per record feeds both branches.
    extractSymbolsInto(rec.task, rec.sch, sym);
    if (cfg_.use_statement_features) {
        const size_t row0 = memo[kStmt].appendRecord(sym.statements.size(),
                                                     kStatementFeatureDim);
        writeStatementFeatureRows(sym, rec.task, rec.sch, device_,
                                  memo[kStmt].rows, row0);
    }
    if (cfg_.use_dataflow_features) {
        const size_t row0 =
            memo[kFlow].appendRecord(kDataflowSteps, kDataflowFeatureDim);
        writeDataflowFeatureRows(sym, rec.task, rec.sch, device_,
                                 memo[kFlow].rows, row0);
    }
}

void
PaCMModel::forwardBatch(const FeaturePack& pack, Workspace& ws,
                        double* out) const
{
    const size_t n = pack.count;
    Matrix& fused = ws.allocZero(n, 2 * kHidden);
    if (cfg_.use_statement_features) {
        const SegmentTable& segs = *pack.segs[kStmt];
        PRUNER_CHECK(segs.count() == n);
        const Matrix& embedded = stmt_embed_.inferBatch(*pack.rows[kStmt], ws);
        Matrix& pooled = ws.alloc(n, kHidden);
        segmentColSum(embedded, segs, pooled);
        copyIntoFused(pooled, 0, fused);
    }
    if (cfg_.use_dataflow_features) {
        const SegmentTable& segs = *pack.segs[kFlow];
        PRUNER_CHECK(segs.count() == n);
        const Matrix& embedded = flow_embed_.inferBatch(*pack.rows[kFlow], ws);
        const Matrix& ctx = attn_.inferBatch(embedded, segs, ws);
        Matrix& pooled = ws.alloc(n, kHidden);
        segmentColMean(ctx, segs, pooled);
        copyIntoFused(pooled, kHidden, fused);
    }
    const Matrix& scores = head_.inferBatch(fused, ws);
    for (size_t i = 0; i < n; ++i) {
        out[i] = scores.at(i, 0);
    }
}

void
PaCMModel::predictInto(const SubgraphTask& task,
                       std::span<const Schedule> candidates, Workspace& ws,
                       double* out) const
{
    if (candidates.empty()) {
        return;
    }
    ws.reset();
    Matrix& stmt_pack = ws.alloc(0, kStatementFeatureDim);
    SegmentTable& stmt_segs = ws.allocSegments();
    Matrix& flow_pack = ws.alloc(0, kDataflowFeatureDim);
    SegmentTable& flow_segs = ws.allocSegments();

    // One symbol extraction feeds both branches (scoreOne pays it twice).
    // Bitwise-identical dataflow blocks (duplicate candidates in a
    // population, low-diversity tasks) are packed once and aliased by
    // every later copy: the embedding GEMM shrinks and the attention core
    // runs once per distinct block, with — identical input rows producing
    // identical output rows — not a single output byte moving.
    static thread_local SymbolSet sym;
    static thread_local DataflowBlockIndex seen_blocks;
    seen_blocks.clear();
    for (const Schedule& sch : candidates) {
        extractSymbolsInto(task, sch, sym);
        if (cfg_.use_statement_features) {
            const size_t row0 = stmt_pack.rows();
            stmt_pack.resize(row0 + sym.statements.size(),
                             kStatementFeatureDim);
            writeStatementFeatureRows(sym, task, sch, device_, stmt_pack,
                                      row0);
            stmt_segs.append(sym.statements.size());
        }
        if (cfg_.use_dataflow_features) {
            const size_t row0 = flow_pack.rows();
            flow_pack.resize(row0 + kDataflowSteps, kDataflowFeatureDim);
            writeDataflowFeatureRows(sym, task, sch, device_, flow_pack,
                                     row0);
            appendOrAliasDataflowBlock(flow_pack, flow_segs, row0,
                                       seen_blocks);
        }
    }
    const FeaturePack pack{{&stmt_pack, &flow_pack},
                           {&stmt_segs, &flow_segs},
                           candidates.size()};
    forwardBatch(pack, ws, out);
    countInference(pack);
}

void
PaCMModel::fitReference(const std::array<Matrix, kMaxFeatureBranches>& feats,
                        double dscore)
{
    Matrix fused(1, 2 * kHidden);
    Matrix stmt_embedded;
    if (cfg_.use_statement_features) {
        stmt_embedded = stmt_embed_.forward(feats[kStmt]);
        const Matrix pooled = stmt_embedded.colSum();
        for (size_t c = 0; c < kHidden; ++c) {
            fused.at(0, c) = pooled.at(0, c);
        }
    }
    Matrix flow_ctx;
    if (cfg_.use_dataflow_features) {
        flow_ctx = attn_.forward(flow_embed_.forward(feats[kFlow]));
        const Matrix pooled = flow_ctx.colMean();
        for (size_t c = 0; c < kHidden; ++c) {
            fused.at(0, kHidden + c) = pooled.at(0, c);
        }
    }
    head_.forward(fused);

    Matrix dy(1, 1);
    dy.at(0, 0) = dscore;
    const Matrix dfused = head_.backward(dy);
    if (cfg_.use_statement_features) {
        Matrix dembedded(stmt_embedded.rows(), stmt_embedded.cols());
        for (size_t r = 0; r < dembedded.rows(); ++r) {
            for (size_t c = 0; c < kHidden; ++c) {
                dembedded.at(r, c) = dfused.at(0, c);
            }
        }
        stmt_embed_.backward(dembedded);
    }
    if (cfg_.use_dataflow_features) {
        // Mean-pool backward: distribute 1/T to every step row.
        Matrix dctx(flow_ctx.rows(), flow_ctx.cols());
        const double inv_t = 1.0 / static_cast<double>(flow_ctx.rows());
        for (size_t r = 0; r < dctx.rows(); ++r) {
            for (size_t c = 0; c < kHidden; ++c) {
                dctx.at(r, c) = dfused.at(0, kHidden + c) * inv_t;
            }
        }
        const Matrix dflow = attn_.backward(dctx);
        flow_embed_.backward(dflow);
    }
}

void
PaCMModel::scoreBatch(const FeaturePack& pack, Workspace& ws, double* out)
{
    // Same computation (and bytes) as forwardBatch, with every
    // intermediate cached for fitBatch.
    const size_t n = pack.count;
    Matrix& fused = ws.allocZero(n, 2 * kHidden);
    if (cfg_.use_statement_features) {
        const SegmentTable& segs = *pack.segs[kStmt];
        PRUNER_CHECK(segs.count() == n);
        const Matrix& embedded =
            stmt_embed_.forwardBatch(*pack.rows[kStmt], ws, caches_.stmt_acts);
        Matrix& pooled = ws.alloc(n, kHidden);
        segmentColSum(embedded, segs, pooled);
        copyIntoFused(pooled, 0, fused);
        caches_.stmt_segs = &segs;
    }
    if (cfg_.use_dataflow_features) {
        const SegmentTable& segs = *pack.segs[kFlow];
        PRUNER_CHECK(segs.count() == n);
        const Matrix& embedded =
            flow_embed_.forwardBatch(*pack.rows[kFlow], ws, caches_.flow_acts);
        const Matrix& ctx =
            attn_.forwardBatch(embedded, segs, ws, caches_.attn);
        Matrix& pooled = ws.alloc(n, kHidden);
        segmentColMean(ctx, segs, pooled);
        copyIntoFused(pooled, kHidden, fused);
        caches_.flow_segs = &segs;
    }
    SegmentTable& unit = ws.allocSegments();
    for (size_t i = 0; i < n; ++i) {
        unit.append(1); // the head sees one fused row per record
    }
    const Matrix& scores = head_.forwardBatch(fused, ws, caches_.head_acts);
    for (size_t i = 0; i < n; ++i) {
        out[i] = scores.at(i, 0);
    }
    caches_.unit = &unit;
}

void
PaCMModel::fitBatch(const std::vector<double>& dscores, Workspace& ws)
{
    const size_t n = dscores.size();
    if (n == 0) {
        return;
    }
    // Backward from the scoring pass's activations, in the per-record
    // module order (head, statement branch, dataflow branch).
    Matrix& dy = ws.alloc(n, 1);
    for (size_t i = 0; i < n; ++i) {
        dy.at(i, 0) = dscores[i];
    }
    Matrix* dfused = head_.backwardBatch(dy, caches_.head_acts,
                                         *caches_.unit, ws,
                                         /*need_dx=*/true);
    if (cfg_.use_statement_features) {
        const SegmentTable& stmt_segs = *caches_.stmt_segs;
        PRUNER_CHECK(stmt_segs.count() == n);
        Matrix& dembedded = ws.alloc(stmt_segs.totalRows(), kHidden);
        segmentBroadcast(*dfused, 0, kHidden, stmt_segs, dembedded,
                         /*mean=*/false);
        stmt_embed_.backwardBatch(dembedded, caches_.stmt_acts, stmt_segs,
                                  ws, /*need_dx=*/false);
    }
    if (cfg_.use_dataflow_features) {
        // Mean-pool backward: distribute 1/T to every step row.
        const SegmentTable& flow_segs = *caches_.flow_segs;
        PRUNER_CHECK(flow_segs.count() == n);
        Matrix& dctx = ws.alloc(flow_segs.totalRows(), kHidden);
        segmentBroadcast(*dfused, kHidden, kHidden, flow_segs, dctx,
                         /*mean=*/true);
        Matrix* dflow = attn_.backwardBatch(dctx, caches_.attn, flow_segs,
                                            ws, /*need_dx=*/true);
        flow_embed_.backwardBatch(*dflow, caches_.flow_acts, flow_segs, ws,
                                  /*need_dx=*/false);
    }
}

double
PaCMModel::evalCostPerCandidate() const
{
    return CostConstants::defaults().pacm_eval_per_candidate;
}

double
PaCMModel::trainCostPerRound() const
{
    return CostConstants::defaults().pacm_train_per_round;
}

std::vector<ParamRef>
PaCMModel::paramRefs()
{
    std::vector<ParamRef> params;
    stmt_embed_.collectParams(params);
    flow_embed_.collectParams(params);
    attn_.collectParams(params);
    head_.collectParams(params);
    return params;
}

std::unique_ptr<CostModel>
PaCMModel::clone() const
{
    return std::make_unique<PaCMModel>(*this);
}

} // namespace pruner
