#include "cost/cost_model.hpp"

#include <algorithm>
#include <functional>
#include <unordered_map>

#include "core/symbols.hpp"
#include "nn/loss.hpp"
#include "nn/optimizer.hpp"
#include "obs/metrics.hpp"

namespace pruner {

namespace {
// The online fine-tuning recipe every learned model shares: Adam at this
// rate, the gradient clipped to this global norm before each step, and at
// most this many records per LambdaRank group per epoch.
constexpr double kLearningRate = 1e-3;
constexpr double kClipNorm = 5.0;
constexpr size_t kGroupCap = 48;
} // namespace

size_t
FeatureMemo::appendRecord(size_t n, size_t cols)
{
    const size_t row0 = rows.rows();
    rows.resize(row0 + n, cols);
    segs.append(n);
    return row0;
}

CostModel::CostModel(const DeviceSpec& device, uint64_t seed)
    : device_(device), rng_(seed)
{
}

std::vector<double>
CostModel::predict(const SubgraphTask& task,
                   std::span<const Schedule> candidates) const
{
    std::vector<double> scores(candidates.size());
    predictInto(task, candidates, threadLocalWorkspace(), scores.data());
    return scores;
}

std::vector<double>
CostModel::predictReference(const SubgraphTask& task,
                            std::span<const Schedule> candidates) const
{
    std::vector<double> scores;
    scores.reserve(candidates.size());
    for (const auto& sch : candidates) {
        scores.push_back(scoreOne(task, sch));
    }
    return scores;
}

std::vector<double>
CostModel::getParams()
{
    return flattenParams(paramRefs());
}

void
CostModel::setParams(const std::vector<double>& flat)
{
    unflattenParams(paramRefs(), flat);
}

void
CostModel::countInference(const FeaturePack& pack) const
{
    size_t pack_rows = 0, segments = 0, alias_segments = 0;
    for (size_t b = 0; b < kMaxFeatureBranches; ++b) {
        if (pack.rows[b] != nullptr) {
            pack_rows += pack.rows[b]->rows();
            segments += pack.segs[b]->count();
            alias_segments += pack.segs[b]->aliasCount();
        }
    }
    obs::counterAdd(obs_counters_.infer_batches);
    obs::counterAdd(obs_counters_.infer_candidates, pack.count);
    obs::counterAdd(obs_counters_.infer_pack_rows, pack_rows);
    obs::counterAdd(obs_counters_.infer_segments, segments);
    obs::counterAdd(obs_counters_.infer_alias_segments, alias_segments);
}

double
CostModel::train(const std::vector<MeasuredRecord>& records, int epochs)
{
    return runTraining(records, epochs, /*reference=*/false);
}

double
CostModel::trainReference(const std::vector<MeasuredRecord>& records,
                          int epochs)
{
    return runTraining(records, epochs, /*reference=*/true);
}

double
CostModel::runTraining(const std::vector<MeasuredRecord>& records,
                       int epochs, bool reference)
{
    if (records.size() < 2) {
        return 0.0;
    }
    Adam adam(paramRefs(), kLearningRate);
    adam.zeroGrad();

    // Per-record feature memo shared by every epoch's scoring and fitting:
    // one extraction per record for the whole run. The scores (and so the
    // whole training trajectory) are byte-identical to re-extracting and
    // scoring one record at a time.
    FeatureMemos memo;
    {
        SymbolSet sym;
        for (const auto& rec : records) {
            memoRecord(rec, sym, memo);
        }
    }
    Workspace ws;
    // Gather a subset's memo rows into one pack per branch (a fresh
    // workspace pass: the pack and everything after it live until the
    // next group's gather).
    auto gather = [&](const std::vector<size_t>& subset) {
        ws.reset();
        FeaturePack pack;
        pack.count = subset.size();
        for (size_t b = 0; b < kMaxFeatureBranches; ++b) {
            const FeatureMemo& m = memo[b];
            if (m.segs.count() == 0) {
                continue; // a branch this model does not read
            }
            Matrix& rows = ws.alloc(0, m.rows.cols());
            SegmentTable& segs = ws.allocSegments();
            for (size_t idx : subset) {
                rows.appendRows(m.rows, m.segs.begin(idx), m.segs.rows(idx));
                segs.append(m.segs.rows(idx));
            }
            pack.rows[b] = &rows;
            pack.segs[b] = &segs;
        }
        return pack;
    };

    if (!reference) {
        // Scoring runs the caching forward; the fit reuses its
        // activations.
        auto infer_scores = [&](const std::vector<size_t>& subset,
                                std::vector<double>& out) {
            const FeaturePack pack = gather(subset);
            out.resize(subset.size());
            scoreBatch(pack, ws, out.data());
        };
        auto fit_batch = [&](const std::vector<double>& grads) {
            fitBatch(grads, ws);
        };
        auto on_batch_end = [&]() { adam.stepClipped(kClipNorm); };
        return trainRankingLoop(records, epochs, kGroupCap, rng_,
                                infer_scores, fit_batch, on_batch_end,
                                obs_counters_);
    }

    // Frozen pre-batching path: same memo + batched scoring, per-record
    // fits (exactly the train() of the batched-inference engine era).
    auto infer_scores = [&](const std::vector<size_t>& subset) {
        const FeaturePack pack = gather(subset);
        std::vector<double> scores(subset.size());
        forwardBatch(pack, ws, scores.data());
        return scores;
    };
    auto fit_one = [&](size_t idx, double dscore) {
        std::array<Matrix, kMaxFeatureBranches> feats;
        for (size_t b = 0; b < kMaxFeatureBranches; ++b) {
            const FeatureMemo& m = memo[b];
            if (m.segs.count() > 0) {
                feats[b] = m.rows.sliceRows(m.segs.begin(idx),
                                            m.segs.rows(idx));
            }
        }
        fitReference(feats, dscore);
    };
    auto on_batch_end = [&]() {
        adam.clipGradNorm(kClipNorm);
        adam.step();
        adam.zeroGrad();
    };
    return trainRankingLoopReference(records, epochs, kGroupCap, rng_,
                                     infer_scores, fit_one, on_batch_end);
}

void
CostModel::bindMetrics(obs::MetricsRegistry* metrics)
{
    if (metrics == nullptr) {
        obs_counters_ = {};
        return;
    }
    obs_counters_.infer_batches = metrics->counter("model_infer_batches_total");
    obs_counters_.infer_candidates =
        metrics->counter("model_infer_candidates_total");
    obs_counters_.infer_pack_rows =
        metrics->counter("model_infer_pack_rows_total");
    obs_counters_.infer_segments =
        metrics->counter("model_infer_segments_total");
    obs_counters_.infer_alias_segments =
        metrics->counter("model_infer_alias_segments_total");
    obs_counters_.train_groups = metrics->counter("model_train_groups_total");
    obs_counters_.train_records =
        metrics->counter("model_train_records_total");
    obs_counters_.train_epochs = metrics->counter("model_train_epochs_total");
}

namespace detail {

std::vector<std::vector<size_t>>
groupByTask(const std::vector<MeasuredRecord>& records)
{
    std::unordered_map<uint64_t, size_t> index_of;
    std::vector<std::vector<size_t>> groups;
    for (size_t i = 0; i < records.size(); ++i) {
        const uint64_t key = records[i].task.hash();
        auto [it, inserted] = index_of.try_emplace(key, groups.size());
        if (inserted) {
            groups.emplace_back();
        }
        groups[it->second].push_back(i);
    }
    return groups;
}

} // namespace detail

double
trainRankingLoop(
    const std::vector<MeasuredRecord>& records, int epochs, size_t group_cap,
    Rng& rng,
    const std::function<void(const std::vector<size_t>&,
                             std::vector<double>&)>& infer_scores,
    const std::function<void(const std::vector<double>&)>& fit_batch,
    const std::function<void()>& on_batch_end,
    const CostModel::ModelObsCounters& counters)
{
    auto groups = detail::groupByTask(records);
    double last_epoch_loss = 0.0;
    // Loop-level buffers, reused across groups and epochs.
    std::vector<size_t> subset;
    std::vector<double> scores, latencies;
    LossResult loss;
    LossScratch scratch;
    for (int epoch = 0; epoch < epochs; ++epoch) {
        rng.shuffle(groups);
        double epoch_loss = 0.0;
        size_t batches = 0;
        for (auto& group : groups) {
            if (group.size() < 2) {
                continue;
            }
            rng.shuffle(group);
            subset.assign(group.begin(),
                          group.begin() + std::min(group.size(), group_cap));
            infer_scores(subset, scores);
            latencies.clear();
            for (size_t idx : subset) {
                latencies.push_back(records[idx].latency);
            }
            lambdaRankLossInto(scores, latencies, /*sigma=*/1.0, loss,
                               scratch);
            epoch_loss += loss.loss;
            ++batches;
            obs::counterAdd(counters.train_groups);
            fit_batch(loss.grad);
            obs::counterAdd(counters.train_records, subset.size());
            on_batch_end();
        }
        last_epoch_loss = batches > 0 ? epoch_loss / batches : 0.0;
        obs::counterAdd(counters.train_epochs);
    }
    return last_epoch_loss;
}

double
trainRankingLoopReference(
    const std::vector<MeasuredRecord>& records, int epochs, size_t group_cap,
    Rng& rng,
    const std::function<std::vector<double>(const std::vector<size_t>&)>&
        infer_scores,
    const std::function<void(size_t, double)>& fit_one,
    const std::function<void()>& on_batch_end)
{
    auto groups = detail::groupByTask(records);
    double last_epoch_loss = 0.0;
    for (int epoch = 0; epoch < epochs; ++epoch) {
        rng.shuffle(groups);
        double epoch_loss = 0.0;
        size_t batches = 0;
        for (auto& group : groups) {
            if (group.size() < 2) {
                continue;
            }
            rng.shuffle(group);
            std::vector<size_t> subset(
                group.begin(),
                group.begin() + std::min(group.size(), group_cap));
            const std::vector<double> scores = infer_scores(subset);
            std::vector<double> latencies;
            latencies.reserve(subset.size());
            for (size_t idx : subset) {
                latencies.push_back(records[idx].latency);
            }
            const LossResult loss = lambdaRankLoss(scores, latencies);
            for (size_t i = 0; i < subset.size(); ++i) {
                if (loss.grad[i] != 0.0) {
                    fit_one(subset[i], loss.grad[i]);
                }
            }
            on_batch_end();
            epoch_loss += loss.loss;
            ++batches;
        }
        last_epoch_loss = batches > 0 ? epoch_loss / batches : 0.0;
    }
    return last_epoch_loss;
}

} // namespace pruner
