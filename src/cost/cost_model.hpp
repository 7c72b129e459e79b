#pragma once

/**
 * @file cost_model.hpp
 * Common interface for learned cost models plus the shared ranking
 * training loop.
 *
 * All three learned models in the paper's evaluation (TenSetMLP, TLP, and
 * Pruner's PaCM) share the same contract: score a batch of candidate
 * schedules for one task (higher = predicted faster) and train from
 * measured (task, schedule, latency) records with a ranking objective.
 * The simulated per-candidate inference cost and per-round training cost
 * differ per model and feed the SimClock.
 */

#include <array>
#include <functional>
#include <memory>
#include <span>
#include <string>
#include <vector>

#include "device/device_spec.hpp"
#include "ir/task.hpp"
#include "nn/layers.hpp"
#include "sched/schedule.hpp"
#include "support/rng.hpp"

namespace pruner {

namespace obs {
class Counter;
class MetricsRegistry;
} // namespace obs

struct SymbolSet;

/** One measured data point (the unit of both online and offline data). */
struct MeasuredRecord
{
    SubgraphTask task;
    Schedule sch;
    double latency = 0.0; ///< measured latency in seconds (finite)
};

/** Most feature branches a model reads per candidate: PaCM reads two
 *  (statement, dataflow), TenSetMLP one (statement), TLP one
 *  (primitive). */
constexpr size_t kMaxFeatureBranches = 2;

/** Packed feature rows of one batch of candidates, per branch, in pack
 *  order (segment i belongs to candidate i). A branch the model does not
 *  read is null. */
struct FeaturePack
{
    std::array<const Matrix*, kMaxFeatureBranches> rows{};
    std::array<const SegmentTable*, kMaxFeatureBranches> segs{};
    size_t count = 0; ///< candidates in the batch
};

/** One branch's rows for every record of a training run, extracted once:
 *  segment i holds record i's rows. A branch the model does not read
 *  (including a disabled PaCM branch) stays empty. */
struct FeatureMemo
{
    Matrix rows;
    SegmentTable segs;

    /** Append a segment of @p n zero rows, @p cols wide, for the next
     *  record; returns its first row. */
    size_t appendRecord(size_t n, size_t cols);
};

using FeatureMemos = std::array<FeatureMemo, kMaxFeatureBranches>;

/**
 * Abstract learned cost model.
 *
 * The public surface (predict, train, parameter snapshots) is the same
 * for every model, and so is the scaffolding behind it: CostModel owns
 * the device, the training RNG, the LambdaRank training run (optimizer,
 * feature memo, per-group pack gather, step style) and the inference
 * counters. A model supplies only its own parts: its parameters, the
 * memo rows of one record per feature branch, the batched forward shared
 * by predictInto(), the trainer's caching forward and batched backward,
 * and the frozen per-record oracles.
 */
class CostModel
{
  public:
    virtual ~CostModel() = default;

    /** Model name for reports ("TenSetMLP", "TLP", "PaCM"). */
    virtual std::string name() const = 0;

    /** Scores for candidate schedules of one task; higher = faster. Must
     *  be const and reentrant (used concurrently by pool workers inside
     *  search loops). Scores the whole span through predictInto() on the
     *  calling thread's workspace — one packed GEMM per layer — and the
     *  result is byte-identical to scoring candidates one at a time, at
     *  any batch size (predictReference()). */
    std::vector<double> predict(const SubgraphTask& task,
                                std::span<const Schedule> candidates) const;

    /** Batched scoring into a caller-owned buffer: every candidate's
     *  feature rows pack into one matrix per branch, each layer runs as
     *  one GEMM, all intermediates come from @p ws. Zero heap allocations
     *  once @p ws is warm; byte-identical to predictReference(). @p out
     *  must hold candidates.size() doubles. */
    virtual void predictInto(const SubgraphTask& task,
                             std::span<const Schedule> candidates,
                             Workspace& ws, double* out) const = 0;

    /** Per-candidate reference path (the pre-batching implementation),
     *  kept for the identity tests and benches. */
    std::vector<double>
    predictReference(const SubgraphTask& task,
                     std::span<const Schedule> candidates) const;

    /** Train on measured records (grouped by task internally). Returns
     *  the final average ranking loss. Each LambdaRank group runs as one
     *  segment-packed forward and backward (trainRankingLoop); weights
     *  after every epoch are byte-identical to trainReference(). */
    double train(const std::vector<MeasuredRecord>& records, int epochs);

    /** The frozen pre-batching training path (per-record forward +
     *  backward, trainRankingLoopReference), kept as the golden reference
     *  the batched trainer is differentially tested against. Consumes
     *  the model's RNG exactly like train(), so compare fresh clones —
     *  not chained calls. */
    double trainReference(const std::vector<MeasuredRecord>& records,
                          int epochs);

    /** Simulated seconds of exploration cost per scored candidate. */
    virtual double evalCostPerCandidate() const = 0;

    /** Simulated seconds of training cost per tuning round. */
    virtual double trainCostPerRound() const = 0;

    /** Flat parameter snapshot (MoA / pre-train hand-off). */
    std::vector<double> getParams();

    /** Restore a snapshot produced by getParams() of the same model. */
    void setParams(const std::vector<double>& flat);

    /** Deep copy. */
    virtual std::unique_ptr<CostModel> clone() const = 0;

    /** The RNG that train() draws from (group shuffling / subset
     *  sampling). Checkpoint/resume snapshots and restores it so a
     *  resumed run's training stream continues exactly where the original
     *  left off — weights alone don't capture that lineage. */
    Rng* trainingRng() { return &rng_; }

    /** Handles into a bound MetricsRegistry (all null when unbound; writes
     *  go through null-safe helpers). Deterministic channel: inference and
     *  training traffic is a pure function of the tuning trajectory. */
    struct ModelObsCounters
    {
        obs::Counter* infer_batches = nullptr;    ///< predict calls
        obs::Counter* infer_candidates = nullptr; ///< rows scored
        obs::Counter* infer_pack_rows = nullptr;  ///< packed GEMM rows
        obs::Counter* infer_segments = nullptr;   ///< segments packed
        obs::Counter* infer_alias_segments = nullptr; ///< aliased (deduped)
        obs::Counter* train_groups = nullptr;     ///< LambdaRank groups fit
        obs::Counter* train_records = nullptr;    ///< records fit
        obs::Counter* train_epochs = nullptr;     ///< training epochs run
    };

    /** Bind the model_* counters to @p metrics (nullptr unbinds). Pure
     *  accounting, never changes predictions or weights. A clone() carries
     *  the binding — deliberately: the async trainer trains a clone, and
     *  carrying the handles keeps the deterministic training counters
     *  identical between sync and async runs. */
    void bindMetrics(obs::MetricsRegistry* metrics);

  protected:
    /** @param device  platform whose features/labels this model sees
     *  @param seed    seeds the RNG behind weight init and training */
    CostModel(const DeviceSpec& device, uint64_t seed);

    /** Every trainable parameter, in snapshot order. */
    virtual std::vector<ParamRef> paramRefs() = 0;

    /** Frozen per-candidate score (the predictReference() oracle). */
    virtual double scoreOne(const SubgraphTask& task,
                            const Schedule& sch) const = 0;

    /** Append @p rec's rows to @p memo, one segment per feature branch
     *  the model reads (the others stay empty). @p sym is scratch. */
    virtual void memoRecord(const MeasuredRecord& rec, SymbolSet& sym,
                            FeatureMemos& memo) const = 0;

    /** Pooled batched forward over @p pack -> pack.count scores: the
     *  engine behind predictInto() and the reference trainer's scoring. */
    virtual void forwardBatch(const FeaturePack& pack, Workspace& ws,
                              double* out) const = 0;

    /** The trainer's scoring forward: same bytes as forwardBatch, but
     *  every layer boundary stays cached so the following fitBatch runs
     *  the backward without a second forward over the pack. */
    virtual void scoreBatch(const FeaturePack& pack, Workspace& ws,
                            double* out) = 0;

    /** One segment-aware batched backward from the last scoreBatch's
     *  caches: byte-identical gradient accumulation to calling
     *  fitReference per record in pack order. Zero-gradient records stay
     *  in the pack with a zero dy row: every partial they touch is
     *  exactly +0.0, so the adds are byte-level no-ops — the same bytes
     *  as the reference loop's skip. */
    virtual void fitBatch(const std::vector<double>& dscores,
                          Workspace& ws) = 0;

    /** Frozen per-record forward+backward (the pre-batching fit) from one
     *  record's memo rows per branch (empty for a branch not read). */
    virtual void
    fitReference(const std::array<Matrix, kMaxFeatureBranches>& feats,
                 double dscore) = 0;

    /** Count one predictInto() batch on the model_infer_* counters. */
    void countInference(const FeaturePack& pack) const;

    DeviceSpec device_;
    Rng rng_;
    ModelObsCounters obs_counters_;

  private:
    /** The one training run behind train() (@p reference false) and
     *  trainReference() (true). */
    double runTraining(const std::vector<MeasuredRecord>& records,
                       int epochs, bool reference);
};

namespace detail {

/** Group record indices by task hash (stable order of first appearance). */
std::vector<std::vector<size_t>>
groupByTask(const std::vector<MeasuredRecord>& records);

} // namespace detail

/**
 * Shared LambdaRank training loop — batched backward.
 *
 * Identical group/shuffle/loss structure (and RNG consumption) to
 * trainRankingLoopReference, but each group's fit runs as ONE
 * segment-packed batch: @p infer_scores runs the caching forward over the
 * sampled subset (pack order) into a reused output buffer (resized to
 * subset.size()), and @p fit_batch receives the per-record dL/dscore and
 * runs the backward from that forward's activations. It must make
 * zero-gradient records byte-level no-ops — the models carry them with a
 * zero dy row, whose partials are all exactly +0.0. infer_scores and
 * fit_batch are always called as a pair per group, then @p on_batch_end
 * steps the optimizer once. All loop-level buffers (subset, scores,
 * latencies, loss scratch) are reused across groups and epochs, so
 * steady-state epochs allocate nothing at the loop level.
 *
 * @param records  measured data
 * @param epochs   passes over the grouped data
 * @param group_cap  max candidates per group per epoch (LambdaRank is
 *                   quadratic in group size)
 * @param rng      sampling source
 * @param counters  optional training counters (null members are no-ops)
 * Returns the last epoch's mean per-group loss.
 */
double trainRankingLoop(
    const std::vector<MeasuredRecord>& records, int epochs, size_t group_cap,
    Rng& rng,
    const std::function<void(const std::vector<size_t>&,
                             std::vector<double>&)>& infer_scores,
    const std::function<void(const std::vector<double>&)>& fit_batch,
    const std::function<void()>& on_batch_end,
    const CostModel::ModelObsCounters& counters = {});

/**
 * The frozen pre-batching loop: per-record @p fit_one calls (skipping
 * zero gradients), one record's full forward+backward at a time, then
 * one @p on_batch_end per group. Kept verbatim as the golden reference
 * behind every model's trainReference(); byte-for-byte the behaviour
 * train() had before the batched backward.
 */
double trainRankingLoopReference(
    const std::vector<MeasuredRecord>& records, int epochs, size_t group_cap,
    Rng& rng,
    const std::function<std::vector<double>(const std::vector<size_t>&)>&
        infer_scores,
    const std::function<void(size_t, double)>& fit_one,
    const std::function<void()>& on_batch_end);

} // namespace pruner
