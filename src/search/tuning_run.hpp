#pragma once

/**
 * @file tuning_run.hpp
 * The one loop behind every round-based tuning policy. In the paper's
 * Algorithm 1, Pruner is the Ansor search loop with the draft and verify
 * stages swapped out: TuningRun is that loop, and a policy's run subclass
 * supplies only those stages (plus its online-training cadence).
 *
 * TuningRun owns the per-run metrics registry and spans, the Measurer,
 * checkpoint/resume, the artifact store, the record DB, the task
 * scheduler and the async trainer. Each round it picks
 * the tasks, drafts each one, verifies, measures the round in one pooled
 * pass, trains, and records the curve point and the checkpoint. The end of
 * the run probes the model for divergence: a diverged model fails the run
 * and is never persisted.
 */

#include <algorithm>
#include <memory>
#include <string>
#include <vector>

#include "db/artifact_session.hpp"
#include "obs/metrics.hpp"
#include "obs/stage_histograms.hpp"
#include "obs/trace.hpp"
#include "search/search_policy.hpp"

namespace pruner {

class AsyncModelTrainer; // src/cost/async_trainer.hpp
class MoAAdapter;        // src/core/moa.hpp

/** One picked task of a round. */
struct RoundSlot
{
    size_t task_index;
    const SubgraphTask* task;
    ScheduleSampler sampler;
    std::vector<Schedule> seeds; ///< the measured incumbent, if any
    std::vector<Schedule> draft; ///< candidates awaiting verify
    std::vector<Schedule> to_measure;
};

/** One tune() call: the constructor sets the run up (warm start or
 *  resume included), execute() runs the rounds and finishes. */
class TuningRun
{
  public:
    virtual ~TuningRun();
    TuningRun(const TuningRun&) = delete;
    TuningRun& operator=(const TuningRun&) = delete;

    TuneResult execute();

  protected:
    /** @param policy         name and replay identity of the run
     *  @param model          the policy's cost model (outlives the run)
     *  @param measurer_salt  mixed into TuneOptions::seed for the Measurer
     *  @param moa            MoA-Pruner's adapter, or null: checkpointed
     *                        with the run, and trainModel() updates through
     *                        it (always synchronously) */
    TuningRun(const SearchPolicy& policy, const DeviceSpec& device,
              CostModel& model, uint64_t measurer_salt,
              const Workload& workload, const TuneOptions& opts,
              MoAAdapter* moa = nullptr);

    // --- The policy's stages, in call order ----------------------------
    /** After the scheduler pick, before the first draft. */
    virtual void beginRound(int /*round*/) {}
    /** Draft one task inside its "draft" span: fill slot.draft, or pick
     *  slot.to_measure directly (select()) when the draft already scored
     *  with the cost model. Returns the drafted count. */
    virtual size_t draft(RoundSlot& slot, obs::ScopedSpan& span) = 0;
    /** Once every task has drafted: pick each slot's to_measure. */
    virtual void verify(int /*round*/, std::vector<RoundSlot>& /*slots*/) {}
    /** After measurement, when TuneOptions::online_training is set and
     *  the DB holds at least 16 records. */
    virtual void train(int round) = 0;

    // --- What the stages build on ---------------------------------------
    ThreadPool* pool() const { return env_.pool(); }
    /** Candidates per batched cost-model pass. */
    size_t
    scoreChunk() const
    {
        return static_cast<size_t>(std::max(opts_.predict_batch, 1));
    }
    /** Swap in the weights of the in-flight async update, if any. */
    void drainTraining();
    /** drainTraining(), then the recorder's model-state event: the point
     *  where async and synchronous training hold identical weights. */
    void installModel(int round);
    /** Draft with the evolutionary search, the cost model as the
     *  fitness, and charge the evaluations at its per-candidate cost. */
    std::vector<ScoredSchedule> evolutionDraft(const RoundSlot& slot,
                                               const EvolutionConfig& evo,
                                               size_t* evals_out = nullptr);
    /** Pick slot.to_measure from @p ranked (epsilon-greedy). */
    void select(RoundSlot& slot, const std::vector<ScoredSchedule>& ranked);
    /** One online update on the recent records, in the "train" span. */
    void trainModel(int epochs);

    const TuneOptions& opts_;
    const DeviceSpec& device_;
    CostModel& model_;
    SimClock clock_;
    Rng rng_;
    // Every component accumulates into this private registry (so
    // concurrent tune() calls never share counters); the caller's
    // registry, if any, receives one merge at the end.
    obs::MetricsRegistry metrics_;
    obs::Tracer* tracer_;
    obs::StageTimeHistograms stage_hists_;
    /** Measure each task with early termination (Adatune) instead of one
     *  pooled pass per round. */
    bool adaptive_ = false;
    double adaptive_time_scale_ = 0.0;
    double adaptive_extra_noise_ = 0.0;

  private:
    /** Unbinds the model's metric handles when the per-run registry dies
     *  (the policy's model outlives tune(), the registry does not). */
    struct ModelObsGuard
    {
        CostModel* model;
        ~ModelObsGuard() { model->bindMetrics(nullptr); }
    };

    void measure(const std::vector<RoundSlot>& slots);
    void writeCheckpoint(int next_round);
    TuneResult finish();

    const Workload& workload_;
    MoAAdapter* moa_;
    TuneResult result_;
    obs::ScopedSpan tune_span_;
    Measurer measurer_;
    MeasureEnv env_;
    uint64_t checkpoint_fp_ = 0;
    bool checkpointing_ = false;
    SessionRecorder* recorder_;
    TuningRecordDb db_;
    TaskScheduler scheduler_;
    ModelObsGuard model_obs_guard_;
    obs::RoundStatsCollector round_stats_;
    ArtifactSession artifacts_;
    std::string model_key_;
    int start_round_ = 0;
    std::unique_ptr<AsyncModelTrainer> async_trainer_;
};

} // namespace pruner
