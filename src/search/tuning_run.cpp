#include "search/tuning_run.hpp"

#include <algorithm>
#include <cmath>
#include <optional>

#include "core/moa.hpp"
#include "cost/async_trainer.hpp"
#include "nn/matrix.hpp"
#include "replay/checkpoint.hpp"
#include "replay/session_recorder.hpp"
#include "support/logging.hpp"

namespace pruner {

namespace {

/** Publish pool Execution-channel gauges (worker count, jobs, peak queue
 *  depth). No-op when @p pool is null. */
void
exportPoolStats(obs::MetricsRegistry& metrics, const ThreadPool* pool)
{
    if (pool == nullptr) {
        return;
    }
    const auto ch = obs::MetricChannel::Execution;
    metrics.gauge("pool_workers", ch)
        ->set(static_cast<int64_t>(pool->size()));
    metrics.gauge("pool_jobs_submitted", ch)
        ->set(static_cast<int64_t>(pool->jobsSubmitted()));
    metrics.gauge("pool_jobs_completed", ch)
        ->set(static_cast<int64_t>(pool->jobsCompleted()));
    metrics.gauge("pool_peak_queue_depth", ch)
        ->set(static_cast<int64_t>(pool->peakQueueDepth()));
}

/** Publish the dispatched nn kernel tiers as Execution-channel labels. */
void
exportKernelTiers(obs::MetricsRegistry& metrics)
{
    // Host property, not a trajectory property: Execution channel, so a
    // trace replayed on another machine still identity-matches.
    const auto ch = obs::MetricChannel::Execution;
    const nnkernel::KernelTiers tiers = nnkernel::kernelTiers();
    metrics.setLabel("nn_kernel_matmul", tiers.matmul, ch);
    metrics.setLabel("nn_kernel_matmul_nt", tiers.matmul_nt, ch);
    metrics.setLabel("nn_kernel_matmul_tn_seg", tiers.matmul_tn_seg, ch);
    metrics.setLabel("nn_kernel_adam", tiers.adam, ch);
    // CPU-supported tiers the startup self-check rejected. Zero on a
    // healthy host; nonzero means a vector kernel broke its byte-identity
    // contract and silently fell back (surfaced as a tuneReport warning).
    // Counters are monotonic, so set-once-per-export stays idempotent:
    // the demotion total is fixed after the first dispatch.
    obs::Counter* demotions =
        metrics.counter("kernel_tier_demotions_total", ch);
    const size_t total = nnkernel::kernelTierDemotions();
    if (demotions != nullptr && demotions->value() < total) {
        demotions->add(total - demotions->value());
    }
}

/** Fill TuneResult's counter fields from the per-run registry snapshot —
 *  one source of truth for the result struct, the /metrics exposition
 *  and the round stats. */
void
fillResultCounters(TuneResult& result, const obs::MetricsRegistry& metrics)
{
    const obs::MetricsSnapshot snap = metrics.snapshot();
    result.trials = snap.counterValue("measure_trials_total");
    result.failed_trials = snap.counterValue("measure_failed_trials_total");
    result.cache_hits = snap.counterValue("measure_cache_hits_total");
    result.simulated_trials =
        snap.counterValue("measure_simulated_trials_total");
    result.injected_faults =
        snap.counterValue("fault_injected_launch_total") +
        snap.counterValue("fault_injected_timeout_total") +
        snap.counterValue("fault_injected_flaky_total");
    result.warm_records = snap.counterValue("db_warm_records_total");
}

} // namespace

TuningRun::TuningRun(const SearchPolicy& policy, const DeviceSpec& device,
                     CostModel& model, uint64_t measurer_salt,
                     const Workload& workload, const TuneOptions& opts,
                     MoAAdapter* moa)
    : opts_(opts),
      device_(device),
      model_(model),
      rng_(opts.seed),
      tracer_(opts.tracer),
      workload_(workload),
      moa_(moa),
      tune_span_(tracer_, obs::TraceTrack::Main, &clock_, "tune", "session"),
      measurer_(device, &clock_, hashCombine(opts.seed, measurer_salt),
                opts.constants),
      env_(measurer_, opts.measure_workers, opts.measure_cache),
      recorder_(opts.recorder),
      scheduler_(workload),
      model_obs_guard_{&model},
      round_stats_(opts.collect_round_stats, &clock_, &measurer_),
      artifacts_(opts.artifact_db, opts.artifact_db_path),
      model_key_(artifactModelKey(policy.name(), model.name(), device.name))
{
    result_.policy = policy.name();
    tune_span_.argStr("policy", result_.policy);
    measurer_.setMetrics(&metrics_);
    measurer_.setTracer(tracer_);
    measurer_.setFaultPlan(opts.fault_plan);
    if (opts.checkpoint_interval > 0) {
        checkpointing_ = !opts.checkpoint_path.empty();
        if (!checkpointing_) {
            PRUNER_WARN("checkpoint_interval set but checkpoint_path is "
                        "empty; not checkpointing");
        }
    }
    // Crash-safe checkpoint/resume (see replay/checkpoint.hpp): the
    // fingerprint binds a checkpoint to this exact run identity, and a
    // missing/corrupt/incompatible file degrades to a cold start.
    checkpoint_fp_ =
        checkpointFingerprint(policy.replayFactory(), policy.replayConfig(),
                              device.name, workload, opts);
    std::optional<TuningCheckpoint> ckpt;
    if (!opts.resume_from.empty()) {
        ckpt = loadCheckpoint(opts.resume_from, checkpoint_fp_, &metrics_);
    }
    const bool resumed = ckpt.has_value();
    if (resumed && recorder_ != nullptr) {
        PRUNER_WARN("session recorder disabled for the resumed run: the "
                    "log would only cover the rounds after the checkpoint");
        recorder_ = nullptr;
    }
    measurer_.setRecorder(recorder_);
    // Pin the compile-overlap divisor so a recorded session replays with
    // the same simulated clock at any real worker count; a resumed run
    // pins the writing run's divisor the same way.
    measurer_.setClockLanes(
        resumed ? static_cast<size_t>(ckpt->clock_lanes)
                : static_cast<size_t>(opts.clock_lanes > 0
                                          ? opts.clock_lanes
                                          : std::max(opts.measure_workers,
                                                     1)));
    if (recorder_ != nullptr) {
        recorder_->beginSession(policy.replayFactory(), policy.replayConfig(),
                                device.name, workload, opts);
    }
    scheduler_.bindObs(&metrics_);
    model_.bindMetrics(&metrics_);
    exportKernelTiers(metrics_);
    stage_hists_ = obs::StageTimeHistograms(&metrics_);
    artifacts_.bindMetrics(&metrics_);

    // A resumed run restores db/cache/model from the checkpoint instead:
    // warm-starting on top would double-apply the stored records.
    if (artifacts_.enabled() && !resumed) {
        obs::ScopedSpan io_span(tracer_, obs::TraceTrack::Io, &clock_,
                                "warm_start", "io");
        const WarmStartStats warm = artifacts_.warmStart(
            workload, opts.warm_start_records ? &db_ : nullptr,
            opts.measure_cache && opts.reuse_measure_cache ? env_.cacheMut()
                                                           : nullptr,
            opts.reuse_model_checkpoint ? &model_ : nullptr, model_key_);
        io_span.argU64("records", warm.records_replayed);
        io_span.argU64("cache_entries", warm.cache_entries);
        if (warm.records_replayed > 0) {
            scheduler_.warmStart(db_);
        }
    }

    // Resume before the async trainer exists: the back clone constructed
    // below must inherit the restored weights and training-RNG lineage.
    if (resumed) {
        start_round_ = applyCheckpoint(
            *ckpt, workload,
            {.clock = &clock_, .rng = &rng_, .measurer = &measurer_,
             .scheduler = &scheduler_, .db = &db_,
             .cache = opts.measure_cache ? env_.cacheMut() : nullptr,
             .model = &model_, .moa = moa_,
             .metrics = &metrics_, .round_stats = &round_stats_,
             .curve = &result_.curve});
        PRUNER_INFO("resumed from '" << opts.resume_from << "' at round "
                                     << start_round_);
    }

    // Async online training: the update trains a back clone on the verify
    // pool between rounds and installs at the policy's install point.
    // MoA's Siamese update is inherently sequential and stays synchronous.
    if (opts.async_training && env_.pool() != nullptr && moa_ == nullptr) {
        async_trainer_ =
            std::make_unique<AsyncModelTrainer>(model_, *env_.pool());
        async_trainer_->bindObs(tracer_, &clock_, &metrics_);
    }
}

TuningRun::~TuningRun() = default;

void
TuningRun::drainTraining()
{
    if (async_trainer_ != nullptr) {
        async_trainer_->install();
    }
}

void
TuningRun::installModel(int round)
{
    drainTraining();
    if (recorder_ != nullptr) {
        recorder_->onModelState(round, paramsHash(model_.getParams()));
    }
}

std::vector<ScoredSchedule>
TuningRun::evolutionDraft(const RoundSlot& slot, const EvolutionConfig& evo,
                          size_t* evals_out)
{
    size_t evals = 0;
    const ScoreFn score = [this,
                           task = slot.task](std::span<const Schedule> cands) {
        return model_.predict(*task, cands);
    };
    const EvolutionarySearch search(*slot.task, device_);
    std::vector<ScoredSchedule> ranked =
        search.run(evo, score, slot.seeds, rng_, &evals);
    clock_.charge(CostCategory::Exploration,
                  static_cast<double>(evals) * model_.evalCostPerCandidate());
    if (evals_out != nullptr) {
        *evals_out = evals;
    }
    return ranked;
}

void
TuningRun::select(RoundSlot& slot, const std::vector<ScoredSchedule>& ranked)
{
    slot.to_measure = selectForMeasurement(
        ranked, *slot.task, db_, slot.sampler,
        static_cast<size_t>(opts_.measures_per_round), opts_.eps_greedy,
        rng_);
    round_stats_.addMeasured(slot.to_measure.size());
}

void
TuningRun::trainModel(int epochs)
{
    // The "train" span brackets the Training charge point, which sync and
    // async modes share — its deterministic timestamps are identical
    // either way (the async overlap window itself is the
    // Execution-channel "async_update" span).
    obs::ScopedSpan train_span(tracer_, obs::TraceTrack::Main, &clock_,
                               "train", "train");
    std::vector<MeasuredRecord> window = db_.recentWindow(768);
    if (moa_ != nullptr) {
        moa_->roundUpdate(window, epochs);
    } else if (async_trainer_ != nullptr) {
        async_trainer_->beginUpdate(std::move(window), epochs);
    } else {
        model_.train(window, epochs);
    }
    // Charged where synchronous training would pay it, so async mode
    // never changes the simulated clock.
    clock_.charge(CostCategory::Training, model_.trainCostPerRound());
}

TuneResult
TuningRun::execute()
{
    for (int round = start_round_; round < opts_.rounds; ++round) {
        obs::ScopedSpan round_span(tracer_, obs::TraceTrack::Main, &clock_,
                                   "round", "sched");
        round_span.argU64("round", static_cast<uint64_t>(round));
        const auto picked = scheduler_.nextTasks(
            static_cast<size_t>(std::max(opts_.tasks_per_round, 1)), db_,
            rng_);
        round_span.argU64("tasks", picked.size());
        round_stats_.beginRound(round, picked);
        if (picked.size() > 1) {
            // The serial loop never charges task_switch_overhead (its
            // calibrated per-round constants absorb it, and K=1 stays
            // byte-identical to it). A sharded round pays one explicit
            // switch charge for hopping across K tasks — flat per round
            // regardless of K, and far below the compile slots the
            // round-wide overlap saves.
            clock_.charge(CostCategory::Other,
                          opts_.constants.task_switch_overhead);
        }
        if (recorder_ != nullptr) {
            recorder_->onRound(round, picked);
        }
        beginRound(round);

        // --- Draft, then verify -----------------------------------------
        // All of the round's tasks draft back to back on the main thread
        // (fitness fan-out inside the draft uses the shared pool).
        std::vector<RoundSlot> slots;
        slots.reserve(picked.size());
        const double draft_begin_s = clock_.total(CostCategory::Exploration);
        for (const size_t idx : picked) {
            const SubgraphTask& task = workload_.tasks[idx].task;
            slots.push_back({idx, &task, ScheduleSampler(task, device_), {},
                             {}, {}});
            RoundSlot& slot = slots.back();
            if (const Schedule* best = db_.bestSchedule(task)) {
                slot.seeds.push_back(*best);
            }
            obs::ScopedSpan draft_span(tracer_, obs::TraceTrack::Main,
                                       &clock_, "draft", "explore");
            draft_span.argU64("task", idx);
            const size_t drafted = draft(slot, draft_span);
            draft_span.close();
            round_stats_.addDrafted(drafted);
        }
        stage_hists_.observeDraft(clock_.total(CostCategory::Exploration) -
                                  draft_begin_s);
        verify(round, slots);

        measure(slots);

        const double train_begin_s = clock_.total(CostCategory::Training);
        if (opts_.online_training && db_.size() >= 16) {
            train(round);
        }
        // Observed only for rounds that actually trained, so the train
        // histogram's count is the number of training rounds.
        const double train_s =
            clock_.total(CostCategory::Training) - train_begin_s;
        if (train_s > 0.0) {
            stage_hists_.observeTrain(train_s);
        }

        const double e2e = workloadBest(workload_, db_);
        if (std::isfinite(e2e)) {
            result_.curve.push_back({clock_.now(), e2e});
            if (tracer_ != nullptr) {
                const auto h = tracer_->instant(obs::TraceTrack::Main,
                                                "curve_point", "curve",
                                                clock_.now());
                tracer_->argDouble(h, "latency_s", e2e);
            }
        }
        round_stats_.endRound(e2e);

        if (checkpointing_ &&
            ((round + 1) % opts_.checkpoint_interval == 0 ||
             round + 1 == opts_.rounds)) {
            writeCheckpoint(round + 1);
        }
    }
    return finish();
}

void
TuningRun::measure(const std::vector<RoundSlot>& slots)
{
    // One pooled pass over every task's batch: the pool never drains at
    // task boundaries and compilation overlaps round-wide. Adaptive
    // measurement keeps its serial on-device loop by design.
    std::vector<std::vector<double>> round_latencies;
    if (adaptive_) {
        round_latencies.reserve(slots.size());
        for (const RoundSlot& slot : slots) {
            round_latencies.push_back(measurer_.measureAdaptive(
                *slot.task, slot.to_measure, adaptive_time_scale_,
                adaptive_extra_noise_));
        }
    } else {
        std::vector<RoundBatch> batches;
        batches.reserve(slots.size());
        for (const RoundSlot& slot : slots) {
            batches.push_back({slot.task, &slot.to_measure});
        }
        round_latencies = measurer_.measureRound(batches);
    }
    for (size_t s = 0; s < slots.size(); ++s) {
        const RoundSlot& slot = slots[s];
        const auto& latencies = round_latencies[s];
        for (size_t i = 0; i < slot.to_measure.size(); ++i) {
            if (std::isfinite(latencies[i])) {
                db_.add({*slot.task, slot.to_measure[i], latencies[i]});
            }
        }
        artifacts_.onMeasured(*slot.task, slot.to_measure, latencies);
        scheduler_.observe(slot.task_index, db_.bestLatency(*slot.task));
    }
}

void
TuningRun::writeCheckpoint(int next_round)
{
    // Drain the in-flight update first so the snapshot holds this round's
    // weights and the back model's training RNG is quiescent.
    // Value-neutral: the next prediction would install before touching
    // the model anyway.
    drainTraining();
    const CheckpointSources src{
        .fingerprint = checkpoint_fp_, .next_round = next_round,
        .clock_lanes = measurer_.clockLanes(), .clock = &clock_,
        .rng = &rng_, .measurer = &measurer_, .scheduler = &scheduler_,
        .db = &db_, .cache = opts_.measure_cache ? &env_.cache() : nullptr,
        .model = &model_,
        .model_rng = async_trainer_ != nullptr
                         ? async_trainer_->backModel()->trainingRng()
                         : model_.trainingRng(),
        .siamese = moa_ != nullptr ? &moa_->siameseParams() : nullptr,
        .curve = &result_.curve, .round_stats = &round_stats_.rounds(),
        .metrics = &metrics_};
    saveCheckpoint(opts_.checkpoint_path, buildCheckpoint(src), &metrics_);
}

TuneResult
TuningRun::finish()
{
    // Drain the last in-flight update before the divergence probe and the
    // persisted model: both must see the final weights.
    drainTraining();
    fillResultTotals(result_, workload_, db_, clock_);
    fillResultCounters(result_, metrics_);
    result_.round_stats = round_stats_.take();

    // A learned model that diverged (non-finite scores) means the policy
    // lost its search signal — the paper observes this for TLP fine-tuned
    // on small data ("the tuning curve disappears").
    const Schedule probe_sch =
        ScheduleSampler(workload_.tasks[0].task, device_).sample(rng_);
    const auto probe = model_.predict(
        workload_.tasks[0].task, std::span<const Schedule>(&probe_sch, 1));
    if (!probe.empty() && !std::isfinite(probe[0])) {
        result_.failed = true;
        result_.failure_reason = "cost model diverged";
    }
    // Persist the model only after the divergence probe: a poisoned model
    // must not be stored where the next warm-started run would restore it.
    if (artifacts_.enabled()) {
        obs::ScopedSpan io_span(tracer_, obs::TraceTrack::Io, &clock_,
                                "db_finish", "io");
        artifacts_.finish(opts_.measure_cache ? &env_.cache() : nullptr,
                          opts_.reuse_model_checkpoint && !result_.failed
                              ? &model_
                              : nullptr,
                          model_key_);
    }
    if (recorder_ != nullptr) {
        recorder_->onEnd(result_, paramsHash(model_.getParams()));
    }
    tune_span_.close();
    exportPoolStats(metrics_, env_.pool());
    if (opts_.metrics != nullptr) {
        metrics_.mergeInto(*opts_.metrics);
    }
    return std::move(result_);
}

} // namespace pruner
