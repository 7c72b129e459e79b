#include "probes.hpp"

#include <algorithm>
#include <chrono>
#include <cmath>
#include <functional>

#include "core/latent_explorer.hpp"
#include "core/moa.hpp"
#include "core/symbol_analyzer.hpp"
#include "cost/mlp_cost_model.hpp"
#include "cost/pacm_model.hpp"
#include "dataset/dataset.hpp"
#include "feature/dataflow_features.hpp"
#include "feature/statement_features.hpp"
#include "nn/matrix.hpp"
#include "sched/mutator.hpp"
#include "sched/sampler.hpp"
#include "search/evolution.hpp"
#include "search/measurer.hpp"
#include "sim/gpu_simulator.hpp"
#include "support/rng.hpp"
#include "support/sim_clock.hpp"

namespace perfbench {

using namespace pruner;

namespace {

/** Online-training window and verify batch of the tuning loops. */
constexpr size_t kTrainWindow = 768;
constexpr size_t kPredictBatch = 64;
/** PaCM hidden width and the attention block length (dataflow steps). */
constexpr size_t kHidden = 64;

double
nowSeconds()
{
    return std::chrono::duration<double>(
               std::chrono::steady_clock::now().time_since_epoch())
        .count();
}

/**
 * Seconds per call of @p fn: the median of five samples, each running
 * enough calls to last about a fifth of @p budget_s (one warm-up call
 * sizes the samples).
 */
double
secondsPerCall(const std::function<void()>& fn, double budget_s)
{
    constexpr int kSamples = 5;
    double start = nowSeconds();
    fn();
    const double first = std::max(nowSeconds() - start, 1e-9);
    const int calls = static_cast<int>(std::clamp(
        budget_s / kSamples / first, 1.0, 1e6));
    std::vector<double> per_call;
    for (int s = 0; s < kSamples; ++s) {
        start = nowSeconds();
        for (int c = 0; c < calls; ++c) {
            fn();
        }
        per_call.push_back((nowSeconds() - start) / calls);
    }
    std::sort(per_call.begin(), per_call.end());
    return per_call[kSamples / 2];
}

/** Measured records spread round-robin over the workload's tasks: the
 *  shape of a tuning run's online-training window. */
std::vector<MeasuredRecord>
trainingWindow(const PreparedWorkload& prepared, Rng& rng)
{
    const GpuSimulator sim(prepared.device());
    const auto& tasks = prepared.workload().tasks;
    std::vector<MeasuredRecord> records;
    for (size_t t = 0; records.size() < kTrainWindow; ++t) {
        const SubgraphTask& task = tasks[t % tasks.size()].task;
        const ScheduleSampler sampler(task, prepared.device());
        const Schedule sch = sampler.sample(rng);
        const double latency = sim.measure(task, sch, rng);
        if (std::isfinite(latency)) {
            records.push_back({task, sch, latency});
        }
    }
    return records;
}

} // namespace

std::vector<ProbeValue>
runProbes(const PreparedWorkload& prepared, double budget_s)
{
    const DeviceSpec& device = prepared.device();
    const SubgraphTask& task = prepared.workload().tasks.front().task;
    Rng rng(hashCombine(prepared.seed(), 0x9B0BE));
    const ScheduleSampler sampler(task, device);
    const ScheduleMutator mutator(task, device);
    const std::vector<Schedule> batch = sampler.sampleMany(rng, kPredictBatch);
    const std::vector<MeasuredRecord> window = trainingWindow(prepared, rng);

    constexpr int kProbes = 18; // timed probes below
    const double each_s = budget_s / kProbes;
    std::vector<ProbeValue> out;
    auto add = [&](const char* name, double value, const char* unit) {
        out.push_back({name, value, unit});
    };
    size_t next = 0; // rotates through the candidate batch
    auto nextCandidate = [&]() -> const Schedule& {
        return batch[next++ % batch.size()];
    };

    // --- cost: online training and verify-batch inference.
    PaCMModel pacm(device, prepared.seed());
    MlpCostModel mlp(device, prepared.seed());
    add("cost.pacm_train_ms",
        1e3 * secondsPerCall([&]() { pacm.train(window, 1); }, each_s),
        "ms");
    add("cost.mlp_train_ms",
        1e3 * secondsPerCall([&]() { mlp.train(window, 1); }, each_s),
        "ms");
    add("cost.pacm_predict_us",
        1e6 / kPredictBatch *
            secondsPerCall([&]() { pacm.predict(task, batch); }, each_s),
        "us");
    add("cost.mlp_predict_us",
        1e6 / kPredictBatch *
            secondsPerCall([&]() { mlp.predict(task, batch); }, each_s),
        "us");

    // --- core: the draft model, one LSE draft, one MoA update.
    const SymbolAnalyzer analyzer(device);
    add("core.sa_eval_ns",
        1e9 * secondsPerCall(
                  [&]() { analyzer.score(task, nextCandidate()); }, each_s),
        "ns");
    const LatentScheduleExplorer lse(device);
    add("core.lse_explore_ms",
        1e3 * secondsPerCall(
                  [&]() {
                      Rng draft_rng(prepared.seed());
                      size_t evals = 0;
                      lse.explore(task, LseConfig{}, {}, draft_rng, &evals);
                  },
                  each_s),
        "ms");
    PaCMModel moa_target(device, prepared.seed());
    MoAAdapter moa(&moa_target);
    moa.initializeFromPretrained(moa_target.getParams());
    add("core.moa_update_ms",
        1e3 * secondsPerCall([&]() { moa.roundUpdate(window, 2); }, each_s),
        "ms");

    // --- search: one Ansor-sized evolution scored by the MLP, one
    // uncached 10-candidate measurement round.
    const EvolutionarySearch evolution(task, device);
    EvolutionConfig evo_config;
    evo_config.population = 512;
    evo_config.iterations = 4;
    const ScoreFn mlp_score = [&](std::span<const Schedule> cands) {
        return mlp.predict(task, cands);
    };
    add("search.evolution_ms",
        1e3 * secondsPerCall(
                  [&]() {
                      Rng evo_rng(prepared.seed());
                      size_t evals = 0;
                      evolution.run(evo_config, mlp_score, {}, evo_rng,
                                    &evals);
                  },
                  each_s),
        "ms");
    SimClock clock;
    Measurer measurer(device, &clock, prepared.seed());
    const std::vector<Schedule> to_measure(batch.begin(), batch.begin() + 10);
    add("search.measure_round_ms",
        1e3 * secondsPerCall(
                  [&]() { measurer.measureRound({{&task, &to_measure}}); },
                  each_s),
        "ms");

    // --- nn: the three GEMM kernels at PaCM layer shapes. Rows are the
    // statement pack of one verify batch; the NT shape is the attention
    // score block (kDataflowSteps x hidden) of every candidate in it.
    Matrix stmt_pack;
    SegmentTable segs;
    extractStatementFeaturesBatch(task, batch, device, stmt_pack, segs);
    const size_t rows = stmt_pack.rows();
    const Matrix x = Matrix::randn(rows, kHidden, rng, 1.0);
    const Matrix dy = Matrix::randn(rows, kHidden, rng, 1.0);
    const Matrix w = Matrix::randn(kHidden, kHidden, rng, 0.1);
    const Matrix bias = Matrix::randn(1, kHidden, rng, 0.1);
    Matrix y(rows, kHidden);
    Matrix dw(kHidden, kHidden);
    const size_t t = kDataflowSteps;
    const size_t blocks = kPredictBatch;
    const Matrix q = Matrix::randn(blocks * t, kHidden, rng, 1.0);
    const Matrix k = Matrix::randn(blocks * t, kHidden, rng, 1.0);
    Matrix scores(blocks * t, t);
    const double hh = static_cast<double>(kHidden * kHidden);
    auto kernel = [&](const char* name, double flop, double bytes,
                      const std::function<void()>& fn) {
        const double s = secondsPerCall(fn, each_s);
        const std::string base(name);
        out.push_back({base + "_gflops", flop / s * 1e-9, "GFLOP/s"});
        out.push_back({base + "_flop", flop, "count"});
        out.push_back({base + "_bytes", bytes, "B"});
    };
    kernel("nn.matmul", 2.0 * rows * hh,
           8.0 * (2.0 * rows * kHidden + hh + kHidden), [&]() {
               nnkernel::matmul(x.row(0), rows, kHidden, kHidden, w.row(0),
                                kHidden, kHidden, y.row(0), kHidden,
                                bias.row(0), true);
           });
    kernel("nn.matmul_nt", 2.0 * blocks * t * t * kHidden,
           8.0 * blocks * (2.0 * t * kHidden + t * t), [&]() {
               for (size_t b = 0; b < blocks; ++b) {
                   nnkernel::matmulNT(q.row(b * t), t, kHidden, kHidden,
                                      k.row(b * t), t, kHidden,
                                      scores.row(b * t), t);
               }
           });
    kernel("nn.matmul_tn_segblocked", 2.0 * rows * hh,
           8.0 * (2.0 * rows * kHidden + 2.0 * hh), [&]() {
               nnkernel::matmulTNSegBlocked(x.row(0), kHidden, dy.row(0),
                                            kHidden, segs.rowsData(),
                                            segs.count(), kHidden, kHidden,
                                            dw.row(0), kHidden);
           });
    add("nn.kernel_tier_demotions",
        static_cast<double>(nnkernel::kernelTierDemotions()), "count");

    // --- feature, sched, sim: per-candidate calls.
    add("feature.statement_us",
        1e6 * secondsPerCall(
                  [&]() {
                      extractStatementFeatures(task, nextCandidate(), device);
                  },
                  each_s),
        "us");
    add("feature.dataflow_us",
        1e6 * secondsPerCall(
                  [&]() {
                      extractDataflowFeatures(task, nextCandidate(), device);
                  },
                  each_s),
        "us");
    add("sched.sample_us",
        1e6 * secondsPerCall([&]() { sampler.sample(rng); }, each_s), "us");
    add("sched.mutate_us",
        1e6 * secondsPerCall(
                  [&]() { mutator.mutate(nextCandidate(), rng); }, each_s),
        "us");
    const GpuSimulator sim(device);
    add("sim.measure_us",
        1e6 * secondsPerCall(
                  [&]() { sim.measure(task, nextCandidate(), rng); }, each_s),
        "us");

    // --- dataset: the MoA pretraining set the MoA set-up generates.
    DatasetConfig data_config;
    data_config.schedules_per_task = kPretrainSchedulesPerTask;
    data_config.seed = pretrainDatasetSeed(prepared.seed());
    add("dataset.generate_s",
        secondsPerCall(
            [&]() {
                generateDataset({prepared.workload()}, DeviceSpec::k80(),
                                data_config);
            },
            each_s),
        "s");
    return out;
}

} // namespace perfbench
