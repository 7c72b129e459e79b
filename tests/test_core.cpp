/** Tests for src/core: LSE draft quality, MoA mechanics, and the Pruner /
 *  MoA-Pruner tuner including its ablation configurations. */

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <filesystem>
#include <limits>

#include "baselines/ansor.hpp"
#include "core/latent_explorer.hpp"
#include "core/moa.hpp"
#include "core/pruner_tuner.hpp"
#include "cost/mlp_cost_model.hpp"
#include "ir/workload_registry.hpp"
#include "sim/gpu_simulator.hpp"

namespace pruner {
namespace {

TEST(LatentExplorer, DraftsBeatRandomDraftsOfSameSize)
{
    // The Figure 14 property: the best true latency inside S_spec must be
    // clearly better than in an equally sized random draft.
    const auto task = makeConv2d("c", 1, 28, 28, 128, 128, 3, 1);
    const auto dev = DeviceSpec::t4();
    const GpuSimulator sim(dev);
    LatentScheduleExplorer lse(dev);
    LseConfig config;
    config.spec_size = 128;
    Rng rng(81);
    size_t evals = 0;
    const auto spec = lse.explore(task, config, {}, rng, &evals);
    ASSERT_LE(spec.size(), 128u);
    EXPECT_GT(evals, config.population);

    double best_spec = 1e30;
    for (const auto& s : spec) {
        const double t = sim.trueLatency(task, s.sch);
        if (std::isfinite(t)) {
            best_spec = std::min(best_spec, t);
        }
    }
    ScheduleSampler sampler(task, dev);
    double best_random = 1e30;
    for (int i = 0; i < 128; ++i) {
        const double t = sim.trueLatency(task, sampler.sample(rng));
        if (std::isfinite(t)) {
            best_random = std::min(best_random, t);
        }
    }
    EXPECT_LT(best_spec, best_random * 1.05);
}

TEST(LatentExplorer, SpecSortedByFitness)
{
    const auto task = makeGemm("t", 1, 512, 512, 512);
    const auto dev = DeviceSpec::a100();
    LatentScheduleExplorer lse(dev);
    Rng rng(83);
    const auto spec = lse.explore(task, {}, {}, rng, nullptr);
    for (size_t i = 1; i < spec.size(); ++i) {
        EXPECT_GE(spec[i - 1].score, spec[i].score);
    }
}

TEST(LatentExplorer, AblatedPenaltiesDegradeDraftQuality)
{
    // Table 10: removing the compute penalties must hurt the drafted set's
    // true quality on average.
    const auto task = makeGemm("t", 1, 1024, 1024, 1024);
    const auto dev = DeviceSpec::t4();
    const GpuSimulator sim(dev);
    auto draft_quality = [&](SymbolAnalyzerConfig sa_cfg,
                             uint64_t seed) {
        LatentScheduleExplorer lse(dev, sa_cfg);
        LseConfig config;
        config.spec_size = 64;
        Rng rng(seed);
        const auto spec = lse.explore(task, config, {}, rng, nullptr);
        double best = 1e30;
        for (const auto& s : spec) {
            const double t = sim.trueLatency(task, s.sch);
            if (std::isfinite(t)) {
                best = std::min(best, t);
            }
        }
        return best;
    };
    // Average over a few seeds to damp GA noise.
    double full = 0.0, no_c = 0.0;
    for (uint64_t seed = 1; seed <= 3; ++seed) {
        full += draft_quality({}, seed);
        no_c += draft_quality({.use_compute_penalties = false}, seed);
    }
    EXPECT_LT(full, no_c);
}

TEST(MoA, RoundUpdateMovesSiameseTowardTarget)
{
    const auto dev = DeviceSpec::a100();
    MlpCostModel model(dev, 91);
    MoAAdapter moa(&model, 0.9);
    const auto before = moa.siameseParams();

    // Build a small training set.
    const auto task = makeGemm("t", 1, 128, 128, 128);
    const GpuSimulator sim(dev);
    ScheduleSampler sampler(task, dev);
    Rng rng(93);
    std::vector<MeasuredRecord> records;
    for (int i = 0; i < 32; ++i) {
        const Schedule sch = sampler.sample(rng);
        const double lat = sim.measure(task, sch, rng);
        if (std::isfinite(lat)) {
            records.push_back({task, sch, lat});
        }
    }
    moa.roundUpdate(records, 2);
    const auto after = moa.siameseParams();
    ASSERT_EQ(before.size(), after.size());
    // Siamese moved, but only by (1-m) of the target's movement.
    double moved = 0.0;
    for (size_t i = 0; i < before.size(); ++i) {
        moved += std::abs(after[i] - before[i]);
    }
    EXPECT_GT(moved, 0.0);
    const auto target = model.getParams();
    for (size_t i = 0; i < before.size(); ++i) {
        const double expected =
            0.9 * before[i] + 0.1 * target[i];
        EXPECT_NEAR(after[i], expected, 1e-9);
    }
}

TEST(MoA, InitializeFromPretrainedChecksSize)
{
    const auto dev = DeviceSpec::a100();
    MlpCostModel model(dev, 95);
    MoAAdapter moa(&model);
    EXPECT_THROW(moa.initializeFromPretrained({1.0, 2.0}), InternalError);
}

class PrunerPolicyTest : public ::testing::Test
{
  protected:
    DeviceSpec dev_ = DeviceSpec::a100();
    Workload
    smallWorkload()
    {
        Workload w = workloads::resnet50();
        w.tasks.resize(3);
        return w;
    }
    TuneOptions
    quickOptions()
    {
        TuneOptions opts;
        opts.rounds = 9;
        opts.seed = 97;
        return opts;
    }
};

TEST_F(PrunerPolicyTest, TunesAndProducesMonotoneCurve)
{
    PrunerConfig config;
    config.lse.spec_size = 128;
    PrunerPolicy policy(dev_, config);
    const TuneResult r = policy.tune(smallWorkload(), quickOptions());
    EXPECT_EQ(r.policy, "Pruner");
    EXPECT_FALSE(r.failed);
    EXPECT_TRUE(std::isfinite(r.final_latency));
    for (size_t i = 1; i < r.curve.size(); ++i) {
        EXPECT_LE(r.curve[i].latency_s, r.curve[i - 1].latency_s);
    }
}

TEST_F(PrunerPolicyTest, ExplorationMuchCheaperThanAnsor)
{
    // The core claim: the draft stage removes most of the learned-model
    // inference cost from exploration.
    PrunerConfig config;
    config.lse.spec_size = 128;
    PrunerPolicy policy(dev_, config);
    auto ansor = baselines::makeAnsor(dev_, 5);
    const Workload w = smallWorkload();
    const TuneOptions opts = quickOptions();
    const TuneResult rp = policy.tune(w, opts);
    const TuneResult ra = ansor->tune(w, opts);
    EXPECT_LT(rp.exploration_s, 0.5 * ra.exploration_s);
}

TEST_F(PrunerPolicyTest, MoAPolicyNameAndLowerTrainingTime)
{
    PrunerConfig plain;
    plain.lse.spec_size = 128;
    PrunerConfig moa = plain;
    moa.use_moa = true;
    PrunerPolicy p1(dev_, plain), p2(dev_, moa);
    EXPECT_EQ(p2.name(), "MoA-Pruner");
    const Workload w = smallWorkload();
    const TuneOptions opts = quickOptions();
    const TuneResult r1 = p1.tune(w, opts);
    const TuneResult r2 = p2.tune(w, opts);
    // MoA trains every other round -> about half the training time.
    EXPECT_LT(r2.training_s, 0.75 * r1.training_s);
}

TEST_F(PrunerPolicyTest, WithoutLseFallsBackToFullModelScoring)
{
    PrunerConfig config;
    config.use_lse = false;
    config.lse.spec_size = 128;
    PrunerPolicy policy(dev_, config);
    PrunerConfig with;
    with.lse.spec_size = 128;
    PrunerPolicy with_lse(dev_, with);
    const Workload w = smallWorkload();
    const TuneOptions opts = quickOptions();
    const TuneResult r_no = policy.tune(w, opts);
    const TuneResult r_yes = with_lse.tune(w, opts);
    // Without LSE the learned model scores the whole population: far more
    // expensive exploration (Table 13's cost column).
    EXPECT_GT(r_no.exploration_s, 2.0 * r_yes.exploration_s);
}

TEST_F(PrunerPolicyTest, OfflineModeSkipsTraining)
{
    PrunerConfig config;
    config.lse.spec_size = 128;
    config.online_finetune = false;
    PrunerPolicy policy(dev_, config);
    const TuneResult r = policy.tune(smallWorkload(), quickOptions());
    EXPECT_DOUBLE_EQ(r.training_s, 0.0);
}

TEST_F(PrunerPolicyTest, FeatureAblationsRun)
{
    for (PaCMConfig pacm :
         {PaCMConfig{.use_statement_features = false},
          PaCMConfig{.use_dataflow_features = false}}) {
        PrunerConfig config;
        config.lse.spec_size = 64;
        config.pacm = pacm;
        PrunerPolicy policy(dev_, config);
        const TuneResult r = policy.tune(smallWorkload(), quickOptions());
        EXPECT_FALSE(r.failed);
        EXPECT_TRUE(std::isfinite(r.final_latency));
    }
}

TEST_F(PrunerPolicyTest, PretrainedWeightsAreLoaded)
{
    PrunerConfig config;
    config.lse.spec_size = 64;
    PrunerPolicy donor(dev_, config);
    config.pretrained = donor.model().getParams();
    PrunerPolicy recipient(dev_, config, /*model_seed=*/0xD1FF);
    EXPECT_EQ(recipient.model().getParams(), config.pretrained);
}

TEST_F(PrunerPolicyTest, DivergedModelFailsAndIsNotPersisted)
{
    // All-NaN weights make every PaCM score NaN, so the verify sort sees
    // candidates that all compare equal (still a valid ordering).
    PrunerConfig config;
    config.lse.spec_size = 64;
    PrunerPolicy donor(dev_, config);
    config.pretrained.assign(donor.model().getParams().size(),
                             std::numeric_limits<double>::quiet_NaN());
    PrunerPolicy policy(dev_, config);

    const std::filesystem::path dir =
        std::filesystem::temp_directory_path() /
        "pruner_test_core_diverged_db";
    std::filesystem::remove_all(dir);
    TuneOptions opts = quickOptions();
    opts.rounds = 1;
    opts.artifact_db_path = dir.string();
    opts.reuse_model_checkpoint = true;
    const TuneResult r = policy.tune(smallWorkload(), opts);
    EXPECT_TRUE(r.failed);
    EXPECT_EQ(r.failure_reason, "cost model diverged");

    // The diverged model must not be stored for the next warm start. A
    // NaN checkpoint would not even load back, so look for the file
    // itself (<root>/models/<key>.params).
    const std::filesystem::path models = dir / "models";
    EXPECT_TRUE(!std::filesystem::exists(models) ||
                std::filesystem::is_empty(models));
    std::filesystem::remove_all(dir);
}

} // namespace
} // namespace pruner
