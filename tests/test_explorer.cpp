/** The draft stage (LSE for Pruner and MoA-Pruner, the evolutionary
 *  search for Ansor) must reproduce the frozen golden end-lines byte for
 *  byte across Pruner / MoA-Pruner / Ansor at 1 and 4 workers. */

#include <gtest/gtest.h>

#include "baselines/ansor.hpp"
#include "core/pruner_tuner.hpp"
#include "ir/workload_registry.hpp"
#include "replay/session_recorder.hpp"

namespace pruner {
namespace {

/** Frozen pre-refactor golden end-lines, captured from commit 2cb97d6
 *  (before the Explorer interface existed): resnet50 truncated to two
 *  tasks on a100, rounds=6, seed=42, lse.spec_size=64, default model
 *  seed, Ansor model seed 7. Any byte of drift in the draft stage moves
 *  the curve/per_task/model hashes. */
struct GoldenCase
{
    const char* name;
    int workers;
    int kind; // 0 = Pruner, 1 = MoA-Pruner, 2 = Ansor
    const char* end_line;
};

const GoldenCase kGolden[] = {
    {"pruner_w1", 1, 0,
     "end\tfinal=3f087dbd09e30ea5\ttotal=406614816f0068dc\texpl="
     "4010902de00d1b71\ttrain=4036800000000000\tmeas=4059800000000000\t"
     "compile=4048000000000000\ttrials=60\tfailed=0\thits=0\tsim=60\t"
     "injected=0\twarm=0\tcurve_n=5\tcurve=4e554c770fb12e11\tper_task="
     "5c1f2fd32d078bda\tmodel=352d6d3cb87996dd\tok=1"},
    {"pruner_w4", 4, 0,
     "end\tfinal=3f087dbd09e30ea5\ttotal=4061e14e3bcd35a9\texpl="
     "4010902de00d1b71\ttrain=4036800000000000\tmeas=4059800000000000\t"
     "compile=402cccccccccccce\ttrials=60\tfailed=0\thits=0\tsim=60\t"
     "injected=0\twarm=0\tcurve_n=5\tcurve=a7dcf883387db433\tper_task="
     "5c1f2fd32d078bda\tmodel=352d6d3cb87996dd\tok=1"},
    {"moa_w1", 1, 1,
     "end\tfinal=3f08ca4af5b36c4e\ttotal=406464816f0068dc\texpl="
     "4010902de00d1b71\ttrain=4022000000000000\tmeas=4059800000000000\t"
     "compile=4048000000000000\ttrials=60\tfailed=0\thits=0\tsim=60\t"
     "injected=0\twarm=0\tcurve_n=5\tcurve=6b15fffff66c0eb8\tper_task="
     "de68aca246d424e0\tmodel=116b996adb012396\tok=1"},
    {"moa_w4", 4, 1,
     "end\tfinal=3f08ca4af5b36c4e\ttotal=4060314e3bcd35a8\texpl="
     "4010902de00d1b71\ttrain=4022000000000000\tmeas=4059800000000000\t"
     "compile=402cccccccccccce\ttrials=60\tfailed=0\thits=0\tsim=60\t"
     "injected=0\twarm=0\tcurve_n=5\tcurve=a735e10bb0648041\tper_task="
     "de68aca246d424e0\tmodel=116b996adb012396\tok=1"},
    {"ansor_w1", 1, 2,
     "end\tfinal=3f0a3733b8bb7146\ttotal=406ba26e978d4fe0\texpl="
     "404f7ced916872b1\ttrain=4020333333333334\tmeas=4059800000000000\t"
     "compile=4048000000000000\ttrials=60\tfailed=0\thits=0\tsim=60\t"
     "injected=0\twarm=0\tcurve_n=5\tcurve=6784cd2fa65f2417\tper_task="
     "9e3aefbb0104f6de\tmodel=631f2e64a834c0d5\tok=1"},
    {"ansor_w4", 4, 2,
     "end\tfinal=3f0a3733b8bb7146\ttotal=40676f3b645a1cad\texpl="
     "404f7ced916872b1\ttrain=4020333333333334\tmeas=4059800000000000\t"
     "compile=402cccccccccccce\ttrials=60\tfailed=0\thits=0\tsim=60\t"
     "injected=0\twarm=0\tcurve_n=5\tcurve=dcd05b672d7aa569\tper_task="
     "9e3aefbb0104f6de\tmodel=631f2e64a834c0d5\tok=1"},
};

Workload
goldenWorkload()
{
    Workload w = workloads::resnet50();
    w.tasks.resize(2);
    return w;
}

TuneOptions
goldenOptions(int workers)
{
    TuneOptions opts;
    opts.rounds = 6;
    opts.seed = 42;
    opts.measure_workers = workers;
    return opts;
}

SessionLog
runGoldenCase(const GoldenCase& c)
{
    const auto dev = DeviceSpec::a100();
    const Workload w = goldenWorkload();
    TuneOptions opts = goldenOptions(c.workers);
    SessionRecorder recorder;
    opts.recorder = &recorder;
    if (c.kind == 2) {
        auto policy = baselines::makeAnsor(dev, 7);
        policy->tune(w, opts);
    } else {
        PrunerConfig config;
        config.lse.spec_size = 64;
        config.use_moa = c.kind == 1;
        PrunerPolicy policy(dev, config);
        policy.tune(w, opts);
    }
    EXPECT_TRUE(recorder.finished());
    return recorder.log();
}

TEST(Explorer, EvolutionByteIdenticalToPreRefactorGoldens)
{
    for (const GoldenCase& c : kGolden) {
        SCOPED_TRACE(c.name);
        const SessionLog log = runGoldenCase(c);
        const SessionEvent* end = log.find("end");
        ASSERT_NE(end, nullptr);
        EXPECT_EQ(end->line, c.end_line);
    }
}

} // namespace
} // namespace pruner
