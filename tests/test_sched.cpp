/** Tests for src/sched: tiling helpers, schedules, sampler, mutator. */

#include <gtest/gtest.h>

#include <set>
#include <tuple>
#include <type_traits>

#include "device/device_spec.hpp"
#include "ir/task.hpp"
#include "sched/mutator.hpp"
#include "sched/sampler.hpp"
#include "sched/schedule.hpp"
#include "sched/tiling.hpp"
#include "support/rng.hpp"

namespace pruner {
namespace {

// The sampler and mutator keep pointers to their task and device, so
// binding a temporary must not compile.
static_assert(std::is_constructible_v<ScheduleSampler, const SubgraphTask&,
                                      const DeviceSpec&>);
static_assert(!std::is_constructible_v<ScheduleSampler, const SubgraphTask&,
                                       DeviceSpec&&>);
static_assert(!std::is_constructible_v<ScheduleSampler, SubgraphTask&&,
                                       const DeviceSpec&>);
static_assert(!std::is_constructible_v<ScheduleMutator, const SubgraphTask&,
                                       DeviceSpec&&>);
static_assert(!std::is_constructible_v<ScheduleMutator, SubgraphTask&&,
                                       DeviceSpec&&>);

TEST(Tiling, CeilDivAndRoundUp)
{
    EXPECT_EQ(ceilDiv(10, 3), 4);
    EXPECT_EQ(ceilDiv(9, 3), 3);
    EXPECT_EQ(ceilDiv(0, 3), 0);
    EXPECT_EQ(roundUp(10, 16), 16);
    EXPECT_EQ(roundUp(16, 16), 16);
}

TEST(Tiling, DivisorsOfComposite)
{
    const auto d = divisorsOf(12);
    EXPECT_EQ(d, (std::vector<int64_t>{1, 2, 3, 4, 6, 12}));
}

TEST(Tiling, DivisorsOfPrime)
{
    const auto d = divisorsOf(197);
    EXPECT_EQ(d, (std::vector<int64_t>{1, 197}));
}

TEST(Tiling, PowersOfTwo)
{
    EXPECT_EQ(powersOfTwoUpTo(10), (std::vector<int64_t>{1, 2, 4, 8}));
    EXPECT_EQ(powersOfTwoUpTo(1), (std::vector<int64_t>{1}));
}

TEST(Tiling, SampleTileFactorWithinBounds)
{
    Rng rng(3);
    for (int i = 0; i < 500; ++i) {
        const int64_t f = sampleTileFactor(rng, 224, 64);
        EXPECT_GE(f, 1);
        EXPECT_LE(f, 64);
    }
}

class SchedFixture : public ::testing::Test
{
  protected:
    SubgraphTask task_ = makeGemm("t", 1, 128, 128, 128);
    DeviceSpec dev_ = DeviceSpec::a100();
    ScheduleSampler sampler_{task_, dev_};
    Rng rng_{42};
};

TEST_F(SchedFixture, SampledSchedulesAreValid)
{
    for (int i = 0; i < 200; ++i) {
        const Schedule sch = sampler_.sample(rng_);
        EXPECT_TRUE(sch.valid(task_, dev_.max_threads_per_block))
            << sch.toString();
        EXPECT_GE(sch.paddingWaste(task_), 1.0);
    }
}

TEST_F(SchedFixture, SampleManyDeduplicates)
{
    const auto many = sampler_.sampleMany(rng_, 64);
    EXPECT_EQ(many.size(), 64u);
    std::set<uint64_t> hashes;
    for (const auto& s : many) {
        hashes.insert(s.hash());
    }
    EXPECT_GT(hashes.size(), 48u); // mostly distinct in a large space
}

TEST_F(SchedFixture, RepairOuterCoversExtent)
{
    Schedule sch = sampler_.sample(rng_);
    sch.spatialMut()[0].f[kInnerA] = 7; // force odd inner factors
    sch.repairOuter(task_);
    EXPECT_GE(sch.spatial()[0].product(), task_.spatial[0].extent);
}

TEST_F(SchedFixture, DerivedQuantitiesConsistent)
{
    Schedule sch = sampler_.sample(rng_);
    int64_t threads = 1, blocks = 1;
    for (const auto& s : sch.spatial()) {
        threads *= s.f[kThread];
        blocks *= s.f[kBlock];
    }
    EXPECT_EQ(sch.threadsPerBlock(), threads);
    EXPECT_EQ(sch.numBlocks(), blocks);
}

TEST_F(SchedFixture, SerializeRoundTrips)
{
    for (int i = 0; i < 50; ++i) {
        const Schedule sch = sampler_.sample(rng_);
        const Schedule back = Schedule::deserialize(sch.serialize());
        EXPECT_EQ(sch, back);
        EXPECT_EQ(sch.hash(), back.hash());
    }
}

TEST_F(SchedFixture, DeserializeRejectsGarbage)
{
    EXPECT_THROW(Schedule::deserialize("not-a-schedule"), std::exception);
}

TEST_F(SchedFixture, PrimitiveSequenceNonEmptyAndStable)
{
    const Schedule sch = sampler_.sample(rng_);
    const auto seq = sch.primitiveSequence(task_);
    EXPECT_GT(seq.size(), 8u);
    const auto seq2 = sch.primitiveSequence(task_);
    EXPECT_EQ(seq.size(), seq2.size());
}

TEST_F(SchedFixture, MutationPreservesValidity)
{
    ScheduleMutator mut(task_, dev_);
    Schedule sch = sampler_.sample(rng_);
    for (int i = 0; i < 300; ++i) {
        sch = mut.mutate(sch, rng_);
        ASSERT_TRUE(sch.valid(task_, dev_.max_threads_per_block))
            << sch.toString();
    }
}

TEST_F(SchedFixture, MutationChangesSchedule)
{
    ScheduleMutator mut(task_, dev_);
    const Schedule sch = sampler_.sample(rng_);
    int changed = 0;
    for (int i = 0; i < 50; ++i) {
        if (!(mut.mutate(sch, rng_) == sch)) {
            ++changed;
        }
    }
    EXPECT_GT(changed, 25);
}

TEST_F(SchedFixture, CrossoverProducesValidChild)
{
    ScheduleMutator mut(task_, dev_);
    const Schedule a = sampler_.sample(rng_);
    const Schedule b = sampler_.sample(rng_);
    for (int i = 0; i < 100; ++i) {
        const Schedule child = mut.crossover(a, b, rng_);
        ASSERT_TRUE(child.valid(task_, dev_.max_threads_per_block));
    }
}

TEST(SchedEdge, PrimeExtentTasksStillSchedulable)
{
    // DeTR-style irregular extents (197 tokens) must tile via padding.
    const auto task = makeGemm("odd", 1, 197, 197, 64);
    const auto dev = DeviceSpec::a100();
    ScheduleSampler sampler(task, dev);
    Rng rng(1);
    for (int i = 0; i < 100; ++i) {
        const Schedule sch = sampler.sample(rng);
        EXPECT_TRUE(sch.valid(task, dev.max_threads_per_block));
        EXPECT_GE(sch.spatial()[0].product(), 197);
    }
}

TEST(SchedEdge, ElementwiseTaskHasNoReductionSplits)
{
    const auto task = makeElementwise("e", 1 << 18);
    const auto dev = DeviceSpec::t4();
    ScheduleSampler sampler(task, dev);
    Rng rng(2);
    const Schedule sch = sampler.sample(rng);
    EXPECT_TRUE(sch.reduction().empty());
    EXPECT_FALSE(sch.cacheShared());
    EXPECT_TRUE(sch.valid(task, dev.max_threads_per_block));
}

TEST(SchedEdge, TinyTaskRespectsThreadLimit)
{
    const auto task = makeGemm("tiny", 1, 4, 4, 8);
    const auto dev = DeviceSpec::k80();
    ScheduleSampler sampler(task, dev);
    Rng rng(3);
    for (int i = 0; i < 100; ++i) {
        const Schedule sch = sampler.sample(rng);
        EXPECT_TRUE(sch.valid(task, dev.max_threads_per_block));
    }
}

class SamplerPropertyTest
    : public ::testing::TestWithParam<std::tuple<int64_t, int64_t, int64_t>>
{
};

TEST_P(SamplerPropertyTest, AllSampledSchedulesValidAcrossShapes)
{
    const auto [m, n, k] = GetParam();
    const auto task = makeGemm("p", 1, m, n, k);
    const auto dev = DeviceSpec::titanV();
    ScheduleSampler sampler(task, dev);
    Rng rng(7);
    for (int i = 0; i < 60; ++i) {
        const Schedule sch = sampler.sample(rng);
        ASSERT_TRUE(sch.valid(task, dev.max_threads_per_block))
            << "shape (" << m << "," << n << "," << k << "): "
            << sch.toString();
    }
}

INSTANTIATE_TEST_SUITE_P(
    ShapeSweep, SamplerPropertyTest,
    ::testing::Values(std::make_tuple(1, 1000, 2048),
                      std::make_tuple(12544, 64, 147),
                      std::make_tuple(197, 64, 197),
                      std::make_tuple(65536, 16, 9),
                      std::make_tuple(7, 2048, 512),
                      std::make_tuple(128, 128, 16384)));

} // namespace
} // namespace pruner
