#include "workloads.hpp"

#include <algorithm>

#include "baselines/ansor.hpp"
#include "baselines/tenset_mlp.hpp"
#include "core/pruner_tuner.hpp"
#include "cost/pacm_model.hpp"
#include "dataset/dataset.hpp"
#include "support/rng.hpp"

namespace perfbench {

using namespace pruner;

namespace {

/** Tasks kept per network (most significant first). */
constexpr size_t kTaskCap = 8;

/** Every workload, in the order BENCHMARK.json lists them. */
const std::vector<WorkloadSpec> kWorkloads = {
    {"pruner-r50-w1", PolicyKind::Pruner, "R50", 1, 1, false, 48},
    {"ansor-r50-w1", PolicyKind::Ansor, "R50", 1, 1, false, 48},
    {"pruner-bert-w3", PolicyKind::Pruner, "B-base", 3, 4, true, 48},
    {"moa-bert-w1", PolicyKind::MoAPruner, "B-base", 1, 1, false, 48},
};

/** The @p cap most compute-significant tasks (weight x FLOPs), in the
 *  order the repository's bench binaries pick them. */
Workload
capTasks(Workload w, size_t cap)
{
    if (w.tasks.size() <= cap) {
        return w;
    }
    std::sort(w.tasks.begin(), w.tasks.end(),
              [](const TaskInstance& a, const TaskInstance& b) {
                  return a.weight * a.task.totalFlops() >
                         b.weight * b.task.totalFlops();
              });
    w.tasks.resize(cap);
    return w;
}

} // namespace

const WorkloadSpec*
findWorkload(const std::string& name)
{
    for (const WorkloadSpec& spec : kWorkloads) {
        if (name == spec.name) {
            return &spec;
        }
    }
    return nullptr;
}

uint64_t
pretrainDatasetSeed(uint64_t seed)
{
    return hashCombine(seed, 0xD5);
}

PreparedWorkload::PreparedWorkload(const WorkloadSpec& spec, uint64_t seed)
    : spec_(&spec), seed_(seed), device_(DeviceSpec::a100()),
      workload_(capTasks(workloads::byName(spec.network), kTaskCap))
{
    if (spec.policy == PolicyKind::MoAPruner) {
        DatasetConfig config;
        config.schedules_per_task = kPretrainSchedulesPerTask;
        config.seed = pretrainDatasetSeed(seed);
        const auto data =
            generateDataset({workload_}, DeviceSpec::k80(), config);
        PaCMModel model(device_, seed ^ 0x9ACC);
        pretrained_ =
            baselines::pretrainCostModel(model, data, kPretrainEpochs);
    }
}

std::unique_ptr<SearchPolicy>
PreparedWorkload::makePolicy() const
{
    switch (spec_->policy) {
      case PolicyKind::Pruner:
        return std::make_unique<PrunerPolicy>(device_);
      case PolicyKind::MoAPruner: {
        PrunerConfig config;
        config.use_moa = true;
        config.pretrained = pretrained_;
        return std::make_unique<PrunerPolicy>(device_, std::move(config));
      }
      case PolicyKind::Ansor:
        return baselines::makeAnsor(device_, seed_);
    }
    return nullptr;
}

TuneOptions
PreparedWorkload::options() const
{
    TuneOptions opts;
    opts.rounds = spec_->rounds;
    opts.seed = seed_;
    opts.constants = CostConstants::forDevice(device_.name);
    opts.measure_workers = spec_->workers;
    opts.tasks_per_round = spec_->tasks_per_round;
    opts.async_training = spec_->async_training;
    return opts;
}

} // namespace perfbench
