#pragma once

/**
 * @file workloads.hpp
 * The benchmark's named tuning workloads: a fixed policy, network, worker
 * count and round budget each, all on the A100 spec with the 8 most
 * significant tasks (weight x FLOPs) of the network. The one seed the
 * benchmark is given drives the tuning run, the Ansor model init, the MoA
 * pretraining data and model, and the probe inputs.
 */

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "device/device_spec.hpp"
#include "ir/workload_registry.hpp"
#include "search/search_policy.hpp"

namespace perfbench {

enum class PolicyKind { Pruner, MoAPruner, Ansor };

/** Static description of one benchmark workload. */
struct WorkloadSpec
{
    const char* name;
    PolicyKind policy;
    const char* network; ///< workload registry name
    int workers;         ///< TuneOptions::measure_workers
    int tasks_per_round;
    bool async_training;
    int rounds;
};

/** Spec by name; nullptr when unknown. */
const WorkloadSpec* findWorkload(const std::string& name);

/**
 * A workload made ready to tune: the capped task set, the device, and for
 * MoA-Pruner the Siamese init pretrained on the simulated K80 dataset.
 * Building it is the set-up the benchmark times.
 */
class PreparedWorkload
{
  public:
    PreparedWorkload(const WorkloadSpec& spec, uint64_t seed);

    const pruner::Workload& workload() const { return workload_; }
    const pruner::DeviceSpec& device() const { return device_; }
    uint64_t seed() const { return seed_; }

    /** A fresh policy: tune() mutates its cost model, so every timed
     *  call gets its own. */
    std::unique_ptr<pruner::SearchPolicy> makePolicy() const;

    /** Options of the timed runs (no tracer, no registry). */
    pruner::TuneOptions options() const;

  private:
    const WorkloadSpec* spec_;
    uint64_t seed_;
    pruner::DeviceSpec device_;
    pruner::Workload workload_;
    std::vector<double> pretrained_; ///< MoA Siamese init (else empty)
};

/** Pretraining recipe of the MoA workload (also used by the dataset
 *  probe, so it times the same generation the set-up pays). */
constexpr size_t kPretrainSchedulesPerTask = 48;
constexpr int kPretrainEpochs = 6;
uint64_t pretrainDatasetSeed(uint64_t seed);

} // namespace perfbench
