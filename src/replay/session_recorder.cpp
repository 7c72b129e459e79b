#include "replay/session_recorder.hpp"

#include <algorithm>
#include <bit>
#include <sstream>

#include "support/logging.hpp"
#include "support/rng.hpp"

namespace pruner {

namespace {

/** Order-sensitive hash of the tuning curve (time and latency bits). */
uint64_t
curveHash(const std::vector<CurvePoint>& curve)
{
    uint64_t h = splitmix64(0xC07BE'5EED ^ curve.size());
    for (const auto& point : curve) {
        h = hashCombine(h, std::bit_cast<uint64_t>(point.time_s));
        h = hashCombine(h, std::bit_cast<uint64_t>(point.latency_s));
    }
    return h;
}

} // namespace

void
SessionRecorder::beginSession(const std::string& factory,
                              const std::string& policy_config,
                              const std::string& device_name,
                              const Workload& workload,
                              const TuneOptions& opts)
{
    PRUNER_CHECK_MSG(!started_,
                     "SessionRecorder records exactly one session");
    started_ = true;

    const bool has_db =
        opts.artifact_db != nullptr || !opts.artifact_db_path.empty();
    {
        std::ostringstream line;
        line << "session\tfactory=" << factory << "\tdevice=" << device_name
             << "\tworkload=" << workload.name << "\ttasks="
             << workload.tasks.size() << "\tdb=" << (has_db ? 1 : 0);
        log_.append(line.str());
    }
    {
        // The physical worker count is an execution detail (values and
        // the simulated clock are invariant to it), so it is NOT part of
        // the byte-identity contract; only the clock-lane count — which
        // the compile-overlap divisor uses — is recorded.
        const int lanes = opts.clock_lanes > 0 ? opts.clock_lanes
                                               : std::max(opts.measure_workers,
                                                          1);
        std::ostringstream line;
        line << "options\tseed=" << hexU64(opts.seed)
             << "\trounds=" << opts.rounds
             << "\tmpr=" << opts.measures_per_round
             << "\tonline=" << (opts.online_training ? 1 : 0)
             << "\tepochs=" << opts.train_epochs
             << "\teps=" << doubleBits(opts.eps_greedy)
             << "\tcache=" << (opts.measure_cache ? 1 : 0)
             << "\tpb=" << opts.predict_batch << "\ttpr="
             << opts.tasks_per_round
             << "\tasync=" << (opts.async_training ? 1 : 0)
             << "\tlanes=" << lanes;
        log_.append(line.str());
    }
    {
        const CostConstants& c = opts.constants;
        std::ostringstream line;
        line << "constants\tmlp_eval=" << doubleBits(c.mlp_eval_per_candidate)
             << "\tpacm_eval=" << doubleBits(c.pacm_eval_per_candidate)
             << "\ttlp_eval=" << doubleBits(c.tlp_eval_per_candidate)
             << "\tsa_eval=" << doubleBits(c.sa_eval_per_candidate)
             << "\tmlp_train=" << doubleBits(c.mlp_train_per_round)
             << "\tpacm_train=" << doubleBits(c.pacm_train_per_round)
             << "\ttlp_train=" << doubleBits(c.tlp_train_per_round)
             << "\tmeasure=" << doubleBits(c.measure_per_trial)
             << "\tcompile=" << doubleBits(c.compile_per_trial)
             << "\tswitch=" << doubleBits(c.task_switch_overhead);
        log_.append(line.str());
    }
    {
        const FaultPlan& f = opts.fault_plan;
        std::ostringstream line;
        line << "faults\tseed=" << hexU64(f.seed)
             << "\tlaunch=" << doubleBits(f.launch_failure_rate)
             << "\ttimeout=" << doubleBits(f.timeout_rate)
             << "\tflaky=" << doubleBits(f.flaky_rate)
             << "\tsigma=" << doubleBits(f.flaky_sigma)
             << "\textra=" << doubleBits(f.timeout_extra_s);
        log_.append(line.str());
    }
    {
        // The constant explorer fields keep the v1 format: logs of the
        // retired draft explorers name another one, which replay refuses.
        std::ostringstream line;
        line << "policycfg";
        if (!policy_config.empty()) {
            line << '\t' << policy_config;
        }
        line << "\texplorer=evolution\texplorercfg=-";
        log_.append(line.str());
    }
}

void
SessionRecorder::onRound(int round, const std::vector<size_t>& task_indices)
{
    if (!started_ || finished_) {
        return;
    }
    std::ostringstream line;
    line << "round\t" << round << '\t';
    for (size_t i = 0; i < task_indices.size(); ++i) {
        if (i > 0) {
            line << ',';
        }
        line << task_indices[i];
    }
    log_.append(line.str());
}

void
SessionRecorder::onModelState(int round, uint64_t params_hash)
{
    if (!started_ || finished_) {
        return;
    }
    std::ostringstream line;
    line << "model\t" << round << '\t' << hexU64(params_hash);
    log_.append(line.str());
}

void
SessionRecorder::onMeasurement(uint64_t task_hash, uint64_t sched_hash,
                               double latency, FaultKind fault)
{
    if (!started_ || finished_) {
        return;
    }
    std::ostringstream line;
    line << "measure\t" << hexU64(task_hash) << '\t' << hexU64(sched_hash)
         << '\t' << doubleBits(latency) << '\t'
         << static_cast<int>(fault);
    log_.append(line.str());
}

void
SessionRecorder::onEnd(const TuneResult& result, uint64_t final_params_hash)
{
    if (!started_ || finished_) {
        return;
    }
    finished_ = true;

    uint64_t per_task = splitmix64(0x6E57'7A5C ^ result.best_per_task.size());
    for (const double best : result.best_per_task) {
        per_task = hashCombine(per_task, std::bit_cast<uint64_t>(best));
    }
    std::ostringstream line;
    line << "end\tfinal=" << doubleBits(result.final_latency)
         << "\ttotal=" << doubleBits(result.total_time_s)
         << "\texpl=" << doubleBits(result.exploration_s)
         << "\ttrain=" << doubleBits(result.training_s)
         << "\tmeas=" << doubleBits(result.measurement_s)
         << "\tcompile=" << doubleBits(result.compile_s)
         << "\ttrials=" << result.trials << "\tfailed=" << result.failed_trials
         << "\thits=" << result.cache_hits
         << "\tsim=" << result.simulated_trials
         << "\tinjected=" << result.injected_faults
         << "\twarm=" << result.warm_records
         << "\tcurve_n=" << result.curve.size()
         << "\tcurve=" << hexU64(curveHash(result.curve))
         << "\tper_task=" << hexU64(per_task)
         << "\tmodel=" << hexU64(final_params_hash)
         << "\tok=" << (result.failed ? 0 : 1);
    log_.append(line.str());
}

} // namespace pruner
