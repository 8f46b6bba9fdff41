/**
 * @file
 * Fleet-serving benchmark (DESIGN.md §15): device-steps/sec (arrivals
 * processed across the whole fleet per wall second), energy, and QoS
 * as fleet size grows, at 1x and 4x contention. The --check gate runs
 * a 1000-device fleet through the 2x-contention scenario and fails
 * unless (a) the fleet completes with a positive device-steps/sec
 * figure and (b) the fleet checksum is bit-equal between --shards 1
 * and --shards 4 — the cross-shard determinism contract, enforced in
 * the perf-gate CI job. Results land in BENCH_fleet.json.
 *
 * Memory gate (DESIGN.md §18): before the throughput sweep — peak RSS
 * (VmHWM) is monotone, so the million-device fleet must run while the
 * process is still small — a --memory-devices fleet (default 1000000)
 * of fixed-policy devices runs one contention epoch sweep with
 * aggregate stats, and --check fails unless it completes under
 * --memory-budget bytes/device (default 4096; measured ~2.2 KB).
 *
 * Learner-fleet memory gate (DESIGN.md §18): 10,000 federated
 * AutoScale learners, warm-started from device 0's trained table, serve
 * 20 requests each with merges every 8 epochs; --check fails unless the
 * peak RSS delta stays at or under 64 KB per device (a dense Q-table
 * and visit array alone were ~1.2 MB). A second row runs 2,000
 * learners through a long churning run (450 requests each, 3% crash
 * and 3% leave probability per device and epoch, merges every 2
 * epochs) under the same budget, so learners that miss merges must
 * not pile up private rows. Each fleet runs in a forked child before
 * anything else, so its peak RSS is its own.
 *
 * Learner-merge gate (DESIGN.md §15): 256 AutoScale learners each
 * serve 150 decisions, then mergeQTablesVisitWeighted runs 5 times;
 * --check fails when the median merge takes more than 25 ms. The merge
 * walks only the rows some learner visited, so this bounds its cost by
 * what the fleet has learned rather than by the 3072 x 66 table.
 */

#include <algorithm>
#include <chrono>
#include <cstdint>
#include <fstream>
#include <iostream>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include <sys/types.h>
#include <sys/wait.h>
#include <unistd.h>

#include "common.h"
#include "core/scheduler.h"
#include "dnn/model_zoo.h"
#include "obs/json.h"
#include "serve/fleet.h"
#include "serve/server.h"
#include "util/logging.h"
#include "util/rng.h"
#include "util/stats.h"

using namespace autoscale;

namespace {

/** One fleet run's measurement. */
struct Measurement {
    int devices = 0;
    double contention = 1.0;
    std::int64_t arrivals = 0;
    std::int64_t served = 0;
    std::int64_t qosViolations = 0;
    double energyJ = 0.0;
    double seconds = 0.0;
    std::uint64_t checksum = 0;

    double
    deviceStepsPerSec() const
    {
        return seconds > 0.0 ? static_cast<double>(arrivals) / seconds
                             : 0.0;
    }
};

double
now()
{
    return std::chrono::duration<double>(
               std::chrono::steady_clock::now().time_since_epoch())
        .count();
}

serve::FleetConfig
fleetConfig(int devices, double contention, std::int64_t requests,
            std::uint64_t seed, int shards)
{
    serve::FleetConfig fleet;
    // No fault plan: injected WLAN faults would trip the breakers and
    // push everything onto the local fallback, hiding the shared-infra
    // contention this benchmark is about.
    fleet.serve.scenario = env::ScenarioId::D3;
    fleet.serve.totalRequests = requests;
    fleet.serve.seed = seed;
    // Throughput of the fleet loop itself: skip pre-training (device 0
    // would train once and warm-start the rest, but even that single
    // run would dominate small-fleet timings). A remote-only policy
    // keeps every request on the shared edge so contention actually
    // shapes the sweep.
    fleet.serve.trainRunsPerCombo = 0;
    fleet.serve.policyName = "connected-edge";
    fleet.devices = devices;
    fleet.shards = shards;
    // Short epochs: at 2x overload the whole arrival burst spans only a
    // few hundred virtual milliseconds, and contention feeds back one
    // epoch behind — 50 ms barriers give it several epochs to bite.
    fleet.epochMs = 50.0;
    fleet.infra.contention = contention;
    fleet.infra.brownoutPeriodMs = 200.0;
    fleet.infra.brownoutDurationMs = 50.0;

    sim::InferenceSimulator sim =
        sim::InferenceSimulator::makeDefault(platform::makeMi8Pro());
    std::vector<const dnn::Network *> networks;
    for (const dnn::Network &network : dnn::modelZoo()) {
        networks.push_back(&network);
    }
    fleet.serve.arrival.ratePerSec = 2.0 * 1000.0
        / serve::nominalServiceMs(sim, networks,
                                  fleet.serve.accuracyTargetPct);
    return fleet;
}

Measurement
runFleetBench(int devices, double contention, std::int64_t requests,
              std::uint64_t seed, int shards)
{
    const sim::InferenceSimulator sim =
        sim::InferenceSimulator::makeDefault(platform::makeMi8Pro());
    const serve::FleetConfig fleet =
        fleetConfig(devices, contention, requests, seed, shards);

    Measurement m;
    m.devices = devices;
    m.contention = contention;
    const double start = now();
    const serve::FleetStats stats = serve::runFleet(sim, fleet, {});
    m.seconds = now() - start;
    m.arrivals = stats.totalArrivals();
    m.served = stats.totalServed();
    m.qosViolations = stats.totalQosViolations();
    m.energyJ = stats.totalEnergyJ();
    m.checksum = stats.checksum;
    return m;
}

void
printMeasurement(const Measurement &m)
{
    std::cout << m.devices << " devices @" << Table::num(m.contention, 0)
              << "x: " << Table::num(m.deviceStepsPerSec(), 0)
              << " device-steps/s (" << m.arrivals << " arrivals in "
              << Table::num(m.seconds, 3) << " s, served " << m.served
              << ", qos-violations " << m.qosViolations << ", energy "
              << Table::num(m.energyJ, 2) << " J)\n";
}

std::string
measurementJson(const Measurement &m)
{
    return std::string("{\"devices\":") + std::to_string(m.devices)
        + ",\"contention\":" + obs::jsonNumber(m.contention)
        + ",\"arrivals\":" + std::to_string(m.arrivals)
        + ",\"served\":" + std::to_string(m.served)
        + ",\"qos_violations\":" + std::to_string(m.qosViolations)
        + ",\"energy_j\":" + obs::jsonNumber(m.energyJ)
        + ",\"seconds\":" + obs::jsonNumber(m.seconds)
        + ",\"device_steps_per_sec\":"
        + obs::jsonNumber(m.deviceStepsPerSec()) + ",\"checksum\":\""
        + std::to_string(m.checksum) + "\"}";
}

/** The million-device memory-footprint gate's result. */
struct MemoryGate {
    int devices = 0;
    std::int64_t arrivals = 0;
    std::int64_t served = 0;
    double seconds = 0.0;
    std::uint64_t peakRssBytes = 0;
    double bytesPerDevice = 0.0;
    double budgetBytes = 0.0;
    bool completed = false;

    bool
    withinBudget() const
    {
        return bytesPerDevice > 0.0 && bytesPerDevice <= budgetBytes;
    }
};

MemoryGate
runMemoryGate(int devices, double budgetBytes, std::uint64_t seed)
{
    const sim::InferenceSimulator sim =
        sim::InferenceSimulator::makeDefault(platform::makeMi8Pro());
    // One short contention epoch sweep per device: the gate measures
    // the fleet's resident footprint, not sustained throughput, so two
    // requests per device keep the run to a few wall seconds even at a
    // million devices. Aggregate stats are mandatory at this scale —
    // a million ServeStats would out-weigh the devices themselves.
    serve::FleetConfig fleet = fleetConfig(devices, 2.0, 2, seed, 4);
    // Provision the shared edge/Wi-Fi at the contention model's peak
    // concurrency (contention x devices x full-epoch busy). The queue
    // penalty is `excess x mean service time`, and with the whole
    // fleet bursting at t=0 any under-provisioned capacity leaves an
    // excess proportional to the population — virtual drain time then
    // grows linearly with the fleet and total work quadratically. A
    // million devices queueing on 4 edge slots is a queueing-collapse
    // study, not a memory gate; here the epoch barrier still folds a
    // million usage records per sweep and brownout windows still land,
    // which is the machinery this gate must exercise at scale.
    fleet.infra.edgeCapacity = 2.0 * static_cast<double>(devices);
    fleet.infra.wifiCapacity = 2.0 * static_cast<double>(devices);
    fleet.aggregateStats = true;
    fleet.reportMemory = true;

    MemoryGate gate;
    gate.devices = devices;
    gate.budgetBytes = budgetBytes;
    const double start = now();
    const serve::FleetStats stats = serve::runFleet(sim, fleet, {});
    gate.seconds = now() - start;
    gate.arrivals = stats.totalArrivals();
    gate.served = stats.totalServed();
    gate.peakRssBytes = stats.peakRssBytes;
    gate.bytesPerDevice = stats.bytesPerDevice;
    gate.completed = gate.arrivals
        == static_cast<std::int64_t>(devices) * fleet.serve.totalRequests;
    return gate;
}

std::string
memoryGateJson(const MemoryGate &gate)
{
    return std::string("{\"devices\":") + std::to_string(gate.devices)
        + ",\"arrivals\":" + std::to_string(gate.arrivals)
        + ",\"served\":" + std::to_string(gate.served)
        + ",\"seconds\":" + obs::jsonNumber(gate.seconds)
        + ",\"peak_rss_bytes\":" + std::to_string(gate.peakRssBytes)
        + ",\"bytes_per_device\":" + obs::jsonNumber(gate.bytesPerDevice)
        + ",\"budget_bytes_per_device\":"
        + obs::jsonNumber(gate.budgetBytes) + ",\"within_budget\":"
        + (gate.withinBudget() ? "true" : "false") + ",\"completed\":"
        + (gate.completed ? "true" : "false") + "}";
}

/**
 * One learner-fleet memory row: a federated AutoScale fleet, at most
 * kBudgetBytes of peak-RSS delta per device.
 */
struct LearnerMemorySpec {
    static constexpr double kBudgetBytes = 64.0 * 1024.0;

    const char *name;
    int devices;
    std::int64_t requests;
    /** Per-device per-epoch crash and leave probability each; 0: none. */
    double churnProb;
    int mergeEpochs;
};

/** 10,000 learners, a short run, no churn. */
constexpr LearnerMemorySpec kLearnerFleet{"federated", 10000, 20, 0.0, 8};

/**
 * 2,000 learners through a long churning run: devices crash and leave
 * every epoch, so most merges include learners that missed an earlier
 * one.
 */
constexpr LearnerMemorySpec kChurningLearnerFleet{"federated-churn", 2000,
                                                  450, 0.03, 2};

/** A learner-fleet memory row's result. */
struct LearnerMemoryGate {
    std::int64_t arrivals = 0;
    std::int64_t served = 0;
    std::int64_t epochs = 0;
    std::int64_t churnEvents = 0;
    double seconds = 0.0;
    std::uint64_t peakRssBytes = 0;
    double bytesPerDevice = 0.0;
    bool completed = false;

    bool
    withinBudget() const
    {
        return completed && bytesPerDevice > 0.0
            && bytesPerDevice <= LearnerMemorySpec::kBudgetBytes;
    }
};

LearnerMemoryGate
measureLearnerMemory(const LearnerMemorySpec &spec, std::uint64_t seed)
{
    const sim::InferenceSimulator sim =
        sim::InferenceSimulator::makeDefault(platform::makeMi8Pro());
    serve::FleetConfig fleet =
        fleetConfig(spec.devices, 1.0, spec.requests, seed, 4);
    fleet.serve.policyName = "autoscale";
    fleet.serve.trainRunsPerCombo = 5;
    fleet.serve.arrival.ratePerSec *= 0.5; // 1x nominal load
    fleet.qMode = serve::QTableMode::Federated;
    fleet.federatedMergeEpochs = spec.mergeEpochs;
    fleet.churn.crashProb = spec.churnProb;
    fleet.churn.leaveProb = spec.churnProb;
    fleet.infra.edgeCapacity = 2.0 * spec.devices;
    fleet.infra.wifiCapacity = 2.0 * spec.devices;
    fleet.aggregateStats = true;
    fleet.reportMemory = true;

    LearnerMemoryGate gate;
    const double start = now();
    const serve::FleetStats stats = serve::runFleet(sim, fleet, {});
    gate.seconds = now() - start;
    gate.arrivals = stats.totalArrivals();
    gate.served = stats.totalServed();
    gate.epochs = stats.epochs;
    gate.churnEvents = stats.churnCrashes + stats.churnLeaves;
    gate.peakRssBytes = stats.peakRssBytes;
    gate.bytesPerDevice = stats.bytesPerDevice;
    gate.completed = gate.arrivals
        == static_cast<std::int64_t>(spec.devices) * spec.requests;
    return gate;
}

/**
 * measureLearnerMemory in a forked child: a child's peak RSS starts at
 * its own size, so the learner fleet's peak is not hidden behind (or
 * left in front of) anything this process ran or runs later. The
 * result comes back as raw bytes over a pipe; a failed child reads as
 * an incomplete run.
 */
LearnerMemoryGate
runLearnerMemoryGate(const LearnerMemorySpec &spec, std::uint64_t seed)
{
    int fds[2];
    if (::pipe(fds) != 0) {
        return {};
    }
    const pid_t pid = ::fork();
    if (pid == 0) {
        ::close(fds[0]);
        const LearnerMemoryGate gate = measureLearnerMemory(spec, seed);
        const bool ok =
            ::write(fds[1], &gate, sizeof(gate))
            == static_cast<ssize_t>(sizeof(gate));
        ::_exit(ok ? 0 : 1);
    }
    ::close(fds[1]);
    LearnerMemoryGate gate;
    if (pid < 0
        || ::read(fds[0], &gate, sizeof(gate))
            != static_cast<ssize_t>(sizeof(gate))) {
        gate = {};
    }
    ::close(fds[0]);
    if (pid > 0) {
        int status = 0;
        ::waitpid(pid, &status, 0);
        if (!WIFEXITED(status) || WEXITSTATUS(status) != 0) {
            gate = {};
        }
    }
    return gate;
}

std::string
learnerMemoryGateJson(const LearnerMemorySpec &spec,
                      const LearnerMemoryGate &gate)
{
    return std::string("{\"devices\":") + std::to_string(spec.devices)
        + ",\"q_mode\":\"federated\",\"requests_per_device\":"
        + std::to_string(spec.requests) + ",\"merge_epochs\":"
        + std::to_string(spec.mergeEpochs) + ",\"churn_crash_prob\":"
        + obs::jsonNumber(spec.churnProb) + ",\"churn_leave_prob\":"
        + obs::jsonNumber(spec.churnProb)
        + ",\"arrivals\":" + std::to_string(gate.arrivals)
        + ",\"served\":" + std::to_string(gate.served)
        + ",\"epochs\":" + std::to_string(gate.epochs)
        + ",\"churn_events\":" + std::to_string(gate.churnEvents)
        + ",\"seconds\":" + obs::jsonNumber(gate.seconds)
        + ",\"peak_rss_bytes\":" + std::to_string(gate.peakRssBytes)
        + ",\"bytes_per_device\":" + obs::jsonNumber(gate.bytesPerDevice)
        + ",\"budget_bytes_per_device\":"
        + obs::jsonNumber(LearnerMemorySpec::kBudgetBytes)
        + ",\"within_budget\":" + (gate.withinBudget() ? "true" : "false")
        + ",\"completed\":" + (gate.completed ? "true" : "false") + "}";
}

/** Print one learner-fleet memory row. */
void
printLearnerMemoryGate(const LearnerMemorySpec &spec,
                       const LearnerMemoryGate &gate)
{
    std::cout << "learner memory (" << spec.name << "): " << spec.devices
              << " learners, " << gate.epochs << " epochs, "
              << gate.churnEvents << " crashes/leaves, peak "
              << Table::num(static_cast<double>(gate.peakRssBytes)
                                / (1024.0 * 1024.0),
                            0)
              << " MiB, " << Table::num(gate.bytesPerDevice, 0)
              << " bytes/device (budget "
              << Table::num(LearnerMemorySpec::kBudgetBytes, 0) << ") in "
              << Table::num(gate.seconds, 2) << " s — "
              << (gate.withinBudget() ? "ok" : "FAIL") << "\n";
}

/** The federated learner-merge gate's result. */
struct MergeGate {
    static constexpr int kLearners = 256;
    static constexpr int kDecisionsPerLearner = 150;
    static constexpr int kMerges = 5;
    static constexpr double kBudgetMs = 25.0;

    int visitedStates = 0;
    std::vector<double> mergeMs;

    double
    medianMs() const
    {
        return percentile(mergeMs, 50.0);
    }

    bool
    withinBudget() const
    {
        return medianMs() <= kBudgetMs;
    }
};

MergeGate
runMergeGate(std::uint64_t seed)
{
    const sim::InferenceSimulator sim =
        sim::InferenceSimulator::makeDefault(platform::makeMi8Pro());
    std::vector<const dnn::Network *> networks;
    for (const dnn::Network &network : dnn::modelZoo()) {
        networks.push_back(&network);
    }
    // Each learner serves a short stretch of D3 requests through the
    // real choose/feedback path, so its visited rows are the sparse set
    // a fleet learner accumulates between merges.
    env::Scenario scenario(env::ScenarioId::D3);
    Rng rng(seed);
    sim::Outcome outcome;
    outcome.feasible = true;
    outcome.latencyMs = 12.0;
    outcome.accuracyPct = 70.0;
    std::vector<std::unique_ptr<core::AutoScaleScheduler>> learners;
    std::vector<core::AutoScaleScheduler *> schedulers;
    for (int d = 0; d < MergeGate::kLearners; ++d) {
        learners.push_back(std::make_unique<core::AutoScaleScheduler>(
            sim, core::SchedulerConfig{}, seed * 1000 + d));
        core::AutoScaleScheduler &learner = *learners.back();
        for (int k = 0; k < MergeGate::kDecisionsPerLearner; ++k) {
            const dnn::Network &network =
                *networks[rng.uniformInt(networks.size())];
            learner.choose(sim::makeRequest(network), scenario.next(rng));
            outcome.energyJ = rng.uniform(0.01, 0.05);
            outcome.estimatedEnergyJ = outcome.energyJ;
            learner.feedback(outcome);
        }
        learner.finishEpisode();
        schedulers.push_back(&learner);
    }

    std::vector<char> visited(
        static_cast<std::size_t>(
            schedulers.front()->agent().table().numStates()),
        0);
    for (const core::AutoScaleScheduler *learner : schedulers) {
        for (const int state : learner->agent().visitedStates()) {
            visited[static_cast<std::size_t>(state)] = 1;
        }
    }
    MergeGate gate;
    gate.visitedStates =
        static_cast<int>(std::count(visited.begin(), visited.end(), 1));
    for (int m = 0; m < MergeGate::kMerges; ++m) {
        const double start = now();
        serve::mergeQTablesVisitWeighted(schedulers);
        gate.mergeMs.push_back((now() - start) * 1e3);
    }
    return gate;
}

std::string
mergeGateJson(const MergeGate &gate)
{
    std::string ms;
    for (std::size_t i = 0; i < gate.mergeMs.size(); ++i) {
        if (i > 0) {
            ms += ',';
        }
        ms += obs::jsonNumber(gate.mergeMs[i]);
    }
    return std::string("{\"learners\":")
        + std::to_string(MergeGate::kLearners)
        + ",\"decisions_per_learner\":"
        + std::to_string(MergeGate::kDecisionsPerLearner)
        + ",\"visited_states\":" + std::to_string(gate.visitedStates)
        + ",\"merge_ms\":[" + ms + "],\"median_ms\":"
        + obs::jsonNumber(gate.medianMs()) + ",\"budget_ms\":"
        + obs::jsonNumber(MergeGate::kBudgetMs) + ",\"within_budget\":"
        + (gate.withinBudget() ? "true" : "false") + "}";
}

} // namespace

int
main(int argc, char **argv)
{
    const Args args(argc, argv);
    const std::uint64_t seed =
        static_cast<std::uint64_t>(args.getInt("--seed", 1));
    const std::int64_t requests = args.getInt("--requests", 100);
    const int checkDevices = args.getInt("--check-devices", 1000);
    const int memoryDevices = args.getInt("--memory-devices", 1000000);
    const double memoryBudget =
        static_cast<double>(args.getInt("--memory-budget", 4096));
    const std::string out = args.get("--out", "BENCH_fleet.json");
    const bool check = args.has("--check");
    const std::string scenarioPath = args.get("--scenario");

    // --scenario FILE: benchmark a declared fleet (population, arrival
    // schedule, shared infrastructure, churn — scenarios/*.scn) instead
    // of the synthetic sweep. The cross-shard checksum gate applies
    // unchanged: declarative churn and outages must be exactly as
    // shard-invariant as the synthetic workload.
    if (!scenarioPath.empty()) {
        const scenario::ScenarioSpec spec =
            bench::loadBenchScenario(scenarioPath);
        if (spec.population <= 1) {
            fatal("scenario '" + scenarioPath
                  + "' has device.population <= 1; bench_fleet "
                    "benchmarks fleets");
        }
        const sim::InferenceSimulator sim =
            sim::InferenceSimulator::makeDefault(platform::makeMi8Pro());
        const serve::FleetConfig fleet =
            bench::fleetConfigFromScenario(spec, sim);

        bench::printHeader(
            "Fleet serving: scenario '" + spec.name + "' ("
                + std::to_string(fleet.devices) + " devices)",
            "Gate: fleet completes; checksum bit-equal across shard "
            "counts");

        auto runShards = [&](int shards) {
            serve::FleetConfig config = fleet;
            config.shards = shards;
            Measurement m;
            m.devices = config.devices;
            m.contention = config.infra.contention;
            const double start = now();
            const serve::FleetStats stats =
                serve::runFleet(sim, config, {});
            m.seconds = now() - start;
            m.arrivals = stats.totalArrivals();
            m.served = stats.totalServed();
            m.qosViolations = stats.totalQosViolations();
            m.energyJ = stats.totalEnergyJ();
            m.checksum = stats.checksum;
            return m;
        };
        const Measurement gateA = runShards(1);
        printMeasurement(gateA);
        const Measurement gateB = runShards(4);
        const bool checksumsAgree = gateA.checksum == gateB.checksum;
        const bool completed = gateA.arrivals
                == static_cast<std::int64_t>(fleet.devices)
                    * fleet.serve.totalRequests
            && gateA.deviceStepsPerSec() > 0.0;
        std::cout << "cross-shard checksums "
                  << (checksumsAgree ? "agree" : "DISAGREE") << "\n";

        std::ofstream json(out);
        json << "{\"scenario\":\"" << spec.name
             << "\",\"gate\":{\"shards_1\":" << measurementJson(gateA)
             << ",\"shards_4\":" << measurementJson(gateB)
             << ",\"completed\":" << (completed ? "true" : "false")
             << ",\"checksums_agree\":"
             << (checksumsAgree ? "true" : "false") << "}}\n";
        std::cout << "Wrote " << out << "\n";

        if (check && (!completed || !checksumsAgree)) {
            std::cerr << "FAIL: scenario fleet gate "
                      << (completed ? "checksum mismatch"
                                    : "did not complete")
                      << "\n";
            return 1;
        }
        if (check) {
            std::cout << "PASS: gates met\n";
        }
        return 0;
    }

    bench::printHeader(
        "Fleet serving: device-steps/sec vs fleet size and contention",
        "Gates: memory budget at " + std::to_string(memoryDevices)
            + " devices; <= 64 KB/device at 10000 federated learners "
              "and at 2000 churning ones; "
              "1000-device 2x-contention fleet completes; "
              "checksum bit-equal across shard counts; median "
              "256-learner merge <= 25 ms");

    // Each learner fleet runs in its own child, before this process
    // grows: a child that inherited a large, partly free heap could
    // reuse it without its RSS growing.
    const LearnerMemoryGate learnerGate =
        runLearnerMemoryGate(kLearnerFleet, seed);
    printLearnerMemoryGate(kLearnerFleet, learnerGate);
    const LearnerMemoryGate churnGate =
        runLearnerMemoryGate(kChurningLearnerFleet, seed);
    printLearnerMemoryGate(kChurningLearnerFleet, churnGate);

    // Memory gate first: peak RSS (VmHWM) is monotone, so the
    // million-device footprint is only attributable while nothing
    // larger has run in this process yet.
    const MemoryGate memGate = runMemoryGate(memoryDevices, memoryBudget,
                                             seed);
    std::cout << "memory gate: " << memGate.devices << " devices, peak "
              << Table::num(static_cast<double>(memGate.peakRssBytes)
                                / (1024.0 * 1024.0),
                            0)
              << " MiB, " << Table::num(memGate.bytesPerDevice, 0)
              << " bytes/device (budget "
              << Table::num(memGate.budgetBytes, 0) << ") in "
              << Table::num(memGate.seconds, 2) << " s — "
              << (memGate.withinBudget() && memGate.completed ? "ok"
                                                              : "FAIL")
              << "\n\n";

    // Scaling sweep: fleet size x contention.
    std::vector<Measurement> sweep;
    for (const int devices : {64, 256}) {
        for (const double contention : {1.0, 4.0}) {
            sweep.push_back(runFleetBench(devices, contention, requests,
                                          seed, 4));
            printMeasurement(sweep.back());
        }
    }

    // The gate scenario: a big fleet under 2x contention, run with two
    // shard counts; the checksums must match bit for bit.
    std::cout << "\ngate: " << checkDevices
              << "-device fleet @2x contention\n";
    const Measurement gateA =
        runFleetBench(checkDevices, 2.0, requests, seed, 1);
    printMeasurement(gateA);
    const Measurement gateB =
        runFleetBench(checkDevices, 2.0, requests, seed, 4);
    const bool checksumsAgree = gateA.checksum == gateB.checksum;
    const bool completed =
        gateA.arrivals
            == static_cast<std::int64_t>(checkDevices) * requests
        && gateA.deviceStepsPerSec() > 0.0;
    std::cout << "cross-shard checksums "
              << (checksumsAgree ? "agree" : "DISAGREE") << "\n";

    const MergeGate mergeGate = runMergeGate(seed);
    std::cout << "\nlearner merge: " << MergeGate::kLearners
              << " learners, " << mergeGate.visitedStates
              << " visited states, median "
              << Table::num(mergeGate.medianMs(), 2) << " ms over "
              << mergeGate.mergeMs.size() << " merges (budget "
              << Table::num(MergeGate::kBudgetMs, 0) << " ms) — "
              << (mergeGate.withinBudget() ? "ok" : "FAIL") << "\n";

    std::ofstream json(out);
    json << "{\"seed\":" << seed << ",\"requests_per_device\":" << requests
         << ",\"sweep\":[";
    for (std::size_t i = 0; i < sweep.size(); ++i) {
        json << (i > 0 ? "," : "") << measurementJson(sweep[i]);
    }
    json << "],\"gate\":{\"shards_1\":" << measurementJson(gateA)
         << ",\"shards_4\":" << measurementJson(gateB)
         << ",\"completed\":" << (completed ? "true" : "false")
         << ",\"checksums_agree\":" << (checksumsAgree ? "true" : "false")
         << "},\"memory_gate\":" << memoryGateJson(memGate)
         << ",\"learner_memory_gate\":"
         << learnerMemoryGateJson(kLearnerFleet, learnerGate)
         << ",\"learner_churn_memory_gate\":"
         << learnerMemoryGateJson(kChurningLearnerFleet, churnGate)
         << ",\"merge_gate\":" << mergeGateJson(mergeGate) << "}\n";
    std::cout << "Wrote " << out << "\n";

    if (check) {
        if (!completed) {
            std::cerr << "FAIL: gate fleet did not complete all arrivals\n";
            return 1;
        }
        if (!checksumsAgree) {
            std::cerr << "FAIL: fleet checksum differs across shard "
                         "counts (determinism violation)\n";
            return 1;
        }
        if (!memGate.completed) {
            std::cerr << "FAIL: memory-gate fleet did not complete all "
                         "arrivals\n";
            return 1;
        }
        if (!memGate.withinBudget()) {
            std::cerr << "FAIL: memory gate "
                      << Table::num(memGate.bytesPerDevice, 0)
                      << " bytes/device exceeds budget "
                      << Table::num(memGate.budgetBytes, 0) << "\n";
            return 1;
        }
        for (const auto &[spec, gate] :
             {std::pair{&kLearnerFleet, &learnerGate},
              std::pair{&kChurningLearnerFleet, &churnGate}}) {
            if (!gate->withinBudget()) {
                std::cerr << "FAIL: learner memory gate (" << spec->name
                          << ") "
                          << (gate->completed
                                  ? Table::num(gate->bytesPerDevice, 0)
                                      + " bytes/device exceeds budget "
                                      + Table::num(
                                          LearnerMemorySpec::kBudgetBytes,
                                          0)
                                  : std::string("fleet did not complete"))
                          << "\n";
                return 1;
            }
        }
        if (!mergeGate.withinBudget()) {
            std::cerr << "FAIL: median learner merge "
                      << Table::num(mergeGate.medianMs(), 2)
                      << " ms exceeds budget "
                      << Table::num(MergeGate::kBudgetMs, 0) << " ms\n";
            return 1;
        }
        std::cout << "PASS: gates met\n";
    }
    return 0;
}
