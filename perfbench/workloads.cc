/**
 * @file
 * The four perfbench workloads and the traced run's layer probes.
 *
 * Every workload drives the library only through its public entry
 * points (harness::evaluateAutoScaleLoo, serve::runServe,
 * serve::runFleet) and checks each result against an independent
 * computation or a property the result must have, never against a saved
 * copy.
 */

#include <algorithm>
#include <cmath>
#include <fstream>
#include <optional>
#include <stdexcept>

#include "bench.h"
#include "baselines/fixed.h"
#include "baselines/oracle.h"
#include "core/action_space.h"
#include "core/scheduler.h"
#include "dnn/model_zoo.h"
#include "env/scenario.h"
#include "fault/fault_injector.h"
#include "harness/autoscale_policy.h"
#include "harness/experiment.h"
#include "harness/parallel.h"
#include "obs/metrics_registry.h"
#include "obs/trace_recorder.h"
#include "platform/device_zoo.h"
#include "serve/fleet.h"
#include "serve/server.h"
#include "sim/qos.h"
#include "sim/simulator.h"

namespace perfbench {

using namespace autoscale;

namespace {

// Paper protocol (Section V-C, bench_fig09): 800 training runs per
// (network, scenario) and 150 warm-up runs per held-out (network,
// scenario). 300 measured runs instead of bench_fig09's 30: AutoScale
// keeps learning while it is measured, and with 30 runs its PPW varies
// by 10% from seed to seed, with 300 by about 3%.
constexpr int kLooTrainRuns = 800;
constexpr int kLooWarmupRuns = 150;
constexpr int kLooEvalRuns = 300;
constexpr int kLooSeedsPerRound = 4;

// serve-flaky: D3 + flaky-wifi at 0.3x nominal local capacity. Each
// operation is one runServe of a million arrivals (about 68% served).
constexpr std::int64_t kServeArrivals = 1000000;
constexpr double kServeRateX = 0.3;
constexpr int kServeSeedsPerRound = 2;
// runServe's own cold-start budget; set-up pre-trains this much instead.
constexpr int kServePretrainRuns = 40;

// fleet-100k: connected-edge devices, 250 ms epochs, infra at 2x n.
// The timed operation runs at --jobs 1: at --jobs 4 the per-epoch thread
// pool can lose a wakeup and hang (util/thread_pool.cc), so the share of
// failed operations would change from run to run. The pool is measured
// by the traced run's --jobs curve, each point under its own deadline.
constexpr int kFleetDevices = 100000;
constexpr std::int64_t kFleetRequests = 34;
constexpr double kFleetRateX = 0.25;
constexpr int kFleetShards = 4;
constexpr int kFleetJobs = 1;
// Fleets small enough to also run at --shards 1 --jobs 1 for the
// checksum check, and for the layer probes of the other workloads.
constexpr int kFleetCheckDevices = 2000;
constexpr int kFleetProbeDevices = 10000;

// fleet-learners: federated AutoScale learners, --jobs 1.
constexpr int kLearnerDevices = 256;
constexpr std::int64_t kLearnerRequests = 150;
constexpr double kLearnerRateX = 0.25;
constexpr int kLearnerMergeEpochs = 8;
// Device 0's table comes from a paper-budget pre-training; with
// runServe's 40-run cold start the learners' PPW varies by 10% from
// seed to seed.
constexpr int kLearnerPretrainRuns = 800;
constexpr int kLearnerCheckDevices = 16;

constexpr double kAccuracyTargetPct = 50.0;

std::vector<env::ScenarioId>
looScenarios()
{
    return env::allScenarios();
}


double
ratio(double num, double den)
{
    return den > 0.0 ? num / den : 0.0;
}

bool
nearlyEqual(double a, double b, double rel = 1e-9)
{
    return std::fabs(a - b) <= rel * std::max({1.0, std::fabs(a),
                                               std::fabs(b)});
}

/** One sampled (request, environment) pair from a workload's inputs. */
struct Sample {
    const dnn::Network *network = nullptr;
    env::EnvState env;
};

/**
 * Inputs every workload shares: the simulator with its cost tables, the
 * zoo, and a seeded set of sampled requests for checks and probes.
 */
class Base : public Workload {
  public:
    Base(std::uint64_t seed, std::string outDir, std::string name)
        : seed_(seed), outDir_(std::move(outDir)), name_(std::move(name))
    {
    }

    void
    setUp() override
    {
        sim_.emplace(sim::InferenceSimulator::makeDefault(
            platform::makeMi8Pro()));
        networks_ = harness::allZooNetworks();
        samples_.clear();
        Rng rng(harness::replicateSeed(seed_, 0x5a3b1e));
        for (const env::ScenarioId id : sampleScenarios()) {
            env::Scenario scenario(id, sampleFaults());
            for (int k = 0; k < 16; ++k) {
                Sample sample;
                sample.network = networks_[rng.uniformInt(networks_.size())];
                sample.env = scenario.next(rng);
                samples_.push_back(sample);
            }
        }
        setUpWorkload();
    }

    std::vector<std::uint64_t>
    opSeeds() const override
    {
        std::vector<std::uint64_t> seeds;
        for (int i = 0; i < roundSize(); ++i) {
            seeds.push_back(opSeed(i));
        }
        return seeds;
    }

    void probeLayers(Report &report) const override;
    void probeFleetJobs(int jobs, Report &report) const override;

  protected:
    virtual void setUpWorkload() = 0;
    virtual std::vector<env::ScenarioId> sampleScenarios() const
    {
        return {env::ScenarioId::D3};
    }
    virtual fault::FaultPlan sampleFaults() const { return {}; }
    /** Whether op() itself reports the single-device serve.* values. */
    virtual bool servesSingleDevice() const { return false; }
    /** Whether op() itself runs a fleet (serve.fleet_* values). */
    virtual bool runsFleet() const { return false; }
    /** Devices for the --jobs scaling curve in the traced run. */
    virtual int curveDevices() const { return kFleetProbeDevices; }

    std::uint64_t
    opSeed(int index) const
    {
        return harness::replicateSeed(seed_,
                                      static_cast<std::uint64_t>(index));
    }

    double
    rateForX(double x) const
    {
        return x * 1000.0
            / serve::nominalServiceMs(*sim_, networks_, kAccuracyTargetPct);
    }

    /** Pre-train an AutoScale Q-table on D3 and save it for --qtable. */
    std::string
    pretrainQTable(int runsPerCombo) const
    {
        harness::AutoScalePolicy policy(*sim_, core::SchedulerConfig{},
                                        seed_);
        Rng rng(harness::replicateSeed(seed_, 0x7ab1e));
        harness::trainPolicy(policy, *sim_, networks_,
                             {env::ScenarioId::D3}, runsPerCombo, rng,
                             false, kAccuracyTargetPct);
        const std::string path = outDir_ + "/qtable-" + name_ + ".txt";
        std::ofstream out(path);
        policy.scheduler().saveQTable(out);
        out.close();
        if (!out) {
            throw std::runtime_error("cannot write " + path);
        }
        return path;
    }

    serve::ServeConfig
    flakyServeConfig(std::int64_t arrivals) const
    {
        serve::ServeConfig config;
        config.scenario = env::ScenarioId::D3;
        config.faults = fault::FaultPlan::fromName("flaky-wifi");
        config.totalRequests = arrivals;
        config.arrival.ratePerSec = rateForX(kServeRateX);
        config.qtablePath = qtablePath_;
        config.accuracyTargetPct = kAccuracyTargetPct;
        return config;
    }

    serve::FleetConfig
    edgeFleetConfig(int devices, int shards, int jobs) const
    {
        serve::FleetConfig fleet;
        fleet.serve.scenario = env::ScenarioId::D3;
        fleet.serve.policyName = "connected-edge";
        fleet.serve.trainRunsPerCombo = 0;
        fleet.serve.totalRequests = kFleetRequests;
        fleet.serve.arrival.ratePerSec = rateForX(kFleetRateX);
        fleet.serve.accuracyTargetPct = kAccuracyTargetPct;
        fleet.devices = devices;
        fleet.shards = shards;
        fleet.jobs = jobs;
        fleet.epochMs = 250.0;
        // DESIGN.md §18: provision the shared edge and Wi-Fi at peak
        // concurrency, or the synchronized start makes the drain
        // quadratic in the population.
        fleet.infra.edgeCapacity = 2.0 * devices;
        fleet.infra.wifiCapacity = 2.0 * devices;
        fleet.aggregateStats = true;
        fleet.reportMemory = true;
        return fleet;
    }

    /** Run @p fleet inside a span and report the fleet-level values. */
    serve::FleetStats
    timedFleet(const serve::FleetConfig &fleet, Report &report) const
    {
        const double cpuStart = cpuNowS();
        Span span(report, "serve.runFleet");
        serve::FleetStats stats = serve::runFleet(*sim_, fleet, {});
        span.setCount(static_cast<double>(fleet.devices)
                      * static_cast<double>(stats.epochs));
        report.value("t.wall_s", span.stop());
        report.value("t.cpu_s", cpuNowS() - cpuStart);
        report.value("serve.fleet_epochs", static_cast<double>(stats.epochs));
        report.value("t.serve.fleet_bytes_per_device", stats.bytesPerDevice);
        return stats;
    }

    /** Conservation checks every fleet result must pass. */
    void
    checkFleet(const serve::FleetConfig &fleet,
               const serve::FleetStats &stats, Report &report) const
    {
        const std::int64_t expected =
            static_cast<std::int64_t>(fleet.devices)
            * fleet.serve.totalRequests;
        report.check(stats.totalArrivals() == expected,
                     "fleet arrivals != devices x requests");
        report.check(stats.totalArrivals()
                         == stats.totalServed() + stats.totalShed()
                             + stats.totalShedChurn(),
                     "fleet arrivals != served + shed");
        report.check(2 * stats.totalServed() >= stats.totalArrivals(),
                     "fleet served " + std::to_string(stats.totalServed())
                         + " of " + std::to_string(stats.totalArrivals())
                         + " arrivals, less than half");
        report.check(!stats.halted, "fleet halted early");
    }

    /**
     * The checksum of @p fleet (scaled to @p devices) must not depend on
     * --shards/--jobs: compare against --shards 1 --jobs 1.
     */
    void
    checkShardInvariance(serve::FleetConfig fleet, int devices,
                         Report &report) const
    {
        fleet.devices = devices;
        fleet.infra.edgeCapacity = 2.0 * devices;
        fleet.infra.wifiCapacity = 2.0 * devices;
        fleet.reportMemory = false;
        const serve::FleetStats parallel = serve::runFleet(*sim_, fleet, {});
        fleet.shards = 1;
        fleet.jobs = 1;
        const serve::FleetStats serial = serve::runFleet(*sim_, fleet, {});
        report.check(parallel.checksum == serial.checksum,
                     "fleet checksum depends on --shards/--jobs");
        report.check(parallel.totalServed() == serial.totalServed(),
                     "fleet served count depends on --shards/--jobs");
    }

    /** Single-device serve.* values of one runServe result. */
    static void
    reportServe(const serve::ServeStats &stats, Report &report)
    {
        report.value("serve.served", static_cast<double>(stats.served));
        report.value("serve.shed_deadline",
                     static_cast<double>(stats.shedDeadline));
        report.value("serve.shed_overflow",
                     static_cast<double>(stats.shedOverflow));
        report.value("serve.shed_stale", static_cast<double>(stats.shedStale));
        report.value("serve.served_ratio",
                     ratio(static_cast<double>(stats.served),
                           static_cast<double>(stats.arrivals)));
        report.value("serve.breaker_short_circuits",
                     static_cast<double>(stats.breakerShortCircuits));
        report.value("serve.fault_fallbacks",
                     static_cast<double>(stats.faultFallbacks));
        report.value("serve.p99_ms", stats.latencyPercentileMs(99.0));
    }

    std::uint64_t seed_;
    std::string outDir_;
    std::string name_;
    std::optional<sim::InferenceSimulator> sim_;
    std::vector<const dnn::Network *> networks_;
    std::vector<Sample> samples_;
    std::string qtablePath_;
};

// ---------------------------------------------------------------------
// paper-loo

class PaperLoo : public Base {
  public:
    using Base::Base;

    int roundSize() const override { return kLooSeedsPerRound; }
    double deadlineSeconds() const override { return 20.0; }

    void
    op(int index, Report &report) const override
    {
        harness::EvalOptions options = evalOptions(opSeed(index));
        const std::vector<env::ScenarioId> scenarios = looScenarios();
        const double folds = static_cast<double>(networks_.size());
        const double perFold = static_cast<double>(scenarios.size())
            * ((folds - 1.0) * kLooTrainRuns + kLooWarmupRuns
               + kLooEvalRuns);
        harness::RunStats stats;
        {
            const double cpuStart = cpuNowS();
            Span span(report, "harness.evaluateAutoScaleLoo",
                      folds * perFold);
            stats = harness::evaluateAutoScaleLoo(
                *sim_, networks_, scenarios, kLooTrainRuns, options);
            report.value("t.wall_s", span.stop());
            report.value("t.cpu_s", cpuNowS() - cpuStart);
        }
        const double count = stats.count();
        report.value("decisions", folds * perFold);
        report.value("sim_inferences", count);
        report.value("sim_energy_j", stats.meanEnergyJ() * count);
        report.value("sim_served", count);
        report.value("sim.opt_match", stats.predictionAccuracy());
        report.value("sim.qos_violations", stats.qosViolationRatio());

        report.check(stats.count()
                         == static_cast<int>(networks_.size()
                                             * scenarios.size())
                             * kLooEvalRuns,
                     "LOO evaluations != networks x scenarios x runs");
        // Fig. 9: AutoScale beats Edge (CPU FP32) on the same inputs.
        auto edge = baselines::makeEdgeCpuFp32Policy(*sim_);
        const harness::RunStats edgeStats = harness::evaluatePolicy(
            *edge, *sim_, networks_, scenarios, options);
        report.check(stats.ppw() > edgeStats.ppw(),
                     "AutoScale PPW does not beat Edge (CPU FP32)");
        checkOracle(report);
    }

  protected:
    void
    setUpWorkload() override
    {
        direct_.emplace(sim::InferenceSimulator::makeDefault(
            platform::makeMi8Pro()));
        direct_->setUseCostCache(false);
    }

    std::vector<env::ScenarioId>
    sampleScenarios() const override
    {
        return looScenarios();
    }

  private:
    /** Uncached physics, the reference for the Opt check. */
    std::optional<sim::InferenceSimulator> direct_;

    static harness::EvalOptions
    evalOptions(std::uint64_t seed)
    {
        harness::EvalOptions options;
        options.runsPerCombo = kLooEvalRuns;
        options.looWarmupRuns = kLooWarmupRuns;
        options.compareOracle = true;
        options.accuracyTargetPct = kAccuracyTargetPct;
        options.seed = seed;
        options.jobs = 1;
        return options;
    }

    /**
     * Opt's target must be the lowest-energy action among those meeting
     * QoS and accuracy, found here by brute force over the uncached
     * physics (the definition the cost tables are proven against).
     */
    void
    checkOracle(Report &report) const
    {
        const sim::InferenceSimulator &direct = *direct_;
        const std::vector<sim::ExecutionTarget> actions =
            core::buildActionSpace(direct);
        const baselines::OptOracle oracle(*sim_);
        int compared = 0;
        for (const Sample &sample : samples_) {
            const sim::InferenceRequest request =
                sim::makeRequest(*sample.network, kAccuracyTargetPct);
            std::optional<std::size_t> best;
            double bestEnergy = 0.0;
            for (std::size_t a = 0; a < actions.size(); ++a) {
                const sim::Outcome outcome =
                    direct.expected(*sample.network, actions[a], sample.env);
                if (!outcome.feasible
                    || outcome.accuracyPct < request.accuracyTargetPct
                    || outcome.latencyMs >= request.qosMs) {
                    continue;
                }
                if (!best || outcome.estimatedEnergyJ < bestEnergy) {
                    best = a;
                    bestEnergy = outcome.estimatedEnergyJ;
                }
            }
            if (!best) {
                continue;
            }
            ++compared;
            const sim::ExecutionTarget chosen =
                oracle.optimalTarget(request, sample.env);
            const double chosenEnergy =
                direct.expected(*sample.network, chosen, sample.env)
                    .estimatedEnergyJ;
            report.check(chosen == actions[*best]
                             || chosenEnergy == bestEnergy,
                         "Opt target differs from brute-force argmin");
        }
        report.check(2 * compared >= static_cast<int>(samples_.size()),
                     "too few QoS-feasible samples for the Opt check");
    }
};

// ---------------------------------------------------------------------
// serve-flaky

class ServeFlaky : public Base {
  public:
    using Base::Base;

    int roundSize() const override { return kServeSeedsPerRound; }
    double deadlineSeconds() const override { return 20.0; }

    void
    op(int index, Report &report) const override
    {
        serve::ServeConfig config = flakyServeConfig(kServeArrivals);
        config.seed = opSeed(index);
        obs::MetricsRegistry metrics;
        obs::ObsContext obs;
        obs.metrics = &metrics;
        serve::ServeStats stats;
        {
            const double cpuStart = cpuNowS();
            Span span(report, "serve.runServe",
                      static_cast<double>(kServeArrivals));
            stats = serve::runServe(*sim_, config, obs);
            report.value("t.wall_s", span.stop());
            report.value("t.cpu_s", cpuNowS() - cpuStart);
        }
        const double served = static_cast<double>(stats.served);
        report.value("decisions", served);
        report.value("sim_inferences", served);
        report.value("sim_energy_j", stats.energyJ);
        report.value("sim_served", served);
        reportServe(stats, report);
        checkServe(config, stats, metrics, report);
    }

    static void
    checkServe(const serve::ServeConfig &config,
               const serve::ServeStats &stats,
               const obs::MetricsRegistry &metrics, Report &report)
    {
        report.check(stats.arrivals == config.totalRequests,
                     "serve arrivals != requested");
        report.check(stats.arrivals
                         == stats.served + stats.shedDeadline
                             + stats.shedOverflow + stats.shedStale,
                     "serve arrivals != served + shed");
        report.check(2 * stats.served >= stats.arrivals,
                     "serve served less than half of its arrivals");
        report.check(static_cast<std::int64_t>(stats.latenciesMs.size())
                         == stats.served,
                     "serve latency count != served");
        // p99 by a plain sort, nearest rank.
        std::vector<double> sorted = stats.latenciesMs;
        std::sort(sorted.begin(), sorted.end());
        const double rank = std::ceil(0.99 * static_cast<double>(
                                          sorted.size()));
        const std::size_t at = static_cast<std::size_t>(
            std::max(1.0, rank)) - 1;
        report.check(!sorted.empty()
                         && sorted[at] == stats.latencyPercentileMs(99.0),
                     "serve p99 differs from a sorted recomputation");
        // PPW from the metrics registry's own served count and energy.
        const double servedMetric = static_cast<double>(
            metrics.counterValue("serve.served"));
        const double energyMetricJ =
            metrics.histogram("serve.energy_mj").sum * 1e-3;
        report.check(servedMetric == static_cast<double>(stats.served),
                     "serve.served metric != served");
        report.check(nearlyEqual(ratio(servedMetric, energyMetricJ),
                                 ratio(static_cast<double>(stats.served),
                                       stats.energyJ)),
                     "PPW from metrics != PPW from stats");
    }

  protected:
    void
    setUpWorkload() override
    {
        qtablePath_ = pretrainQTable(kServePretrainRuns);
    }

    fault::FaultPlan
    sampleFaults() const override
    {
        return fault::FaultPlan::fromName("flaky-wifi");
    }

    bool servesSingleDevice() const override { return true; }
};

// ---------------------------------------------------------------------
// fleet-100k

class Fleet100k : public Base {
  public:
    using Base::Base;

    int roundSize() const override { return 1; }
    double deadlineSeconds() const override { return 40.0; }

    void
    op(int index, Report &report) const override
    {
        serve::FleetConfig fleet =
            edgeFleetConfig(kFleetDevices, kFleetShards, kFleetJobs);
        fleet.serve.seed = opSeed(index);
        const serve::FleetStats stats = timedFleet(fleet, report);
        const double served = static_cast<double>(stats.totalServed());
        report.value("decisions", served);
        report.value("sim_inferences", served);
        report.value("sim_energy_j", stats.totalEnergyJ());
        report.value("sim_served", served);
        report.value("sim.checksum_lo",
                     static_cast<double>(stats.checksum & 0xffffffffu));
        checkFleet(fleet, stats, report);
        checkShardInvariance(fleet, kFleetCheckDevices, report);
    }

  protected:
    void setUpWorkload() override {}
    bool runsFleet() const override { return true; }
    int curveDevices() const override { return kFleetDevices; }
};

// ---------------------------------------------------------------------
// fleet-learners

class FleetLearners : public Base {
  public:
    using Base::Base;

    int roundSize() const override { return 1; }
    double deadlineSeconds() const override { return 40.0; }

    void
    op(int index, Report &report) const override
    {
        serve::FleetConfig fleet = learnerFleetConfig(kLearnerDevices);
        fleet.serve.seed = opSeed(index);
        const serve::FleetStats stats = timedFleet(fleet, report);
        const double served = static_cast<double>(stats.totalServed());
        report.value("decisions", served);
        report.value("sim_inferences", served);
        report.value("sim_energy_j", stats.totalEnergyJ());
        report.value("sim_served", served);
        report.value("sim.checksum_lo",
                     static_cast<double>(stats.checksum & 0xffffffffu));
        checkFleet(fleet, stats, report);
        checkShardInvariance(fleet, kLearnerCheckDevices, report);
        checkMerge(report);
    }

  protected:
    void
    setUpWorkload() override
    {
        qtablePath_ = pretrainQTable(kLearnerPretrainRuns);
    }

    bool runsFleet() const override { return true; }

  private:
    serve::FleetConfig
    learnerFleetConfig(int devices) const
    {
        serve::FleetConfig fleet;
        fleet.serve.scenario = env::ScenarioId::D3;
        fleet.serve.qtablePath = qtablePath_;
        fleet.serve.totalRequests = kLearnerRequests;
        fleet.serve.arrival.ratePerSec = rateForX(kLearnerRateX);
        fleet.serve.accuracyTargetPct = kAccuracyTargetPct;
        fleet.devices = devices;
        fleet.shards = 4;
        fleet.jobs = 1;
        fleet.qMode = serve::QTableMode::Federated;
        fleet.federatedMergeEpochs = kLearnerMergeEpochs;
        fleet.epochMs = 250.0;
        fleet.infra.edgeCapacity = 2.0 * devices;
        fleet.infra.wifiCapacity = 2.0 * devices;
        fleet.aggregateStats = true;
        fleet.reportMemory = true;
        return fleet;
    }

    /**
     * mergeQTablesVisitWeighted on learners with different experience
     * must give every sampled cell the visit-weighted mean computed here
     * in double, and leave unvisited cells alone.
     */
    void
    checkMerge(Report &report) const
    {
        constexpr int kLearners = 8;
        std::vector<std::unique_ptr<harness::AutoScalePolicy>> policies;
        std::vector<core::AutoScaleScheduler *> schedulers;
        for (int i = 0; i < kLearners; ++i) {
            policies.push_back(std::make_unique<harness::AutoScalePolicy>(
                *sim_, core::SchedulerConfig{}, opSeed(100 + i)));
            Rng rng(opSeed(200 + i));
            harness::trainPolicy(*policies.back(), *sim_, networks_,
                                 {env::ScenarioId::D3}, 5 + 3 * i, rng);
            schedulers.push_back(&policies.back()->scheduler());
        }
        const core::QTable &shape = schedulers.front()->agent().table();
        Rng pick(opSeed(300));
        struct Cell {
            int state;
            int action;
            double expected;
            bool visited;
        };
        std::vector<Cell> cells;
        // Visited cells are sparse: sample them from the learners' own
        // experience, plus uniformly random (mostly unvisited) cells.
        for (int k = 0; k < 400 && cells.size() < 256; ++k) {
            const int state =
                static_cast<int>(pick.uniformInt(shape.numStates()));
            const int action =
                static_cast<int>(pick.uniformInt(shape.numActions()));
            cells.push_back({state, action, 0.0, false});
        }
        for (const core::AutoScaleScheduler *s : schedulers) {
            const core::QTable &t = s->agent().table();
            for (int state = 0; state < t.numStates(); ++state) {
                for (int action = 0; action < t.numActions(); ++action) {
                    if (s->agent().visitCount(state, action) > 0
                        && pick.bernoulli(0.05)) {
                        cells.push_back({state, action, 0.0, false});
                    }
                }
            }
        }
        int visitedCells = 0;
        for (Cell &cell : cells) {
            double visits = 0.0;
            double weighted = 0.0;
            for (const core::AutoScaleScheduler *s : schedulers) {
                const double v = s->agent().visitCount(cell.state,
                                                       cell.action);
                visits += v;
                weighted += v * s->agent().table().at(cell.state,
                                                      cell.action);
            }
            cell.visited = visits > 0.0;
            cell.expected = cell.visited
                ? weighted / visits
                : schedulers.front()->agent().table().at(cell.state,
                                                         cell.action);
            visitedCells += cell.visited ? 1 : 0;
        }
        std::vector<std::vector<float>> before;
        for (const Cell &cell : cells) {
            std::vector<float> values;
            for (const core::AutoScaleScheduler *s : schedulers) {
                values.push_back(s->agent().table().at(cell.state,
                                                       cell.action));
            }
            before.push_back(values);
        }
        serve::mergeQTablesVisitWeighted(schedulers);
        for (std::size_t c = 0; c < cells.size(); ++c) {
            const Cell &cell = cells[c];
            for (std::size_t i = 0; i < schedulers.size(); ++i) {
                const double got =
                    schedulers[i]->agent().table().at(cell.state,
                                                      cell.action);
                const double want =
                    cell.visited ? cell.expected : before[c][i];
                report.check(nearlyEqual(got, want, 1e-6),
                             "merged Q cell != visit-weighted mean");
            }
        }
        report.check(visitedCells >= 8, "merge check sampled too few "
                                        "visited cells");
    }
};

} // namespace

// ---------------------------------------------------------------------
// Layer probes (traced run only)

void
Base::probeFleetJobs(int jobs, Report &report) const
{
    serve::FleetConfig fleet =
        edgeFleetConfig(curveDevices(), kFleetShards, jobs);
    fleet.serve.seed = opSeed(0);
    fleet.reportMemory = false;
    const double start = nowUs();
    const serve::FleetStats stats = serve::runFleet(*sim_, fleet, {});
    const double seconds = (nowUs() - start) * 1e-6;
    report.value("t.serve.fleet_decisions_per_s_j" + std::to_string(jobs),
                 ratio(static_cast<double>(stats.totalServed()), seconds));
    report.value("fleet_checksum_lo",
                 static_cast<double>(stats.checksum & 0xffffffffu));
    checkFleet(fleet, stats, report);
}

void
Base::probeLayers(Report &report) const
{
    // Fleet first: runFleet measures bytes/device from the rise of the
    // process's peak RSS, so it must run before anything larger.
    if (!runsFleet()) {
        serve::FleetConfig fleet = edgeFleetConfig(
            kFleetProbeDevices, kFleetShards, kFleetJobs);
        fleet.serve.seed = opSeed(0);
        timedFleet(fleet, report);
    }
    // sim: cost-table build and the three execution entry points.
    for (int k = 0; k < 10; ++k) {
        Span span(report, "sim.build");
        const sim::InferenceSimulator built =
            sim::InferenceSimulator::makeDefault(platform::makeMi8Pro());
        report.check(built.localDevice().name()
                         == sim_->localDevice().name(),
                     "simulator build");
    }
    const std::vector<sim::ExecutionTarget> actions =
        core::buildActionSpace(*sim_);
    double sink = 0.0;
    {
        Span span(report, "sim.expected",
                  static_cast<double>(samples_.size() * actions.size()));
        for (const Sample &sample : samples_) {
            for (const sim::ExecutionTarget &action : actions) {
                sink += sim_->expected(*sample.network, action, sample.env)
                            .energyJ;
            }
        }
    }
    {
        Rng rng(opSeed(1));
        Span span(report, "sim.run",
                  static_cast<double>(samples_.size() * actions.size()));
        for (const Sample &sample : samples_) {
            for (const sim::ExecutionTarget &action : actions) {
                sink += sim_->run(*sample.network, action, sample.env, rng)
                            .energyJ;
            }
        }
    }
    {
        env::Scenario flaky(env::ScenarioId::D3,
                            fault::FaultPlan::fromName("flaky-wifi"));
        Rng envRng(opSeed(2));
        std::vector<env::EnvState> envs;
        for (int k = 0; k < 64; ++k) {
            envs.push_back(flaky.next(envRng));
        }
        const fault::RetryPolicy retry;
        Rng rng(opSeed(3));
        Span span(report, "sim.runWithFaults",
                  static_cast<double>(envs.size() * actions.size()));
        for (std::size_t k = 0; k < envs.size(); ++k) {
            const dnn::Network &network = *networks_[k % networks_.size()];
            for (const sim::ExecutionTarget &action : actions) {
                sink += sim_->runWithFaults(network, action, envs[k], retry,
                                            kAccuracyTargetPct, rng)
                            .outcome.energyJ;
            }
        }
    }
    report.check(std::isfinite(sink), "simulator energies are finite");

    // core: exploit step, training step, Q-table size, transfer.
    sim::Outcome outcome;
    outcome.feasible = true;
    outcome.latencyMs = 12.0;
    outcome.energyJ = 0.02;
    outcome.estimatedEnergyJ = 0.02;
    outcome.accuracyPct = 70.0;
    constexpr int kSteps = 20000;
    core::AutoScaleScheduler trained(*sim_, core::SchedulerConfig{},
                                     opSeed(4));
    {
        Span span(report, "core.train_step", kSteps);
        for (int k = 0; k < kSteps; ++k) {
            const Sample &sample = samples_[k % samples_.size()];
            trained.choose(sim::makeRequest(*sample.network), sample.env);
            trained.feedback(outcome);
        }
        trained.finishEpisode();
    }
    {
        trained.setExploration(false);
        Span span(report, "core.choose_exploit", kSteps);
        for (int k = 0; k < kSteps; ++k) {
            const Sample &sample = samples_[k % samples_.size()];
            trained.choose(sim::makeRequest(*sample.network), sample.env);
            trained.feedback(outcome);
        }
        trained.finishEpisode();
    }
    report.value("core.qtable_bytes",
                 static_cast<double>(trained.agent().table().memoryBytes()));
    {
        core::AutoScaleScheduler fresh(*sim_, core::SchedulerConfig{},
                                       opSeed(5));
        for (int k = 0; k < 20; ++k) {
            Span span(report, "core.transferFrom");
            fresh.transferFrom(trained);
        }
    }

    // baselines: the Opt sweep.
    {
        const baselines::OptOracle oracle(*sim_);
        constexpr int kRepeats = 20;
        Span span(report, "baselines.optimalTarget",
                  static_cast<double>(kRepeats * samples_.size()));
        for (int r = 0; r < kRepeats; ++r) {
            for (const Sample &sample : samples_) {
                const sim::ExecutionTarget target = oracle.optimalTarget(
                    sim::makeRequest(*sample.network), sample.env);
                sink += static_cast<double>(target.vfIndex);
            }
        }
    }

    // harness: one paper-budget LOO fold split into training (with the
    // held-out warm-up) and evaluation.
    {
        const dnn::Network *heldOut = networks_.front();
        const std::vector<env::ScenarioId> scenarios = looScenarios();
        harness::AutoScalePolicy policy(*sim_, core::SchedulerConfig{},
                                        opSeed(6));
        Rng rng(opSeed(7));
        {
            Span span(report, "harness.trainPolicy");
            harness::trainPolicy(policy, *sim_,
                                 harness::zooNetworksExcept(heldOut->name()),
                                 scenarios, kLooTrainRuns, rng);
            harness::trainPolicy(policy, *sim_, {heldOut}, scenarios,
                                 kLooWarmupRuns, rng);
        }
        policy.setExploration(false);
        harness::EvalOptions options;
        options.runsPerCombo = kLooEvalRuns;
        options.seed = opSeed(8);
        Span span(report, "harness.evaluatePolicy");
        const harness::RunStats stats = harness::evaluatePolicy(
            policy, *sim_, {heldOut}, scenarios, options);
        span.stop();
        report.check(stats.count()
                         == static_cast<int>(scenarios.size())
                             * kLooEvalRuns,
                     "fold evaluation count");
    }

    // serve: the serve-flaky loop, untraced and with the decision trace
    // recorder on (obs.trace_ns_per_decision is the difference).
    {
        std::string path = qtablePath_;
        if (path.empty()) {
            path = pretrainQTable(kServePretrainRuns);
        }
        constexpr std::int64_t kArrivals = 200000;
        serve::ServeConfig config = flakyServeConfig(kArrivals);
        config.qtablePath = path;
        config.seed = opSeed(0);
        std::vector<double> plain;
        std::vector<double> traced;
        double served = 0.0;
        for (int k = 0; k < 3; ++k) {
            obs::MetricsRegistry metrics;
            obs::ObsContext obs;
            obs.metrics = &metrics;
            // Without serve-flaky's own operations in this run, these
            // spans are also where serve.ns_per_arrival comes from.
            Span span(report, "obs.runServe_untraced",
                      static_cast<double>(kArrivals));
            const serve::ServeStats stats =
                serve::runServe(*sim_, config, obs);
            plain.push_back(span.stop());
            served = static_cast<double>(stats.served);
            if (k == 0 && !servesSingleDevice()) {
                reportServe(stats, report);
                ServeFlaky::checkServe(config, stats, metrics, report);
            }
        }
        for (int k = 0; k < 3; ++k) {
            obs::MetricsRegistry metrics;
            obs::TraceRecorder trace;
            obs::ObsContext obs;
            obs.metrics = &metrics;
            obs.trace = &trace;
            Span span(report, "obs.runServe_traced",
                      static_cast<double>(kArrivals));
            serve::runServe(*sim_, config, obs);
            traced.push_back(span.stop());
        }
        report.value("t.obs.trace_ns_per_decision",
                     (median(traced) - median(plain)) * 1e9
                         / std::max(1.0, served));
    }

    // serve: the fleet's visit-weighted merge over learner tables.
    {
        std::vector<std::unique_ptr<core::AutoScaleScheduler>> learners;
        std::vector<core::AutoScaleScheduler *> schedulers;
        for (int d = 0; d < kLearnerDevices; ++d) {
            learners.push_back(std::make_unique<core::AutoScaleScheduler>(
                *sim_, core::SchedulerConfig{}, opSeed(1000 + d)));
            learners.back()->transferFrom(trained);
            for (int k = 0; k < 64; ++k) {
                const Sample &sample =
                    samples_[(k + 7 * d) % samples_.size()];
                learners.back()->choose(sim::makeRequest(*sample.network),
                                        sample.env);
                learners.back()->feedback(outcome);
            }
            learners.back()->finishEpisode();
            schedulers.push_back(learners.back().get());
        }
        for (int k = 0; k < 3; ++k) {
            Span span(report, "serve.mergeQTablesVisitWeighted");
            serve::mergeQTablesVisitWeighted(schedulers);
        }
    }

    // The benchmark's own span cost, for bench.span_overhead_pct.
    {
        Report scratch(true);
        constexpr int kSpans = 100000;
        const double start = nowUs();
        for (int k = 0; k < kSpans; ++k) {
            Span span(scratch, "bench.empty");
        }
        report.value("t.bench.ns_per_span",
                     (nowUs() - start) * 1e3 / kSpans);
    }
    report.check(std::isfinite(sink), "probe results are finite");
}

const std::vector<std::string> &
workloadNames()
{
    static const std::vector<std::string> names = {
        "paper-loo", "serve-flaky", "fleet-100k", "fleet-learners"};
    return names;
}

std::unique_ptr<Workload>
makeWorkload(const std::string &name, std::uint64_t seed,
             const std::string &outDir)
{
    if (name == "paper-loo") {
        return std::make_unique<PaperLoo>(seed, outDir, name);
    }
    if (name == "serve-flaky") {
        return std::make_unique<ServeFlaky>(seed, outDir, name);
    }
    if (name == "fleet-100k") {
        return std::make_unique<Fleet100k>(seed, outDir, name);
    }
    if (name == "fleet-learners") {
        return std::make_unique<FleetLearners>(seed, outDir, name);
    }
    return nullptr;
}

} // namespace perfbench
