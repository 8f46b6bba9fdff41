/**
 * @file
 * Tests for fleet serving (DESIGN.md §15): fleet-of-1 equivalence to
 * the single-device loop, shard/jobs output invariance, contention
 * effects (edge saturation pushing marginal devices local), shared
 * brownout windows hitting every device in the same epoch, and the
 * visit-weighted federated Q-table merge.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <cstdint>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <map>
#include <memory>
#include <set>
#include <sstream>
#include <string>
#include <vector>

#include "core/agent.h"
#include "core/scheduler.h"
#include "dnn/model_zoo.h"
#include "obs/metrics_registry.h"
#include "obs/trace_recorder.h"
#include "platform/device_zoo.h"
#include "serve/device_state.h"
#include "serve/fleet.h"
#include "serve/server.h"
#include "sim/simulator.h"
#include "util/rng.h"

namespace autoscale::serve {
namespace {

const sim::InferenceSimulator &
testSim()
{
    static const sim::InferenceSimulator sim =
        sim::InferenceSimulator::makeDefault(platform::makeMi8Pro());
    return sim;
}

std::vector<const dnn::Network *>
allNetworks()
{
    std::vector<const dnn::Network *> networks;
    for (const dnn::Network &network : dnn::modelZoo()) {
        networks.push_back(&network);
    }
    return networks;
}

/** Small-but-real serve config at @p rateX times local capacity. */
ServeConfig
serveConfig(double rateX, std::int64_t requests)
{
    ServeConfig config;
    config.totalRequests = requests;
    config.trainRunsPerCombo = 5;
    config.seed = 11;
    const double nominal =
        nominalServiceMs(testSim(), allNetworks(), 50.0);
    config.arrival.ratePerSec = rateX * 1000.0 / nominal;
    return config;
}

void
expectStatsBitIdentical(const ServeStats &a, const ServeStats &b)
{
    EXPECT_EQ(a.arrivals, b.arrivals);
    EXPECT_EQ(a.admitted, b.admitted);
    EXPECT_EQ(a.served, b.served);
    EXPECT_EQ(a.degraded, b.degraded);
    EXPECT_EQ(a.shedOverflow, b.shedOverflow);
    EXPECT_EQ(a.shedDeadline, b.shedDeadline);
    EXPECT_EQ(a.shedStale, b.shedStale);
    EXPECT_EQ(a.qosViolations, b.qosViolations);
    EXPECT_EQ(a.accuracyViolations, b.accuracyViolations);
    EXPECT_EQ(a.faultFallbacks, b.faultFallbacks);
    EXPECT_EQ(a.maxQueueDepth, b.maxQueueDepth);
    // Bitwise float equality: the fleet path must replay the exact
    // arithmetic, not approximate it.
    EXPECT_EQ(a.totalWaitMs, b.totalWaitMs);
    EXPECT_EQ(a.totalServiceMs, b.totalServiceMs);
    EXPECT_EQ(a.energyJ, b.energyJ);
    EXPECT_EQ(a.wastedEnergyJ, b.wastedEnergyJ);
    EXPECT_EQ(a.endClockMs, b.endClockMs);
    EXPECT_EQ(a.latenciesMs, b.latenciesMs);
    EXPECT_EQ(a.categoryCounts, b.categoryCounts);
    EXPECT_EQ(a.rngFingerprint, b.rngFingerprint);
}

TEST(Fleet, FleetOfOneMatchesRunServe)
{
    const ServeConfig config = serveConfig(1.5, 120);

    obs::TraceRecorder soloTrace(true);
    obs::MetricsRegistry soloMetrics;
    const ServeStats solo = runServe(
        testSim(), config, obs::ObsContext{&soloTrace, &soloMetrics});

    FleetConfig fleet;
    fleet.serve = config;
    fleet.devices = 1;
    obs::TraceRecorder fleetTrace(true);
    obs::MetricsRegistry fleetMetrics;
    const FleetStats stats = runFleet(
        testSim(), fleet, obs::ObsContext{&fleetTrace, &fleetMetrics});

    ASSERT_EQ(stats.devices.size(), 1u);
    expectStatsBitIdentical(solo, stats.devices[0]);

    // Metrics merge through a device-private registry must reproduce
    // the single-device dump byte for byte. (Traces differ only by the
    // deliberate fleet fields on each event.)
    std::ostringstream soloText;
    soloMetrics.writeText(soloText);
    std::ostringstream fleetText;
    fleetMetrics.writeText(fleetText);
    EXPECT_EQ(soloText.str(), fleetText.str());
    EXPECT_EQ(soloTrace.size(), fleetTrace.size());
}

TEST(Fleet, ShardAndJobsInvariance)
{
    FleetConfig fleet;
    fleet.serve = serveConfig(1.5, 40);
    fleet.devices = 12;
    fleet.qMode = QTableMode::Federated;
    fleet.federatedMergeEpochs = 2;
    fleet.collectQTables = true;
    fleet.infra.edgeCapacity = 1.0;
    fleet.infra.contention = 4.0;
    fleet.infra.brownoutPeriodMs = 1000.0;
    fleet.infra.brownoutDurationMs = 250.0;

    auto run = [&](int shards, int jobs) {
        FleetConfig config = fleet;
        config.shards = shards;
        config.jobs = jobs;
        obs::TraceRecorder trace(true);
        obs::MetricsRegistry metrics;
        const FleetStats stats = runFleet(
            testSim(), config, obs::ObsContext{&trace, &metrics});
        std::ostringstream traceText;
        trace.writeJsonl(traceText);
        std::ostringstream metricsText;
        metrics.writeText(metricsText);
        return std::make_tuple(stats.checksum, stats.qtableDump,
                               traceText.str(), metricsText.str(),
                               stats.epochs);
    };

    const auto base = run(1, 1);
    const auto sharded = run(4, 4);
    const auto odd = run(5, 2);
    EXPECT_EQ(base, sharded);
    EXPECT_EQ(base, odd);
}

TEST(Fleet, EdgeSaturationPushesMarginalDevicesLocal)
{
    FleetConfig fleet;
    // Below local capacity so the uncontended fleet serves comfortably;
    // any extra shedding in the tight fleet is the contention's doing.
    fleet.serve = serveConfig(0.6, 60);
    // A remote-only policy makes every served request want the shared
    // edge; saturation must inflate service, build queues, and trip the
    // degradation ladder onto the local fallback.
    fleet.serve.policyName = "connected-edge";
    fleet.devices = 8;

    FleetConfig tight = fleet;
    tight.infra.edgeCapacity = 1.0;
    tight.infra.contention = 8.0;

    FleetConfig loose = fleet;
    loose.infra.edgeCapacity = 64.0;
    loose.infra.contention = 1.0;

    const FleetStats contended = runFleet(testSim(), tight, {});
    const FleetStats uncontended = runFleet(testSim(), loose, {});

    EXPECT_GT(contended.maxEdgeQueueMs, 0.0);
    EXPECT_EQ(uncontended.maxEdgeQueueMs, 0.0);
    // Queue pressure under saturation shifts the admission share: more
    // requests get degraded onto the local device (or shed) than in
    // the uncontended fleet.
    EXPECT_GT(contended.totalDegraded() + contended.totalShed(),
              uncontended.totalDegraded() + uncontended.totalShed());
    // And the requests that do reach the edge pay the queue wait: mean
    // served latency inflates under saturation.
    double tightServiceMs = 0.0;
    std::int64_t tightServed = 0;
    double looseServiceMs = 0.0;
    std::int64_t looseServed = 0;
    for (const ServeStats &stats : contended.devices) {
        tightServiceMs += stats.totalServiceMs;
        tightServed += stats.served;
    }
    for (const ServeStats &stats : uncontended.devices) {
        looseServiceMs += stats.totalServiceMs;
        looseServed += stats.served;
    }
    ASSERT_GT(tightServed, 0);
    ASSERT_GT(looseServed, 0);
    EXPECT_GT(tightServiceMs / static_cast<double>(tightServed),
              looseServiceMs / static_cast<double>(looseServed));
}

TEST(Fleet, BrownoutHitsAllDevicesInTheSameEpoch)
{
    FleetConfig fleet;
    fleet.serve = serveConfig(0.8, 60);
    fleet.serve.policyName = "cloud";
    fleet.devices = 4;
    fleet.epochMs = 200.0;
    fleet.infra.brownoutPeriodMs = 400.0;
    fleet.infra.brownoutDurationMs = 200.0;
    fleet.infra.brownoutSlowdown = 4.0;

    obs::TraceRecorder trace(true);
    const FleetStats stats =
        runFleet(testSim(), fleet, obs::ObsContext{&trace, nullptr});
    EXPECT_GT(stats.brownoutEpochs, 0);
    EXPECT_GT(stats.brownoutWindows, 0);

    // Cloud-served (non-fallback) events within one epoch must agree on
    // the brownout flag: the window lives in fleet virtual time, not in
    // any per-device stream.
    std::map<long long, std::set<bool>> flagsByEpoch;
    std::map<long long, std::set<int>> brownoutDevices;
    for (const obs::DecisionEvent &event : trace.snapshot()) {
        if (event.serveOutcome != "served" || event.category != "Cloud"
            || event.faultFallback || !event.feasible) {
            continue;
        }
        ASSERT_GE(event.deviceId, 0);
        flagsByEpoch[event.fleetEpoch].insert(event.fleetBrownout);
        if (event.fleetBrownout) {
            brownoutDevices[event.fleetEpoch].insert(event.deviceId);
        }
    }
    ASSERT_FALSE(flagsByEpoch.empty());
    for (const auto &[epoch, flags] : flagsByEpoch) {
        EXPECT_EQ(flags.size(), 1u)
            << "brownout flag split within epoch " << epoch;
    }
    // At least one brownout epoch touched several devices at once.
    std::size_t widest = 0;
    for (const auto &[epoch, devices] : brownoutDevices) {
        widest = std::max(widest, devices.size());
    }
    EXPECT_GE(widest, 2u);
}

TEST(Fleet, FederatedMergeWithZeroVisitPeersIsANoOp)
{
    const sim::InferenceSimulator &sim = testSim();
    core::AutoScaleScheduler trained(sim, {}, 1);
    core::AutoScaleScheduler idleB(sim, {}, 2);
    core::AutoScaleScheduler idleC(sim, {}, 3);

    // Give the trained peer real experience at a few cells.
    const int numActions = trained.agent().table().numActions();
    for (int step = 0; step < 200; ++step) {
        const int state = step % 7;
        const int action = step % numActions;
        trained.mutableAgent().update(state, action, 0.25 * step, state);
    }
    const core::QTable before = trained.agent().table();
    const core::QTable beforeB = idleB.agent().table();

    mergeQTablesVisitWeighted({&trained, &idleB, &idleC});

    const core::QTable &after = trained.agent().table();
    const core::QTable &afterB = idleB.agent().table();
    const int numStates = before.numStates();
    for (int s = 0; s < numStates; ++s) {
        for (int a = 0; a < numActions; ++a) {
            // Zero-visit peers contribute nothing: the trained table is
            // bitwise untouched everywhere.
            EXPECT_EQ(before.at(s, a), after.at(s, a))
                << "trained table perturbed at (" << s << "," << a << ")";
            if (trained.agent().visitCount(s, a) > 0) {
                // Visited cells propagate the trained value to peers.
                EXPECT_EQ(afterB.at(s, a), before.at(s, a));
            } else {
                // Unvisited cells leave peers untouched.
                EXPECT_EQ(afterB.at(s, a), beforeB.at(s, a));
            }
        }
    }
}

TEST(Fleet, ChurnIsShardInvariantAndCountsLoss)
{
    // DESIGN.md §17: churn draws are pure functions of
    // (masterSeed, deviceIndex, epoch), so crash/leave/join schedules —
    // and every byte they influence — must not move when the fleet is
    // re-sharded.
    FleetConfig fleet;
    fleet.serve = serveConfig(1.5, 150);
    fleet.devices = 8;
    fleet.qMode = QTableMode::Shared;
    fleet.collectQTables = true;
    fleet.churn.crashProb = 0.10;
    fleet.churn.leaveProb = 0.05;
    fleet.churn.downEpochs = 2;
    fleet.churn.initialDevices = 3;
    fleet.churn.joinEveryEpochs = 1;
    fleet.infra.outagePeriodMs = 1000.0;
    fleet.infra.outageDurationMs = 250.0;

    auto run = [&](int shards, int jobs) {
        FleetConfig config = fleet;
        config.shards = shards;
        config.jobs = jobs;
        obs::TraceRecorder trace(true);
        obs::MetricsRegistry metrics;
        const FleetStats stats = runFleet(
            testSim(), config, obs::ObsContext{&trace, &metrics});
        std::ostringstream traceText;
        trace.writeJsonl(traceText);
        std::ostringstream metricsText;
        metrics.writeText(metricsText);
        return std::make_tuple(stats.checksum, stats.qtableDump,
                               traceText.str(), metricsText.str(),
                               stats.epochs, stats.churnCrashes,
                               stats.churnLeaves, stats.churnRejoins,
                               stats.totalShedChurn());
    };

    const auto base = run(1, 1);
    const auto sharded = run(4, 4);
    const auto odd = run(5, 2);
    EXPECT_EQ(base, sharded);
    EXPECT_EQ(base, odd);

    // The schedule above is violent enough that the run must actually
    // exercise churn: devices crash or leave, go offline, lose work.
    const FleetStats probeStats = [&] {
        FleetConfig config = fleet;
        return runFleet(testSim(), config, {});
    }();
    EXPECT_GT(probeStats.churnCrashes + probeStats.churnLeaves, 0);
    EXPECT_GT(probeStats.offlineDeviceEpochs, 0);
    EXPECT_GT(probeStats.totalShedChurn(), 0);
    EXPECT_GT(probeStats.churnJoins, 0);
    EXPECT_GT(probeStats.outageEpochs, 0);
    // Conservation: every arrival is accounted for — served, shed by
    // QoS machinery, or lost to churn. (totalShed() deliberately
    // excludes churn so the classic "shed" row keeps its meaning.)
    EXPECT_EQ(probeStats.totalArrivals(),
              probeStats.totalServed() + probeStats.totalShed()
                  + probeStats.totalShedChurn());
}

TEST(Fleet, HaltThenResumeMatchesUninterruptedByteForByte)
{
    // Checkpoint-verified deterministic replay (fleet_checkpoint.h):
    // crash at an epoch barrier (simulated via haltAfterEpochs), resume
    // from the manifest, and the completed run's trace, metrics, and
    // Q-tables must equal the uninterrupted run's byte for byte.
    const char *path = "fleet_unit.ckpt";
    std::remove(path);
    std::remove("fleet_unit.ckpt.prev");

    FleetConfig fleet;
    fleet.serve = serveConfig(2.0, 200);
    fleet.devices = 4;
    fleet.qMode = QTableMode::Shared;
    fleet.collectQTables = true;
    fleet.churn.crashProb = 0.08;
    fleet.churn.downEpochs = 2;

    auto run = [&](bool checkpoint, bool resume, int haltAfter) {
        FleetConfig config = fleet;
        if (checkpoint) {
            config.serve.checkpointPath = path;
        }
        config.serve.resume = resume;
        config.haltAfterEpochs = haltAfter;
        obs::TraceRecorder trace(true);
        obs::MetricsRegistry metrics;
        const FleetStats stats = runFleet(
            testSim(), config, obs::ObsContext{&trace, &metrics});
        std::ostringstream traceText;
        trace.writeJsonl(traceText);
        std::ostringstream metricsText;
        metrics.writeText(metricsText);
        return std::make_tuple(stats, traceText.str(), metricsText.str());
    };

    const auto [baseStats, baseTrace, baseMetrics] = run(false, false, 0);
    ASSERT_GT(baseStats.epochs, 3);

    const auto [haltStats, haltTrace, haltMetrics] = run(true, false, 2);
    EXPECT_TRUE(haltStats.halted);
    EXPECT_EQ(haltStats.epochs, 2);
    EXPECT_GT(haltStats.checkpointsWritten, 0);
    // A halted run exports nothing (the simulated process died).
    EXPECT_TRUE(haltTrace.empty());

    const auto [resStats, resTrace, resMetrics] = run(true, true, 0);
    EXPECT_TRUE(resStats.resumed);
    EXPECT_EQ(resStats.resumeEpoch, 1);
    EXPECT_FALSE(resStats.halted);
    EXPECT_EQ(resStats.checksum, baseStats.checksum);
    EXPECT_EQ(resStats.qtableDump, baseStats.qtableDump);
    EXPECT_EQ(resStats.epochs, baseStats.epochs);
    EXPECT_EQ(resTrace, baseTrace);
    EXPECT_EQ(resMetrics, baseMetrics);

    std::remove(path);
    std::remove("fleet_unit.ckpt.prev");
}

TEST(Fleet, MergedQTableSnapshotEqualsInPlaceMerge)
{
    const sim::InferenceSimulator &sim = testSim();
    core::AutoScaleScheduler a(sim, {}, 1);
    core::AutoScaleScheduler b(sim, {}, 2);
    const int numActions = a.agent().table().numActions();
    for (int step = 0; step < 150; ++step) {
        a.mutableAgent().update(step % 5, step % numActions,
                                0.5 * step, step % 5);
        b.mutableAgent().update(step % 9, (step + 1) % numActions,
                                -0.25 * step, step % 9);
    }

    // The snapshot is computed first (it must not mutate anything),
    // then compared against the authoritative in-place merge.
    const core::QTable beforeA = a.agent().table();
    const core::QTable snapshot = mergedQTableSnapshot({&a, &b});
    const int numStates = beforeA.numStates();
    for (int s = 0; s < numStates; ++s) {
        for (int act = 0; act < numActions; ++act) {
            ASSERT_EQ(a.agent().table().at(s, act), beforeA.at(s, act))
                << "snapshot mutated a source table";
        }
    }
    mergeQTablesVisitWeighted({&a, &b});
    for (int s = 0; s < numStates; ++s) {
        for (int act = 0; act < numActions; ++act) {
            EXPECT_EQ(snapshot.at(s, act), a.agent().table().at(s, act))
                << "snapshot diverges from merge at (" << s << ","
                << act << ")";
        }
    }
}

// The dense definition of the visit-weighted merge: every cell of
// every table, in state-major order. The library merges only the rows
// some learner visited; the test below proves that the two agree bit
// for bit.
bool
denseCell(const std::vector<core::AutoScaleScheduler *> &schedulers,
          int state, int action, float *out)
{
    std::int64_t totalVisits = 0;
    for (const core::AutoScaleScheduler *scheduler : schedulers) {
        totalVisits += scheduler->agent().visitCount(state, action);
    }
    if (totalVisits == 0) {
        return false;
    }
    double weighted = 0.0;
    for (const core::AutoScaleScheduler *scheduler : schedulers) {
        weighted +=
            static_cast<double>(scheduler->agent().visitCount(state, action))
            * static_cast<double>(scheduler->agent().table().at(state,
                                                               action));
    }
    *out = static_cast<float>(weighted / static_cast<double>(totalVisits));
    return true;
}

void
denseMerge(const std::vector<core::AutoScaleScheduler *> &schedulers)
{
    if (schedulers.size() < 2) {
        return;
    }
    const core::QTable &first = schedulers.front()->agent().table();
    for (int state = 0; state < first.numStates(); ++state) {
        for (int action = 0; action < first.numActions(); ++action) {
            float merged = 0.0f;
            if (!denseCell(schedulers, state, action, &merged)) {
                continue;
            }
            for (core::AutoScaleScheduler *scheduler : schedulers) {
                scheduler->mutableAgent().mutableTable().at(state, action) =
                    merged;
            }
        }
    }
}

core::QTable
denseSnapshot(const std::vector<core::AutoScaleScheduler *> &schedulers)
{
    core::QTable merged = schedulers.front()->agent().table();
    if (schedulers.size() < 2) {
        return merged;
    }
    for (int state = 0; state < merged.numStates(); ++state) {
        for (int action = 0; action < merged.numActions(); ++action) {
            float value = 0.0f;
            if (denseCell(schedulers, state, action, &value)) {
                merged.at(state, action) = value;
            }
        }
    }
    return merged;
}

/** Cells whose float bit patterns differ between @p a and @p b. */
int
bitwiseMismatches(const core::QTable &a, const core::QTable &b)
{
    int mismatches = 0;
    for (int s = 0; s < a.numStates(); ++s) {
        for (int act = 0; act < a.numActions(); ++act) {
            if (std::bit_cast<std::uint32_t>(a.at(s, act))
                != std::bit_cast<std::uint32_t>(b.at(s, act))) {
                ++mismatches;
            }
        }
    }
    return mismatches;
}

/**
 * Learners 0 and 1 stay idle; the rest update overlapping windows of
 * states with mostly negative rewards, more of them the higher the
 * index. @p phase varies the draws between rounds of experience.
 */
void
giveExperience(std::vector<core::AutoScaleScheduler> &learners, int phase)
{
    for (std::size_t i = 2; i < learners.size(); ++i) {
        core::QLearningAgent &agent = learners[i].mutableAgent();
        const int numActions = agent.table().numActions();
        Rng rng(1000 * static_cast<std::uint64_t>(phase) + i);
        const int steps = 20 + 15 * static_cast<int>(i);
        for (int step = 0; step < steps; ++step) {
            const int base = 10 * static_cast<int>(i) + 7 * phase;
            const int state = base + static_cast<int>(rng.uniformInt(40));
            const int next = base + static_cast<int>(rng.uniformInt(40));
            const int action = static_cast<int>(
                rng.uniformInt(static_cast<std::uint64_t>(numActions)));
            agent.update(state, action, rng.uniform(-40.0, 5.0), next);
        }
    }
}

TEST(Fleet, SparseMergeMatchesDenseDefinition)
{
    const sim::InferenceSimulator &sim = testSim();
    constexpr int kLearners = 10;
    std::vector<core::AutoScaleScheduler> learners;
    for (int i = 0; i < kLearners; ++i) {
        learners.emplace_back(sim, core::SchedulerConfig{}, 40 + i);
    }
    giveExperience(learners, 0);
    // One cell past the uint16 visit ceiling, which a second learner
    // also visited.
    constexpr int kHotState = 60;
    constexpr int kHotAction = 5;
    for (int step = 0; step < 70000; ++step) {
        learners[2].mutableAgent().update(kHotState, kHotAction,
                                          -3.0 - 1e-4 * step, kHotState);
    }
    learners[7].mutableAgent().update(kHotState, kHotAction, 2.5, 61);
    ASSERT_EQ(learners[2].agent().visitCount(kHotState, kHotAction), 0xffff);
    ASSERT_TRUE(learners[0].agent().visitedStates().empty());
    ASSERT_TRUE(learners[1].agent().visitedStates().empty());

    std::vector<core::AutoScaleScheduler> reference = learners;
    auto pointers = [](std::vector<core::AutoScaleScheduler> &fleet,
                       const std::vector<int> &indices) {
        std::vector<core::AutoScaleScheduler *> out;
        for (const int i : indices) {
            out.push_back(&fleet[static_cast<std::size_t>(i)]);
        }
        return out;
    };
    auto expectFleetsEqual = [&](const char *stage) {
        for (int i = 0; i < kLearners; ++i) {
            EXPECT_EQ(bitwiseMismatches(
                          learners[static_cast<std::size_t>(i)]
                              .agent().table(),
                          reference[static_cast<std::size_t>(i)]
                              .agent().table()),
                      0)
                << stage << ": learner " << i;
        }
    };
    const std::vector<int> everyone = {0, 1, 2, 3, 4, 5, 6, 7, 8, 9};
    // A churn-style barrier: only the devices online merge, and an idle
    // learner is among them.
    const std::vector<int> present = {1, 2, 4, 5, 7, 9};

    for (const std::vector<int> &group : {everyone, present}) {
        EXPECT_EQ(bitwiseMismatches(
                      mergedQTableSnapshot(pointers(learners, group)),
                      denseSnapshot(pointers(reference, group))),
                  0)
            << "snapshot over " << group.size() << " learners";
    }
    expectFleetsEqual("after snapshots");

    mergeQTablesVisitWeighted(pointers(learners, present));
    denseMerge(pointers(reference, present));
    expectFleetsEqual("after the present-subset merge");

    // More experience after a merge, then a full barrier.
    giveExperience(learners, 1);
    giveExperience(reference, 1);
    EXPECT_EQ(bitwiseMismatches(mergedQTableSnapshot(pointers(learners,
                                                              everyone)),
                                denseSnapshot(pointers(reference,
                                                       everyone))),
              0)
        << "snapshot after more experience";
    mergeQTablesVisitWeighted(pointers(learners, everyone));
    denseMerge(pointers(reference, everyone));
    expectFleetsEqual("after the full merge");
}

// ---------------------------------------------------------------------
// Copy-on-write learner tables (DESIGN.md §18): the fleet's operations
// on CoW tables must give the values the dense definition gives.
// ---------------------------------------------------------------------

/**
 * A learner as dense arrays: the full Q-table and visit counts, updated
 * with Algorithm 1's arithmetic exactly as QLearningAgent::update does
 * it, with no sharing of any kind.
 */
struct DenseLearner {
    std::vector<float> q;
    std::vector<std::uint16_t> visits;
};

DenseLearner
denseOf(const core::AutoScaleScheduler &learner)
{
    const core::QTable &table = learner.agent().table();
    DenseLearner dense;
    for (int s = 0; s < table.numStates(); ++s) {
        for (int a = 0; a < table.numActions(); ++a) {
            dense.q.push_back(table.at(s, a));
            dense.visits.push_back(static_cast<std::uint16_t>(
                learner.agent().visitCount(s, a)));
        }
    }
    return dense;
}

void
denseUpdate(DenseLearner &dense, int numActions, int state, int action,
            double reward, int next)
{
    const core::QLearningConfig config;
    const std::size_t cell = static_cast<std::size_t>(state * numActions
                                                      + action);
    const double rate = std::max(
        config.learningRate
            / (1.0 + config.visitDecay
                         * static_cast<double>(dense.visits[cell])),
        config.minLearningRate);
    const double old = dense.q[cell];
    if (dense.visits[cell] < 0xffff) {
        ++dense.visits[cell];
    }
    float best = dense.q[static_cast<std::size_t>(next * numActions)];
    for (int a = 1; a < numActions; ++a) {
        best = std::max(
            best, dense.q[static_cast<std::size_t>(next * numActions + a)]);
    }
    const double target = reward + config.discount * best;
    dense.q[cell] = static_cast<float>(old + rate * (target - old));
}

/** denseCell over dense learners: the per-cell merge definition. */
bool
denseLearnerCell(const std::vector<DenseLearner *> &learners,
                 std::size_t cell, float *out)
{
    std::int64_t totalVisits = 0;
    for (const DenseLearner *learner : learners) {
        totalVisits += learner->visits[cell];
    }
    if (totalVisits == 0) {
        return false;
    }
    double weighted = 0.0;
    for (const DenseLearner *learner : learners) {
        weighted += static_cast<double>(learner->visits[cell])
            * static_cast<double>(learner->q[cell]);
    }
    *out = static_cast<float>(weighted / static_cast<double>(totalVisits));
    return true;
}

/** Cells where @p learner and @p dense disagree (bits or visits). */
int
mismatchesAgainstDense(const core::AutoScaleScheduler &learner,
                       const DenseLearner &dense)
{
    const core::QTable &table = learner.agent().table();
    int mismatches = 0;
    for (int s = 0; s < table.numStates(); ++s) {
        const float *row = table.row(s);
        for (int a = 0; a < table.numActions(); ++a) {
            const std::size_t cell =
                static_cast<std::size_t>(s * table.numActions() + a);
            if (std::bit_cast<std::uint32_t>(row[a])
                    != std::bit_cast<std::uint32_t>(dense.q[cell])
                || learner.agent().visitCount(s, a) != dense.visits[cell]) {
                ++mismatches;
            }
        }
    }
    return mismatches;
}

TEST(FleetCow, InterleavedOperationsMatchDenseReplay)
{
    // Seeded interleavings of the operations a fleet applies to its
    // learners: updates, direct cell writes, copies, warm starts, and
    // visit-weighted merges and snapshots over churn-style subsets.
    // Learners 0-5 start on one shared base (5 warm-built from device
    // 0), learners 6-7 on bases of their own.
    const sim::InferenceSimulator &sim = testSim();
    constexpr int kLearners = 8;
    for (const std::uint64_t seed : {1u, 2u, 3u}) {
        std::vector<std::unique_ptr<core::AutoScaleScheduler>> learners;
        learners.push_back(std::make_unique<core::AutoScaleScheduler>(
            sim, core::SchedulerConfig{}, 500 + seed));
        for (int i = 1; i < kLearners; ++i) {
            if (i < 6) {
                learners.push_back(std::make_unique<core::AutoScaleScheduler>(
                    sim, core::SchedulerConfig{}, 600 + i, *learners[0]));
            } else {
                learners.push_back(std::make_unique<core::AutoScaleScheduler>(
                    sim, core::SchedulerConfig{}, 700 + i));
            }
        }
        std::vector<DenseLearner> dense;
        for (const auto &learner : learners) {
            dense.push_back(denseOf(*learner));
        }
        const int numStates = learners[0]->agent().table().numStates();
        const int numActions = learners[0]->agent().table().numActions();

        Rng rng(seed);
        auto pick = [&](int n) {
            return static_cast<int>(
                rng.uniformInt(static_cast<std::uint64_t>(n)));
        };
        // States cluster in a window so learners' rows overlap.
        auto pickState = [&]() { return 200 + pick(60); };
        auto checkAll = [&](const char *stage, int op) {
            for (int i = 0; i < kLearners; ++i) {
                ASSERT_EQ(mismatchesAgainstDense(
                              *learners[static_cast<std::size_t>(i)],
                              dense[static_cast<std::size_t>(i)]),
                          0)
                    << stage << " seed " << seed << " op " << op
                    << " learner " << i;
            }
        };
        int merges = 0;
        for (int op = 0; op < 400; ++op) {
            const int kind = pick(100);
            const int i = pick(kLearners);
            const int j = pick(kLearners);
            core::AutoScaleScheduler &learner =
                *learners[static_cast<std::size_t>(i)];
            DenseLearner &reference = dense[static_cast<std::size_t>(i)];
            if (kind < 60) {
                const int state = pickState();
                const int next = pickState();
                const int action = pick(numActions);
                const double reward = rng.uniform(-30.0, 5.0);
                learner.mutableAgent().update(state, action, reward, next);
                denseUpdate(reference, numActions, state, action, reward,
                            next);
            } else if (kind < 68) {
                // A write outside learning: the cell keeps zero visits.
                const int state = pick(numStates);
                const int action = pick(numActions);
                const float value = static_cast<float>(rng.uniform(-9, 9));
                learner.mutableAgent().mutableTable().at(state, action) =
                    value;
                reference.q[static_cast<std::size_t>(state * numActions
                                                     + action)] = value;
            } else if (kind < 74) {
                if (i != j) {
                    learners[static_cast<std::size_t>(i)] =
                        std::make_unique<core::AutoScaleScheduler>(
                            *learners[static_cast<std::size_t>(j)]);
                    reference = dense[static_cast<std::size_t>(j)];
                }
            } else if (kind < 80) {
                if (i != j) {
                    learners[static_cast<std::size_t>(i)] =
                        std::make_unique<core::AutoScaleScheduler>(
                            sim, core::SchedulerConfig{}, 800 + op,
                            *learners[static_cast<std::size_t>(j)]);
                    reference.q = dense[static_cast<std::size_t>(j)].q;
                    std::fill(reference.visits.begin(),
                              reference.visits.end(), 0);
                }
            } else {
                std::vector<int> present;
                for (int k = 0; k < kLearners; ++k) {
                    if (kind >= 95 || rng.bernoulli(0.7)) {
                        present.push_back(k);
                    }
                }
                std::vector<core::AutoScaleScheduler *> cow;
                std::vector<DenseLearner *> flat;
                for (const int k : present) {
                    cow.push_back(learners[static_cast<std::size_t>(k)].get());
                    flat.push_back(&dense[static_cast<std::size_t>(k)]);
                }
                if (present.empty()) {
                    continue;
                }
                // The snapshot first: it must equal the dense one and
                // leave every learner as it was.
                const core::QTable snapshot = mergedQTableSnapshot(cow);
                const std::size_t cells = flat.front()->q.size();
                int snapshotMismatches = 0;
                for (std::size_t cell = 0; cell < cells; ++cell) {
                    float want = flat.front()->q[cell];
                    if (flat.size() >= 2) {
                        denseLearnerCell(flat, cell, &want);
                    }
                    const int s = static_cast<int>(cell) / numActions;
                    const int a = static_cast<int>(cell) % numActions;
                    if (std::bit_cast<std::uint32_t>(snapshot.at(s, a))
                        != std::bit_cast<std::uint32_t>(want)) {
                        ++snapshotMismatches;
                    }
                }
                ASSERT_EQ(snapshotMismatches, 0)
                    << "snapshot, seed " << seed << " op " << op;
                mergeQTablesVisitWeighted(cow);
                if (flat.size() >= 2) {
                    for (std::size_t cell = 0; cell < cells; ++cell) {
                        float merged = 0.0f;
                        if (denseLearnerCell(flat, cell, &merged)) {
                            for (DenseLearner *d : flat) {
                                d->q[cell] = merged;
                            }
                        }
                    }
                }
                ++merges;
                checkAll("after merge", op);
            }
            if (op % 40 == 39) {
                checkAll("periodic", op);
            }
        }
        checkAll("final", 400);
        EXPECT_GE(merges, 30) << "seed " << seed;
    }
}

TEST(FleetCow, FederatedLearnersOwnOnlyTheRowsTheyWrite)
{
    // The learner-fleet memory envelope, counted in owned bytes rather
    // than RSS so it holds under any allocator or sanitizer: after
    // warm starts, learning and merges, a learner owns its visit counts
    // and the rows it wrote since the last merge, and every learner
    // that took the last merge reads one shared base.
    const sim::InferenceSimulator &sim = testSim();
    constexpr int kLearners = 1000;
    constexpr int kSteps = 150;
    constexpr int kMergeEvery = 50;
    std::vector<std::unique_ptr<core::AutoScaleScheduler>> learners;
    learners.push_back(std::make_unique<core::AutoScaleScheduler>(
        sim, core::SchedulerConfig{}, 1));
    for (int i = 1; i < kLearners; ++i) {
        learners.push_back(std::make_unique<core::AutoScaleScheduler>(
            sim, core::SchedulerConfig{}, 1000 + i, *learners[0]));
    }
    std::vector<core::AutoScaleScheduler *> all;
    for (const auto &learner : learners) {
        all.push_back(learner.get());
    }
    const int numActions = all[0]->agent().table().numActions();
    auto ownedPerLearner = [&]() {
        std::size_t owned = 0;
        for (const core::AutoScaleScheduler *learner : all) {
            owned += learner->agent().ownedBytes();
        }
        // Plus the one shared base, spread over the fleet.
        return static_cast<double>(
                   owned + all[0]->agent().table().memoryBytes())
            / kLearners;
    };
    double peak = 0.0;
    Rng rng(17);
    for (int step = 1; step <= kSteps; ++step) {
        for (core::AutoScaleScheduler *learner : all) {
            // A handful of Table I states per learner, as in serving.
            const int state = 300 + static_cast<int>(rng.uniformInt(24));
            learner->mutableAgent().update(
                state, static_cast<int>(rng.uniformInt(
                           static_cast<std::uint64_t>(numActions))),
                rng.uniform(-20.0, 0.0), state);
        }
        if (step % kMergeEvery == 0) {
            peak = std::max(peak, ownedPerLearner());
            mergeQTablesVisitWeighted(all);
        }
    }

    for (const core::AutoScaleScheduler *learner : all) {
        EXPECT_TRUE(learner->agent().table().sharesBaseWith(
            all[0]->agent().table()));
        EXPECT_TRUE(learner->agent().table().privateStates().empty());
    }
    // Between merges two 3072-entry state indices (12 KB each, private
    // rows and visit counts) dominate; the dense layout held 1.2 MB
    // per learner. A merge drops the private rows and their index.
    EXPECT_LT(peak, 40.0 * 1024.0);
    EXPECT_LT(ownedPerLearner(), 20.0 * 1024.0);
}

TEST(FleetCow, LearnerThatMissedAMergeRejoinsTheSharedBase)
{
    // A long churning run: each round a random fifth of the fleet is
    // offline, learns nothing and misses the merge. After every merge
    // each present learner, including one that missed earlier merges,
    // reads the one merged base and owns exactly the rows where its
    // values differ from that base, so no learner accumulates the rows
    // of merges it missed.
    const sim::InferenceSimulator &sim = testSim();
    constexpr int kLearners = 40;
    constexpr int kRounds = 30;
    std::vector<std::unique_ptr<core::AutoScaleScheduler>> learners;
    learners.push_back(std::make_unique<core::AutoScaleScheduler>(
        sim, core::SchedulerConfig{}, 3));
    for (int i = 1; i < kLearners; ++i) {
        learners.push_back(std::make_unique<core::AutoScaleScheduler>(
            sim, core::SchedulerConfig{}, 3000 + i, *learners[0]));
    }
    const int numStates = learners[0]->agent().table().numStates();
    const int numActions = learners[0]->agent().table().numActions();
    const std::size_t rowBytes =
        static_cast<std::size_t>(numActions) * sizeof(float);
    Rng rng(23);
    int stragglersChecked = 0;
    std::vector<char> missedLast(kLearners, 0);
    for (int round = 0; round < kRounds; ++round) {
        std::vector<core::AutoScaleScheduler *> present;
        std::vector<int> presentIds;
        for (int i = 0; i < kLearners; ++i) {
            if (!rng.bernoulli(0.8)) {
                missedLast[static_cast<std::size_t>(i)] = 1;
                continue;
            }
            core::AutoScaleScheduler &learner =
                *learners[static_cast<std::size_t>(i)];
            for (int step = 0; step < 4; ++step) {
                const int state = 300 + static_cast<int>(rng.uniformInt(40));
                learner.mutableAgent().update(
                    state,
                    static_cast<int>(rng.uniformInt(
                        static_cast<std::uint64_t>(numActions))),
                    rng.uniform(-20.0, 0.0), state);
            }
            present.push_back(&learner);
            presentIds.push_back(i);
        }
        ASSERT_GE(present.size(), 2u);
        mergeQTablesVisitWeighted(present);

        const core::QTable base = present[0]->agent().table().copyOfBase();
        for (std::size_t k = 0; k < present.size(); ++k) {
            const core::QTable &table = present[k]->agent().table();
            ASSERT_TRUE(table.sharesBaseWith(present[0]->agent().table()))
                << "round " << round << " learner " << presentIds[k];
            std::vector<int> differing;
            for (int s = 0; s < numStates; ++s) {
                if (std::memcmp(table.row(s), base.row(s), rowBytes) != 0) {
                    differing.push_back(s);
                }
            }
            std::vector<int> owned = table.privateStates();
            std::sort(owned.begin(), owned.end());
            ASSERT_EQ(owned, differing)
                << "round " << round << " learner " << presentIds[k];
            const std::size_t id = static_cast<std::size_t>(presentIds[k]);
            stragglersChecked += missedLast[id];
            missedLast[id] = 0;
        }
    }
    EXPECT_GE(stragglersChecked, 50);
}

// ---------------------------------------------------------------------
// Compact device layout (DESIGN.md §18): shared plans, one contiguous
// DeviceState array, per-device metrics blocks, per-shard trace
// buffers, per-shard batch engines. These tests pin every exported
// byte across shard layouts and across a halt/resume; the golden_fleet_*
// ctests pin the bytes themselves.
// ---------------------------------------------------------------------

std::string
fileBytes(const char *path)
{
    std::ifstream in(path, std::ios::binary);
    std::ostringstream bytes;
    bytes << in.rdbuf();
    return bytes.str();
}

TEST(FleetCompact, QModeChurnMatrixIsShardInvariant)
{
    // Full matrix: every Q-table mode, with and without churn, at shard
    // counts 1 and 4. The tuple covers the checksum (RNG fingerprints +
    // stats), Q-table dumps, the JSONL trace, and the metrics dump — if
    // any per-device arithmetic, RNG draw, counter, or flush order
    // depended on the shard layout, something here changes.
    for (const QTableMode qMode :
         {QTableMode::PerDevice, QTableMode::Shared,
          QTableMode::Federated}) {
        for (const bool churn : {false, true}) {
            FleetConfig fleet;
            fleet.serve = serveConfig(1.5, 30);
            fleet.devices = 6;
            fleet.qMode = qMode;
            fleet.federatedMergeEpochs = 2;
            fleet.collectQTables = true;
            fleet.infra.edgeCapacity = 1.0;
            fleet.infra.contention = 4.0;
            fleet.infra.brownoutPeriodMs = 1000.0;
            fleet.infra.brownoutDurationMs = 250.0;
            if (churn) {
                fleet.churn.crashProb = 0.10;
                fleet.churn.leaveProb = 0.05;
                fleet.churn.downEpochs = 2;
                fleet.churn.initialDevices = 3;
                fleet.churn.joinEveryEpochs = 1;
            }

            auto run = [&](int shards) {
                FleetConfig config = fleet;
                config.shards = shards;
                obs::TraceRecorder trace(true);
                obs::MetricsRegistry metrics;
                const FleetStats stats = runFleet(
                    testSim(), config,
                    obs::ObsContext{&trace, &metrics});
                std::ostringstream traceText;
                trace.writeJsonl(traceText);
                std::ostringstream metricsText;
                metrics.writeText(metricsText);
                return std::make_tuple(stats.checksum, stats.qtableDump,
                                       traceText.str(),
                                       metricsText.str(), stats.epochs,
                                       stats.totalShedChurn());
            };

            EXPECT_EQ(run(1), run(4))
                << qTableModeName(qMode) << " churn=" << churn;
        }
    }
}

TEST(FleetCompact, CheckpointBytesMatchAcrossShards)
{
    // The fleet manifest digest deliberately excludes the shard count,
    // so a run halted at 1 shard and one halted at 4 must leave
    // byte-identical manifests — and resuming the 1-shard manifest at
    // 4 shards must replay to the uninterrupted run's exact outputs.
    const char *path = "fleet_compact_unit.ckpt";
    const char *prev = "fleet_compact_unit.ckpt.prev";

    FleetConfig fleet;
    fleet.serve = serveConfig(2.0, 200);
    fleet.devices = 4;
    fleet.qMode = QTableMode::Shared;
    fleet.collectQTables = true;
    fleet.churn.crashProb = 0.08;
    fleet.churn.downEpochs = 2;

    auto haltedManifest = [&](int shards) {
        std::remove(path);
        std::remove(prev);
        FleetConfig config = fleet;
        config.shards = shards;
        config.serve.checkpointPath = path;
        config.haltAfterEpochs = 2;
        const FleetStats stats = runFleet(testSim(), config, {});
        EXPECT_TRUE(stats.halted);
        EXPECT_GT(stats.checkpointsWritten, 0);
        return fileBytes(path);
    };

    const std::string fourShardBytes = haltedManifest(4);
    ASSERT_FALSE(fourShardBytes.empty());
    const std::string oneShardBytes = haltedManifest(1);
    EXPECT_EQ(oneShardBytes, fourShardBytes);

    auto finish = [&](int shards, bool resume) {
        FleetConfig config = fleet;
        config.shards = shards;
        if (resume) {
            config.serve.checkpointPath = path;
            config.serve.resume = true;
        }
        obs::TraceRecorder trace(true);
        obs::MetricsRegistry metrics;
        const FleetStats stats = runFleet(
            testSim(), config, obs::ObsContext{&trace, &metrics});
        std::ostringstream traceText;
        trace.writeJsonl(traceText);
        std::ostringstream metricsText;
        metrics.writeText(metricsText);
        EXPECT_EQ(stats.resumed, resume);
        return std::make_tuple(stats.checksum, stats.qtableDump,
                               traceText.str(), metricsText.str());
    };

    // The manifest on disk is the 1-shard one; a 4-shard resume from it
    // must finish the 1-shard uninterrupted trajectory byte for byte.
    const auto uninterrupted = finish(1, false);
    EXPECT_EQ(finish(4, true), uninterrupted);

    std::remove(path);
    std::remove(prev);
}

TEST(FleetCompact, AggregateStatsFoldPreservesTotalsAndChecksum)
{
    // aggregateStats drops the per-device ServeStats vector (a
    // million-device run cannot afford it) but must not change any
    // total or the cross-shard checksum: the fold is the same
    // arithmetic in the same device order.
    FleetConfig fleet;
    fleet.serve = serveConfig(1.5, 40);
    fleet.devices = 6;
    fleet.churn.crashProb = 0.10;
    fleet.churn.downEpochs = 2;

    FleetConfig folded = fleet;
    folded.aggregateStats = true;

    const FleetStats full = runFleet(testSim(), fleet, {});
    const FleetStats agg = runFleet(testSim(), folded, {});

    ASSERT_EQ(full.devices.size(), 6u);
    EXPECT_TRUE(agg.devices.empty());
    EXPECT_EQ(agg.checksum, full.checksum);
    EXPECT_EQ(agg.totalArrivals(), full.totalArrivals());
    EXPECT_EQ(agg.totalServed(), full.totalServed());
    EXPECT_EQ(agg.totalShed(), full.totalShed());
    EXPECT_EQ(agg.totalShedChurn(), full.totalShedChurn());
    EXPECT_EQ(agg.totalDegraded(), full.totalDegraded());
    EXPECT_EQ(agg.totalQosViolations(), full.totalQosViolations());
    EXPECT_EQ(agg.totalEnergyJ(), full.totalEnergyJ());
    EXPECT_EQ(agg.totalWastedEnergyJ(), full.totalWastedEnergyJ());
    EXPECT_EQ(agg.endClockMs, full.endClockMs);
}

TEST(FleetCompact, HundredThousandDeviceSmokeStaysUnderMemoryBudget)
{
    // The compact record itself must stay flat: one cache-friendly
    // struct, no growth past the envelope DESIGN.md §18 promises.
    EXPECT_LE(sizeof(DeviceState), 2048u);

    // 100k fixed-policy devices in-process — the CI-scale end of the
    // envelope (bench_fleet gates the same bytes/device number at a
    // million devices). Measured ~2.2 KB/device; the 4 KiB ceiling
    // leaves headroom for allocator noise, not for regressions.
    FleetConfig fleet;
    fleet.serve.policyName = "connected-edge";
    fleet.serve.trainRunsPerCombo = 0;
    fleet.serve.totalRequests = 2;
    fleet.serve.arrival.ratePerSec = 50.0;
    fleet.devices = 100000;
    fleet.aggregateStats = true;
    fleet.reportMemory = true;

    const FleetStats stats = runFleet(testSim(), fleet, {});
    EXPECT_EQ(stats.totalArrivals(), 200000);
    EXPECT_EQ(stats.totalArrivals(),
              stats.totalServed() + stats.totalShed());
    EXPECT_TRUE(stats.devices.empty());
    ASSERT_GT(stats.peakRssBytes, 0u);
    ASSERT_GT(stats.bytesPerDevice, 0.0);
    EXPECT_LT(stats.bytesPerDevice, 4096.0);
}

} // namespace
} // namespace autoscale::serve
