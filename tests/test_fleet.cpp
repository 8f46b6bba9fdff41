/**
 * @file
 * Tests for fleet serving (DESIGN.md §15): fleet-of-1 equivalence to
 * the single-device loop, shard/jobs output invariance, contention
 * effects (edge saturation pushing marginal devices local), shared
 * brownout windows hitting every device in the same epoch, and the
 * visit-weighted federated Q-table merge.
 */

#include <gtest/gtest.h>

#include <cstdio>
#include <fstream>
#include <map>
#include <set>
#include <sstream>
#include <string>
#include <vector>

#include "core/scheduler.h"
#include "dnn/model_zoo.h"
#include "obs/metrics_registry.h"
#include "obs/trace_recorder.h"
#include "platform/device_zoo.h"
#include "serve/device_state.h"
#include "serve/fleet.h"
#include "serve/server.h"
#include "sim/simulator.h"

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
