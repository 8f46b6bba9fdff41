/**
 * @file
 * Parity suite for the batched serve hot path (DESIGN.md §14): the
 * BatchDecisionEngine SoA gather/commit loop must be observationally
 * invisible. Across devices × fault presets × load levels, every batch
 * size, with the cost tables or the --direct bypass underneath, must
 * produce bit-identical serving statistics, trace bytes, metrics dumps,
 * and post-run RNG fingerprints. The reference is --batch 1 --direct:
 * one request per tick over the uncached physics, the definition the
 * cost tables are proven against.
 */

#include <gtest/gtest.h>

#include <cstdint>
#include <cstdio>
#include <fstream>
#include <sstream>
#include <string>
#include <vector>

#include "fault/fault_injector.h"
#include "obs/metrics_registry.h"
#include "obs/trace_recorder.h"
#include "platform/device_zoo.h"
#include "serve/server.h"
#include "sim/simulator.h"

namespace autoscale::serve {
namespace {

/** Everything one mode's run exports. */
struct RunArtifacts {
    ServeStats stats;
    std::string traceJsonl;
    std::string metricsText;
};

ServeConfig
parityConfig(const std::string &faultPreset, double rateX,
             std::int64_t requests)
{
    ServeConfig config;
    config.scenario = env::ScenarioId::D3;
    config.faults = fault::FaultPlan::fromName(faultPreset);
    config.totalRequests = requests;
    config.trainRunsPerCombo = 5;
    config.seed = 23;
    // Absolute rate (device-independent here; parity needs identical
    // arrivals within one device, not comparable load across devices).
    config.arrival.ratePerSec = rateX * 50.0;
    return config;
}

/** Devices are move-only (unique_ptr processors), so modes get a
 * fresh one from a factory instead of sharing a copied instance. */
using DeviceFactory = platform::Device (*)();

RunArtifacts
runWith(DeviceFactory makeDevice, const ServeConfig &base,
        int batchSize, bool useCostCache)
{
    sim::InferenceSimulator sim =
        sim::InferenceSimulator::makeDefault(makeDevice());
    sim.setUseCostCache(useCostCache);
    ServeConfig config = base;
    config.batchSize = batchSize;

    obs::MetricsRegistry metrics;
    obs::TraceRecorder trace;
    obs::ObsContext obs;
    obs.metrics = &metrics;
    obs.trace = &trace;

    RunArtifacts artifacts;
    artifacts.stats = runServe(sim, config, obs);
    std::ostringstream traceOs;
    trace.writeJsonl(traceOs);
    artifacts.traceJsonl = traceOs.str();
    std::ostringstream metricsOs;
    metrics.writeText(metricsOs);
    artifacts.metricsText = metricsOs.str();
    return artifacts;
}

/** Bitwise comparison of every ServeStats field two modes can differ
 * in (EXPECT_EQ on doubles is exact, which is the contract). */
void
expectStatsEqual(const ServeStats &a, const ServeStats &b,
                 const std::string &label)
{
    SCOPED_TRACE(label);
    EXPECT_EQ(a.arrivals, b.arrivals);
    EXPECT_EQ(a.admitted, b.admitted);
    EXPECT_EQ(a.served, b.served);
    EXPECT_EQ(a.degraded, b.degraded);
    EXPECT_EQ(a.shedDeadline, b.shedDeadline);
    EXPECT_EQ(a.shedOverflow, b.shedOverflow);
    EXPECT_EQ(a.shedStale, b.shedStale);
    EXPECT_EQ(a.qosViolations, b.qosViolations);
    EXPECT_EQ(a.accuracyViolations, b.accuracyViolations);
    EXPECT_EQ(a.faultFallbacks, b.faultFallbacks);
    EXPECT_EQ(a.breakerShortCircuits, b.breakerShortCircuits);
    EXPECT_EQ(a.energyJ, b.energyJ);
    EXPECT_EQ(a.wastedEnergyJ, b.wastedEnergyJ);
    EXPECT_EQ(a.totalWaitMs, b.totalWaitMs);
    EXPECT_EQ(a.totalServiceMs, b.totalServiceMs);
    EXPECT_EQ(a.latenciesMs, b.latenciesMs);
    EXPECT_EQ(a.maxQueueDepth, b.maxQueueDepth);
    EXPECT_EQ(a.endClockMs, b.endClockMs);
    EXPECT_EQ(a.categoryCounts, b.categoryCounts);
    EXPECT_EQ(a.rngFingerprint, b.rngFingerprint);
}

void
expectArtifactsEqual(const RunArtifacts &a, const RunArtifacts &b,
                     const std::string &label)
{
    expectStatsEqual(a.stats, b.stats, label);
    EXPECT_EQ(a.traceJsonl, b.traceJsonl) << label;
    EXPECT_EQ(a.metricsText, b.metricsText) << label;
}

/**
 * The full sweep: for each (device, fault preset, load) cell, the
 * batch-1 --direct run is the reference and --batch 1, --batch 64, the
 * odd --batch 7 (partial final batches), and --direct under --batch 64
 * must all reproduce it bit for bit.
 */
TEST(BatchEngineParity, AllModesBitIdenticalAcrossDevicesAndFaults)
{
    struct DeviceCase {
        const char *name;
        DeviceFactory factory;
    };
    const std::vector<DeviceCase> devices = {
        {"Mi8Pro", &platform::makeMi8Pro},
        {"GalaxyS10e", &platform::makeGalaxyS10e},
        {"MotoXForce", &platform::makeMotoXForce},
    };
    const std::vector<const char *> faultPresets = {
        "none", "blackout", "flaky-wifi", "cloud-brownout"};

    for (const DeviceCase &device : devices) {
        for (const char *preset : faultPresets) {
            const ServeConfig config = parityConfig(preset, 2.0, 150);
            const RunArtifacts reference =
                runWith(device.factory, config, 1, false);
            const std::string label =
                std::string(device.name) + "/" + preset;
            expectArtifactsEqual(
                reference, runWith(device.factory, config, 1, true),
                label + "/batch1");
            expectArtifactsEqual(
                reference, runWith(device.factory, config, 7, true),
                label + "/batch7");
            expectArtifactsEqual(
                reference, runWith(device.factory, config, 64, true),
                label + "/batch64");
            expectArtifactsEqual(
                reference, runWith(device.factory, config, 64, false),
                label + "/direct");
        }
    }
}

/**
 * Overload pressure exercises the paths batching interleaves with:
 * shedding at admission, stale re-checks at dequeue, the degradation
 * ladder, and deep-queue gathers with admissions arriving mid-commit.
 */
TEST(BatchEngineParity, OverloadWithSheddingAndDegradation)
{
    ServeConfig config = parityConfig("flaky-wifi", 6.0, 300);
    config.admission.maxDepth = 16;
    // Remote-heavy traffic plus a hair-trigger degrade threshold
    // guarantees the ladder fires (queue pressure only downgrades
    // remote/partitioned picks).
    config.admission.degradeDepth = 1;
    config.policyName = "cloud";
    const RunArtifacts reference =
        runWith(&platform::makeMi8Pro, config, 1, false);
    EXPECT_GT(reference.stats.shedOverflow + reference.stats.shedDeadline
                  + reference.stats.shedStale,
              0);
    EXPECT_GT(reference.stats.degraded, 0);
    expectArtifactsEqual(
        reference, runWith(&platform::makeMi8Pro, config, 64, true),
        "overload/batch64");
    expectArtifactsEqual(
        reference, runWith(&platform::makeMi8Pro, config, 3, true),
        "overload/batch3");
}

/** Fixed baselines share the serving loop; parity must hold without a
 * learner (no Q-table, no checkpointing) too. */
TEST(BatchEngineParity, FixedPolicyModesMatch)
{
    ServeConfig config = parityConfig("cloud-brownout", 2.0, 120);
    config.policyName = "cloud";
    config.trainRunsPerCombo = 0;
    const RunArtifacts reference =
        runWith(&platform::makeMi8Pro, config, 1, false);
    expectArtifactsEqual(
        reference, runWith(&platform::makeMi8Pro, config, 64, true),
        "cloud-policy/batch64");
}

/** Checkpoint artifacts are mode-independent too: the final checkpoint
 * written by a batch-64 cached run is byte-identical to the batch-1
 * --direct run's. */
TEST(BatchEngineParity, CheckpointBytesMatchAcrossModes)
{
    const std::string referencePath =
        testing::TempDir() + "/batch_parity_reference.ckpt";
    const std::string batchedPath =
        testing::TempDir() + "/batch_parity_batched.ckpt";
    ServeConfig config = parityConfig("none", 2.0, 120);
    config.checkpointIntervalRequests = 40;

    config.checkpointPath = referencePath;
    config.batchSize = 1;
    sim::InferenceSimulator direct =
        sim::InferenceSimulator::makeDefault(platform::makeMi8Pro());
    direct.setUseCostCache(false);
    const ServeStats reference = runServe(direct, config);

    config.checkpointPath = batchedPath;
    config.batchSize = 64;
    const sim::InferenceSimulator cached =
        sim::InferenceSimulator::makeDefault(platform::makeMi8Pro());
    const ServeStats batched = runServe(cached, config);

    EXPECT_EQ(reference.checkpointsWritten, batched.checkpointsWritten);
    std::ifstream referenceIn(referencePath, std::ios::binary);
    std::ifstream batchedIn(batchedPath, std::ios::binary);
    ASSERT_TRUE(referenceIn.good());
    ASSERT_TRUE(batchedIn.good());
    std::stringstream referenceBytes;
    std::stringstream batchedBytes;
    referenceBytes << referenceIn.rdbuf();
    batchedBytes << batchedIn.rdbuf();
    EXPECT_EQ(referenceBytes.str(), batchedBytes.str());
    std::remove(referencePath.c_str());
    std::remove(batchedPath.c_str());
}

/** The fingerprint must actually detect stream divergence: different
 * seeds must not collide (a smoke test that it hashes real draws). */
TEST(BatchEngineParity, FingerprintDiscriminatesSeeds)
{
    ServeConfig config = parityConfig("none", 2.0, 60);
    config.trainRunsPerCombo = 0;
    sim::InferenceSimulator sim =
        sim::InferenceSimulator::makeDefault(platform::makeMi8Pro());
    const ServeStats a = runServe(sim, config);
    config.seed = 24;
    const ServeStats b = runServe(sim, config);
    EXPECT_NE(a.rngFingerprint, b.rngFingerprint);
}

} // namespace
} // namespace autoscale::serve
