/**
 * @file
 * Tests for the AutoScaleScheduler facade: the choose/feedback protocol,
 * online learning behaviour (avoiding infeasible and catastrophic
 * actions), and learning transfer through the public API.
 */

#include <gtest/gtest.h>

#include <cstdint>
#include <sstream>

#include "core/scheduler.h"
#include "core/transfer.h"
#include "dnn/model_zoo.h"
#include "env/scenario.h"
#include "platform/device_zoo.h"
#include "sim/simulator.h"

namespace autoscale::core {
namespace {

sim::InferenceSimulator
mi8Sim()
{
    return sim::InferenceSimulator::makeDefault(platform::makeMi8Pro());
}

TEST(Scheduler, ActionSpaceMatchesDevice)
{
    const sim::InferenceSimulator sim = mi8Sim();
    AutoScaleScheduler scheduler(sim, SchedulerConfig{}, 1);
    EXPECT_EQ(scheduler.actions().size(), 66u);
}

TEST(Scheduler, ChooseReturnsValidAction)
{
    const sim::InferenceSimulator sim = mi8Sim();
    AutoScaleScheduler scheduler(sim, SchedulerConfig{}, 2);
    const dnn::Network net = dnn::makeMobileNetV1();
    const sim::InferenceRequest request = sim::makeRequest(net);
    const env::EnvState env;
    const sim::ExecutionTarget &target = scheduler.choose(request, env);
    // The returned reference is into the scheduler's own action list.
    bool found = false;
    for (const auto &action : scheduler.actions()) {
        if (action == target) {
            found = true;
        }
    }
    EXPECT_TRUE(found);
    scheduler.feedback(sim.expected(net, target, env));
    scheduler.finishEpisode();
}

TEST(Scheduler, LearnsToAvoidInfeasibleActionsForBert)
{
    // MobileBERT cannot run on GPU/DSP: after training, the greedy
    // choice must be a feasible target.
    const sim::InferenceSimulator sim = mi8Sim();
    AutoScaleScheduler scheduler(sim, SchedulerConfig{}, 3);
    const dnn::Network bert = dnn::makeMobileBert();
    const sim::InferenceRequest request = sim::makeRequest(bert);
    const env::EnvState env;
    Rng rng(4);
    for (int i = 0; i < 300; ++i) {
        const sim::ExecutionTarget &target =
            scheduler.choose(request, env);
        scheduler.feedback(sim.run(bert, target, env, rng));
    }
    scheduler.finishEpisode();
    scheduler.setExploration(false);
    const sim::ExecutionTarget &greedy = scheduler.choose(request, env);
    EXPECT_TRUE(sim.isFeasible(bert, greedy)) << greedy.label();
    scheduler.feedback(sim.run(bert, greedy, env, rng));
    scheduler.finishEpisode();
}

TEST(Scheduler, TrainedChoiceBeatsCpuBaseline)
{
    const sim::InferenceSimulator sim = mi8Sim();
    AutoScaleScheduler scheduler(sim, SchedulerConfig{}, 5);
    const dnn::Network net = dnn::makeInceptionV1();
    const sim::InferenceRequest request = sim::makeRequest(net);
    const env::EnvState env;
    Rng rng(6);
    for (int i = 0; i < 400; ++i) {
        const sim::ExecutionTarget &target =
            scheduler.choose(request, env);
        scheduler.feedback(sim.run(net, target, env, rng));
    }
    scheduler.finishEpisode();
    scheduler.setExploration(false);

    const sim::ExecutionTarget &greedy = scheduler.choose(request, env);
    const sim::Outcome chosen = sim.expected(net, greedy, env);
    scheduler.feedback(chosen);
    scheduler.finishEpisode();

    sim::ExecutionTarget cpu{sim::TargetPlace::Local,
                             platform::ProcKind::MobileCpu,
                             sim.localDevice().cpu().maxVfIndex(),
                             dnn::Precision::FP32};
    const sim::Outcome baseline = sim.expected(net, cpu, env);
    ASSERT_TRUE(chosen.feasible);
    EXPECT_LT(chosen.energyJ, baseline.energyJ);
    EXPECT_LT(chosen.latencyMs, request.qosMs);
}

TEST(Scheduler, LastRewardTracksFeedback)
{
    const sim::InferenceSimulator sim = mi8Sim();
    AutoScaleScheduler scheduler(sim, SchedulerConfig{}, 7);
    const dnn::Network net = dnn::makeMobileNetV2();
    const sim::InferenceRequest request = sim::makeRequest(net);
    const env::EnvState env;
    const sim::ExecutionTarget &target = scheduler.choose(request, env);
    const sim::Outcome outcome = sim.expected(net, target, env);
    scheduler.feedback(outcome);
    EXPECT_NEAR(scheduler.lastReward(),
                computeReward(outcome, request), 1e-9);
    scheduler.finishEpisode();
}

TEST(Scheduler, TransferSeedsTheDestinationTable)
{
    const sim::InferenceSimulator src_sim = mi8Sim();
    const sim::InferenceSimulator dst_sim =
        sim::InferenceSimulator::makeDefault(platform::makeMotoXForce());

    AutoScaleScheduler src(src_sim, SchedulerConfig{}, 8);
    const dnn::Network net = dnn::makeMobileNetV1();
    const sim::InferenceRequest request = sim::makeRequest(net);
    const env::EnvState env;
    Rng rng(9);
    for (int i = 0; i < 200; ++i) {
        const sim::ExecutionTarget &target = src.choose(request, env);
        src.feedback(src_sim.run(net, target, env, rng));
    }
    src.finishEpisode();

    AutoScaleScheduler dst(dst_sim, SchedulerConfig{}, 10);
    dst.transferFrom(src);

    // Every destination action with a semantic match on the source
    // must carry the source's learned value for this state.
    const StateFeatures features = makeStateFeatures(net, env);
    const StateId state = dst.encoder().encode(features);
    const auto match = matchActions(src.actions(), src_sim,
                                    dst.actions(), dst_sim);
    int copied = 0;
    for (std::size_t a = 0; a < dst.actions().size(); ++a) {
        if (match[a] < 0) {
            continue;
        }
        EXPECT_FLOAT_EQ(dst.agent().table().at(state,
                                               static_cast<int>(a)),
                        src.agent().table().at(state, match[a]));
        ++copied;
    }
    // Moto's whole action space exists on the Mi8Pro, so everything
    // must have been seeded.
    EXPECT_EQ(copied, static_cast<int>(dst.actions().size()));
}

TEST(Scheduler, EncoderAblationReducesStateSpace)
{
    SchedulerConfig config;
    config.encoder.disableFeature(Feature::RssiP);
    const sim::InferenceSimulator sim = mi8Sim();
    AutoScaleScheduler scheduler(sim, config, 11);
    EXPECT_EQ(scheduler.agent().table().numStates(), 3072 / 2);
}

TEST(Scheduler, QTablePersistenceRoundTrip)
{
    const sim::InferenceSimulator sim = mi8Sim();
    AutoScaleScheduler trained(sim, SchedulerConfig{}, 20);
    const dnn::Network net = dnn::makeMobileNetV2();
    const sim::InferenceRequest request = sim::makeRequest(net);
    const env::EnvState env;
    Rng rng(21);
    for (int i = 0; i < 120; ++i) {
        const sim::ExecutionTarget &target = trained.choose(request, env);
        trained.feedback(sim.run(net, target, env, rng));
    }
    trained.finishEpisode();
    trained.setExploration(false);

    std::stringstream stream;
    trained.saveQTable(stream);

    AutoScaleScheduler restored(sim, SchedulerConfig{}, 99);
    restored.loadQTable(stream);
    restored.setExploration(false);

    // Same greedy decision for the same state.
    const sim::ExecutionTarget &a = trained.choose(request, env);
    trained.feedback(sim.expected(net, a, env));
    trained.finishEpisode();
    const sim::ExecutionTarget &b = restored.choose(request, env);
    restored.feedback(sim.expected(net, b, env));
    restored.finishEpisode();
    EXPECT_TRUE(a == b);
}

TEST(Scheduler, FingerprintsDifferAcrossDevices)
{
    const sim::InferenceSimulator mi8 = mi8Sim();
    const sim::InferenceSimulator moto =
        sim::InferenceSimulator::makeDefault(platform::makeMotoXForce());
    AutoScaleScheduler a(mi8, SchedulerConfig{}, 1);
    AutoScaleScheduler b(moto, SchedulerConfig{}, 1);
    EXPECT_NE(a.actionFingerprint(), b.actionFingerprint());
    EXPECT_EQ(a.actionFingerprint(),
              AutoScaleScheduler(mi8Sim(), SchedulerConfig{}, 2)
                  .actionFingerprint());
}

TEST(SchedulerDeath, LoadRejectsForeignTables)
{
    const sim::InferenceSimulator mi8 = mi8Sim();
    const sim::InferenceSimulator moto =
        sim::InferenceSimulator::makeDefault(platform::makeMotoXForce());
    AutoScaleScheduler source(mi8, SchedulerConfig{}, 1);
    std::stringstream stream;
    source.saveQTable(stream);
    EXPECT_EXIT(
        {
            AutoScaleScheduler destination(moto, SchedulerConfig{}, 2);
            destination.loadQTable(stream);
        },
        ::testing::ExitedWithCode(1), "fingerprint mismatch");
}

TEST(Scheduler, WarmBuiltPeerMatchesRandomizeThenTransfer)
{
    // A fleet peer built from device 0's scheduler shares its table and
    // jumps its generator; a peer that randomizes and then transfers
    // must be indistinguishable from it.
    const sim::InferenceSimulator sim = mi8Sim();
    AutoScaleScheduler trained(sim, SchedulerConfig{}, 3);
    const dnn::Network net = dnn::makeMobileNetV1();
    const sim::InferenceRequest request = sim::makeRequest(net);
    Rng rng(4);
    env::Scenario scenario(env::ScenarioId::D3);
    for (int i = 0; i < 100; ++i) {
        const env::EnvState env = scenario.next(rng);
        trained.feedback(sim.run(net, trained.choose(request, env), env,
                                 rng));
    }
    trained.finishEpisode();

    AutoScaleScheduler transferred(sim, SchedulerConfig{}, 99);
    transferred.transferFrom(trained);
    AutoScaleScheduler warm(sim, SchedulerConfig{}, 99, trained);
    EXPECT_TRUE(warm.agent().table().sharesBaseWith(trained.agent().table()));

    std::uint64_t a[4];
    std::uint64_t b[4];
    transferred.agent().rng().state(a);
    warm.agent().rng().state(b);
    for (int i = 0; i < 4; ++i) {
        EXPECT_EQ(a[i], b[i]);
    }
    const QTable &x = transferred.agent().table();
    const QTable &y = warm.agent().table();
    for (int s = 0; s < x.numStates(); ++s) {
        for (int act = 0; act < x.numActions(); ++act) {
            ASSERT_EQ(x.at(s, act), y.at(s, act));
        }
    }
    // The first draws agree, decision by decision.
    Rng envA(5);
    Rng envB(5);
    env::Scenario scenarioA(env::ScenarioId::D3);
    env::Scenario scenarioB(env::ScenarioId::D3);
    for (int i = 0; i < 200; ++i) {
        const env::EnvState envStateA = scenarioA.next(envA);
        const env::EnvState envStateB = scenarioB.next(envB);
        const sim::ExecutionTarget &ta = transferred.choose(request, envStateA);
        const sim::ExecutionTarget &tb = warm.choose(request, envStateB);
        ASSERT_TRUE(ta == tb) << "decision " << i;
        ASSERT_EQ(transferred.lastDecision().explored,
                  warm.lastDecision().explored);
        const sim::Outcome outcome = sim.run(net, ta, envStateA, envA);
        transferred.feedback(outcome);
        warm.feedback(sim.run(net, tb, envStateB, envB));
    }
}

TEST(Scheduler, WarmStartAcrossDevicesFallsBackToTransfer)
{
    // Different action spaces: the peer cannot share the table, so it
    // randomizes and transfers with per-action matching.
    const sim::InferenceSimulator mi8 = mi8Sim();
    const sim::InferenceSimulator moto =
        sim::InferenceSimulator::makeDefault(platform::makeMotoXForce());
    AutoScaleScheduler source(mi8, SchedulerConfig{}, 6);
    AutoScaleScheduler transferred(moto, SchedulerConfig{}, 7);
    transferred.transferFrom(source);
    AutoScaleScheduler warm(moto, SchedulerConfig{}, 7, source);
    EXPECT_FALSE(warm.agent().table().sharesBaseWith(
        source.agent().table()));
    const QTable &x = transferred.agent().table();
    const QTable &y = warm.agent().table();
    for (int s = 0; s < x.numStates(); ++s) {
        for (int act = 0; act < x.numActions(); ++act) {
            ASSERT_EQ(x.at(s, act), y.at(s, act));
        }
    }
}

} // namespace
} // namespace autoscale::core
