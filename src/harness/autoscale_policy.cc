#include "harness/autoscale_policy.h"

namespace autoscale::harness {

AutoScalePolicy::AutoScalePolicy(const sim::InferenceSimulator &sim,
                                 const core::SchedulerConfig &config,
                                 std::uint64_t seed)
    : name_("AutoScale"), scheduler_(sim, config, seed)
{
}

AutoScalePolicy::AutoScalePolicy(const sim::InferenceSimulator &sim,
                                 const core::SchedulerConfig &config,
                                 std::uint64_t seed,
                                 const core::AutoScaleScheduler &warmStart)
    : name_("AutoScale"), scheduler_(sim, config, seed, warmStart)
{
}

baselines::Decision
AutoScalePolicy::decide(const sim::InferenceRequest &request,
                        const env::EnvState &env, Rng &)
{
    return baselines::makeTargetDecision(scheduler_.choose(request, env));
}

void
AutoScalePolicy::feedback(const sim::Outcome &outcome)
{
    scheduler_.feedback(outcome);
}

void
AutoScalePolicy::finishEpisode()
{
    scheduler_.finishEpisode();
}

void
AutoScalePolicy::describeLastDecision(obs::DecisionEvent &event) const
{
    const core::AutoScaleScheduler::DecisionInfo &info =
        scheduler_.lastDecision();
    event.stateId = info.state;
    event.actionId = info.action;
    event.qValue = info.qValue;
    event.explored = info.explored;
    event.reward = scheduler_.lastReward();
    event.qUpdateDelta = scheduler_.lastQUpdateDelta();
}

std::unique_ptr<AutoScalePolicy>
makeAutoScalePolicy(const sim::InferenceSimulator &sim, std::uint64_t seed,
                    const core::SchedulerConfig &config)
{
    return std::make_unique<AutoScalePolicy>(sim, config, seed);
}

} // namespace autoscale::harness
