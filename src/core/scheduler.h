/**
 * @file
 * AutoScaleScheduler: the public facade tying Fig. 8 together. For each
 * inference it (1) observes the current execution state, (2) selects an
 * action from the Q-table, (3) lets the caller execute on that target,
 * (4) computes the reward from the measured result, and (5) updates the
 * Q-table once the next state is observed (Algorithm 1 uses the state
 * of the *next* inference as S').
 *
 * Typical use:
 *
 *   AutoScaleScheduler scheduler(sim, {}, seed);
 *   for (...) {
 *       const auto &target = scheduler.choose(request, envState);
 *       sim::Outcome outcome = sim.run(*request.network, target, env, rng);
 *       scheduler.feedback(outcome);
 *   }
 */

#ifndef AUTOSCALE_CORE_SCHEDULER_H_
#define AUTOSCALE_CORE_SCHEDULER_H_

#include <cstdint>
#include <iosfwd>
#include <optional>
#include <string>
#include <vector>

#include "core/action_space.h"
#include "core/agent.h"
#include "core/reward.h"
#include "core/state.h"
#include "sim/qos.h"
#include "sim/simulator.h"
#include "sim/target.h"

namespace autoscale::core {

/** Scheduler configuration. */
struct SchedulerConfig {
    QLearningConfig rl;
    RewardConfig reward;
    StateEncoder encoder;
};

/** The AutoScale execution-scaling engine. */
class AutoScaleScheduler {
  public:
    /**
     * @param sim The edge-cloud system this scheduler controls. Must
     *        outlive the scheduler.
     * @param config Hyperparameters and state encoding.
     * @param seed RNG seed for exploration and Q-table initialization.
     */
    AutoScaleScheduler(const sim::InferenceSimulator &sim,
                       const SchedulerConfig &config, std::uint64_t seed);

    /**
     * Warm start from an already-trained scheduler (fleet peers). When
     * @p warmStart enumerates the same actions (hence the same
     * actionFingerprint()) over the same state space, the agent shares
     * its Q-table and skips the random initialization, jumping its
     * generator past those draws instead. Otherwise this is the
     * constructor above followed by transferFrom(warmStart). Either way
     * the Q-values and the generator state are the same.
     */
    AutoScaleScheduler(const sim::InferenceSimulator &sim,
                       const SchedulerConfig &config, std::uint64_t seed,
                       const AutoScaleScheduler &warmStart);

    /**
     * Steps 1-2 of Fig. 8: observe the state for the upcoming inference
     * and select the execution target. Also completes the pending
     * Algorithm 1 update of the previous inference, for which this
     * observation is S'.
     */
    const sim::ExecutionTarget &choose(const sim::InferenceRequest &request,
                                       const env::EnvState &env);

    /**
     * Steps 4-5 of Fig. 8: fold the measured result of the last chosen
     * action back into the learner. Must follow each choose().
     */
    void feedback(const sim::Outcome &outcome);

    /** Flush the pending update at the end of an episode. */
    void finishEpisode();

    /**
     * Drop the pending update without applying it — a crashed device
     * loses the in-flight transition (DESIGN.md §17), whereas a clean
     * shutdown flushes it via finishEpisode(). No-op when no update is
     * pending; must not be called between choose() and feedback().
     */
    void discardPending();

    /** Exploration on/off (testing phase runs greedy, Section IV-B). */
    void setExploration(bool enabled);

    /** Learning updates on/off. */
    void setLearning(bool enabled);

    /**
     * Seed this scheduler's Q-table from one trained on @p other
     * (transferQTable: actions matched across devices).
     */
    void transferFrom(const AutoScaleScheduler &other);

    /**
     * Persist the learned Q-table (text format). The action space is
     * identified by a fingerprint so a table cannot be loaded onto a
     * device with a different action enumeration.
     */
    void saveQTable(std::ostream &os) const;

    /** Restore a Q-table saved by saveQTable; fatal() on a mismatch. */
    void loadQTable(std::istream &is);

    /** Fingerprint of this scheduler's action space. */
    std::string actionFingerprint() const;

    const std::vector<sim::ExecutionTarget> &actions() const
    { return actions_; }
    const QLearningAgent &agent() const { return agent_; }
    QLearningAgent &mutableAgent() { return agent_; }
    const StateEncoder &encoder() const { return config_.encoder; }
    const sim::InferenceSimulator &simulator() const { return sim_; }

    /** Last reward folded into the learner. */
    double lastReward() const { return lastReward_; }

    /** Per-decision introspection for the observability layer. */
    struct DecisionInfo {
        StateId state = 0;
        ActionId action = 0;
        /** Q(S, A) of the chosen action at decision time. */
        double qValue = 0.0;
        /** Whether epsilon-greedy exploration overrode the argmax. */
        bool explored = false;
    };

    /** How the most recent choose() picked its action. */
    const DecisionInfo &lastDecision() const { return lastDecision_; }

    /**
     * Applied Q-table delta of the most recent Algorithm 1 update.
     * Because the update for decision N runs when decision N+1 observes
     * S', this lags the current decision by one step.
     */
    double lastQUpdateDelta() const { return agent_.lastUpdateDelta(); }

  private:
    struct Pending {
        StateId state;
        ActionId action;
        double reward;
        sim::InferenceRequest request;
    };

    const sim::InferenceSimulator &sim_;
    SchedulerConfig config_;
    std::vector<sim::ExecutionTarget> actions_;
    QLearningAgent agent_;
    std::optional<Pending> pending_;
    StateId currentState_ = 0;
    ActionId currentAction_ = 0;
    sim::InferenceRequest currentRequest_;
    bool awaitingFeedback_ = false;
    double lastReward_ = 0.0;
    DecisionInfo lastDecision_;
};

} // namespace autoscale::core

#endif // AUTOSCALE_CORE_SCHEDULER_H_
