#include "core/agent.h"

#include <algorithm>
#include <cmath>

#include "util/logging.h"

namespace autoscale::core {

ConvergenceTracker::ConvergenceTracker(int window, double tolerance)
    : window_(window), tolerance_(tolerance)
{
    AS_CHECK(window_ >= 2);
    AS_CHECK(tolerance_ > 0.0);
}

void
ConvergenceTracker::add(double reward)
{
    ++count_;
    recent_.push_back(reward);
    sum_ += reward;
    sumSq_ += reward * reward;
    const std::size_t half = static_cast<std::size_t>(window_) / 2;
    if (static_cast<int>(recent_.size()) == window_) {
        // Window just filled: one O(window) pass seeds the split-half
        // sum; every later add() maintains it incrementally.
        firstHalfSum_ = 0.0;
        for (std::size_t i = 0; i < half; ++i) {
            firstHalfSum_ += recent_[i];
        }
    } else if (static_cast<int>(recent_.size()) > window_) {
        const double dropped = recent_.front();
        recent_.pop_front();
        sum_ -= dropped;
        sumSq_ -= dropped * dropped;
        // The window slid one step: the old front leaves the first
        // half and the element now ending it (index half-1) enters.
        firstHalfSum_ += recent_[half - 1] - dropped;
    }
}

double
ConvergenceTracker::windowMean() const
{
    if (recent_.empty()) {
        return 0.0;
    }
    return sum_ / static_cast<double>(recent_.size());
}

bool
ConvergenceTracker::converged() const
{
    if (static_cast<int>(recent_.size()) < window_) {
        return false;
    }
    // Converged when the reward has stopped drifting (the two window
    // halves have close means) and is not wildly dispersed. A pure
    // max-min spread criterion never fires for small-magnitude rewards
    // whose measurement noise exceeds the tolerance.
    const std::size_t half = recent_.size() / 2;
    const double first = firstHalfSum_ / static_cast<double>(half);
    const double second = (sum_ - firstHalfSum_)
        / static_cast<double>(recent_.size() - half);

    const double mean = windowMean();
    // E[r^2] - mean^2; clamped because cancellation can dip a tiny
    // constant-reward variance below zero.
    const double var = std::max(
        sumSq_ / static_cast<double>(recent_.size()) - mean * mean, 0.0);
    const double stddev = std::sqrt(var);

    const double scale = std::max(std::fabs(mean), 10.0);
    return std::fabs(second - first) <= tolerance_ * scale
        && stddev <= 0.5 * scale;
}

QLearningAgent::QLearningAgent(int numStates, int numActions,
                               const QLearningConfig &config, Rng rng)
    : config_(config), table_(numStates, numActions), rng_(rng),
      visits_(static_cast<std::size_t>(numStates)
                  * static_cast<std::size_t>(numActions),
              0)
{
    AS_CHECK(config_.epsilon >= 0.0 && config_.epsilon <= 1.0);
    AS_CHECK(config_.learningRate > 0.0 && config_.learningRate <= 1.0);
    AS_CHECK(config_.discount >= 0.0 && config_.discount < 1.0);
    AS_CHECK(config_.visitDecay >= 0.0);
    AS_CHECK(config_.minLearningRate > 0.0
             && config_.minLearningRate <= config_.learningRate);
    // Algorithm 1: "Initialize Q(S,A) as random values". Optimistic
    // positive initialization also encourages trying untried actions.
    table_.randomize(rng_, config_.initLow, config_.initHigh);
}

int
QLearningAgent::selectAction(int state)
{
    if (explore_ && rng_.uniform() < config_.epsilon) {
        lastExplored_ = true;
        return static_cast<int>(
            rng_.uniformInt(static_cast<std::uint64_t>(
                table_.numActions())));
    }
    lastExplored_ = false;
    return table_.bestAction(state);
}

int
QLearningAgent::visitCount(int state, int action) const
{
    const std::size_t index = static_cast<std::size_t>(state)
        * static_cast<std::size_t>(table_.numActions())
        + static_cast<std::size_t>(action);
    AS_CHECK(index < visits_.size());
    return visits_[index];
}

double
QLearningAgent::effectiveLearningRate(int state, int action) const
{
    const double decayed = config_.learningRate
        / (1.0 + config_.visitDecay
                     * static_cast<double>(visitCount(state, action)));
    return std::max(decayed, config_.minLearningRate);
}

void
QLearningAgent::update(int state, int action, double reward, int nextState)
{
    convergence_.add(reward);
    if (!learn_) {
        return;
    }
    const double rate = effectiveLearningRate(state, action);
    const double old_q = table_.at(state, action);
    const std::size_t numActions =
        static_cast<std::size_t>(table_.numActions());
    const std::size_t rowStart = static_cast<std::size_t>(state) * numActions;
    const std::size_t index = rowStart + static_cast<std::size_t>(action);
    if (visits_[index] == 0) {
        // A cell's count never returns to 0, so the row is new exactly
        // when no cell in it has been visited before this one.
        const auto row = visits_.begin()
            + static_cast<std::ptrdiff_t>(rowStart);
        if (std::all_of(row, row + static_cast<std::ptrdiff_t>(numActions),
                        [](std::uint16_t v) { return v == 0; })) {
            visitedStates_.push_back(state);
        }
    }
    if (visits_[index] < 0xffff) {
        ++visits_[index];
    }
    const double target = reward + config_.discount
        * table_.maxValue(nextState);
    lastTdError_ = target - old_q;
    lastUpdateDelta_ = rate * lastTdError_;
    table_.at(state, action) = static_cast<float>(
        old_q + lastUpdateDelta_);
}

} // namespace autoscale::core
