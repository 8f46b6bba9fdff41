#include "core/agent.h"

#include <algorithm>
#include <cmath>
#include <map>
#include <memory>
#include <mutex>
#include <utility>

#include "util/logging.h"
#include "util/rng_jump.h"

namespace autoscale::core {

namespace {

/**
 * The jump over @p draws generator steps, built once per step count:
 * building one costs milliseconds, applying it a few hundred XORs.
 */
const util::RngJump &
randomizeJump(std::uint64_t draws)
{
    static std::mutex mutex;
    static std::map<std::uint64_t, std::unique_ptr<util::RngJump>> jumps;
    const std::lock_guard<std::mutex> lock(mutex);
    std::unique_ptr<util::RngJump> &jump = jumps[draws];
    if (!jump) {
        jump = std::make_unique<util::RngJump>(draws);
    }
    return *jump;
}

} // namespace

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
    : config_(config), table_(numStates, numActions), rng_(rng)
{
    checkConfig();
    // Algorithm 1: "Initialize Q(S,A) as random values". Optimistic
    // positive initialization also encourages trying untried actions.
    table_.randomize(rng_, config_.initLow, config_.initHigh);
}

QLearningAgent::QLearningAgent(const QTable &initial,
                               const QLearningConfig &config, Rng rng)
    : config_(config), table_(initial), rng_(rng)
{
    checkConfig();
    randomizeJump(static_cast<std::uint64_t>(table_.numStates())
                  * static_cast<std::uint64_t>(table_.numActions()))
        .apply(rng_);
}

void
QLearningAgent::checkConfig() const
{
    AS_CHECK(config_.epsilon >= 0.0 && config_.epsilon <= 1.0);
    AS_CHECK(config_.learningRate > 0.0 && config_.learningRate <= 1.0);
    AS_CHECK(config_.discount >= 0.0 && config_.discount < 1.0);
    AS_CHECK(config_.visitDecay >= 0.0);
    AS_CHECK(config_.minLearningRate > 0.0
             && config_.minLearningRate <= config_.learningRate);
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

const std::uint16_t *
QLearningAgent::visitRow(int state) const
{
    AS_CHECK(state >= 0 && state < table_.numStates());
    if (visitSlot_.empty()) {
        return nullptr;
    }
    const std::int32_t slot = visitSlot_[static_cast<std::size_t>(state)];
    if (slot < 0) {
        return nullptr;
    }
    return visits_.data()
        + static_cast<std::size_t>(slot)
            * static_cast<std::size_t>(table_.numActions());
}

int
QLearningAgent::visitCount(int state, int action) const
{
    AS_CHECK(action >= 0 && action < table_.numActions());
    const std::uint16_t *visits = visitRow(state);
    return visits != nullptr ? visits[action] : 0;
}

double
QLearningAgent::effectiveLearningRate(int state, int action) const
{
    const double decayed = config_.learningRate
        / (1.0 + config_.visitDecay
                     * static_cast<double>(visitCount(state, action)));
    return std::max(decayed, config_.minLearningRate);
}

std::size_t
QLearningAgent::ownedBytes() const
{
    return table_.ownedBytes() + visits_.capacity() * sizeof(std::uint16_t)
        + visitSlot_.capacity() * sizeof(std::int32_t)
        + visitedStates_.capacity() * sizeof(int);
}

void
QLearningAgent::update(int state, int action, double reward, int nextState)
{
    convergence_.add(reward);
    if (!learn_) {
        return;
    }
    const double rate = effectiveLearningRate(state, action);
    const double old_q = std::as_const(table_).at(state, action);
    if (visitSlot_.empty()) {
        visitSlot_.assign(static_cast<std::size_t>(table_.numStates()), -1);
    }
    const std::size_t numActions =
        static_cast<std::size_t>(table_.numActions());
    std::int32_t &slot = visitSlot_[static_cast<std::size_t>(state)];
    if (slot < 0) {
        slot = static_cast<std::int32_t>(visitedStates_.size());
        visitedStates_.push_back(state);
        visits_.resize(visits_.size() + numActions, 0);
    }
    std::uint16_t &visits = visits_[static_cast<std::size_t>(slot)
                                        * numActions
                                    + static_cast<std::size_t>(action)];
    if (visits < 0xffff) {
        ++visits;
    }
    const double target = reward + config_.discount
        * table_.maxValue(nextState);
    lastTdError_ = target - old_q;
    lastUpdateDelta_ = rate * lastTdError_;
    table_.at(state, action) = static_cast<float>(
        old_q + lastUpdateDelta_);
}

} // namespace autoscale::core
