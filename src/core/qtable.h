/**
 * @file
 * Dense Q-table: the value function Q(S, A) of the paper's Q-learning
 * formulation, stored as a states x actions matrix of floats. The paper
 * chose Q-learning specifically because a lookup table keeps the runtime
 * overhead in the microsecond range (Section IV, "Low Latency
 * Overhead"); the overhead benchmark measures exactly these lookups.
 */

#ifndef AUTOSCALE_CORE_QTABLE_H_
#define AUTOSCALE_CORE_QTABLE_H_

#include <cstddef>
#include <cstdint>
#include <iosfwd>
#include <vector>

#include "util/rng.h"

namespace autoscale::core {

/** Dense state x action value table. */
class QTable {
  public:
    /** Zero-initialized table. */
    QTable(int numStates, int numActions);

    int numStates() const { return numStates_; }
    int numActions() const { return numActions_; }

    /** Initialize every entry uniformly in [lo, hi) (Algorithm 1). */
    void randomize(Rng &rng, double lo = 0.0, double hi = 1.0);

    /** Q(S, A). */
    float
    at(int state, int action) const
    {
        return values_[index(state, action)];
    }

    /** Mutable Q(S, A). */
    float &
    at(int state, int action)
    {
        return values_[index(state, action)];
    }

    /**
     * Row Q(S, *) as numActions() contiguous values: one bounds check
     * for the whole row, for loops that visit every action of a state.
     */
    const float *row(int state) const;

    /** Mutable row Q(S, *). */
    float *row(int state);

    /** Action with the largest Q(S, A); ties break to the lowest id. */
    int bestAction(int state) const;

    /** max_A Q(S, A). */
    double maxValue(int state) const;

    /** Payload size in bytes (Section VI-C memory-footprint analysis). */
    std::size_t memoryBytes() const;

    /** Serialize as text (dimensions then row-major values). */
    void save(std::ostream &os) const;

    /** Deserialize from text; fatal() on malformed input. */
    static QTable load(std::istream &is);

  private:
    std::size_t
    index(int state, int action) const;

    int numStates_;
    int numActions_;
    std::vector<float> values_;
};

/** Convert an IEEE-754 float to a half-precision bit pattern
 * (round-to-nearest-even, with overflow to infinity). */
std::uint16_t floatToHalf(float value);

/** Convert a half-precision bit pattern back to float. */
float halfToFloat(std::uint16_t bits);

/**
 * Half-precision packed Q-table for deployment: Q-values span a few
 * thousand millijoule-scale rewards, well inside half range, and the
 * ~0.1% quantization error is far below the measurement noise. A
 * 3,072 x 66 packed table occupies ~0.39 MB — the paper's Section VI-C
 * "0.4 MB" memory requirement.
 */
class PackedQTable {
  public:
    /** Quantize @p table to half precision. */
    explicit PackedQTable(const QTable &table);

    int numStates() const { return numStates_; }
    int numActions() const { return numActions_; }

    /** Dequantized Q(S, A). */
    float at(int state, int action) const;

    /** Action with the largest packed Q(S, A). */
    int bestAction(int state) const;

    /** Expand back into a full-precision table. */
    QTable unpack() const;

    /** Payload size in bytes. */
    std::size_t memoryBytes() const;

  private:
    std::size_t index(int state, int action) const;

    int numStates_;
    int numActions_;
    std::vector<std::uint16_t> values_;
};

} // namespace autoscale::core

#endif // AUTOSCALE_CORE_QTABLE_H_
