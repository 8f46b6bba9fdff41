/**
 * @file
 * Q-table: the value function Q(S, A) of the paper's Q-learning
 * formulation, a states x actions matrix of floats. The paper chose
 * Q-learning specifically because a lookup table keeps the runtime
 * overhead in the microsecond range (Section IV, "Low Latency
 * Overhead"); the overhead benchmark measures exactly these lookups.
 *
 * The table is a copy-on-write value (DESIGN.md §18): a refcounted
 * dense base plus private copies of the rows written since the base
 * was shared. Copying a table shares its base, so a fleet of learners
 * warm-started from one trained table holds that table once and owns
 * only the rows each learner has written.
 */

#ifndef AUTOSCALE_CORE_QTABLE_H_
#define AUTOSCALE_CORE_QTABLE_H_

#include <atomic>
#include <cstddef>
#include <cstdint>
#include <iosfwd>
#include <memory>
#include <vector>

#include "util/rng.h"

namespace autoscale::core {

/**
 * Copy-on-write state x action value table.
 *
 * A base is written in place while one table owns it. The first copy
 * freezes it for good ("frozen once shared"): from then on every write
 * through any table that reads it first copies the written row into
 * that table's private rows. Whether a write copies is thus a pure
 * function of the table's history, never of how many tables happen
 * to be alive, so shards that write their own tables concurrently
 * make the same choices as a serial run. A frozen base is only read,
 * so any number of threads may read it while each writes its own
 * table.
 *
 * Mutable row() pointers and at() references stay valid until the
 * next mutable access to the same table (a write can add a private
 * row and move the others).
 */
class QTable {
  public:
    /** Zero-initialized table. */
    QTable(int numStates, int numActions);

    /** Share @p other's base and copy its private rows. */
    QTable(const QTable &other);
    QTable &operator=(const QTable &other);
    QTable(QTable &&other) noexcept = default;
    QTable &operator=(QTable &&other) noexcept = default;
    ~QTable() = default;

    int numStates() const { return numStates_; }
    int numActions() const { return numActions_; }

    /**
     * Initialize every entry uniformly in [lo, hi) (Algorithm 1), in
     * row-major order, one draw per entry. The values land in a new
     * base that this table owns alone.
     */
    void randomize(Rng &rng, double lo = 0.0, double hi = 1.0);

    /** Q(S, A). */
    float
    at(int state, int action) const
    {
        return row(state)[checkedAction(action)];
    }

    /** Mutable Q(S, A); copies the row first if the base is shared. */
    float &
    at(int state, int action)
    {
        return row(state)[checkedAction(action)];
    }

    /**
     * Row Q(S, *) as numActions() contiguous values: one bounds check
     * for the whole row, for loops that visit every action of a state.
     */
    const float *row(int state) const;

    /** Mutable row Q(S, *); copies the row first if the base is shared. */
    float *row(int state);

    /** Action with the largest Q(S, A); ties break to the lowest id. */
    int bestAction(int state) const;

    /** max_A Q(S, A). */
    double maxValue(int state) const;

    /**
     * Logical payload size in bytes (Section VI-C memory-footprint
     * analysis): the dense states x actions floats, shared or not.
     */
    std::size_t memoryBytes() const;

    /**
     * Bytes this table holds beyond its base: the private rows and
     * their state index. The base is left out because tables may share
     * it; a table that never shared its base has no private rows.
     */
    std::size_t ownedBytes() const;

    /** States that have a private row, in the order they were copied. */
    const std::vector<int> &privateStates() const { return privateStates_; }

    /** Whether this table and @p other read the same base. */
    bool sharesBaseWith(const QTable &other) const
    {
        return base_ == other.base_;
    }

    /**
     * A new table that owns a copy of this table's base: this table's
     * private rows are not applied, and the copy shares nothing.
     */
    QTable copyOfBase() const;

    /**
     * Read @p snapshot's base from now on. @p snapshot must have no
     * private rows. Every state without a private row here takes
     * snapshot's row; a private row stays only where it differs
     * bitwise from snapshot's row, so rows that already agree stop
     * costing memory.
     */
    void rebase(const QTable &snapshot);

    /**
     * States whose row in this table's base differs bitwise from the
     * same row of @p snapshot's base; private rows are not looked at.
     * A full-table pass, made once per base.
     */
    std::vector<int> baseRowsDifferingFrom(const QTable &snapshot) const;

    /**
     * Read @p snapshot's base from now on without changing any value,
     * for a table that does not read the base @p snapshot was built
     * from. @p snapshot must have no private rows, and @p baseDiff must
     * be baseRowsDifferingFrom(snapshot) of a table on this table's
     * base. A private row is kept only where it differs bitwise from
     * snapshot's row.
     */
    void rebaseKeepingValues(const QTable &snapshot,
                             const std::vector<int> &baseDiff);

    /** Serialize as text (dimensions then row-major values). */
    void save(std::ostream &os) const;

    /** Deserialize from text; fatal() on malformed input. */
    static QTable load(std::istream &is);

  private:
    /** Dense values; immutable once frozen. */
    struct Base {
        explicit Base(std::size_t cells) : values(cells, 0.0f) {}
        std::vector<float> values;
        /** Set, never cleared, when a second table reads this base. */
        std::atomic<bool> frozen{false};
    };

    int checkedAction(int action) const;
    std::size_t rowOffset(int state) const;
    /** @p state's private row slot, or -1. */
    std::int32_t slotOf(int state) const;
    /** Copy @p state's base row into a new private row. */
    float *copyRow(int state);
    /** Share @p base, freezing it. */
    void share(const std::shared_ptr<Base> &base);

    int numStates_;
    int numActions_;
    std::shared_ptr<Base> base_;
    /** State -> private row slot, -1 for none; empty until the first. */
    std::vector<std::int32_t> slot_;
    /** Slot -> state. */
    std::vector<int> privateStates_;
    /** Private rows, slot-major, numActions_ floats each. */
    std::vector<float> rows_;
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
