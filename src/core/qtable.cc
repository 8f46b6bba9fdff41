#include "core/qtable.h"

#include <cmath>
#include <cstdlib>
#include <cstring>
#include <string>
#include <iomanip>
#include <istream>
#include <locale>
#include <ostream>

#include "util/logging.h"

namespace autoscale::core {

QTable::QTable(int numStates, int numActions)
    : numStates_(numStates), numActions_(numActions)
{
    AS_CHECK(numStates_ > 0 && numActions_ > 0);
    base_ = std::make_shared<Base>(static_cast<std::size_t>(numStates)
                                   * static_cast<std::size_t>(numActions));
}

QTable::QTable(const QTable &other)
    : numStates_(other.numStates_), numActions_(other.numActions_),
      slot_(other.slot_), privateStates_(other.privateStates_),
      rows_(other.rows_)
{
    share(other.base_);
}

QTable &
QTable::operator=(const QTable &other)
{
    if (this != &other) {
        numStates_ = other.numStates_;
        numActions_ = other.numActions_;
        slot_ = other.slot_;
        privateStates_ = other.privateStates_;
        rows_ = other.rows_;
        share(other.base_);
    }
    return *this;
}

void
QTable::share(const std::shared_ptr<Base> &base)
{
    base->frozen.store(true, std::memory_order_relaxed);
    base_ = base;
}

int
QTable::checkedAction(int action) const
{
    AS_CHECK(action >= 0 && action < numActions_);
    return action;
}

std::size_t
QTable::rowOffset(int state) const
{
    AS_CHECK(state >= 0 && state < numStates_);
    return static_cast<std::size_t>(state)
        * static_cast<std::size_t>(numActions_);
}

void
QTable::randomize(Rng &rng, double lo, double hi)
{
    AS_CHECK(lo <= hi);
    auto fresh = std::make_shared<Base>(
        static_cast<std::size_t>(numStates_)
        * static_cast<std::size_t>(numActions_));
    for (auto &value : fresh->values) {
        value = static_cast<float>(rng.uniform(lo, hi));
    }
    base_ = std::move(fresh);
    slot_.clear();
    privateStates_.clear();
    rows_.clear();
}

std::int32_t
QTable::slotOf(int state) const
{
    return slot_.empty() ? -1 : slot_[static_cast<std::size_t>(state)];
}

const float *
QTable::row(int state) const
{
    const std::size_t offset = rowOffset(state);
    const std::int32_t slot = slotOf(state);
    if (slot >= 0) {
        return rows_.data()
            + static_cast<std::size_t>(slot)
                * static_cast<std::size_t>(numActions_);
    }
    return base_->values.data() + offset;
}

float *
QTable::row(int state)
{
    const std::size_t offset = rowOffset(state);
    const std::int32_t slot = slotOf(state);
    if (slot >= 0) {
        return rows_.data()
            + static_cast<std::size_t>(slot)
                * static_cast<std::size_t>(numActions_);
    }
    if (!base_->frozen.load(std::memory_order_relaxed)) {
        return base_->values.data() + offset;
    }
    return copyRow(state);
}

float *
QTable::copyRow(int state)
{
    if (slot_.empty()) {
        slot_.assign(static_cast<std::size_t>(numStates_), -1);
    }
    const std::size_t width = static_cast<std::size_t>(numActions_);
    const std::size_t slot = privateStates_.size();
    slot_[static_cast<std::size_t>(state)] =
        static_cast<std::int32_t>(slot);
    privateStates_.push_back(state);
    const float *source = base_->values.data() + rowOffset(state);
    rows_.insert(rows_.end(), source, source + width);
    return rows_.data() + slot * width;
}

int
QTable::bestAction(int state) const
{
    // One bounds check for the whole row, then a raw scan: this runs
    // once per decision and per-cell bounds checks dominated it.
    const float *values = row(state);
    int best = 0;
    float best_value = values[0];
    for (int a = 1; a < numActions_; ++a) {
        if (values[a] > best_value) {
            best_value = values[a];
            best = a;
        }
    }
    return best;
}

double
QTable::maxValue(int state) const
{
    const float *values = row(state);
    float best_value = values[0];
    for (int a = 1; a < numActions_; ++a) {
        if (values[a] > best_value) {
            best_value = values[a];
        }
    }
    return best_value;
}

std::size_t
QTable::memoryBytes() const
{
    return static_cast<std::size_t>(numStates_)
        * static_cast<std::size_t>(numActions_) * sizeof(float);
}

std::size_t
QTable::ownedBytes() const
{
    return rows_.capacity() * sizeof(float)
        + slot_.capacity() * sizeof(std::int32_t)
        + privateStates_.capacity() * sizeof(int);
}

QTable
QTable::copyOfBase() const
{
    QTable copy(numStates_, numActions_);
    copy.base_->values = base_->values;
    return copy;
}

void
QTable::rebase(const QTable &snapshot)
{
    AS_CHECK(snapshot.numStates_ == numStates_
             && snapshot.numActions_ == numActions_);
    AS_CHECK(snapshot.privateStates_.empty());
    share(snapshot.base_);
    // Compact in slot order: a row that matches the new base bit for
    // bit is dropped, the rest move down.
    const std::size_t width = static_cast<std::size_t>(numActions_);
    std::size_t kept = 0;
    for (std::size_t slot = 0; slot < privateStates_.size(); ++slot) {
        const int state = privateStates_[slot];
        const float *values = rows_.data() + slot * width;
        if (std::memcmp(values, base_->values.data() + rowOffset(state),
                        width * sizeof(float))
            == 0) {
            slot_[static_cast<std::size_t>(state)] = -1;
            continue;
        }
        if (kept != slot) {
            std::memmove(rows_.data() + kept * width, values,
                         width * sizeof(float));
        }
        privateStates_[kept] = state;
        slot_[static_cast<std::size_t>(state)] =
            static_cast<std::int32_t>(kept);
        ++kept;
    }
    privateStates_.resize(kept);
    rows_.resize(kept * width);
    if (kept == 0) {
        // Nothing private left: give the overlay's memory back.
        slot_ = std::vector<std::int32_t>();
        privateStates_ = std::vector<int>();
        rows_ = std::vector<float>();
    }
}

std::vector<int>
QTable::baseRowsDifferingFrom(const QTable &snapshot) const
{
    AS_CHECK(snapshot.numStates_ == numStates_
             && snapshot.numActions_ == numActions_);
    const std::size_t width = static_cast<std::size_t>(numActions_);
    std::vector<int> states;
    for (int state = 0; state < numStates_; ++state) {
        const std::size_t offset = rowOffset(state);
        if (std::memcmp(base_->values.data() + offset,
                        snapshot.base_->values.data() + offset,
                        width * sizeof(float))
            != 0) {
            states.push_back(state);
        }
    }
    return states;
}

void
QTable::rebaseKeepingValues(const QTable &snapshot,
                            const std::vector<int> &baseDiff)
{
    // Keep the differing base rows as private rows; every other row
    // then equals snapshot's, which is what rebase expects.
    for (const int state : baseDiff) {
        if (slotOf(state) < 0) {
            copyRow(state);
        }
    }
    rebase(snapshot);
}

void
QTable::save(std::ostream &os) const
{
    // Checkpoints and --qtable files must parse back under any global
    // locale: pin the stream to the classic "C" locale while writing.
    const std::locale previous = os.imbue(std::locale::classic());
    os << numStates_ << ' ' << numActions_ << '\n';
    os << std::setprecision(9);
    for (int s = 0; s < numStates_; ++s) {
        const float *values = row(s);
        for (int a = 0; a < numActions_; ++a) {
            if (a > 0) {
                os << ' ';
            }
            os << values[a];
        }
        os << '\n';
    }
    os.imbue(previous);
}

QTable
QTable::load(std::istream &is)
{
    // The stream is untrusted (a user-supplied --qtable file or a
    // checkpoint that survived a crash): validate the header before
    // sizing any allocation and every value before trusting it. Parsing
    // is pinned to the classic locale so a comma-decimal global locale
    // cannot misread values that were written in "C" form.
    is.imbue(std::locale::classic());
    long long states = 0;
    long long actions = 0;
    if (!(is >> states >> actions) || states <= 0 || actions <= 0) {
        fatal("QTable::load: malformed header");
    }
    constexpr long long kMaxElements = 1LL << 26; // 64M floats = 256 MiB
    if (states > kMaxElements || actions > kMaxElements
        || states * actions > kMaxElements) {
        fatal("QTable::load: absurd header (" + std::to_string(states)
              + " x " + std::to_string(actions)
              + " exceeds the " + std::to_string(kMaxElements)
              + "-entry limit)");
    }
    QTable table(static_cast<int>(states), static_cast<int>(actions));
    // Values are parsed as tokens through strtof (operator>> never
    // accepts "nan"/"inf" text, which would hide the finiteness check).
    std::string token;
    for (int s = 0; s < states; ++s) {
        for (int a = 0; a < actions; ++a) {
            if (!(is >> token)) {
                fatal("QTable::load: truncated values");
            }
            char *end = nullptr;
            const float value = std::strtof(token.c_str(), &end);
            if (end == token.c_str() || *end != '\0') {
                fatal("QTable::load: unparseable value '" + token
                      + "' at state " + std::to_string(s) + ", action "
                      + std::to_string(a));
            }
            if (!std::isfinite(value)) {
                fatal("QTable::load: non-finite value at state "
                      + std::to_string(s) + ", action "
                      + std::to_string(a));
            }
            table.at(s, a) = value;
        }
    }
    return table;
}

std::uint16_t
floatToHalf(float value)
{
    std::uint32_t bits;
    static_assert(sizeof(bits) == sizeof(value));
    std::memcpy(&bits, &value, sizeof(bits));

    const std::uint32_t sign = (bits >> 16) & 0x8000u;
    const std::int32_t exponent =
        static_cast<std::int32_t>((bits >> 23) & 0xffu) - 127 + 15;
    std::uint32_t mantissa = bits & 0x007fffffu;

    if (exponent >= 0x1f) {
        // Overflow or inf/nan: keep nan-ness, else saturate to inf.
        const bool is_nan =
            ((bits >> 23) & 0xffu) == 0xffu && mantissa != 0;
        return static_cast<std::uint16_t>(
            sign | 0x7c00u | (is_nan ? 0x200u : 0u));
    }
    if (exponent <= 0) {
        // Subnormal half (or zero): shift mantissa with the hidden bit.
        if (exponent < -10) {
            return static_cast<std::uint16_t>(sign);
        }
        mantissa |= 0x00800000u; // hidden bit: mantissa is 1.m * 2^23
        // Half subnormal significand = value * 2^24
        //                            = (mantissa / 2^23) * 2^(E + 9)
        //                            = mantissa >> (14 - E).
        const int shift = 14 - exponent;
        const std::uint32_t rounded =
            (mantissa + (1u << (shift - 1))) >> shift;
        return static_cast<std::uint16_t>(sign | rounded);
    }
    // Normal case with round-to-nearest-even on the dropped 13 bits.
    std::uint32_t half = sign
        | (static_cast<std::uint32_t>(exponent) << 10) | (mantissa >> 13);
    const std::uint32_t rest = mantissa & 0x1fffu;
    if (rest > 0x1000u || (rest == 0x1000u && (half & 1u))) {
        ++half; // may carry into the exponent, which is still correct
    }
    return static_cast<std::uint16_t>(half);
}

float
halfToFloat(std::uint16_t bits)
{
    const std::uint32_t sign = (static_cast<std::uint32_t>(bits) & 0x8000u)
        << 16;
    const std::uint32_t exponent = (bits >> 10) & 0x1fu;
    std::uint32_t mantissa = bits & 0x3ffu;

    std::uint32_t out;
    if (exponent == 0) {
        if (mantissa == 0) {
            out = sign; // signed zero
        } else {
            // Subnormal: normalize.
            int e = -1;
            do {
                ++e;
                mantissa <<= 1;
            } while ((mantissa & 0x400u) == 0);
            mantissa &= 0x3ffu;
            out = sign | (static_cast<std::uint32_t>(127 - 15 - e) << 23)
                | (mantissa << 13);
        }
    } else if (exponent == 0x1f) {
        out = sign | 0x7f800000u | (mantissa << 13); // inf / nan
    } else {
        out = sign | ((exponent - 15 + 127) << 23) | (mantissa << 13);
    }
    float value;
    std::memcpy(&value, &out, sizeof(value));
    return value;
}

PackedQTable::PackedQTable(const QTable &table)
    : numStates_(table.numStates()), numActions_(table.numActions()),
      values_(static_cast<std::size_t>(table.numStates())
                  * static_cast<std::size_t>(table.numActions()),
              0)
{
    for (int s = 0; s < numStates_; ++s) {
        for (int a = 0; a < numActions_; ++a) {
            values_[index(s, a)] = floatToHalf(table.at(s, a));
        }
    }
}

std::size_t
PackedQTable::index(int state, int action) const
{
    AS_CHECK(state >= 0 && state < numStates_);
    AS_CHECK(action >= 0 && action < numActions_);
    return static_cast<std::size_t>(state)
        * static_cast<std::size_t>(numActions_)
        + static_cast<std::size_t>(action);
}

float
PackedQTable::at(int state, int action) const
{
    return halfToFloat(values_[index(state, action)]);
}

int
PackedQTable::bestAction(int state) const
{
    int best = 0;
    float best_value = at(state, 0);
    for (int a = 1; a < numActions_; ++a) {
        const float value = at(state, a);
        if (value > best_value) {
            best_value = value;
            best = a;
        }
    }
    return best;
}

QTable
PackedQTable::unpack() const
{
    QTable table(numStates_, numActions_);
    for (int s = 0; s < numStates_; ++s) {
        for (int a = 0; a < numActions_; ++a) {
            table.at(s, a) = at(s, a);
        }
    }
    return table;
}

std::size_t
PackedQTable::memoryBytes() const
{
    return values_.size() * sizeof(std::uint16_t);
}

} // namespace autoscale::core
