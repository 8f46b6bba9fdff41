/**
 * @file
 * Tests for the Q-table: indexing, argmax, random initialization,
 * serialization, the Section VI-C memory footprint, and the
 * copy-on-write layout (shared bases, private rows, rebasing, and
 * concurrent writers over one base).
 */

#include <gtest/gtest.h>

#include <cmath>
#include <cstring>
#include <locale>
#include <sstream>
#include <thread>
#include <utility>
#include <vector>

#include "core/qtable.h"
#include "util/rng.h"

namespace autoscale::core {
namespace {

TEST(QTable, StartsZeroed)
{
    QTable table(4, 3);
    for (int s = 0; s < 4; ++s) {
        for (int a = 0; a < 3; ++a) {
            EXPECT_FLOAT_EQ(table.at(s, a), 0.0f);
        }
    }
}

TEST(QTable, ReadWriteRoundTrip)
{
    QTable table(10, 5);
    table.at(7, 3) = 1.25f;
    EXPECT_FLOAT_EQ(table.at(7, 3), 1.25f);
    EXPECT_FLOAT_EQ(table.at(3, 7 % 5), 0.0f);
}

TEST(QTable, BestActionArgmaxAndTies)
{
    QTable table(2, 4);
    table.at(0, 1) = 5.0f;
    table.at(0, 2) = 5.0f; // tie breaks to the lowest id
    table.at(0, 3) = 4.0f;
    EXPECT_EQ(table.bestAction(0), 1);
    EXPECT_DOUBLE_EQ(table.maxValue(0), 5.0);
    // Untouched row: all zeros, argmax is action 0.
    EXPECT_EQ(table.bestAction(1), 0);
}

TEST(QTable, RandomizeStaysInRange)
{
    QTable table(50, 20);
    Rng rng(3);
    table.randomize(rng, 0.0, 1.0);
    bool any_nonzero = false;
    for (int s = 0; s < 50; ++s) {
        for (int a = 0; a < 20; ++a) {
            const float v = table.at(s, a);
            EXPECT_GE(v, 0.0f);
            EXPECT_LT(v, 1.0f);
            any_nonzero = any_nonzero || v != 0.0f;
        }
    }
    EXPECT_TRUE(any_nonzero);
}

TEST(QTable, MemoryFootprintMatchesSectionVIC)
{
    // The paper reports a 0.4 MB requirement for the full design space;
    // a float table of 3,072 x 66 lands in the same range.
    QTable table(3072, 66);
    EXPECT_EQ(table.memoryBytes(), 3072u * 66u * sizeof(float));
    const double mb =
        static_cast<double>(table.memoryBytes()) / (1024.0 * 1024.0);
    EXPECT_GT(mb, 0.3);
    EXPECT_LT(mb, 1.0);
}

TEST(QTable, SaveLoadRoundTrip)
{
    QTable table(6, 4);
    Rng rng(9);
    table.randomize(rng, -2.0, 2.0);
    std::stringstream stream;
    table.save(stream);
    const QTable loaded = QTable::load(stream);
    ASSERT_EQ(loaded.numStates(), 6);
    ASSERT_EQ(loaded.numActions(), 4);
    for (int s = 0; s < 6; ++s) {
        for (int a = 0; a < 4; ++a) {
            EXPECT_FLOAT_EQ(loaded.at(s, a), table.at(s, a));
        }
    }
}

TEST(QTable, SaveIsLocaleIndependent)
{
    // Q-table serialization feeds checkpoint bodies whose CRC is taken
    // over the exact bytes: a comma-decimal global locale must not
    // change them (save/load imbue the classic locale).
    QTable table(4, 3);
    Rng rng(11);
    table.randomize(rng, -2.0, 2.0);
    std::stringstream classicStream;
    table.save(classicStream);

    struct CommaDecimalPoint : std::numpunct<char> {
        char do_decimal_point() const override { return ','; }
    };
    const std::locale previous = std::locale::global(
        std::locale(std::locale::classic(), new CommaDecimalPoint));
    std::stringstream commaStream;
    table.save(commaStream);
    EXPECT_EQ(commaStream.str(), classicStream.str());
    const QTable loaded = QTable::load(commaStream);
    std::locale::global(previous);

    for (int s = 0; s < 4; ++s) {
        for (int a = 0; a < 3; ++a) {
            EXPECT_FLOAT_EQ(loaded.at(s, a), table.at(s, a));
        }
    }
}

TEST(HalfFloat, ExactValuesRoundTrip)
{
    for (float v : {0.0f, 1.0f, -1.0f, 0.5f, -2.75f, 1024.0f, -15.0f,
                    0.000061035156f /* smallest normal half */}) {
        EXPECT_FLOAT_EQ(halfToFloat(floatToHalf(v)), v) << v;
    }
}

TEST(HalfFloat, RelativeErrorWithinHalfPrecision)
{
    Rng rng(7);
    for (int i = 0; i < 10000; ++i) {
        const float v =
            static_cast<float>(rng.uniform(-5000.0, 5000.0));
        const float back = halfToFloat(floatToHalf(v));
        if (std::fabs(v) > 1e-3f) {
            EXPECT_NEAR(back, v, std::fabs(v) * 1e-3f + 1e-6f);
        }
    }
}

TEST(HalfFloat, OverflowSaturatesToInfinity)
{
    EXPECT_TRUE(std::isinf(halfToFloat(floatToHalf(1e10f))));
    EXPECT_TRUE(std::isinf(halfToFloat(floatToHalf(-1e10f))));
    EXPECT_LT(halfToFloat(floatToHalf(-1e10f)), 0.0f);
}

TEST(HalfFloat, SubnormalsSurvive)
{
    const float tiny = 3.0e-6f; // subnormal in half precision
    const float back = halfToFloat(floatToHalf(tiny));
    EXPECT_GT(back, 0.0f);
    EXPECT_NEAR(back, tiny, tiny * 0.05f);
}

TEST(PackedQTable, FootprintMatchesThePaper)
{
    // Section VI-C: "the memory requirement of AutoScale is 0.4 MB".
    QTable table(3072, 66);
    PackedQTable packed(table);
    const double mb = static_cast<double>(packed.memoryBytes())
        / (1024.0 * 1024.0);
    EXPECT_NEAR(mb, 0.39, 0.02);
    EXPECT_EQ(packed.memoryBytes() * 2, table.memoryBytes());
}

TEST(PackedQTable, PreservesGreedyDecisionsOnRealisticValues)
{
    // Q-values at mJ scale: gaps above the ~0.1% half quantization are
    // never flipped by packing.
    QTable table(64, 66);
    Rng rng(11);
    table.randomize(rng, -500.0, 0.0);
    PackedQTable packed(table);
    int agreement = 0;
    for (int s = 0; s < 64; ++s) {
        EXPECT_NEAR(packed.at(s, 3), table.at(s, 3),
                    std::fabs(table.at(s, 3)) * 1e-3 + 1e-3);
        if (packed.bestAction(s) == table.bestAction(s)) {
            ++agreement;
        }
    }
    EXPECT_GE(agreement, 62); // near-exact; random ties may flip
}

TEST(PackedQTable, UnpackRoundTrip)
{
    QTable table(8, 5);
    Rng rng(13);
    table.randomize(rng, -100.0, 0.0);
    const QTable unpacked = PackedQTable(table).unpack();
    for (int s = 0; s < 8; ++s) {
        for (int a = 0; a < 5; ++a) {
            EXPECT_NEAR(unpacked.at(s, a), table.at(s, a),
                        std::fabs(table.at(s, a)) * 1e-3 + 1e-3);
        }
    }
}

TEST(QTableDeath, AbsurdHeaderIsRejectedBeforeAllocating)
{
    // A corrupt or malicious header must not size a huge allocation.
    std::stringstream huge("999999999 999999999\n");
    EXPECT_EXIT({ QTable::load(huge); }, ::testing::ExitedWithCode(1),
                "absurd header");
    std::stringstream negative("-3 4\n");
    EXPECT_EXIT({ QTable::load(negative); },
                ::testing::ExitedWithCode(1), "malformed header");
}

TEST(QTableDeath, NonFiniteValuesAreRejected)
{
    std::stringstream nan_stream("2 2\n0.5 nan\n1.0 2.0\n");
    EXPECT_EXIT({ QTable::load(nan_stream); },
                ::testing::ExitedWithCode(1),
                "non-finite value at state 0, action 1");
    std::stringstream inf_stream("2 2\n0.5 1.5\ninf 2.0\n");
    EXPECT_EXIT({ QTable::load(inf_stream); },
                ::testing::ExitedWithCode(1),
                "non-finite value at state 1, action 0");
}

TEST(QTable, DimensionsReported)
{
    QTable table(3072, 66);
    EXPECT_EQ(table.numStates(), 3072);
    EXPECT_EQ(table.numActions(), 66);
}

// ---------------------------------------------------------------------
// Copy-on-write layout (DESIGN.md §18).
// ---------------------------------------------------------------------

/** Cells whose float bit patterns differ between @p a and @p b. */
int
bitwiseMismatches(const QTable &a, const QTable &b)
{
    int mismatches = 0;
    for (int s = 0; s < a.numStates(); ++s) {
        for (int act = 0; act < a.numActions(); ++act) {
            float x = a.at(s, act);
            float y = b.at(s, act);
            if (std::memcmp(&x, &y, sizeof(float)) != 0) {
                ++mismatches;
            }
        }
    }
    return mismatches;
}

TEST(QTableCow, StandaloneTableWritesInPlace)
{
    // A table whose base was never shared owns it: writes land there
    // and no private row is ever made.
    QTable table(40, 6);
    Rng rng(3);
    table.randomize(rng, -1.0, 1.0);
    for (int s = 0; s < 40; ++s) {
        table.at(s, s % 6) = static_cast<float>(s);
    }
    EXPECT_TRUE(table.privateStates().empty());
    EXPECT_EQ(table.ownedBytes(), 0u);
    EXPECT_FLOAT_EQ(table.at(17, 5), 17.0f);
}

TEST(QTableCow, CopiesShareTheBaseAndOwnOnlyWrittenRows)
{
    QTable original(50, 8);
    Rng rng(5);
    original.randomize(rng, -3.0, 3.0);
    const QTable pristine = original;
    QTable copy = original;
    EXPECT_TRUE(copy.sharesBaseWith(original));
    EXPECT_EQ(copy.ownedBytes(), 0u);

    copy.at(7, 2) = 42.0f;
    copy.row(9)[0] = -42.0f;
    copy.at(7, 3) = 43.0f; // same row: no second copy
    EXPECT_EQ(copy.privateStates(), (std::vector<int>{7, 9}));
    EXPECT_GT(copy.ownedBytes(), 0u);
    EXPECT_LT(copy.ownedBytes(), original.memoryBytes());
    EXPECT_FLOAT_EQ(copy.at(7, 2), 42.0f);
    EXPECT_FLOAT_EQ(copy.at(7, 3), 43.0f);
    EXPECT_FLOAT_EQ(copy.at(9, 0), -42.0f);
    // The rest of a copied row, and every other row, still read the
    // base. (Reads go through const references: a mutable at() is a
    // write access and would copy the row.)
    const QTable &view = original;
    EXPECT_EQ(copy.at(7, 1), view.at(7, 1));
    EXPECT_EQ(copy.at(8, 2), view.at(8, 2));
    // The original saw none of it.
    EXPECT_EQ(bitwiseMismatches(original, pristine), 0);

    // Once shared, the original's own writes are private too: the base
    // stays frozen even after every other reader is gone.
    {
        const QTable transient = original;
    }
    original.at(1, 1) = 7.0f;
    EXPECT_EQ(original.privateStates(), (std::vector<int>{1}));
    EXPECT_EQ(copy.at(1, 1), pristine.at(1, 1));
    EXPECT_TRUE(copy.sharesBaseWith(pristine));

    // A copy of a copy carries its private rows along.
    const QTable second = copy;
    EXPECT_EQ(bitwiseMismatches(second, copy), 0);
    EXPECT_EQ(second.privateStates(), copy.privateStates());
}

TEST(QTableCow, RebaseKeepsOnlyRowsThatDiffer)
{
    QTable base(20, 4);
    Rng rng(8);
    base.randomize(rng, -1.0, 1.0);
    QTable learner = base;
    learner.at(2, 0) = 5.0f;
    learner.at(3, 1) = 6.0f;

    // A snapshot that already holds row 2's new value, but not row 3's.
    QTable snapshot = base.copyOfBase();
    snapshot.at(2, 0) = 5.0f;
    snapshot.at(11, 3) = 9.0f;
    EXPECT_TRUE(snapshot.privateStates().empty());

    learner.rebase(snapshot);
    EXPECT_TRUE(learner.sharesBaseWith(snapshot));
    EXPECT_EQ(learner.privateStates(), (std::vector<int>{3}));
    EXPECT_FLOAT_EQ(learner.at(2, 0), 5.0f);
    EXPECT_FLOAT_EQ(learner.at(3, 1), 6.0f);
    EXPECT_FLOAT_EQ(learner.at(11, 3), 9.0f);
    EXPECT_EQ(learner.at(3, 0), base.at(3, 0));
}

TEST(QTableCow, RebaseKeepingValuesOwnsExactlyTheRowsThatDiffer)
{
    QTable old(20, 4);
    Rng rng(9);
    old.randomize(rng, -1.0, 1.0);
    QTable straggler = old;
    straggler.at(4, 2) = 7.0f; // private, differs from the snapshot
    straggler.at(6, 1) = 8.0f; // private, equals the snapshot's row

    // A snapshot on another base that differs from the straggler's old
    // base in rows 6, 9 and 15.
    QTable snapshot = old.copyOfBase();
    snapshot.at(6, 1) = 8.0f;
    snapshot.at(9, 0) = 3.0f;
    snapshot.at(15, 3) = 4.0f;
    EXPECT_FALSE(straggler.sharesBaseWith(snapshot));

    const QTable before = straggler.copyOfBase();
    QTable expected = straggler;
    const std::vector<int> baseDiff =
        straggler.baseRowsDifferingFrom(snapshot);
    EXPECT_EQ(baseDiff, (std::vector<int>{6, 9, 15}));
    straggler.rebaseKeepingValues(snapshot, baseDiff);
    EXPECT_TRUE(straggler.sharesBaseWith(snapshot));
    EXPECT_EQ(bitwiseMismatches(straggler, expected), 0);
    EXPECT_EQ(straggler.privateStates(), (std::vector<int>{4, 9, 15}));
    EXPECT_EQ(straggler.at(9, 0), before.at(9, 0));

    // Rows read from the snapshot's base copy on write again.
    const float shared = std::as_const(snapshot).at(0, 0);
    straggler.at(0, 0) = shared + 1.0f;
    EXPECT_EQ(std::as_const(snapshot).at(0, 0), shared);
    EXPECT_EQ(straggler.privateStates().back(), 0);

    // A table equal to the snapshot owns nothing afterwards.
    QTable same = snapshot.copyOfBase();
    same.rebaseKeepingValues(snapshot, same.baseRowsDifferingFrom(snapshot));
    EXPECT_TRUE(same.privateStates().empty());
    EXPECT_TRUE(same.sharesBaseWith(snapshot));
}

TEST(QTableCow, CopyOfBaseAndRandomizeLeaveAnUnsharedBase)
{
    QTable source(12, 5);
    Rng rng(4);
    source.randomize(rng, 0.0, 1.0);
    QTable copy = source;
    copy.at(4, 4) = -1.0f;

    QTable base = copy.copyOfBase();
    EXPECT_FALSE(base.sharesBaseWith(source));
    EXPECT_TRUE(base.privateStates().empty());
    EXPECT_EQ(bitwiseMismatches(base, source), 0); // no private rows
    base.at(0, 0) = 3.0f; // an owned base is written in place
    EXPECT_TRUE(base.privateStates().empty());
    EXPECT_TRUE(source.privateStates().empty());

    QTable shared = source;
    shared.at(1, 1) = 2.0f;
    Rng again(4);
    shared.randomize(again, 0.0, 1.0);
    EXPECT_FALSE(shared.sharesBaseWith(source));
    EXPECT_TRUE(shared.privateStates().empty());
    EXPECT_EQ(bitwiseMismatches(shared, source), 0);
}

TEST(QTableCow, SaveWritesTheValuesNotTheLayout)
{
    QTable original(6, 3);
    Rng rng(13);
    original.randomize(rng, -2.0, 2.0);
    QTable shared = original;
    shared.at(2, 1) = 0.25f;
    QTable owned = original.copyOfBase();
    owned.at(2, 1) = 0.25f;
    ASSERT_EQ(shared.privateStates().size(), 1u);
    ASSERT_TRUE(owned.privateStates().empty());
    std::stringstream a;
    std::stringstream b;
    shared.save(a);
    owned.save(b);
    EXPECT_EQ(a.str(), b.str());
}

TEST(QTableCow, ThreadsReadOneBaseWhileEachWritesItsOwnRows)
{
    // The fleet's shards: every learner reads the one frozen base while
    // writing private rows of its own table on its own thread.
    constexpr int kThreads = 4;
    constexpr int kStates = 256;
    constexpr int kActions = 16;
    QTable base(kStates, kActions);
    Rng rng(21);
    base.randomize(rng, -1.0, 1.0);
    const QTable pristine = base;
    std::vector<QTable> tables(kThreads, base);

    std::vector<std::thread> threads;
    for (int t = 0; t < kThreads; ++t) {
        threads.emplace_back([&tables, &base, t] {
            QTable &table = tables[static_cast<std::size_t>(t)];
            double sink = 0.0;
            for (int round = 0; round < 50; ++round) {
                for (int s = t; s < kStates; s += kThreads) {
                    table.at(s, round % kActions) += 1.0f;
                    sink += base.maxValue((s + 1) % kStates);
                    sink += table.maxValue((s + 2) % kStates);
                }
            }
            EXPECT_TRUE(std::isfinite(sink));
        });
    }
    for (std::thread &thread : threads) {
        thread.join();
    }

    EXPECT_EQ(bitwiseMismatches(base, pristine), 0);
    for (int t = 0; t < kThreads; ++t) {
        const QTable &table = tables[static_cast<std::size_t>(t)];
        EXPECT_TRUE(table.sharesBaseWith(base));
        EXPECT_EQ(table.privateStates().size(),
                  static_cast<std::size_t>(kStates / kThreads));
        for (int s = 0; s < kStates; ++s) {
            for (int a = 0; a < kActions; ++a) {
                const int writes = s % kThreads == t
                    ? 50 / kActions + (a < 50 % kActions ? 1 : 0)
                    : 0;
                float expected = pristine.at(s, a);
                for (int w = 0; w < writes; ++w) {
                    expected += 1.0f;
                }
                EXPECT_EQ(table.at(s, a), expected)
                    << "thread " << t << " cell (" << s << "," << a << ")";
            }
        }
    }
}

} // namespace
} // namespace autoscale::core
