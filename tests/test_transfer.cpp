/**
 * @file
 * Tests for learning transfer (Section VI-C): semantic action matching
 * across heterogeneous devices and Q-table seeding.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <cstdint>
#include <vector>

#include "core/action_space.h"
#include "core/transfer.h"
#include "platform/device_zoo.h"
#include "util/rng.h"

namespace autoscale::core {
namespace {

using sim::InferenceSimulator;

TEST(MatchActions, IdenticalDevicesMatchIdentically)
{
    const InferenceSimulator sim =
        InferenceSimulator::makeDefault(platform::makeMi8Pro());
    const auto actions = buildActionSpace(sim);
    const auto match = matchActions(actions, sim, actions, sim);
    ASSERT_EQ(match.size(), actions.size());
    for (std::size_t i = 0; i < actions.size(); ++i) {
        EXPECT_EQ(match[i], static_cast<int>(i));
    }
}

TEST(MatchActions, CrossDeviceMatchesPreserveSemantics)
{
    const InferenceSimulator src =
        InferenceSimulator::makeDefault(platform::makeMi8Pro());
    const InferenceSimulator dst =
        InferenceSimulator::makeDefault(platform::makeMotoXForce());
    const auto src_actions = buildActionSpace(src);
    const auto dst_actions = buildActionSpace(dst);
    const auto match = matchActions(src_actions, src, dst_actions, dst);
    ASSERT_EQ(match.size(), dst_actions.size());
    for (std::size_t d = 0; d < dst_actions.size(); ++d) {
        ASSERT_GE(match[d], 0) << dst_actions[d].label();
        const auto &src_action =
            src_actions[static_cast<std::size_t>(match[d])];
        EXPECT_EQ(src_action.place, dst_actions[d].place);
        EXPECT_EQ(src_action.proc, dst_actions[d].proc);
        EXPECT_EQ(src_action.precision, dst_actions[d].precision);
    }
}

TEST(MatchActions, UnmatchableActionsGetMinusOne)
{
    // Moto X Force has no DSP: its action list has no local DSP action,
    // so a Mi8Pro destination's DSP action finds no Moto source match.
    const InferenceSimulator moto =
        InferenceSimulator::makeDefault(platform::makeMotoXForce());
    const InferenceSimulator mi8 =
        InferenceSimulator::makeDefault(platform::makeMi8Pro());
    const auto moto_actions = buildActionSpace(moto);
    const auto mi8_actions = buildActionSpace(mi8);
    const auto match = matchActions(moto_actions, moto, mi8_actions, mi8);
    bool found_unmatched_dsp = false;
    for (std::size_t d = 0; d < mi8_actions.size(); ++d) {
        if (mi8_actions[d].place == sim::TargetPlace::Local
            && mi8_actions[d].proc == platform::ProcKind::MobileDsp) {
            EXPECT_EQ(match[d], -1);
            found_unmatched_dsp = true;
        }
    }
    EXPECT_TRUE(found_unmatched_dsp);
}

TEST(MatchActions, NearestVfFractionWins)
{
    // Mi8Pro CPU has 23 steps, Moto 15: the top step must map to the
    // top step, the bottom to the bottom.
    const InferenceSimulator src =
        InferenceSimulator::makeDefault(platform::makeMi8Pro());
    const InferenceSimulator dst =
        InferenceSimulator::makeDefault(platform::makeMotoXForce());
    const auto src_actions = buildActionSpace(src);
    const auto dst_actions = buildActionSpace(dst);
    const auto match = matchActions(src_actions, src, dst_actions, dst);

    auto find_cpu_action = [&](const auto &actions, std::size_t vf) {
        for (std::size_t i = 0; i < actions.size(); ++i) {
            if (actions[i].place == sim::TargetPlace::Local
                && actions[i].proc == platform::ProcKind::MobileCpu
                && actions[i].precision == dnn::Precision::FP32
                && actions[i].vfIndex == vf) {
                return static_cast<int>(i);
            }
        }
        return -1;
    };
    const int dst_top = find_cpu_action(
        dst_actions, dst.localDevice().cpu().maxVfIndex());
    const int src_top = find_cpu_action(
        src_actions, src.localDevice().cpu().maxVfIndex());
    ASSERT_GE(dst_top, 0);
    EXPECT_EQ(match[static_cast<std::size_t>(dst_top)], src_top);

    const int dst_bottom = find_cpu_action(dst_actions, 0);
    const int src_bottom = find_cpu_action(src_actions, 0);
    ASSERT_GE(dst_bottom, 0);
    EXPECT_EQ(match[static_cast<std::size_t>(dst_bottom)], src_bottom);
}

TEST(TransferQTable, CopiesMatchedValuesKeepsUnmatched)
{
    const InferenceSimulator moto =
        InferenceSimulator::makeDefault(platform::makeMotoXForce());
    const InferenceSimulator mi8 =
        InferenceSimulator::makeDefault(platform::makeMi8Pro());
    const auto moto_actions = buildActionSpace(moto);
    const auto mi8_actions = buildActionSpace(mi8);

    QTable src(4, static_cast<int>(moto_actions.size()));
    for (int s = 0; s < 4; ++s) {
        for (int a = 0; a < src.numActions(); ++a) {
            src.at(s, a) = static_cast<float>(s * 1000 + a);
        }
    }
    QTable dst(4, static_cast<int>(mi8_actions.size()));
    Rng rng(11);
    dst.randomize(rng, 100000.0, 100001.0); // sentinel range

    transferQTable(src, moto_actions, moto, dst, mi8_actions, mi8);

    const auto match = matchActions(moto_actions, moto, mi8_actions, mi8);
    for (int s = 0; s < 4; ++s) {
        for (std::size_t a = 0; a < mi8_actions.size(); ++a) {
            if (match[a] >= 0) {
                EXPECT_FLOAT_EQ(dst.at(s, static_cast<int>(a)),
                                src.at(s, match[a]));
            } else {
                // Unmatched actions keep their prior (sentinel) values.
                EXPECT_GE(dst.at(s, static_cast<int>(a)), 100000.0f);
            }
        }
    }
}

/** The per-cell definition transferQTable's row copy must reproduce. */
void
transferByCell(const QTable &src, QTable &dst, const std::vector<int> &match)
{
    for (int s = 0; s < dst.numStates(); ++s) {
        for (int a = 0; a < dst.numActions(); ++a) {
            if (match[static_cast<std::size_t>(a)] >= 0) {
                dst.at(s, a) = src.at(s, match[static_cast<std::size_t>(a)]);
            }
        }
    }
}

void
expectBitwiseEqual(const QTable &a, const QTable &b)
{
    ASSERT_EQ(a.numStates(), b.numStates());
    ASSERT_EQ(a.numActions(), b.numActions());
    int mismatches = 0;
    for (int s = 0; s < a.numStates(); ++s) {
        for (int act = 0; act < a.numActions(); ++act) {
            if (std::bit_cast<std::uint32_t>(a.at(s, act))
                != std::bit_cast<std::uint32_t>(b.at(s, act))) {
                ++mismatches;
            }
        }
    }
    EXPECT_EQ(mismatches, 0);
}

TEST(TransferQTable, RowCopyMatchesPerCellDefinition)
{
    const InferenceSimulator moto =
        InferenceSimulator::makeDefault(platform::makeMotoXForce());
    const InferenceSimulator mi8 =
        InferenceSimulator::makeDefault(platform::makeMi8Pro());
    const auto moto_actions = buildActionSpace(moto);
    const auto mi8_actions = buildActionSpace(mi8);
    constexpr int kStates = 97;

    Rng rng(5);
    QTable moto_table(kStates, static_cast<int>(moto_actions.size()));
    moto_table.randomize(rng, -30.0, 2.0);
    QTable mi8_table(kStates, static_cast<int>(mi8_actions.size()));
    mi8_table.randomize(rng, -30.0, 2.0);

    // Moto X Force -> Mi8Pro: the DSP actions have no source match.
    const auto match = matchActions(moto_actions, moto, mi8_actions, mi8);
    ASSERT_NE(std::count(match.begin(), match.end(), -1), 0);
    QTable dst = mi8_table;
    QTable want = mi8_table;
    transferQTable(moto_table, moto_actions, moto, dst, mi8_actions, mi8);
    transferByCell(moto_table, want, match);
    expectBitwiseEqual(dst, want);
    for (int s = 0; s < kStates; ++s) {
        for (std::size_t a = 0; a < match.size(); ++a) {
            if (match[a] < 0) {
                EXPECT_EQ(std::bit_cast<std::uint32_t>(
                              dst.at(s, static_cast<int>(a))),
                          std::bit_cast<std::uint32_t>(
                              mi8_table.at(s, static_cast<int>(a))));
            }
        }
    }

    // Identity transfer: every value of the source, bit for bit.
    QTable copy(kStates, static_cast<int>(mi8_actions.size()));
    QTable copy_want = copy;
    transferQTable(mi8_table, mi8_actions, mi8, copy, mi8_actions, mi8);
    transferByCell(mi8_table, copy_want,
                   matchActions(mi8_actions, mi8, mi8_actions, mi8));
    expectBitwiseEqual(copy, copy_want);
    expectBitwiseEqual(copy, mi8_table);
}

} // namespace
} // namespace autoscale::core
