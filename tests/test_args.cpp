/** @file Unit tests for the CLI argument parser (util/args.h). */

#include <gtest/gtest.h>

#include "util/args.h"

namespace autoscale {
namespace {

Args
make(std::initializer_list<const char *> tokens)
{
    std::vector<std::string> list;
    for (const char *token : tokens) {
        list.emplace_back(token);
    }
    return Args(std::move(list));
}

TEST(Args, GetReturnsFollowingToken)
{
    const Args args = make({"prog", "--device", "Mi8Pro", "--runs", "40"});
    EXPECT_EQ(args.get("--device"), "Mi8Pro");
    EXPECT_EQ(args.get("--runs"), "40");
}

TEST(Args, FallbacksWhenAbsent)
{
    const Args args = make({"prog"});
    EXPECT_EQ(args.get("--device", "default"), "default");
    EXPECT_DOUBLE_EQ(args.getDouble("--co-cpu", 0.25), 0.25);
    EXPECT_EQ(args.getInt("--runs", 7), 7);
}

TEST(Args, TrailingFlagHasNoValue)
{
    const Args args = make({"prog", "--device"});
    EXPECT_EQ(args.get("--device", "fallback"), "fallback");
}

TEST(Args, NumericParsing)
{
    const Args args = make({"prog", "--rssi", "-85.5", "--n", "12"});
    EXPECT_DOUBLE_EQ(args.getDouble("--rssi", 0.0), -85.5);
    EXPECT_EQ(args.getInt("--n", 0), 12);
}

TEST(Args, MalformedNumbersFallBack)
{
    // `autoscale_cli --runs abc` used to abort with an uncaught
    // std::invalid_argument out of std::stoi.
    const Args args = make({"prog", "--runs", "abc", "--rssi", "weak"});
    EXPECT_EQ(args.getInt("--runs", 7), 7);
    EXPECT_DOUBLE_EQ(args.getDouble("--rssi", -55.0), -55.0);
}

TEST(Args, TrailingGarbageFallsBack)
{
    const Args args = make({"prog", "--runs", "12abc", "--co-cpu",
                            "0.5x", "--top", "3.5"});
    EXPECT_EQ(args.getInt("--runs", 7), 7);
    EXPECT_DOUBLE_EQ(args.getDouble("--co-cpu", 0.25), 0.25);
    // "3.5" is not an integer token: stoi would silently truncate.
    EXPECT_EQ(args.getInt("--top", 8), 8);
}

TEST(Args, OutOfRangeNumbersFallBack)
{
    const Args args = make({"prog", "--n", "99999999999999999999",
                            "--x", "1e999"});
    EXPECT_EQ(args.getInt("--n", 3), 3);
    EXPECT_DOUBLE_EQ(args.getDouble("--x", 1.5), 1.5);
}

TEST(Args, NegativeAndScientificNumbersStillParse)
{
    const Args args = make({"prog", "--n", "-12", "--x", "2.5e-3"});
    EXPECT_EQ(args.getInt("--n", 0), -12);
    EXPECT_DOUBLE_EQ(args.getDouble("--x", 0.0), 2.5e-3);
}

TEST(Args, HasDetectsSwitches)
{
    const Args args = make({"prog", "--csv", "--device", "X"});
    EXPECT_TRUE(args.has("--csv"));
    EXPECT_TRUE(args.has("--device"));
    EXPECT_FALSE(args.has("--json"));
}

TEST(Args, LastOccurrenceWins)
{
    // Repeated flags resolve last-one-wins, silently; strict callers
    // reject conflicts via hasConflictingDuplicate().
    testing::internal::CaptureStderr();
    const Args args = make({"prog", "--seed", "1", "--seed", "2"});
    EXPECT_EQ(testing::internal::GetCapturedStderr(), "");
    EXPECT_EQ(args.getInt("--seed", 0), 2);
}

TEST(Args, EqualsFormAcceptedEverywhere)
{
    const Args args = make({"prog", "--device=Mi8Pro", "--rssi=-85.5",
                            "--runs=12", "--csv"});
    EXPECT_EQ(args.get("--device"), "Mi8Pro");
    EXPECT_DOUBLE_EQ(args.getDouble("--rssi", 0.0), -85.5);
    EXPECT_EQ(args.getInt("--runs", 0), 12);
    EXPECT_TRUE(args.has("--device"));
    EXPECT_TRUE(args.has("--csv"));
}

TEST(Args, EqualsFormSplitsOnlyLongFlags)
{
    // Positional operands and short options keep their '='; an empty
    // value after '=' is a present-but-empty value, not the next flag.
    const Args args = make({"prog", "a=b", "-x=y", "--empty=", "--n", "4"});
    EXPECT_FALSE(args.has("--a"));
    EXPECT_FALSE(args.has("-x"));
    EXPECT_EQ(args.get("--empty", "fallback"), "");
    EXPECT_EQ(args.getInt("--n", 0), 4);
}

TEST(Args, EqualsAndSpaceFormsMix)
{
    const Args args = make({"prog", "--seed=1", "--seed", "2"});
    EXPECT_EQ(args.getInt("--seed", 0), 2);
    EXPECT_TRUE(args.hasConflictingDuplicate("--seed"));
}

TEST(Args, ConflictingDuplicateDetection)
{
    const Args conflicting =
        make({"prog", "--jobs", "1", "--jobs", "4"});
    EXPECT_TRUE(conflicting.hasConflictingDuplicate("--jobs"));

    // A repeat of the identical value is benign: last-one-wins returns
    // it unchanged.
    const Args benign = make({"prog", "--jobs", "2", "--jobs", "2"});
    EXPECT_FALSE(benign.hasConflictingDuplicate("--jobs"));

    const Args single = make({"prog", "--jobs", "2"});
    EXPECT_FALSE(single.hasConflictingDuplicate("--jobs"));
    EXPECT_FALSE(single.hasConflictingDuplicate("--seed"));
}

TEST(Args, ParseDoubleDistinguishesAbsentFromMalformed)
{
    // getDouble cannot tell "flag missing" from "flag present but
    // broken" — both return the fallback. parseDouble closes that gap
    // for callers (the scenario merger) whose conflict rules depend on
    // whether the flag was actually given.
    const Args args = make({"prog", "--ok", "2.5", "--bad", "x",
                            "--empty=", "--trail"});
    double value = -1.0;
    EXPECT_EQ(args.parseDouble("--missing", &value),
              Args::ParseStatus::Absent);
    EXPECT_DOUBLE_EQ(value, -1.0); // Untouched on Absent.

    EXPECT_EQ(args.parseDouble("--ok", &value), Args::ParseStatus::Ok);
    EXPECT_DOUBLE_EQ(value, 2.5);

    value = -1.0;
    EXPECT_EQ(args.parseDouble("--bad", &value),
              Args::ParseStatus::Malformed);
    EXPECT_DOUBLE_EQ(value, -1.0); // Untouched on Malformed.

    // A present flag with no value is a usage error, not an absence.
    EXPECT_EQ(args.parseDouble("--empty", &value),
              Args::ParseStatus::Malformed);
    EXPECT_EQ(args.parseDouble("--trail", &value),
              Args::ParseStatus::Malformed);
}

TEST(Args, ParseDoubleRejectsGarbageAndOverflow)
{
    const Args args = make({"prog", "--a", "0.5x", "--b", "1e999",
                            "--c", "-85.5", "--d", "2.5e-3"});
    double value = 0.0;
    EXPECT_EQ(args.parseDouble("--a", &value),
              Args::ParseStatus::Malformed);
    EXPECT_EQ(args.parseDouble("--b", &value),
              Args::ParseStatus::Malformed);
    EXPECT_EQ(args.parseDouble("--c", &value), Args::ParseStatus::Ok);
    EXPECT_DOUBLE_EQ(value, -85.5);
    EXPECT_EQ(args.parseDouble("--d", &value), Args::ParseStatus::Ok);
    EXPECT_DOUBLE_EQ(value, 2.5e-3);
}

TEST(Args, ParseIntDistinguishesAbsentFromMalformed)
{
    const Args args = make({"prog", "--n", "12", "--bad", "3.5",
                            "--huge", "99999999999999999999"});
    int value = 7;
    EXPECT_EQ(args.parseInt("--missing", &value),
              Args::ParseStatus::Absent);
    EXPECT_EQ(value, 7);

    EXPECT_EQ(args.parseInt("--n", &value), Args::ParseStatus::Ok);
    EXPECT_EQ(value, 12);

    value = 7;
    // "3.5" would silently truncate under stoi; here it is Malformed.
    EXPECT_EQ(args.parseInt("--bad", &value),
              Args::ParseStatus::Malformed);
    EXPECT_EQ(args.parseInt("--huge", &value),
              Args::ParseStatus::Malformed);
    EXPECT_EQ(value, 7);
}

TEST(Args, ArgcArgvConstructor)
{
    const char *argv[] = {"prog", "--x", "y"};
    const Args args(3, argv);
    EXPECT_EQ(args.size(), 3u);
    EXPECT_EQ(args.get("--x"), "y");
}

} // namespace
} // namespace autoscale
