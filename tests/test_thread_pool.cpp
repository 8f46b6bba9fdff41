/** @file Unit tests for the work-stealing thread pool. */

#include <gtest/gtest.h>

#include <atomic>
#include <cstddef>
#include <mutex>
#include <set>
#include <stdexcept>
#include <vector>

#include "util/thread_pool.h"

namespace autoscale {
namespace {

TEST(ThreadPool, RunsEverySubmittedTask)
{
    ThreadPool pool(4);
    std::atomic<int> sum{0};
    std::vector<std::future<void>> futures;
    for (int i = 1; i <= 100; ++i) {
        futures.push_back(pool.submit([&sum, i] { sum += i; }));
    }
    for (auto &future : futures) {
        future.get();
    }
    EXPECT_EQ(sum.load(), 5050);
}

TEST(ThreadPool, ClampsThreadCountToAtLeastOne)
{
    ThreadPool pool(0);
    EXPECT_EQ(pool.threadCount(), 1);
    std::atomic<bool> ran{false};
    pool.submit([&ran] { ran = true; }).get();
    EXPECT_TRUE(ran.load());
}

TEST(ThreadPool, ParallelForCoversEachIndexExactlyOnce)
{
    ThreadPool pool(3);
    std::mutex mutex;
    std::multiset<std::size_t> seen;
    pool.parallelFor(57, [&](std::size_t i) {
        std::lock_guard<std::mutex> lock(mutex);
        seen.insert(i);
    });
    EXPECT_EQ(seen.size(), 57u);
    for (std::size_t i = 0; i < 57; ++i) {
        EXPECT_EQ(seen.count(i), 1u) << "index " << i;
    }
}

TEST(ThreadPool, ParallelForZeroIsANoOp)
{
    ThreadPool pool(2);
    pool.parallelFor(0, [](std::size_t) { FAIL(); });
}

TEST(ThreadPool, SubmitPropagatesExceptions)
{
    ThreadPool pool(2);
    auto future = pool.submit([] {
        throw std::runtime_error("task failed");
    });
    EXPECT_THROW(future.get(), std::runtime_error);
}

TEST(ThreadPool, ParallelForRethrowsLowestFailingIndex)
{
    ThreadPool pool(4);
    std::atomic<int> completed{0};
    try {
        pool.parallelFor(20, [&](std::size_t i) {
            if (i == 3 || i == 17) {
                throw std::runtime_error("boom " + std::to_string(i));
            }
            ++completed;
        });
        FAIL() << "expected an exception";
    } catch (const std::runtime_error &error) {
        // The surfaced error is always the lowest failing index, so
        // diagnostics do not depend on scheduling.
        EXPECT_STREQ(error.what(), "boom 3");
    }
    EXPECT_EQ(completed.load(), 18);
}

TEST(ThreadPool, SurvivesManyWavesOfWork)
{
    ThreadPool pool(4);
    std::atomic<int> total{0};
    for (int wave = 0; wave < 10; ++wave) {
        pool.parallelFor(25, [&](std::size_t) { ++total; });
    }
    EXPECT_EQ(total.load(), 250);
}

TEST(ThreadPool, MoreThreadsThanTasks)
{
    ThreadPool pool(8);
    std::atomic<int> count{0};
    pool.parallelFor(2, [&](std::size_t) { ++count; });
    EXPECT_EQ(count.load(), 2);
}

TEST(ThreadPool, SurvivesManyPoolLifetimes)
{
    // One short-lived pool after another, the way a fleet epoch uses
    // one. A submit or shutdown whose wakeup slips between a worker's
    // wait-predicate check and its block leaves that worker asleep, and
    // the next parallelFor or join hangs; a lost wakeup used to strike
    // within about 31k lifetimes. A hang fails this test by its ctest
    // timeout.
    constexpr int kLifetimes = 100000;
    std::atomic<int> count{0};
    for (int lifetime = 0; lifetime < kLifetimes; ++lifetime) {
        ThreadPool pool(2);
        pool.parallelFor(2, [&](std::size_t) { ++count; });
    }
    EXPECT_EQ(count.load(), 2 * kLifetimes);
}

} // namespace
} // namespace autoscale
