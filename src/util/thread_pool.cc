#include "util/thread_pool.h"

#include <algorithm>
#include <exception>
#include <utility>

namespace autoscale {

ThreadPool::ThreadPool(int threads)
{
    const auto count =
        static_cast<std::size_t>(std::max(1, threads));
    workers_.reserve(count);
    for (std::size_t i = 0; i < count; ++i) {
        workers_.push_back(std::make_unique<Worker>());
    }
    threads_.reserve(count);
    for (std::size_t i = 0; i < count; ++i) {
        threads_.emplace_back([this, i] { workerLoop(i); });
    }
}

ThreadPool::~ThreadPool()
{
    {
        // Under the lock, so the store cannot land between a worker's
        // wait-predicate check and its block (a lost wakeup).
        const std::lock_guard<std::mutex> lock(sleepMutex_);
        stop_.store(true, std::memory_order_release);
    }
    sleepCv_.notify_all();
    for (std::thread &thread : threads_) {
        thread.join();
    }
}

std::future<void>
ThreadPool::submit(std::function<void()> task)
{
    std::packaged_task<void()> packaged(std::move(task));
    std::future<void> future = packaged.get_future();
    const std::size_t index =
        nextQueue_.fetch_add(1, std::memory_order_relaxed)
        % workers_.size();
    {
        std::lock_guard<std::mutex> lock(workers_[index]->mutex);
        workers_[index]->tasks.push_back(std::move(packaged));
    }
    {
        // See ~ThreadPool: a wake predicate changes under sleepMutex_.
        const std::lock_guard<std::mutex> lock(sleepMutex_);
        queued_.fetch_add(1, std::memory_order_release);
    }
    sleepCv_.notify_one();
    return future;
}

void
ThreadPool::parallelFor(std::size_t n,
                        const std::function<void(std::size_t)> &body)
{
    if (n == 0) {
        return;
    }
    std::vector<std::future<void>> futures;
    futures.reserve(n);
    for (std::size_t i = 0; i < n; ++i) {
        futures.push_back(submit([&body, i] { body(i); }));
    }
    // Wait for everything, then rethrow the lowest failing index so the
    // surfaced error does not depend on scheduling.
    std::exception_ptr first;
    for (std::future<void> &future : futures) {
        try {
            future.get();
        } catch (...) {
            if (!first) {
                first = std::current_exception();
            }
        }
    }
    if (first) {
        std::rethrow_exception(first);
    }
}

void
ThreadPool::workerLoop(std::size_t self)
{
    for (;;) {
        if (runOne(self)) {
            continue;
        }
        if (stop_.load(std::memory_order_acquire)) {
            // Drain: only exit once every queue is empty.
            if (queued_.load(std::memory_order_acquire) == 0) {
                return;
            }
            continue;
        }
        std::unique_lock<std::mutex> lock(sleepMutex_);
        sleepCv_.wait(lock, [this] {
            return stop_.load(std::memory_order_acquire)
                || queued_.load(std::memory_order_acquire) > 0;
        });
    }
}

bool
ThreadPool::runOne(std::size_t self)
{
    std::packaged_task<void()> task;
    {
        // Own queue first, newest work first.
        Worker &own = *workers_[self];
        std::lock_guard<std::mutex> lock(own.mutex);
        if (!own.tasks.empty()) {
            task = std::move(own.tasks.back());
            own.tasks.pop_back();
        }
    }
    if (!task.valid()) {
        // Steal the oldest work from a peer.
        for (std::size_t k = 1; k < workers_.size(); ++k) {
            Worker &victim = *workers_[(self + k) % workers_.size()];
            std::lock_guard<std::mutex> lock(victim.mutex);
            if (!victim.tasks.empty()) {
                task = std::move(victim.tasks.front());
                victim.tasks.pop_front();
                break;
            }
        }
    }
    if (!task.valid()) {
        return false;
    }
    queued_.fetch_sub(1, std::memory_order_release);
    task();
    return true;
}

} // namespace autoscale
