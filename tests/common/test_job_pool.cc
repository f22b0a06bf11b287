/**
 * @file
 * JobPool unit tests: sizing, FIFO dispatch, ordered result
 * collection, exception propagation through futures, saturation
 * with far more jobs than workers, and lending idle workers to a
 * StepTeam (whose parked helpers must never hold up a shutdown).
 */

#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <cstdlib>
#include <memory>
#include <mutex>
#include <stdexcept>
#include <thread>
#include <vector>

#include "common/job_pool.hh"
#include "common/step_team.hh"
#include "heteronoc/layout.hh"
#include "noc/network.hh"

namespace hnoc
{
namespace
{

TEST(JobPool, DefaultThreadCountReadsEnv)
{
    ::setenv("HNOC_THREADS", "3", 1);
    EXPECT_EQ(JobPool::defaultThreadCount(), 3);
    ::setenv("HNOC_THREADS", "0", 1); // invalid -> hardware fallback
    EXPECT_GE(JobPool::defaultThreadCount(), 1);
    ::unsetenv("HNOC_THREADS");
    EXPECT_GE(JobPool::defaultThreadCount(), 1);
}

TEST(JobPool, MalformedThreadCountIsFatal)
{
    ::setenv("HNOC_THREADS", "4x", 1);
    EXPECT_EXIT(JobPool::defaultThreadCount(),
                ::testing::ExitedWithCode(1), "HNOC_THREADS='4x'");
    ::setenv("HNOC_THREADS", "many", 1);
    EXPECT_EXIT(JobPool::defaultThreadCount(),
                ::testing::ExitedWithCode(1), "HNOC_THREADS='many'");
    ::unsetenv("HNOC_THREADS");
}

TEST(JobPool, EnvSizedPoolHasOneWorker)
{
    ::setenv("HNOC_THREADS", "1", 1);
    JobPool pool; // sized from the environment
    EXPECT_EQ(pool.threadCount(), 1);
    ::unsetenv("HNOC_THREADS");
}

TEST(JobPool, ExplicitThreadCount)
{
    JobPool pool(4);
    EXPECT_EQ(pool.threadCount(), 4);
}

TEST(JobPool, SubmitReturnsResult)
{
    JobPool pool(2);
    auto fut = pool.submit([] { return 6 * 7; });
    EXPECT_EQ(fut.get(), 42);
}

TEST(JobPool, SingleWorkerRunsJobsInSubmissionOrder)
{
    JobPool pool(1);
    std::vector<int> order;
    std::mutex m;
    std::vector<std::future<void>> futs;
    for (int i = 0; i < 32; ++i)
        futs.push_back(pool.submit([&, i] {
            std::lock_guard<std::mutex> lock(m);
            order.push_back(i);
        }));
    for (auto &f : futs)
        f.get();
    ASSERT_EQ(order.size(), 32u);
    for (int i = 0; i < 32; ++i)
        EXPECT_EQ(order[static_cast<std::size_t>(i)], i);
}

TEST(JobPool, RunOrderedCollectsInInputOrder)
{
    JobPool pool(4);
    auto results = pool.runOrdered(
        100, [](std::size_t i) { return static_cast<int>(i) * 3; });
    ASSERT_EQ(results.size(), 100u);
    for (std::size_t i = 0; i < results.size(); ++i)
        EXPECT_EQ(results[i], static_cast<int>(i) * 3);
}

TEST(JobPool, ExceptionPropagatesThroughFuture)
{
    JobPool pool(2);
    auto fut = pool.submit(
        []() -> int { throw std::runtime_error("boom"); });
    EXPECT_THROW(fut.get(), std::runtime_error);
    // The worker survives the exception and keeps serving jobs.
    EXPECT_EQ(pool.submit([] { return 7; }).get(), 7);
}

TEST(JobPool, RunOrderedRethrowsFirstFailure)
{
    JobPool pool(2);
    EXPECT_THROW(pool.runOrdered(16,
                                 [](std::size_t i) -> int {
                                     if (i == 5)
                                         throw std::invalid_argument("x");
                                     return static_cast<int>(i);
                                 }),
                 std::invalid_argument);
}

TEST(JobPool, SaturationManyMoreJobsThanWorkers)
{
    JobPool pool(2);
    std::atomic<int> done{0};
    auto results = pool.runOrdered(500, [&](std::size_t i) {
        done.fetch_add(1, std::memory_order_relaxed);
        return static_cast<int>(i);
    });
    EXPECT_EQ(done.load(), 500);
    ASSERT_EQ(results.size(), 500u);
    EXPECT_EQ(results.front(), 0);
    EXPECT_EQ(results.back(), 499);
}

TEST(JobPool, DestructorDrainsPendingJobs)
{
    std::atomic<int> done{0};
    {
        JobPool pool(2);
        for (int i = 0; i < 64; ++i)
            pool.submit([&] {
                done.fetch_add(1, std::memory_order_relaxed);
            });
        // No get(): destruction must still run every queued job.
    }
    EXPECT_EQ(done.load(), 64);
}

TEST(JobPool, LendNeedsAnIdleWorker)
{
    JobPool pool(1);
    std::atomic<bool> release{false};
    auto blocker = pool.submit([&] {
        while (!release.load())
            std::this_thread::yield();
    });
    while (pool.idleWorkers() != 0)
        std::this_thread::yield();
    EXPECT_FALSE(pool.lend([] {}));
    release.store(true);
    blocker.get();

    while (pool.idleWorkers() != 1)
        std::this_thread::yield();
    std::atomic<bool> ran{false};
    EXPECT_TRUE(pool.lend([&] { ran.store(true); }));
    while (!ran.load())
        std::this_thread::yield();
}

/** Step @p team from a worker of @p pool (as a sim point does) until
 *  a helper has run items of a cycle with it, or a generous deadline
 *  passes. */
bool
formTeam(JobPool &pool, const std::function<int()> &step_threads,
         const std::function<void()> &step)
{
    return pool
        .submit([&] {
            auto deadline =
                std::chrono::steady_clock::now() + std::chrono::seconds(30);
            while (step_threads() < 2 &&
                   std::chrono::steady_clock::now() < deadline)
                step();
            return step_threads() >= 2;
        })
        .get();
}

/** Long enough for idle helpers to stop spinning and park. */
void
letHelpersPark()
{
    std::this_thread::sleep_for(std::chrono::milliseconds(50));
}

TEST(JobPool, DestroyingPoolWithParkedTeamDoesNotHang)
{
    std::atomic<int> items{0};
    auto count = [](void *ctx, int, int) {
        static_cast<std::atomic<int> *>(ctx)->fetch_add(1);
    };
    std::unique_ptr<StepTeam> team;
    {
        JobPool pool(3);
        team = std::make_unique<StepTeam>(pool, 3, count, &items);
        EXPECT_TRUE(formTeam(
            pool, [&] { return team->peakThreads(); },
            [&] { team->runCycle(); }));
        letHelpersPark();
    } // ~JobPool: the parked helpers must leave, or this joins forever
    team.reset();
    EXPECT_EQ(items.load() % 6, 0); // whole cycles only
}

TEST(JobPool, DestroyingNetworkWithParkedTeamDoesNotHang)
{
    JobPool pool(4);
    NetworkConfig cfg = makeLayoutConfig(LayoutKind::Baseline);
    cfg.blockTiles = 8; // 8 blocks: a 4-thread team
    auto net = std::make_unique<Network>(cfg);
    EXPECT_TRUE(formTeam(
        pool, [&] { return net->stepThreads(); }, [&] { net->step(); }));
    letHelpersPark();
    net.reset(); // ~Network releases the parked helpers
    // The workers are free again: a submitted job runs.
    EXPECT_EQ(pool.submit([] { return 5; }).get(), 5);
}

} // namespace
} // namespace hnoc
