/**
 * @file
 * JobPool unit tests: sizing, FIFO dispatch, ordered result
 * collection, exception propagation through futures, saturation
 * with far more jobs than workers, and lending idle workers to a
 * StepTeam (whose parked helpers must never hold up a shutdown, and
 * whose leader sections keep their place in every cycle).
 */

#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <cstdlib>
#include <future>
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

/** What a StepTeam cycle must look like from inside: the leader's
 *  sections on the leader, once each per cycle, the between section
 *  after every phase-0 item and before any phase-1 item. */
struct SectionOrder
{
    static constexpr int kSlots = 3;
    std::thread::id leader;
    std::atomic<int> cycles{0}; ///< completed, counted by the leader
    std::atomic<int> phase0{0};
    std::atomic<int> phase1{0};
    std::atomic<int> openings{0};
    std::atomic<int> betweens{0};
    std::atomic<int> violations{0};
    std::atomic<int> helperItems[2] = {0, 0};
    int seen[2] = {0, 0}; ///< helperItems as the leader last saw them

    void
    check(bool ok)
    {
        if (!ok)
            violations.fetch_add(1);
    }

    static void
    item(void *ctx, int phase, int)
    {
        auto &o = *static_cast<SectionOrder *>(ctx);
        int c = o.cycles.load();
        using Clock = std::chrono::steady_clock;
        // A helper's item runs long; the leader's waits (a bounded
        // while) for one to start in its phase. So whenever a helper
        // is at hand, a between section that did not wait for the
        // phase-0 items would overlap one.
        if (std::this_thread::get_id() != o.leader) {
            o.helperItems[phase].fetch_add(1);
            auto until = Clock::now() + std::chrono::microseconds(50);
            while (Clock::now() < until) {
            }
        } else {
            auto until = Clock::now() + std::chrono::milliseconds(1);
            while (o.helperItems[phase].load() == o.seen[phase] &&
                   Clock::now() < until) {
            }
            o.seen[phase] = o.helperItems[phase].load();
        }
        if (phase == 0) {
            o.check(o.betweens.load() == c);
            o.phase0.fetch_add(1);
        } else {
            o.check(o.betweens.load() == c + 1);
            o.phase1.fetch_add(1);
        }
    }

    static void
    opening(void *ctx)
    {
        auto &o = *static_cast<SectionOrder *>(ctx);
        int c = o.cycles.load();
        o.check(std::this_thread::get_id() == o.leader);
        o.check(o.openings.load() == c && o.betweens.load() == c);
        o.check(o.phase1.load() == kSlots * c);
        o.openings.fetch_add(1);
    }

    static void
    between(void *ctx)
    {
        auto &o = *static_cast<SectionOrder *>(ctx);
        int c = o.cycles.load();
        o.check(std::this_thread::get_id() == o.leader);
        o.check(o.openings.load() == c + 1 && o.betweens.load() == c);
        o.check(o.phase0.load() == kSlots * (c + 1));
        o.check(o.phase1.load() == kSlots * c);
        o.betweens.fetch_add(1);
    }
};

TEST(StepTeam, LeaderSectionsRunOncePerCycleBetweenThePhases)
{
    // Three pool workers step the team from a fourth, as a sim point
    // does; jobs queued every few hundred cycles take the helpers
    // back mid-run, and the team recruits them again after.
    JobPool pool(4);
    SectionOrder order;
    StepTeam team(pool, SectionOrder::kSlots, &SectionOrder::item, &order,
                  &SectionOrder::opening, &SectionOrder::between);
    std::vector<std::future<void>> busy;
    pool.submit([&] {
            order.leader = std::this_thread::get_id();
            auto deadline =
                std::chrono::steady_clock::now() + std::chrono::seconds(30);
            int churned = 0;
            while (order.cycles.load() < 2000 &&
                   std::chrono::steady_clock::now() < deadline) {
                if (order.cycles.load() >= 250 + 500 * churned) {
                    ++churned;
                    for (int j = 0; j < 3; ++j)
                        busy.push_back(pool.submit([] {
                            std::this_thread::sleep_for(
                                std::chrono::milliseconds(2));
                        }));
                }
                if (team.runCycle())
                    order.cycles.fetch_add(1);
            }
        })
        .get();
    for (auto &f : busy)
        f.get();

    int cycles = order.cycles.load();
    EXPECT_EQ(cycles, 2000);
    EXPECT_EQ(order.openings.load(), cycles);
    EXPECT_EQ(order.betweens.load(), cycles);
    EXPECT_EQ(order.phase0.load(), SectionOrder::kSlots * cycles);
    EXPECT_EQ(order.phase1.load(), SectionOrder::kSlots * cycles);
    EXPECT_EQ(order.violations.load(), 0);
    EXPECT_GE(team.peakThreads(), 2) << "no helper ever joined";
    EXPECT_GT(order.helperItems[0].load(), 0);
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
