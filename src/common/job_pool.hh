/**
 * @file
 * Work-queue thread pool for the parallel experiment engine.
 *
 * A JobPool owns a fixed set of worker threads draining a FIFO of
 * type-erased jobs. submit() returns a std::future so exceptions thrown
 * inside a job propagate to the caller at get(); runOrdered() maps a
 * function over an index range and collects results in input order, so
 * independent deterministic sim points can fan out across cores while
 * the caller sees exactly the serial-loop result vector.
 *
 * Sizing: JobPool() uses HNOC_THREADS when set (>= 1), otherwise
 * std::thread::hardware_concurrency(). A pool of size 1 still runs jobs
 * on its single worker thread, which keeps the code path identical for
 * the determinism tests.
 *
 * Lending: a job running on the pool may borrow idle workers for its
 * own inner parallelism (StepTeam). lend() hands a job to a worker
 * only when one is idle, never queueing it behind submitted work; a
 * lent job polls wantsWorkerBack() and returns as soon as submitted
 * work is queued or the pool is stopping, and may park() on the pool
 * in between.
 */

#ifndef HNOC_COMMON_JOB_POOL_HH
#define HNOC_COMMON_JOB_POOL_HH

#include <atomic>
#include <condition_variable>
#include <cstddef>
#include <deque>
#include <functional>
#include <future>
#include <memory>
#include <mutex>
#include <thread>
#include <type_traits>
#include <utility>
#include <vector>

namespace hnoc
{

/** Fixed-size work-queue thread pool with exception-propagating futures. */
class JobPool
{
  public:
    /** Create a pool with @p threads workers (0 = defaultThreadCount). */
    explicit JobPool(int threads = 0);

    /** Drains the queue, then joins all workers. */
    ~JobPool();

    JobPool(const JobPool &) = delete;
    JobPool &operator=(const JobPool &) = delete;

    /** @return number of worker threads. */
    int threadCount() const { return static_cast<int>(workers_.size()); }

    /**
     * Pool size implied by the environment: HNOC_THREADS when set to a
     * positive integer, else std::thread::hardware_concurrency()
     * (minimum 1). Fatal when HNOC_THREADS is not an integer.
     */
    static int defaultThreadCount();

    /**
     * Process-wide shared pool, created on first use with
     * defaultThreadCount() workers. Used by the sim-harness batch API
     * when no explicit pool is passed.
     */
    static JobPool &shared();

    /** @return the pool whose worker is the calling thread, or nullptr
     *  when the caller is not a pool worker. */
    static JobPool *current();

    /**
     * Enqueue @p fn; the returned future yields its result (or
     * rethrows its exception) at get().
     */
    template <typename Fn>
    auto
    submit(Fn &&fn) -> std::future<std::invoke_result_t<Fn>>
    {
        using R = std::invoke_result_t<Fn>;
        // shared_ptr because std::function requires copyable callables
        // and packaged_task is move-only.
        auto task = std::make_shared<std::packaged_task<R()>>(
            std::forward<Fn>(fn));
        std::future<R> fut = task->get_future();
        {
            std::lock_guard<std::mutex> lock(mutex_);
            queue_.emplace_back([task] { (*task)(); });
            queued_.store(queue_.size(), std::memory_order_relaxed);
        }
        cv_.notify_one();
        return fut;
    }

    /**
     * Run fn(0) ... fn(n - 1) across the pool and return the results
     * in index order. Any job exception is rethrown (the first one, in
     * index order) after all jobs finish.
     */
    template <typename Fn>
    auto
    runOrdered(std::size_t n, Fn fn)
        -> std::vector<std::invoke_result_t<Fn, std::size_t>>
    {
        using R = std::invoke_result_t<Fn, std::size_t>;
        std::vector<std::future<R>> futures;
        futures.reserve(n);
        for (std::size_t i = 0; i < n; ++i)
            futures.push_back(submit([fn, i] { return fn(i); }));
        std::vector<R> results;
        results.reserve(n);
        for (auto &f : futures)
            results.push_back(f.get());
        return results;
    }

    /** @name Lending idle workers */
    ///@{
    /** Workers waiting for a job right now (a lock-free hint). */
    int
    idleWorkers() const
    {
        return idle_.load(std::memory_order_relaxed);
    }

    /**
     * Run @p job on a worker that is idle now. Submitted jobs keep
     * priority over lent ones. @return false, running nothing, when no
     * worker is idle (beyond those already claimed by lent jobs) or
     * the pool is stopping.
     */
    bool lend(std::function<void()> job);

    /** True once a submitted job is queued or the pool is stopping: a
     *  lent job should return its worker (a lock-free poll). */
    bool
    wantsWorkerBack() const
    {
        return queued_.load(std::memory_order_relaxed) > 0 ||
               stopping_.load(std::memory_order_relaxed);
    }

    /**
     * Block a lent job's worker until @p ready() holds or
     * wantsWorkerBack(). @p ready must read only atomics, and whoever
     * makes it true must then call unparkAll(), or the wake is lost.
     */
    template <typename Ready>
    void
    park(Ready ready)
    {
        std::unique_lock<std::mutex> lock(mutex_);
        cv_.wait(lock, [&] {
            return ready() || stopping_.load(std::memory_order_relaxed) ||
                   !queue_.empty();
        });
    }

    /** Wake every park()ed job to re-check its predicate. */
    void unparkAll();
    ///@}

  private:
    void workerLoop();

    std::mutex mutex_;
    std::condition_variable cv_;
    std::deque<std::function<void()>> queue_; ///< submitted jobs
    std::deque<std::function<void()>> lent_;  ///< lent jobs, run second
    std::atomic<std::size_t> queued_{0}; ///< queue_.size(), for polls
    std::atomic<int> idle_{0};           ///< workers waiting in cv_
    std::atomic<bool> stopping_{false};
    std::vector<std::thread> workers_;
};

} // namespace hnoc

#endif // HNOC_COMMON_JOB_POOL_HH
