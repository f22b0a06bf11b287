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
 */

#ifndef HNOC_COMMON_JOB_POOL_HH
#define HNOC_COMMON_JOB_POOL_HH

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

  private:
    void workerLoop();

    std::mutex mutex_;
    std::condition_variable cv_;
    std::deque<std::function<void()>> queue_;
    bool stopping_ = false;
    std::vector<std::thread> workers_;
};

} // namespace hnoc

#endif // HNOC_COMMON_JOB_POOL_HH
