#include "common/job_pool.hh"

#include <cstdlib>

#include "common/parse.hh"

namespace hnoc
{

namespace
{

/** The pool whose workerLoop runs on this thread (JobPool::current). */
thread_local JobPool *tlsPool = nullptr;

} // namespace

int
JobPool::defaultThreadCount()
{
    if (const char *env = std::getenv("HNOC_THREADS")) {
        int v = 0;
        parseNumber("environment", "HNOC_THREADS", env, v);
        if (v >= 1)
            return v;
    }
    unsigned hw = std::thread::hardware_concurrency();
    return hw >= 1 ? static_cast<int>(hw) : 1;
}

JobPool &
JobPool::shared()
{
    static JobPool pool;
    return pool;
}

JobPool *
JobPool::current()
{
    return tlsPool;
}

JobPool::JobPool(int threads)
{
    int n = threads >= 1 ? threads : defaultThreadCount();
    workers_.reserve(static_cast<std::size_t>(n));
    for (int i = 0; i < n; ++i)
        workers_.emplace_back([this] { workerLoop(); });
}

JobPool::~JobPool()
{
    {
        std::lock_guard<std::mutex> lock(mutex_);
        stopping_.store(true, std::memory_order_relaxed);
    }
    cv_.notify_all();
    for (std::thread &w : workers_)
        w.join();
}

bool
JobPool::lend(std::function<void()> job)
{
    {
        std::lock_guard<std::mutex> lock(mutex_);
        // Every queued or lent job will take one of the idle workers.
        auto idle = static_cast<std::size_t>(
            idle_.load(std::memory_order_relaxed));
        if (stopping_.load(std::memory_order_relaxed) ||
            idle <= queue_.size() + lent_.size())
            return false;
        lent_.push_back(std::move(job));
    }
    // notify_all: a single notification could land on a park()ed job,
    // whose predicate does not look at lent_.
    cv_.notify_all();
    return true;
}

void
JobPool::unparkAll()
{
    // Taking the lock orders this wake after any park() predicate
    // check still in progress, so none misses it.
    {
        std::lock_guard<std::mutex> lock(mutex_);
    }
    cv_.notify_all();
}

void
JobPool::workerLoop()
{
    tlsPool = this;
    for (;;) {
        std::function<void()> job;
        {
            std::unique_lock<std::mutex> lock(mutex_);
            idle_.fetch_add(1, std::memory_order_relaxed);
            cv_.wait(lock, [this] {
                return stopping_.load(std::memory_order_relaxed) ||
                       !queue_.empty() || !lent_.empty();
            });
            idle_.fetch_sub(1, std::memory_order_relaxed);
            if (!queue_.empty()) {
                job = std::move(queue_.front());
                queue_.pop_front();
                queued_.store(queue_.size(), std::memory_order_relaxed);
            } else if (!lent_.empty()) {
                job = std::move(lent_.front());
                lent_.pop_front();
            } else {
                return; // stopping_ and drained
            }
        }
        // A submitted job is a packaged_task, which captures any
        // exception in its future; a lent job must not throw.
        job();
    }
}

} // namespace hnoc
