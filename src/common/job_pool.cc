#include "common/job_pool.hh"

#include <cstdlib>

#include "common/parse.hh"

namespace hnoc
{

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
        stopping_ = true;
    }
    cv_.notify_all();
    for (std::thread &w : workers_)
        w.join();
}

void
JobPool::workerLoop()
{
    for (;;) {
        std::function<void()> job;
        {
            std::unique_lock<std::mutex> lock(mutex_);
            cv_.wait(lock,
                     [this] { return stopping_ || !queue_.empty(); });
            if (queue_.empty())
                return; // stopping_ and drained
            job = std::move(queue_.front());
            queue_.pop_front();
        }
        job(); // packaged_task captures any exception in the future
    }
}

} // namespace hnoc
