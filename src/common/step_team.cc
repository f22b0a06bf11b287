#include "common/step_team.hh"

#include <algorithm>
#include <atomic>
#include <chrono>
#include <exception>
#include <mutex>
#include <thread>
#include <vector>

namespace hnoc
{

namespace
{

/** How long a helper spins for the next cycle before it parks. Many
 *  times a big mesh's serial between-cycle work, so a helper of a
 *  network being stepped never parks. */
constexpr std::chrono::microseconds kSpinBeforePark{2000};

/** Busy-wait polls before a waiting thread starts yielding its core:
 *  ~10-40 us of pause instructions, well under one big-mesh phase. */
constexpr unsigned kSpinsBeforeYield = 256;

/**
 * One busy-wait poll: a pause for the first kSpinsBeforeYield polls of
 * a wait, then a yield per poll. With more team threads than free
 * cores (a loaded host), a preempted team thread may hold the item
 * everyone waits for; yielding lets it run instead of the spinners
 * burning their whole time slice.
 */
class Backoff
{
  public:
    void
    poll()
    {
        if (polls_ < kSpinsBeforeYield) {
            ++polls_;
#if defined(__x86_64__) || defined(__i386__)
            __builtin_ia32_pause();
#elif defined(__aarch64__)
            asm volatile("yield");
#endif
        } else {
            std::this_thread::yield();
        }
    }

  private:
    unsigned polls_ = 0;
};

} // namespace

struct StepTeam::Shared
{
    Shared(JobPool &p, int s, SlotFn f, void *c, LeaderFn o, LeaderFn b)
        : pool(p), slots(s), fn(f), opening(o), between(b), ctx(c),
          claimed(2 * static_cast<std::size_t>(s))
    {}

    /** Run @p f, keeping the cycle's first exception for the
     *  leader. */
    template <typename F>
    void
    guarded(F &&f)
    {
        try {
            f();
        } catch (...) {
            std::lock_guard<std::mutex> lock(errorMutex);
            if (!error)
                error = std::current_exception();
        }
    }

    JobPool &pool;
    const int slots;
    const SlotFn fn;
    const LeaderFn opening;
    const LeaderFn between;
    void *const ctx;

    /** The open cycle, published by the leader. */
    std::atomic<std::uint32_t> cycle{0};
    /** The last cycle whose phase 1 is open, published by the leader
     *  after the between section. */
    std::atomic<std::uint32_t> phase1{0};
    /** Per item (phase-major): the last cycle that claimed it. Every
     *  item is claimed once per cycle, so in cycle c an unclaimed item
     *  holds c - 1 and a claim is the CAS c - 1 -> c, which a thread
     *  still working on an older cycle can never win. */
    std::vector<std::atomic<std::uint32_t>> claimed;
    std::atomic<int> done[2] = {0, 0}; ///< finished items per phase
    std::atomic<int> workers{0};  ///< threads with an item, this cycle
    /** Bit k: a thread whose home is slot k is in the team (the
     *  leader holds bit 0). Threads claim their home slot first, so
     *  a slot's blocks stay in one core's cache from cycle to cycle. */
    std::atomic<std::uint64_t> seats{1};
    std::atomic<int> helpers{0};  ///< lent helper jobs not yet returned
    std::atomic<int> ready{0};    ///< helpers spinning for a cycle
    std::atomic<int> parked{0};   ///< helpers in JobPool::park
    std::atomic<bool> closed{false};

    std::mutex errorMutex;
    std::exception_ptr error; ///< first item exception of the cycle
};

void
StepTeam::work(Shared &s, std::uint32_t cycle, int home, bool leader)
{
    bool counted = false;
    auto run = [&](int phase, int slot) {
        std::uint32_t expect = cycle - 1;
        if (!s.claimed[static_cast<std::size_t>(phase * s.slots + slot)]
                 .compare_exchange_strong(expect, cycle,
                                          std::memory_order_acq_rel))
            return;
        if (!counted) {
            s.workers.fetch_add(1, std::memory_order_relaxed);
            counted = true;
        }
        s.guarded([&] { s.fn(s.ctx, phase, slot); });
        s.done[phase].fetch_add(1, std::memory_order_release);
    };
    for (int phase = 0; phase < 2; ++phase) {
        if (phase == 1 && leader) {
            // The barrier: once every phase-0 item has finished, the
            // leader runs the between section, then opens phase 1.
            Backoff backoff;
            while (s.done[0].load(std::memory_order_acquire) < s.slots)
                backoff.poll();
            if (s.between)
                s.guarded([&] { s.between(s.ctx); });
            s.phase1.store(cycle, std::memory_order_release);
        } else if (phase == 1) {
            // A helper waits for phase 1 to open (or for this
            // thread's cycle to be over).
            Backoff backoff;
            while (s.phase1.load(std::memory_order_acquire) != cycle) {
                if (s.cycle.load(std::memory_order_relaxed) != cycle)
                    return;
                backoff.poll();
            }
        }
        // Home slot first, then whatever is left (a slot whose home
        // thread is absent or late).
        for (int k = 0; k < s.slots; ++k)
            run(phase, (home + k) % s.slots);
    }
}

void
StepTeam::helperLoop(Shared &s)
{
    using Clock = std::chrono::steady_clock;
    // Take the lowest free home seat (none left: steal only).
    int home = 0;
    std::uint64_t seats = s.seats.load();
    for (;;) {
        home = 0;
        for (int k = 1; k < std::min(s.slots, 64) && home == 0; ++k)
            if ((seats & (std::uint64_t{1} << k)) == 0)
                home = k;
        if (home == 0 ||
            s.seats.compare_exchange_weak(seats,
                                          seats | std::uint64_t{1} << home))
            break;
    }
    std::uint32_t seen = s.cycle.load(std::memory_order_acquire);
    s.ready.fetch_add(1);
    for (;;) {
        auto spin_start = Clock::now();
        unsigned spins = 0;
        Backoff backoff;
        for (;;) {
            if (s.closed.load() || s.pool.wantsWorkerBack()) {
                if (home != 0)
                    s.seats.fetch_and(~(std::uint64_t{1} << home));
                s.ready.fetch_sub(1);
                s.helpers.fetch_sub(1);
                return;
            }
            if (s.cycle.load(std::memory_order_acquire) != seen)
                break;
            backoff.poll();
            if ((++spins & 1023) != 0 ||
                Clock::now() - spin_start < kSpinBeforePark)
                continue;
            // Quiet spell: the network is not being stepped. Park
            // until the leader opens a cycle (it unparks whenever
            // parked > 0, read after it publishes the cycle; both
            // sides are seq_cst, so one of them sees the other).
            s.parked.fetch_add(1);
            s.ready.fetch_sub(1);
            s.pool.park([&] {
                return s.closed.load() || s.cycle.load() != seen;
            });
            s.ready.fetch_add(1);
            s.parked.fetch_sub(1);
            spin_start = Clock::now();
            backoff = Backoff();
        }
        seen = s.cycle.load(std::memory_order_acquire);
        work(s, seen, home, false);
    }
}

StepTeam::StepTeam(JobPool &pool, int threads, SlotFn fn, void *ctx,
                   LeaderFn opening, LeaderFn between)
    : shared_(std::make_shared<Shared>(pool, threads, fn, ctx, opening,
                                       between)),
      pool_(pool), threads_(threads)
{}

StepTeam::~StepTeam()
{
    shared_->closed.store(true);
    if (shared_->helpers.load() > 0)
        pool_.unparkAll();
}

void
StepTeam::recruit()
{
    Shared &s = *shared_;
    while (s.helpers.load(std::memory_order_relaxed) < threads_ - 1 &&
           pool_.idleWorkers() > 0 && !pool_.wantsWorkerBack()) {
        s.helpers.fetch_add(1);
        if (!pool_.lend([sp = shared_] { helperLoop(*sp); })) {
            s.helpers.fetch_sub(1);
            return;
        }
    }
}

bool
StepTeam::runCycle()
{
    Shared &s = *shared_;
    recruit();
    if (s.ready.load() == 0 && s.parked.load() == 0)
        return false;

    s.done[0].store(0, std::memory_order_relaxed);
    s.done[1].store(0, std::memory_order_relaxed);
    s.workers.store(0, std::memory_order_relaxed);
    ++cycle_;
    // seq_cst: publishes the resets and the caller's serial work, and
    // pairs with the helpers' parked increment (see helperLoop).
    s.cycle.store(cycle_);
    if (s.parked.load() > 0)
        pool_.unparkAll();

    if (s.opening)
        s.guarded([&] { s.opening(s.ctx); });
    work(s, cycle_, 0, true);
    Backoff backoff;
    while (s.done[1].load(std::memory_order_acquire) < s.slots)
        backoff.poll();
    peak_ = std::max(peak_, s.workers.load(std::memory_order_relaxed));

    std::exception_ptr error;
    {
        std::lock_guard<std::mutex> lock(s.errorMutex);
        std::swap(error, s.error);
    }
    if (error)
        std::rethrow_exception(error);
    return true;
}

} // namespace hnoc
