/**
 * @file
 * Lock-step team: one simulation's per-cycle passes spread over the
 * calling thread (the leader) and idle workers borrowed from a JobPool.
 *
 * A cycle is two phases over a fixed set of slots; an item is one
 * (phase, slot) pair, claimed by exactly one thread. The leader runs
 * two optional sections of its own: the opening, as phase 0 opens
 * (the helpers meanwhile take phase-0 items), and the between
 * section, once every phase-0 item has finished. A phase-1 item
 * starts only after the between section (the barrier).
 * Each thread has a home slot (the leader slot 0, each helper a free
 * seat) and claims it first, then any item still unclaimed, so a
 * slot's state stays in one core's cache from cycle to cycle while an
 * absent or late thread's slot is still taken. What an item does is
 * fixed by its index, never by the thread that runs it, so a caller
 * that keeps each slot's effects to itself, or merges them in slot
 * order after the cycle, gets results independent of team size and
 * timing (Network::step, DESIGN.md §6h).
 *
 * Helpers are JobPool::lend()ed workers. The leader recruits them at
 * a cycle boundary while the pool has idle workers; a recruit takes
 * part from the next cycle that opens. Every wait (helpers between
 * cycles, the phase barrier, the leader's end of cycle) spins briefly
 * and then yields its core, so a preempted team thread gets to run on
 * a loaded host. Helpers park on the pool after a quiet spell (the next cycle wakes them and
 * they join it), and return their worker as soon as the pool has
 * submitted work queued or is stopping. The
 * leader never waits for a helper to arrive: with no helper at hand
 * runCycle() runs nothing and returns false, and the caller steps
 * serially.
 *
 * Destroying the team only tells its helpers to leave; it does not
 * wait for them, and they no longer touch the caller's state once the
 * last runCycle() has returned. A team may outlive its pool, but then
 * may only be destroyed.
 */

#ifndef HNOC_COMMON_STEP_TEAM_HH
#define HNOC_COMMON_STEP_TEAM_HH

#include <cstdint>
#include <memory>

#include "common/job_pool.hh"

namespace hnoc
{

/** Leader plus borrowed pool workers running two-phase cycles. */
class StepTeam
{
  public:
    /** One item: slot @p slot of phase @p phase (0 or 1), on any team
     *  thread. */
    using SlotFn = void (*)(void *ctx, int phase, int slot);
    /** A section the leader runs alone. */
    using LeaderFn = void (*)(void *ctx);

    /**
     * A team of up to @p threads threads (leader included) stepping
     * one slot per thread, @p threads per phase, through
     * @p fn(@p ctx, ...), with the leader sections @p opening(@p ctx)
     * and @p between(@p ctx) where not null. Starts no thread:
     * helpers are recruited by runCycle().
     */
    StepTeam(JobPool &pool, int threads, SlotFn fn, void *ctx,
             LeaderFn opening = nullptr, LeaderFn between = nullptr);

    /** Tells the helpers to leave; does not wait for them. */
    ~StepTeam();

    StepTeam(const StepTeam &) = delete;
    StepTeam &operator=(const StepTeam &) = delete;

    /**
     * Run one cycle — the opening on the calling thread alongside
     * phase 0, every slot of phase 0, the between section on the
     * calling thread, then every slot of phase 1 — on the leader and
     * the helpers at hand, and return true once all items have
     * finished. An exception thrown by an item or a section is
     * rethrown here. @return false, having run nothing, when no helper
     * is at hand.
     */
    bool runCycle();

    /** The most threads that have run items of one cycle together. */
    int peakThreads() const { return peak_; }

    /** The pool the helpers come from. */
    JobPool &pool() const { return pool_; }

  private:
    struct Shared;

    /** Claim and run items of cycle @p cycle until none is left,
     *  slot @p home first in each phase; the leader (home 0) also runs
     *  the between section and opens phase 1. */
    static void work(Shared &s, std::uint32_t cycle, int home,
                     bool leader);
    /** A lent worker's loop: run cycles until the team closes or the
     *  pool wants the worker back. */
    static void helperLoop(Shared &s);
    void recruit();

    std::shared_ptr<Shared> shared_; ///< also held by every helper
    JobPool &pool_;
    int threads_;
    std::uint32_t cycle_ = 0;
    int peak_ = 1;
};

} // namespace hnoc

#endif // HNOC_COMMON_STEP_TEAM_HH
