/**
 * @file
 * Hang watchdog: a progress monitor armed around Machine::run's main
 * loop. If no instruction retires for a configurable tick budget, it
 * dumps the machine's diagnostic state (every controller's
 * dumpState, event-queue depth, stuck processors) to stderr and
 * raises FatalError — turning an infinite-loop failure mode into an
 * actionable report.
 *
 * The watchdog is event-driven: it schedules its own checks on one
 * queue. A watched machine therefore always runs serially (see
 * MachineConfig::shardPlan()); a sharded request keeps its deferred
 * grant timing, so watching it changes only the wall clock.
 */

#ifndef CCNUMA_VERIFY_WATCHDOG_HH
#define CCNUMA_VERIFY_WATCHDOG_HH

#include <cstdint>
#include <functional>
#include <ostream>

#include "sim/event_queue.hh"

namespace ccnuma
{

/** Simulated-time progress watchdog (see file comment). */
class HangWatchdog
{
  public:
    /**
     * @param progress returns a counter that advances whenever the
     *        machine makes forward progress (retired instructions)
     * @param dump writes the machine's diagnostic state
     */
    HangWatchdog(EventQueue &eq, Tick budget,
                 std::function<std::uint64_t()> progress,
                 std::function<void(std::ostream &)> dump);

    /** Start (or restart) monitoring from the current tick. */
    void arm();

    /** Stop monitoring; pending check events become no-ops. */
    void disarm();

    Tick budget() const { return budget_; }

  private:
    void check(std::uint64_t epoch);
    [[noreturn]] void fire(Tick now);

    EventQueue &eq_;
    Tick budget_;
    std::function<std::uint64_t()> progress_;
    std::function<void(std::ostream &)> dump_;
    /** Invalidates stale self-rescheduled check events. */
    std::uint64_t epoch_ = 0;
    std::uint64_t last_ = 0;
    bool armed_ = false;
};

} // namespace ccnuma

#endif // CCNUMA_VERIFY_WATCHDOG_HH
