#include "verify/watchdog.hh"

#include <iostream>

#include "sim/logging.hh"

namespace ccnuma
{

HangWatchdog::HangWatchdog(EventQueue &eq, Tick budget,
                           std::function<std::uint64_t()> progress,
                           std::function<void(std::ostream &)> dump)
    : eq_(eq), budget_(budget), progress_(std::move(progress)),
      dump_(std::move(dump))
{
    if (budget_ == 0)
        fatal("hang watchdog: tick budget must be nonzero");
}

void
HangWatchdog::arm()
{
    ++epoch_;
    armed_ = true;
    last_ = progress_();
    std::uint64_t epoch = epoch_;
    eq_.scheduleFunctionIn([this, epoch] { check(epoch); }, budget_);
}

void
HangWatchdog::disarm()
{
    armed_ = false;
    ++epoch_;
}

void
HangWatchdog::check(std::uint64_t epoch)
{
    if (!armed_ || epoch != epoch_)
        return;
    std::uint64_t now = progress_();
    if (now == last_)
        fire(eq_.curTick());
    last_ = now;
    eq_.scheduleFunctionIn([this, epoch] { check(epoch); }, budget_);
}

void
HangWatchdog::fire(Tick now)
{
    std::cerr << "hang watchdog: no instruction retired in "
              << budget_ << " ticks\n";
    dump_(std::cerr);
    std::cerr.flush();
    fatal("hang watchdog: no instruction retired in %llu ticks "
          "(tick %llu); diagnostic state dumped to stderr",
          (unsigned long long)budget_, (unsigned long long)now);
}

} // namespace ccnuma
