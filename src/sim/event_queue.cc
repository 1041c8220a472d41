#include "sim/event_queue.hh"

#include <bit>
#include <cstdio>
#include <exception>

namespace ccnuma
{

Event::~Event()
{
    if (!scheduled_)
        return;
    // Destroying a still-scheduled event leaves a dangling pointer
    // in the queue; normally that is a simulator bug worth dying
    // for. During exception unwinding, though, aborting here would
    // mask the original error (a PanicError thrown from deep inside
    // a handler unwinds through component owners whose events are
    // still pending), so tolerate it: unlink the entry and let the
    // original exception propagate.
    if (std::uncaught_exceptions() > 0 && queue_ != nullptr) {
        std::fprintf(stderr,
                     "warn: event '%s' destroyed while scheduled "
                     "(exception unwinding); entry cancelled\n",
                     name());
        queue_->forgetDestroyed(this);
        return;
    }
    // Cannot throw from a destructor; print and abort instead.
    std::fprintf(stderr,
                 "panic: event '%s' destroyed while scheduled\n",
                 name());
    std::abort();
}

std::vector<EventQueue::Core> &
EventQueue::coreCache()
{
    static thread_local std::vector<Core> cache;
    return cache;
}

EventQueue::EventQueue()
{
    std::vector<Core> &cache = coreCache();
    if (!cache.empty()) {
        Core core = std::move(cache.back());
        cache.pop_back();
        buckets_ = std::move(core.buckets);
        slabs_ = std::move(core.slabs);
        freeList_ = core.freeList;
    } else {
        buckets_.resize(wheelTicks);
    }
}

EventQueue::~EventQueue()
{
    // Pending events must not see scheduled_ == true from their own
    // destructors after the queue is gone. Occupied buckets are found
    // through the bitmap so a drained queue's teardown touches
    // nothing; pooled events still in flight are reset and returned
    // to the free list so the core below is donated clean.
    for (unsigned w = 0; w < bitmapWords; ++w) {
        std::uint64_t bits = bitmap_[w];
        while (bits != 0) {
            std::size_t idx = (std::size_t(w) << 6) +
                              static_cast<std::size_t>(
                                  std::countr_zero(bits));
            bits &= bits - 1;
            Bucket &b = buckets_[idx];
            for (Event *ev = b.head; ev != nullptr;) {
                Event *next = ev->next_;
                ev->scheduled_ = false;
                ev->queue_ = nullptr;
                ev->prev_ = nullptr;
                ev->next_ = nullptr;
                if (ev->pooled_)
                    releasePoolEvent(static_cast<PoolEvent *>(ev));
                ev = next;
            }
            b.head = nullptr;
            b.tail = nullptr;
        }
    }
    auto drainList = [this](Event *head) {
        for (Event *ev = head; ev != nullptr;) {
            Event *next = ev->next_;
            ev->scheduled_ = false;
            ev->queue_ = nullptr;
            ev->prev_ = nullptr;
            ev->next_ = nullptr;
            if (ev->pooled_)
                releasePoolEvent(static_cast<PoolEvent *>(ev));
            ev = next;
        }
    };
    for (Event *&head : epochs_)
        drainList(head);
    drainList(farHead_);
    // Donate the cleaned bucket array and pool slabs to the next
    // queue constructed on this thread (bounded cache).
    std::vector<Core> &cache = coreCache();
    if (cache.size() < 4) {
        cache.push_back(
            Core{std::move(buckets_), std::move(slabs_), freeList_});
    }
}

void
EventQueue::insertSorted(Bucket &b, Event *ev)
{
    // Events in one bucket share a tick; keep the list ordered by
    // (priority, schedTick, ctx, seq). Locally scheduled events carry
    // the highest (schedTick, seq) so far within their context, so
    // scanning from the tail terminates almost immediately on the hot
    // path (uniform priorities, one context); overflow migration and
    // cross-queue injection walk further.
    auto after_fires_later = [](const Event *a, const Event *e) {
        if (a->priority_ != e->priority_)
            return a->priority_ > e->priority_;
        if (a->schedTick_ != e->schedTick_)
            return a->schedTick_ > e->schedTick_;
        if (a->ctx_ != e->ctx_)
            return a->ctx_ > e->ctx_;
        return a->seq_ > e->seq_;
    };
    Event *after = b.tail;
    while (after != nullptr && after_fires_later(after, ev)) {
        after = after->prev_;
    }
    ev->prev_ = after;
    if (after != nullptr) {
        ev->next_ = after->next_;
        after->next_ = ev;
    } else {
        ev->next_ = b.head;
        b.head = ev;
    }
    if (ev->next_ != nullptr)
        ev->next_->prev_ = ev;
    else
        b.tail = ev;
}

void
EventQueue::schedule(Event *ev, Tick when)
{
    ccnuma_assert(ev != nullptr);
    ev->schedTick_ = curTick_;
    ev->ctx_ = curCtx_;
    ev->seq_ = ctxSeq_[curCtx_]++;
    ev->fireCtx_ = curCtx_;
    insertScheduled(ev, when);
}

void
EventQueue::insertScheduled(Event *ev, Tick when)
{
    if (when < curTick_) {
        panic("scheduling event '%s' at tick %llu in the past "
              "(now %llu)", ev->name(),
              (unsigned long long)when, (unsigned long long)curTick_);
    }
    if (ev->scheduled_) {
        panic("event '%s' scheduled while already pending",
              ev->name());
    }
    ev->when_ = when;
    ev->scheduled_ = true;
    ev->queue_ = this;
    if (inWheel(when)) {
        std::size_t idx = static_cast<std::size_t>(when & wheelMask);
        insertSorted(buckets_[idx], ev);
        bitmap_[idx >> 6] |= std::uint64_t(1) << (idx & 63);
        ++nearCount_;
    } else if (inHorizon(when)) {
        // Within one ring revolution of the window: intrusive list in
        // the event's epoch slot, so window advances only ever touch
        // the one slot they open. The ring is a fixed array — this
        // path never allocates, which the steady-state pooled
        // one-shot contract (tests/sim/test_alloc_free.cc) requires.
        Event *&head = epochs_[epochSlot(when)];
        ev->prev_ = nullptr;
        ev->next_ = head;
        if (head != nullptr)
            head->prev_ = ev;
        head = ev;
        ++overflowCount_;
        // A smaller tick tightens the cached bound whether or not it
        // is currently exact; an equal-or-larger one leaves an exact
        // bound exact.
        if (when < overflowMinLB_)
            overflowMinLB_ = when;
    } else {
        // Beyond the horizon (watchdog-scale timers): unsorted far
        // list with its own stale-lower-bound min cache. Advances
        // never walk it unless its cached bound proves something may
        // have entered the horizon.
        ev->prev_ = nullptr;
        ev->next_ = farHead_;
        if (farHead_ != nullptr)
            farHead_->prev_ = ev;
        farHead_ = ev;
        ++farCount_;
        ++overflowCount_;
        if (when < farMinLB_)
            farMinLB_ = when;
        if (when < overflowMinLB_)
            overflowMinLB_ = when;
    }
    ++pending_;
    if (pending_ > maxPending_)
        maxPending_ = pending_;
}

void
EventQueue::unlink(Event *ev)
{
    if (inWheel(ev->when_)) {
        std::size_t idx =
            static_cast<std::size_t>(ev->when_ & wheelMask);
        Bucket &b = buckets_[idx];
        if (ev->prev_ != nullptr)
            ev->prev_->next_ = ev->next_;
        else
            b.head = ev->next_;
        if (ev->next_ != nullptr)
            ev->next_->prev_ = ev->prev_;
        else
            b.tail = ev->prev_;
        if (b.head == nullptr)
            bitmap_[idx >> 6] &= ~(std::uint64_t(1) << (idx & 63));
        --nearCount_;
    } else {
        // Ring slot or far list? After every advance all far events
        // are beyond the horizon (promotion runs before anything else
        // looks at the ring), so the event's own tick discriminates.
        const bool far = !inHorizon(ev->when_);
        if (ev->prev_ != nullptr) {
            ev->prev_->next_ = ev->next_;
        } else if (far) {
            ccnuma_assert(farHead_ == ev);
            farHead_ = ev->next_;
        } else {
            Event *&head = epochs_[epochSlot(ev->when_)];
            ccnuma_assert(head == ev);
            head = ev->next_;
        }
        if (ev->next_ != nullptr)
            ev->next_->prev_ = ev->prev_;
        if (far) {
            --farCount_;
            if (farCount_ == 0) {
                farMinLB_ = maxTick;
                farMinExact_ = true;
            } else if (ev->when_ == farMinLB_) {
                farMinExact_ = false;
            }
        }
        --overflowCount_;
        if (overflowCount_ == 0) {
            overflowMinLB_ = maxTick;
            overflowMinExact_ = true;
        } else if (ev->when_ == overflowMinLB_) {
            // The minimum may have left; the bound stays valid as a
            // lower bound and is recomputed lazily on demand.
            overflowMinExact_ = false;
        }
    }
    ev->prev_ = nullptr;
    ev->next_ = nullptr;
    ev->scheduled_ = false;
    --pending_;
}

void
EventQueue::forgetDestroyed(Event *ev)
{
    ccnuma_assert(ev != nullptr && ev->scheduled_);
    unlink(ev);
}

void
EventQueue::deschedule(Event *ev)
{
    ccnuma_assert(ev != nullptr);
    if (!ev->scheduled_)
        panic("descheduling event '%s' that is not pending",
              ev->name());
    unlink(ev);
    if (ev->pooled_)
        releasePoolEvent(static_cast<PoolEvent *>(ev));
}

Event *
EventQueue::peekWheel() const
{
    if (nearCount_ == 0)
        return nullptr;
    // All wheel events are at or after curTick_, so scanning the
    // occupancy bitmap from curTick_'s slot (or the window start if
    // the window was advanced past curTick_) finds the earliest one.
    Tick from = curTick_ > wheelBase_ ? curTick_ : wheelBase_;
    std::size_t idx = static_cast<std::size_t>(from & wheelMask);
    unsigned word = static_cast<unsigned>(idx >> 6);
    std::uint64_t bits = bitmap_[word] >> (idx & 63);
    if (bits != 0) {
        return buckets_[idx + std::countr_zero(bits)].head;
    }
    for (unsigned w = word + 1; w < bitmapWords; ++w) {
        if (bitmap_[w] != 0) {
            return buckets_[(std::size_t(w) << 6) +
                            std::countr_zero(bitmap_[w])]
                .head;
        }
    }
    return nullptr;
}

Tick
EventQueue::overflowMin() const
{
    ccnuma_assert(overflowCount_ != 0);
    if (overflowMinExact_)
        return overflowMinLB_;
    Tick min = maxTick;
    if (overflowCount_ != farCount_) {
        // Some events live in the epoch ring. Every ring event is
        // within one revolution of the window, so scanning slots in
        // ring order from the window's own epoch meets the earliest
        // occupied epoch first; the recompute walks that one slot,
        // never the whole tier.
        const std::size_t cur = epochSlot(wheelBase_);
        for (unsigned d = 0; d < overflowEpochs; ++d) {
            Event *head =
                epochs_[(cur + d) & (overflowEpochs - 1)];
            if (head == nullptr)
                continue;
            min = head->when_;
            for (Event *ev = head->next_; ev != nullptr;
                 ev = ev->next_) {
                if (ev->when_ < min)
                    min = ev->when_;
            }
            break;
        }
    }
    if (farCount_ != 0) {
        Tick fm = farMin();
        if (fm < min)
            min = fm;
    }
    overflowMinLB_ = min;
    overflowMinExact_ = true;
    return min;
}

Tick
EventQueue::farMin() const
{
    ccnuma_assert(farCount_ != 0);
    if (farMinExact_)
        return farMinLB_;
    Tick min = farHead_->when_;
    for (Event *ev = farHead_->next_; ev != nullptr; ev = ev->next_) {
        if (ev->when_ < min)
            min = ev->when_;
    }
    farMinLB_ = min;
    farMinExact_ = true;
    return min;
}

void
EventQueue::advanceWheelTo(Tick target)
{
    ccnuma_assert(nearCount_ == 0);
    wheelBase_ = target & ~wheelMask;
    // Nothing parked, nothing to migrate: re-basing an empty window
    // is a pure pointer update (the common case when a serial run
    // hops across an idle stretch).
    if (overflowCount_ == 0)
        return;
    // The horizon moved with the window: far events that now fall
    // within one ring revolution are promoted into their epoch slots
    // first, so the membership invariant (far events are always
    // beyond the horizon) holds before anything else classifies by
    // tick. The far list's cached bound gates the walk — parked
    // watchdog-scale timers are not touched until the window provably
    // approaches them — and the walk doubles as an exact far-minimum
    // recompute.
    if (farCount_ != 0 && farMinLB_ < wheelBase_ + horizonTicks) {
        Tick min = maxTick;
        for (Event *ev = farHead_; ev != nullptr;) {
            Event *next = ev->next_;
            if (inHorizon(ev->when_)) {
                if (ev->prev_ != nullptr)
                    ev->prev_->next_ = ev->next_;
                else
                    farHead_ = ev->next_;
                if (ev->next_ != nullptr)
                    ev->next_->prev_ = ev->prev_;
                Event *&head = epochs_[epochSlot(ev->when_)];
                ev->prev_ = nullptr;
                ev->next_ = head;
                if (head != nullptr)
                    head->prev_ = ev;
                head = ev;
                --farCount_;
            } else if (ev->when_ < min) {
                min = ev->when_;
            }
            ev = next;
        }
        farMinLB_ = min;
        farMinExact_ = true;
    }
    // If even the smallest parked tick lies beyond the new window,
    // nothing can migrate — and a stale lower bound is still a
    // bound, so this O(1) test rejects the entire parked population
    // without a recompute or slot lookup.
    if (overflowMinLB_ >= wheelBase_ + wheelTicks)
        return;
    // Migrate exactly the destination epoch's slot into the wheel.
    // The advance target is always the earliest pending tick, so no
    // slot holds events from an epoch before the new base and the
    // slot's ring mapping is unambiguous. Migrating events keep
    // their original seq, so the (tick, priority, seq) ordering
    // contract is untouched by living in the overflow tier; every
    // other epoch's parked population is never walked.
    Event *&slot = epochs_[epochSlot(wheelBase_)];
    for (Event *ev = slot; ev != nullptr;) {
        Event *next = ev->next_;
        std::size_t idx =
            static_cast<std::size_t>(ev->when_ & wheelMask);
        ev->prev_ = nullptr;
        ev->next_ = nullptr;
        insertSorted(buckets_[idx], ev);
        bitmap_[idx >> 6] |= std::uint64_t(1) << (idx & 63);
        ++nearCount_;
        --overflowCount_;
        ev = next;
    }
    slot = nullptr;
    if (overflowCount_ == 0) {
        overflowMinLB_ = maxTick;
        overflowMinExact_ = true;
    } else {
        // Everything still parked sits in a later ring epoch or
        // beyond the horizon, so the next window base is a valid
        // lower bound; the exact minimum is recomputed lazily.
        overflowMinLB_ = wheelBase_ + wheelTicks;
        overflowMinExact_ = false;
    }
}

Tick
EventQueue::nextWhen() const
{
    const Event *ev = peekWheel();
    if (ev != nullptr)
        return ev->when_;
    if (overflowCount_ != 0)
        return overflowMin();
    return maxTick;
}

EventQueue::PoolEvent *
EventQueue::acquirePoolEvent()
{
    if (freeList_ == nullptr) {
        constexpr std::size_t slabEvents = 64;
        slabs_.push_back(std::make_unique<PoolEvent[]>(slabEvents));
        PoolEvent *slab = slabs_.back().get();
        for (std::size_t i = 0; i < slabEvents; ++i) {
            slab[i].pooled_ = true;
            slab[i].next_ = freeList_;
            freeList_ = &slab[i];
        }
    }
    PoolEvent *ev = freeList_;
    freeList_ = static_cast<PoolEvent *>(ev->next_);
    ev->next_ = nullptr;
    return ev;
}

void
EventQueue::releasePoolEvent(PoolEvent *ev)
{
    ev->cb_.reset();
    ev->next_ = freeList_;
    freeList_ = ev;
}

void
EventQueue::fire(Event *ev)
{
    ccnuma_assert(ev->when_ >= curTick_);
    curTick_ = ev->when_;
    unlink(ev);
    ++processed_;
    // Make the firing event's context current so everything it
    // schedules is attributed to it, and latch its key so sync
    // operations it performs can be replayed in deterministic order.
    curCtx_ = ev->fireCtx_;
    curPriority_ = ev->priority_;
    curSchedTick_ = ev->schedTick_;
    curKeyCtx_ = ev->ctx_;
    curSeq_ = ev->seq_;
    curSub_ = 0;
    // process() may reschedule the event; only return pool-owned
    // one-shots that are not pending again. A scope guard keeps that
    // true when process() throws (fatal/panic from a handler), so
    // the one-shot's captured state does not leak.
    struct Reaper
    {
        EventQueue *q;
        Event *ev;
        ~Reaper()
        {
            if (ev->pooled_ && !ev->scheduled_)
                q->releasePoolEvent(static_cast<PoolEvent *>(ev));
        }
    } reaper{this, ev};
    ev->process();
}

bool
EventQueue::step()
{
    Event *ev = peekWheel();
    if (ev == nullptr) {
        if (overflowCount_ == 0)
            return false;
        // Only far-future events remain: fast-forward the window to
        // the earliest of them and retry.
        advanceWheelTo(overflowMin());
        ev = peekWheel();
        ccnuma_assert(ev != nullptr);
    }
    fire(ev);
    return true;
}

void
EventQueue::run(Tick limit)
{
    // Each iteration peeks the earliest event exactly once; the old
    // nextWhen() pre-check repeated the same bitmap scan step() was
    // about to do.
    while (pending_ != 0) {
        Event *ev = peekWheel();
        if (ev == nullptr) {
            // Advancing the wheel to a parked event past limit would
            // move its base beyond ticks a caller may still schedule
            // at before the next run.
            if (overflowMin() > limit)
                return;
            advanceWheelTo(overflowMin());
            ev = peekWheel();
        }
        if (ev->when_ > limit)
            return;
        fire(ev);
    }
}

void
EventQueue::runWindow(Tick end)
{
    windowStop_ = maxTick;
    while (pending_ != 0) {
        Tick stop = end < windowStop_ ? end : windowStop_;
        Event *ev = peekWheel();
        if (ev == nullptr) {
            if (overflowMin() >= stop)
                return;
            advanceWheelTo(overflowMin());
            ev = peekWheel();
        }
        if (ev->when_ >= stop)
            return;
        fire(ev);
    }
}

bool
EventQueue::runUntil(const std::function<bool()> &done, Tick limit)
{
    return runUntilFast([&done] { return done(); }, limit);
}

} // namespace ccnuma
