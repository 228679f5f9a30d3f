/**
 * @file
 * Reference discrete-event kernel: the pre-overhaul implementation
 * (std::priority_queue plus a cancelled-sequence hash set), preserved
 * verbatim in its own namespace.
 *
 * This is NOT used by the simulator. It exists so that
 *  - the randomized differential test
 *    (tests/sim/test_event_queue_differential.cc) can pit the
 *    production bucketed kernel against an independent, obviously
 *    correct ordering oracle, and
 *  - bench/scale.cpp can time a same-run reference-kernel loop, the
 *    host-independent denominator of bench_scale_guard.
 *
 * The ordering contract is identical to the production kernel: events
 * execute in (tick, priority, insertion-sequence) order. See
 * docs/kernel.md.
 */

#ifndef CMPCACHE_SIM_REFERENCE_EVENT_QUEUE_HH
#define CMPCACHE_SIM_REFERENCE_EVENT_QUEUE_HH

#include <cstdint>
#include <functional>
#include <queue>
#include <string>
#include <unordered_set>
#include <vector>

#include "common/logging.hh"
#include "common/types.hh"

namespace cmpcache
{
namespace ref
{

class RefEventQueue;

/** Reference counterpart of cmpcache::Event. */
class RefEvent
{
  public:
    using Priority = std::int8_t;

    static constexpr Priority DefaultPri = 0;
    static constexpr Priority CombinePri = 10;
    static constexpr Priority StatPri = 100;

    explicit RefEvent(Priority prio = DefaultPri) : priority_(prio) {}
    virtual ~RefEvent();

    RefEvent(const RefEvent &) = delete;
    RefEvent &operator=(const RefEvent &) = delete;

    virtual void process() = 0;
    virtual std::string name() const { return "anon-event"; }

    bool scheduled() const { return scheduled_; }
    Tick when() const { return when_; }
    Priority priority() const { return priority_; }

  private:
    friend class RefEventQueue;

    bool scheduled_ = false;
    Tick when_ = 0;
    std::uint64_t sequence_ = 0;
    Priority priority_;
    RefEventQueue *queue_ = nullptr;
};

/** Reference counterpart of cmpcache::EventFunctionWrapper. */
class RefEventFunctionWrapper : public RefEvent
{
  public:
    RefEventFunctionWrapper(std::function<void()> fn, std::string name,
                            Priority prio = DefaultPri)
        : RefEvent(prio), fn_(std::move(fn)), name_(std::move(name))
    {
    }

    void process() override { fn_(); }
    std::string name() const override { return name_; }

  private:
    std::function<void()> fn_;
    std::string name_;
};

/**
 * The pre-overhaul kernel: a binary heap of (tick, priority,
 * sequence) entries with lazy cancellation through an unordered_set
 * of dead sequence numbers, probed once per executed event.
 */
class RefEventQueue
{
  public:
    RefEventQueue() = default;

    Tick curTick() const { return curTick_; }

    void
    schedule(RefEvent *ev, Tick when)
    {
        cmp_assert(ev != nullptr, "scheduling null event");
        cmp_assert(!ev->scheduled_, "event '", ev->name(),
                   "' is already scheduled");
        cmp_assert(when >= curTick_, "event '", ev->name(),
                   "' scheduled in the past (", when, " < ", curTick_,
                   ")");

        ev->scheduled_ = true;
        ev->when_ = when;
        ev->sequence_ = nextSequence_++;
        ev->queue_ = this;
        heap_.push(Entry{when, ev->priority_, ev->sequence_, ev});
        ++liveEvents_;
    }

    void
    deschedule(RefEvent *ev)
    {
        cmp_assert(ev != nullptr && ev->scheduled_,
                   "descheduling an unscheduled event");
        cmp_assert(ev->queue_ == this, "event belongs to another queue");
        cancelled_.insert(ev->sequence_);
        ev->scheduled_ = false;
        ev->queue_ = nullptr;
        --liveEvents_;
    }

    void
    reschedule(RefEvent *ev, Tick when)
    {
        if (ev->scheduled_)
            deschedule(ev);
        schedule(ev, when);
    }

    bool empty() const { return liveEvents_ == 0; }
    std::size_t numPending() const { return liveEvents_; }

    void
    step()
    {
        skimCancelled();
        cmp_assert(!heap_.empty(), "step() on an empty event queue");

        Entry top = heap_.top();
        heap_.pop();
        RefEvent *ev = top.event;
        cmp_assert(top.when >= curTick_, "time went backwards");
        curTick_ = top.when;
        ev->scheduled_ = false;
        ev->queue_ = nullptr;
        --liveEvents_;
        ++numExecuted_;
        ev->process();
    }

    Tick
    run(Tick max_tick = MaxTick)
    {
        while (!empty()) {
            skimCancelled();
            if (heap_.empty())
                break;
            if (heap_.top().when > max_tick) {
                curTick_ = max_tick;
                return curTick_;
            }
            step();
        }
        return curTick_;
    }

    std::uint64_t numExecuted() const { return numExecuted_; }

  private:
    struct Entry
    {
        Tick when;
        RefEvent::Priority priority;
        std::uint64_t sequence;
        RefEvent *event;

        bool
        operator>(const Entry &o) const
        {
            if (when != o.when)
                return when > o.when;
            if (priority != o.priority)
                return priority > o.priority;
            return sequence > o.sequence;
        }
    };

    void
    skimCancelled()
    {
        while (!heap_.empty()) {
            const auto it = cancelled_.find(heap_.top().sequence);
            if (it == cancelled_.end())
                return;
            cancelled_.erase(it);
            heap_.pop();
        }
    }

    std::priority_queue<Entry, std::vector<Entry>, std::greater<Entry>>
        heap_;
    std::unordered_set<std::uint64_t> cancelled_;
    Tick curTick_ = 0;
    std::uint64_t nextSequence_ = 0;
    std::uint64_t numExecuted_ = 0;
    std::size_t liveEvents_ = 0;
};

inline RefEvent::~RefEvent()
{
    if (scheduled_ && queue_)
        queue_->deschedule(this);
}

} // namespace ref
} // namespace cmpcache

#endif // CMPCACHE_SIM_REFERENCE_EVENT_QUEUE_HH
