/**
 * @file
 * Implementation of the OS-core request queue.
 */

#include "os/os_core_queue.hh"

#include "sim/logging.hh"
#include "sim/metrics.hh"
#include "sim/trace.hh"

namespace oscar
{

void
OsCoreQueue::registerMetrics(MetricRegistry &registry,
                             const std::string &prefix)
{
    registry.counterFn(prefix + "offers", [this] { return counts.offers; });
    registry.histogramFn(prefix + "wait", waitHist);
    registry.gauge(prefix + "depth",
                   [this] { return static_cast<double>(depth()); });
}

void
OsCoreQueue::setQueueId(std::uint32_t id, bool annotate_events)
{
    queueIndex = id;
    annotate = annotate_events;
}

void
OsCoreQueue::recordWait(Cycle waited)
{
    delayStat.add(static_cast<double>(waited));
    waitHist.add(waited);
    ++counts.admitted;
}

bool
OsCoreQueue::offer(const OffloadRequest &req, Cycle now)
{
    oscar_assert(req.arrival <= now);
    ++counts.offers;
    if (!coreBusy) {
        coreBusy = true;
        recordWait(0);
        if (trace != nullptr) {
            TraceEvent event;
            event.kind = TraceEventKind::QueueEnter;
            event.thread = req.threadId;
            event.depth = 0;
            if (annotate)
                event.queue = queueIndex;
            trace->emit(event);
        }
        return true;
    }
    waiting.push_back(req);
    if (trace != nullptr) {
        TraceEvent event;
        event.kind = TraceEventKind::QueueEnter;
        event.thread = req.threadId;
        event.depth = waiting.size();
        if (annotate)
            event.queue = queueIndex;
        trace->emit(event);
    }
    return false;
}

bool
OsCoreQueue::completeCurrent(Cycle now, OffloadRequest &next_out)
{
    oscar_assert(coreBusy);
    if (waiting.empty()) {
        coreBusy = false;
        return false;
    }
    next_out = waiting.front();
    waiting.pop_front();
    oscar_assert(now >= next_out.arrival);
    recordWait(now - next_out.arrival);
    if (trace != nullptr) {
        TraceEvent event;
        event.kind = TraceEventKind::QueueExit;
        event.thread = next_out.threadId;
        event.latency = now - next_out.arrival;
        if (annotate)
            event.queue = queueIndex;
        trace->emit(event);
    }
    return true;
}

OffloadRequest
OsCoreQueue::stealOldest()
{
    oscar_assert(!waiting.empty());
    const OffloadRequest req = waiting.front();
    waiting.pop_front();
    ++counts.stealsOut;
    return req;
}

void
OsCoreQueue::adoptStolen(const OffloadRequest &req, Cycle start)
{
    oscar_assert(!coreBusy);
    oscar_assert(start >= req.arrival);
    coreBusy = true;
    ++counts.stealsIn;
    recordWait(start - req.arrival);
}

void
OsCoreQueue::resetStats()
{
    delayStat.reset();
    waitHist.reset();
}

} // namespace oscar
