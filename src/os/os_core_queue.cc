/**
 * @file
 * Implementation of the OS-core request queue.
 */

#include "os/os_core_queue.hh"

#include "sim/logging.hh"
#include "sim/metrics.hh"

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
        return true;
    }
    waiting.push_back(req);
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
