/**
 * @file
 * Request queue of a dedicated (non-SMT) OS core.
 *
 * Section V-C: "if the OS core is handling an off-loading request when
 * an additional request comes in, the new request must be stalled
 * until the OS core becomes free." The queue records the delay each
 * request waits, the statistic the scalability study reports.
 *
 * The multi-OS-core topology generalization instantiates one queue per
 * OS core. Each queue keeps its own delay statistics (as a RunningStat
 * and as a mergeable LatencyHistogram, so per-queue distributions pool
 * exactly into the system-wide one), and supports the two balancing
 * moves of the work-stealing dispatch policy: stealOldest() lets an
 * idle peer take this queue's longest-waiting request, and
 * adoptStolen() admits such a request on the stealing core's queue.
 * Its event counts (OsQueueCounters) are lifetime, never reset; only
 * the delay distributions are cleared at measurement start.
 */

#ifndef OSCAR_OS_OS_CORE_QUEUE_HH_
#define OSCAR_OS_OS_CORE_QUEUE_HH_

#include <cstdint>
#include <deque>
#include <string>

#include "sim/stats.hh"
#include "sim/types.hh"

namespace oscar
{

class MetricRegistry;

/** One off-loaded request waiting for the OS core. */
struct OffloadRequest
{
    /** Thread that off-loaded. */
    std::uint32_t threadId = 0;
    /** Cycle the request arrived at the OS core. */
    Cycle arrival = 0;
};

/** Lifetime event counts of one OS-core queue (never reset). */
struct OsQueueCounters
{
    /** Arrivals offered to this queue (after any spill). */
    std::uint64_t offers = 0;
    /** Requests that started service on this queue's core. */
    std::uint64_t admitted = 0;
    /** Requests this queue's core stole from peers. */
    std::uint64_t stealsIn = 0;
    /** Requests peers stole out of this queue. */
    std::uint64_t stealsOut = 0;
    /** Arrivals that overflowed into this queue. */
    std::uint64_t spillsIn = 0;
    /** Arrivals that overflowed away from this queue. */
    std::uint64_t spillsOut = 0;

    /** Events counted since `mark`, an earlier copy of these counts. */
    OsQueueCounters
    operator-(const OsQueueCounters &mark) const
    {
        return {offers - mark.offers,     admitted - mark.admitted,
                stealsIn - mark.stealsIn, stealsOut - mark.stealsOut,
                spillsIn - mark.spillsIn, spillsOut - mark.spillsOut};
    }
};

/**
 * FIFO admission control for a single OS core.
 */
class OsCoreQueue
{
  public:
    /**
     * Offer a request.
     *
     * @param req The request.
     * @param now Current cycle.
     * @return true when the OS core was idle and the request may start
     *         immediately; false when it was queued.
     */
    bool offer(const OffloadRequest &req, Cycle now);

    /**
     * The OS core finished its current request.
     *
     * @param now Completion cycle.
     * @return The next request to start (its queue delay is recorded),
     *         or nullptr-like: use hasNext()/next() pattern instead.
     */
    bool completeCurrent(Cycle now, OffloadRequest &next_out);

    /**
     * Remove and return the oldest waiting request so an idle peer
     * queue can execute it (work stealing). The in-service request is
     * untouched; its wait is recorded by the adopting queue. Must not
     * be called on an empty queue.
     */
    OffloadRequest stealOldest();

    /**
     * Admit a request stolen from a peer queue: the core becomes busy
     * and the request's wait (start - arrival) is recorded here, on
     * the queue that actually serves it. Must be idle.
     *
     * @param req The stolen request.
     * @param start Cycle service will start (completion time of the
     *        steal transfer).
     */
    void adoptStolen(const OffloadRequest &req, Cycle start);

    /** True while a request occupies the OS core. */
    bool busy() const { return coreBusy; }

    /** Requests waiting (excluding the one in service). */
    std::size_t depth() const { return waiting.size(); }

    /** In-flight load: waiting requests plus the one in service. */
    std::size_t load() const { return waiting.size() + (coreBusy ? 1 : 0); }

    /** Distribution of cycles requests waited before starting. */
    const RunningStat &queueDelay() const { return delayStat; }

    /** Wait distribution as a mergeable histogram (same samples). */
    const LatencyHistogram &waitHistogram() const { return waitHist; }

    /** Lifetime event counts. */
    const OsQueueCounters &counters() const { return counts; }

    /** Record one overflow into this queue (spill bookkeeping). */
    void countSpillIn() { ++counts.spillsIn; }

    /** Record one overflow away from this queue (spill bookkeeping). */
    void countSpillOut() { ++counts.spillsOut; }

    /**
     * Clear the delay distributions (measurement start). Occupancy and
     * the lifetime counters are untouched.
     */
    void resetStats();

    /**
     * Register queue metrics under `<prefix>`: polls of the offers
     * counter and of waitHistogram() (`<prefix>wait.*`), and a depth
     * gauge. The registry must outlive the queue or be frozen first.
     * The default prefix preserves the legacy single-queue names
     * (`os.queue.offers`, ...); multi-queue systems pass
     * `os.queue.q<k>.`.
     */
    void registerMetrics(MetricRegistry &registry,
                         const std::string &prefix = "os.queue.");

  private:
    /** Record one admission wait in every delay statistic. */
    void recordWait(Cycle waited);

    std::deque<OffloadRequest> waiting;
    bool coreBusy = false;
    RunningStat delayStat;
    LatencyHistogram waitHist;
    OsQueueCounters counts;
};

} // namespace oscar

#endif // OSCAR_OS_OS_CORE_QUEUE_HH_
