/**
 * @file
 * Implementation of the run-length predictors.
 */

#include "core/run_length_predictor.hh"

#include <algorithm>
#include <cstdlib>

#include "sim/logging.hh"

namespace oscar
{

bool
withinTolerance(InstCount predicted, InstCount actual)
{
    // Symmetric ±5 % band around the larger of the two values, with an
    // absolute floor for short runs: at actual == 0 a pure relative
    // tolerance collapses to exact-match (and is asymmetric below ~20
    // instructions), so confidence counters thrash on the short
    // invocations trap-heavy workloads produce. Within the floor any
    // near-miss counts as accurate.
    const double diff = std::abs(static_cast<double>(predicted) -
                                 static_cast<double>(actual));
    const double base = static_cast<double>(std::max(predicted, actual));
    return diff <= std::max(kToleranceFloorInstructions, 0.05 * base);
}

void
GlobalRunLengthHistory::observe(InstCount length)
{
    if (filled == kDepth)
        sum -= ring[cursor];
    else
        ++filled;
    sum += length;
    ring[cursor] = length;
    cursor = (cursor + 1) % kDepth;
}

InstCount
GlobalRunLengthHistory::prediction() const
{
    if (filled == 0)
        return 0;
    return sum / filled;
}

// ---------------------------------------------------------------------
// CamPredictor

CamPredictor::CamPredictor(std::size_t entries)
    : table(entries)
{
    oscar_assert(entries > 0);
    oscar_assert(entries < kNil);
    // Sized up front so the hot path never rehashes (or allocates).
    index.reserve(entries);
}

void
CamPredictor::unlink(std::uint32_t slot)
{
    Entry &entry = table[slot];
    if (entry.prev != kNil)
        table[entry.prev].next = entry.next;
    else
        lruHead = entry.next;
    if (entry.next != kNil)
        table[entry.next].prev = entry.prev;
    else
        lruTail = entry.prev;
}

void
CamPredictor::pushFront(std::uint32_t slot)
{
    Entry &entry = table[slot];
    entry.prev = kNil;
    entry.next = lruHead;
    if (lruHead != kNil)
        table[lruHead].prev = slot;
    lruHead = slot;
    if (lruTail == kNil)
        lruTail = slot;
}

void
CamPredictor::touch(std::uint32_t slot)
{
    if (lruHead == slot)
        return;
    unlink(slot);
    pushFront(slot);
}

RunLengthPrediction
CamPredictor::predict(std::uint64_t astate)
{
    RunLengthPrediction pred;
    const std::uint32_t *slot = index.find(astate);
    if (slot == nullptr) {
        pred.length = globalHistory.prediction();
        pred.fromGlobal = true;
        return pred;
    }
    touch(*slot);
    const Entry &entry = table[*slot];
    pred.tableHit = true;
    pred.confidence = entry.conf;
    if (entry.conf == 0) {
        // Low-confidence local entries lose to the global prediction.
        pred.length = globalHistory.prediction();
        pred.fromGlobal = true;
    } else {
        pred.length = entry.length;
    }
    return pred;
}

void
CamPredictor::update(std::uint64_t astate, InstCount actual)
{
    observeGlobal(actual);
    if (const std::uint32_t *hit = index.find(astate)) {
        Entry &entry = table[*hit];
        // Confidence trains on what this entry *would have* predicted.
        if (withinTolerance(entry.length, actual))
            entry.conf = confidence::up(entry.conf);
        else
            entry.conf = confidence::down(entry.conf);
        entry.length = actual;
        touch(*hit);
        return;
    }

    // Allocate a cold slot, or evict the LRU tail when full.
    std::uint32_t slot;
    if (liveCount < table.size()) {
        slot = liveCount++;
    } else {
        slot = lruTail;
        unlink(slot);
        index.erase(table[slot].astate);
    }
    Entry &entry = table[slot];
    entry.astate = astate;
    entry.length = actual;
    entry.conf = 0;
    pushFront(slot);
    index.insert(astate, slot);
}

std::uint64_t
CamPredictor::storageBits() const
{
    // 64-bit AState tag + 16-bit length + 2-bit confidence per entry;
    // the paper quotes ~2 KB for 200 entries. The hash index and LRU
    // links are simulation artifacts — the modelled hardware is a
    // single-cycle associative search — so they carry no storage cost.
    return table.size() * (64 + 16 + 2);
}

// ---------------------------------------------------------------------
// DirectMappedPredictor

DirectMappedPredictor::DirectMappedPredictor(std::size_t entries)
    : table(entries)
{
    oscar_assert(entries > 0);
}

std::size_t
DirectMappedPredictor::index(std::uint64_t astate) const
{
    // The paper indexes with the least-significant AState bits; for a
    // non-power-of-two table size that generalizes to a modulo.
    return static_cast<std::size_t>(astate % table.size());
}

RunLengthPrediction
DirectMappedPredictor::predict(std::uint64_t astate)
{
    RunLengthPrediction pred;
    const Entry &entry = table[index(astate)];
    if (entry.valid)
        pred.confidence = entry.conf;
    if (!entry.valid || entry.conf == 0) {
        pred.length = globalHistory.prediction();
        pred.fromGlobal = true;
        pred.tableHit = entry.valid;
        return pred;
    }
    pred.length = entry.length;
    pred.tableHit = true;
    return pred;
}

void
DirectMappedPredictor::update(std::uint64_t astate, InstCount actual)
{
    observeGlobal(actual);
    Entry &entry = table[index(astate)];
    if (entry.valid) {
        if (withinTolerance(entry.length, actual))
            entry.conf = confidence::up(entry.conf);
        else
            entry.conf = confidence::down(entry.conf);
    } else {
        entry.valid = true;
        ++validCount;
        entry.conf = 0;
    }
    entry.length = actual;
}

std::uint64_t
DirectMappedPredictor::storageBits() const
{
    // Tag-less: 16-bit length + 2-bit confidence per entry; the paper
    // quotes 3.3 KB for 1500 entries.
    return table.size() * (16 + 2);
}

// ---------------------------------------------------------------------
// InfinitePredictor

RunLengthPrediction
InfinitePredictor::predict(std::uint64_t astate)
{
    RunLengthPrediction pred;
    auto it = table.find(astate);
    if (it == table.end()) {
        pred.length = globalHistory.prediction();
        pred.fromGlobal = true;
        return pred;
    }
    pred.tableHit = true;
    pred.confidence = it->second.conf;
    if (it->second.conf == 0) {
        pred.length = globalHistory.prediction();
        pred.fromGlobal = true;
    } else {
        pred.length = it->second.length;
    }
    return pred;
}

void
InfinitePredictor::update(std::uint64_t astate, InstCount actual)
{
    observeGlobal(actual);
    auto it = table.find(astate);
    if (it != table.end()) {
        if (withinTolerance(it->second.length, actual))
            it->second.conf = confidence::up(it->second.conf);
        else
            it->second.conf = confidence::down(it->second.conf);
        it->second.length = actual;
        return;
    }
    table.emplace(astate, Entry{actual, 0});
}

std::uint64_t
InfinitePredictor::storageBits() const
{
    return table.size() * (64 + 16 + 2);
}

const char *
predictorShortName(PredictorKind kind)
{
    switch (kind) {
      case PredictorKind::Cam: return "cam";
      case PredictorKind::DirectMapped: return "direct-mapped";
      case PredictorKind::Infinite: return "infinite";
    }
    return "?";
}

std::unique_ptr<RunLengthPredictor>
makePredictor(PredictorKind kind)
{
    switch (kind) {
      case PredictorKind::Cam:
        return std::make_unique<CamPredictor>();
      case PredictorKind::DirectMapped:
        return std::make_unique<DirectMappedPredictor>();
      case PredictorKind::Infinite:
        return std::make_unique<InfinitePredictor>();
    }
    oscar_panic("unknown predictor kind");
}

} // namespace oscar
