/**
 * @file
 * Hardware OS run-length predictors (Section III-A, Figure 2).
 *
 * On every transition to privileged mode the predictor is indexed with
 * the AState — the XOR of PSTATE, g0, g1, i0 and i1 — and returns the
 * run length observed the last time that AState was seen. A 2-bit
 * saturating confidence counter per entry is incremented when the
 * entry's prediction lands within ±5 % of the actual length and
 * decremented otherwise; at confidence 0 the predictor falls back to a
 * *global* prediction, the mean of the last three observed run lengths
 * regardless of AState (the paper notes OS run lengths cluster, making
 * the global value a better guess than a cold local entry).
 *
 * Three organizations are provided:
 *  - CamPredictor: the paper's proposal, a 200-entry fully-associative
 *    CAM with LRU replacement (~2 KB of storage);
 *  - DirectMappedPredictor: the paper's tag-less 1500-entry RAM
 *    alternative (~3.3 KB), indexed by the AState's low bits;
 *  - InfinitePredictor: unbounded table, the paper's "infinite
 *    history" upper bound.
 */

#ifndef OSCAR_CORE_RUN_LENGTH_PREDICTOR_HH_
#define OSCAR_CORE_RUN_LENGTH_PREDICTOR_HH_

#include <cstdint>
#include <memory>
#include <string>
#include <unordered_map>
#include <vector>

#include "sim/flat_hash.hh"
#include "sim/types.hh"

namespace oscar
{

/** Result of one predictor lookup. */
struct RunLengthPrediction
{
    /** Predicted run length in instructions. */
    InstCount length = 0;
    /** True when the global fallback supplied the value. */
    bool fromGlobal = false;
    /** True when the AState was found in the table. */
    bool tableHit = false;
    /**
     * The hit entry's 2-bit confidence counter (0 on a table miss).
     * Exposed for traces and the saturation property tests.
     */
    std::uint8_t confidence = 0;
};

/**
 * Absolute accuracy floor of withinTolerance(), in instructions: a
 * prediction no further than this from the actual length always counts
 * as accurate, regardless of the ±5 % relative band. Keeps confidence
 * training meaningful for zero/near-zero run lengths, where a relative
 * tolerance degenerates to exact-match.
 */
inline constexpr double kToleranceFloorInstructions = 2.0;

/**
 * True when a prediction lands within ±5 % of the actual length
 * (symmetric: the band is taken around the larger of the two values),
 * or within kToleranceFloorInstructions for near-zero runs.
 */
bool withinTolerance(InstCount predicted, InstCount actual);

/**
 * Mean of the last three observed run lengths (any AState).
 */
class GlobalRunLengthHistory
{
  public:
    /** Record an observed run length. */
    void observe(InstCount length);

    /** Current global prediction; 0 before any observation. */
    InstCount prediction() const;

    /** Number of observations recorded (saturates at capacity). */
    unsigned depth() const { return filled; }

  private:
    static constexpr unsigned kDepth = 3;
    InstCount ring[kDepth] = {0, 0, 0};
    /** Rolling sum of the live ring entries, so prediction() is O(1). */
    InstCount sum = 0;
    unsigned cursor = 0;
    unsigned filled = 0;
};

/**
 * Abstract run-length predictor.
 */
class RunLengthPredictor
{
  public:
    virtual ~RunLengthPredictor() = default;

    /** Predict the run length of the invocation with this AState. */
    virtual RunLengthPrediction predict(std::uint64_t astate) = 0;

    /** Train with the observed run length of a completed invocation. */
    virtual void update(std::uint64_t astate, InstCount actual) = 0;

    /** Hardware storage the organization requires, in bits. */
    virtual std::uint64_t storageBits() const = 0;

    /** Organization name for reports. */
    virtual std::string name() const = 0;

    /** Number of live (trained) entries; an occupancy gauge. */
    virtual std::size_t occupancy() const = 0;

    /**
     * Duplicate this predictor, trained state included, for system
     * snapshots. The clone predicts identically to the original on any
     * subsequent AState stream.
     */
    virtual std::unique_ptr<RunLengthPredictor> clone() const = 0;

    /** The shared last-three-lengths global history. */
    const GlobalRunLengthHistory &global() const { return globalHistory; }

  protected:
    /** Feed the global history; called by every update(). */
    void observeGlobal(InstCount length) { globalHistory.observe(length); }

    GlobalRunLengthHistory globalHistory;
};

/** Saturating 2-bit confidence helpers. */
namespace confidence
{
inline constexpr std::uint8_t kMax = 3;

/** Increment with saturation. */
constexpr std::uint8_t
up(std::uint8_t c)
{
    return c >= kMax ? kMax : static_cast<std::uint8_t>(c + 1);
}

/** Decrement with saturation. */
constexpr std::uint8_t
down(std::uint8_t c)
{
    return c == 0 ? 0 : static_cast<std::uint8_t>(c - 1);
}
} // namespace confidence

/**
 * The paper's 200-entry fully-associative CAM organization.
 *
 * The *modelled hardware* is a fully-associative CAM searched in one
 * cycle; the *simulation* of it used to pay an O(entries) linear scan
 * per lookup, twice per invocation. This implementation keeps the
 * exact fully-associative + LRU semantics but makes every operation
 * O(1):
 *
 *  - a flat hash index maps AState -> entry slot (find);
 *  - entries carry intrusive prev/next links forming a doubly-linked
 *    LRU list (head = most recent); a hit unlinks and re-links at the
 *    head, eviction pops the tail;
 *  - a live-entry counter doubles as the bump allocator for cold
 *    slots, making occupancy() O(1) as well.
 *
 * Because LRU timestamps were unique in the old implementation, the
 * list order is exactly the old lastUse order and the eviction victim
 * is identical — the golden traces are byte-for-byte unchanged, and
 * the randomized differential test in test_predictor_differential.cc
 * pits this implementation against the old linear scan directly.
 */
class CamPredictor : public RunLengthPredictor
{
  public:
    /** @param entries CAM capacity (paper: 200). */
    explicit CamPredictor(std::size_t entries = 200);

    RunLengthPrediction predict(std::uint64_t astate) override;
    void update(std::uint64_t astate, InstCount actual) override;
    std::uint64_t storageBits() const override;
    std::string name() const override { return "cam"; }

    /** Number of live entries; O(1). */
    std::size_t occupancy() const override { return liveCount; }

    std::unique_ptr<RunLengthPredictor>
    clone() const override
    {
        return std::make_unique<CamPredictor>(*this);
    }

    /** Capacity. */
    std::size_t capacity() const { return table.size(); }

  private:
    /** Sentinel slot id terminating the LRU list. */
    static constexpr std::uint32_t kNil = 0xFFFFFFFFu;

    struct Entry
    {
        std::uint64_t astate = 0;
        InstCount length = 0;
        std::uint8_t conf = 0;
        /** Intrusive LRU list links (slot indices). */
        std::uint32_t prev = kNil;
        std::uint32_t next = kNil;
    };

    /** Detach a live slot from the LRU list. */
    void unlink(std::uint32_t slot);

    /** Make a detached slot the most recently used. */
    void pushFront(std::uint32_t slot);

    /** Move a live slot to the MRU position. */
    void touch(std::uint32_t slot);

    std::vector<Entry> table;
    /** AState -> slot index of every live entry. */
    FlatHashMap<std::uint32_t> index;
    std::uint32_t lruHead = kNil;
    std::uint32_t lruTail = kNil;
    /** Live entries; slots [0, liveCount) are allocated in order. */
    std::uint32_t liveCount = 0;
};

/**
 * The paper's tag-less direct-mapped RAM organization (1500 entries).
 *
 * Being tag-less, distinct AStates that share low-order bits alias
 * into the same entry; the confidence counter limits the damage.
 */
class DirectMappedPredictor : public RunLengthPredictor
{
  public:
    /** @param entries Table size (paper: 1500). */
    explicit DirectMappedPredictor(std::size_t entries = 1500);

    RunLengthPrediction predict(std::uint64_t astate) override;
    void update(std::uint64_t astate, InstCount actual) override;
    std::uint64_t storageBits() const override;
    std::string name() const override { return "direct-mapped"; }

    /** Number of valid entries; O(1) via the running count. */
    std::size_t occupancy() const override { return validCount; }

    std::unique_ptr<RunLengthPredictor>
    clone() const override
    {
        return std::make_unique<DirectMappedPredictor>(*this);
    }

  private:
    struct Entry
    {
        InstCount length = 0;
        std::uint8_t conf = 0;
        bool valid = false;
    };

    std::size_t index(std::uint64_t astate) const;

    std::vector<Entry> table;
    /** Entries with valid == true. */
    std::size_t validCount = 0;
};

/**
 * Unbounded table: the "infinite history" reference point.
 */
class InfinitePredictor : public RunLengthPredictor
{
  public:
    RunLengthPrediction predict(std::uint64_t astate) override;
    void update(std::uint64_t astate, InstCount actual) override;
    std::uint64_t storageBits() const override;
    std::string name() const override { return "infinite"; }

    /** Number of distinct AStates seen. */
    std::size_t occupancy() const override { return table.size(); }

    std::unique_ptr<RunLengthPredictor>
    clone() const override
    {
        return std::make_unique<InfinitePredictor>(*this);
    }

  private:
    struct Entry
    {
        InstCount length = 0;
        std::uint8_t conf = 0;
    };

    std::unordered_map<std::uint64_t, Entry> table;
};

/** Predictor organizations selectable from configuration. */
enum class PredictorKind : std::uint8_t
{
    Cam,
    DirectMapped,
    Infinite,
};

/** Artifact name ("cam", "direct-mapped", "infinite"). */
const char *predictorShortName(PredictorKind kind);

/** Factory for the configured organization. */
std::unique_ptr<RunLengthPredictor> makePredictor(PredictorKind kind);

} // namespace oscar

#endif // OSCAR_CORE_RUN_LENGTH_PREDICTOR_HH_
