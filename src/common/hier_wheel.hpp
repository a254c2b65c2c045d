#pragma once

/// \file hier_wheel.hpp
/// Hierarchical timer wheel: O(1) arm/cancel, fire work proportional to
/// what is due, exact deadline order.
///
/// The real-time runtime used to keep every armed timer in one
/// SlabTimerHeap: O(log n) arm/cancel and -- the killer at 100k
/// sessions -- a top-of-heap comparison cost that grows with *armed*
/// timers even when nothing is due.  HierTimerWheel replaces the heap
/// under net::TimerWheel with the classic hashed-and-hierarchical
/// wheel (Varghese & Lauck), adapted so none of the repo's determinism
/// contracts loosen:
///
///  - kLevels levels of 64 buckets; level 0 buckets span one tick
///    (2^kTickShift ns = ~65.5 us), level k buckets span 64^k ticks.
///    A timer lands in the lowest level whose bucket span still
///    separates it from the base cursor; when the base crosses a
///    level's bucket boundary the bucket cascades down, so each timer
///    is relinked at most kLevels-1 times over its life.
///  - Occupancy bitmaps (one 64-bit word per level) let fire_due jump
///    the base straight to the next occupied bucket or cascade
///    boundary: an idle poll over a million armed-but-distant timers
///    is a handful of bit scans, not a heap inspection.  This is the
///    "O(due), not O(armed)" property bench_e24 pins.
///  - Buckets are intrusive doubly-linked lists through one contiguous
///    node slab (freelist-recycled, generation-parity ids exactly like
///    SlabTimerHeap), so cancel unlinks in O(1) and releases the
///    handler eagerly -- the path E22's ack-coalescing storm leans on.
///  - Bucketing rounds *placement*, never *order*: nodes keep their
///    exact deadline, and a firing bucket is sorted by (deadline, seq)
///    before any handler runs.  Equal deadlines therefore fire in
///    schedule order and ManualClock runs stay byte-reproducible
///    (test_driver_parity compares decision streams across runtimes).
///    The sort cost scales with the timers actually firing.
///
/// Handlers may push and cancel freely from inside fire_due, including
/// against timers already collected for this batch (a cancelled
/// collected timer does not fire -- its generation died).  Not
/// thread-safe; one wheel per shard/loop thread.

#include <algorithm>
#include <bit>
#include <cassert>
#include <cstddef>
#include <cstdint>
#include <optional>
#include <utility>
#include <vector>

#include "common/types.hpp"

namespace bacp {

template <typename Handler>
class HierTimerWheel {
public:
    using Id = std::uint64_t;

    /// Live (armed) timers.
    std::size_t size() const { return size_; }
    bool empty() const { return size_ == 0; }

    /// Cumulative fire_due structural work: nodes examined, staged,
    /// and cascaded, plus one unit per bucket/bitmap inspection.  The
    /// scaling gate compares this across idle and busy wheels.
    std::uint64_t work_ops() const { return work_; }

    /// Pre-size the node slab (and fire scratch) for `n` concurrent
    /// timers so steady state never allocates.
    void reserve(std::size_t n) {
        slab_.reserve(n);
        staged_.reserve(n);
    }

    /// Arm `fn` at absolute deadline `time` (>= `now`, the caller's
    /// current clock; deadlines in the past are allowed and fire on the
    /// next fire_due).  Returns a generation-tagged id; 0 is never one.
    Id push(SimTime now, SimTime time, Handler fn) {
        if (size_ == 0) base_tick_ = tick_of(now);
        const std::uint32_t slot = acquire_slot();
        Node& n = slab_[slot];
        n.fn = std::move(fn);
        n.time = time;
        n.seq = seq_++;
        link(slot, place_bucket(tick_of(time)));
        ++size_;
        if (size_ == 1 || (min_valid_ && time < min_time_)) {
            min_time_ = time;
            min_valid_ = true;
        }
        return make_id(slot, slab_[slot].gen);
    }

    /// Cancel a live timer in O(1).  Stale, fired, or foreign ids are
    /// harmless no-ops (returns false).
    bool cancel(Id id) {
        const std::uint32_t slot = static_cast<std::uint32_t>(id >> 32) - 1;
        if (slot >= slab_.size()) return false;
        Node& n = slab_[slot];
        if (n.gen != static_cast<std::uint32_t>(id) || (n.gen & 1u) == 0) return false;
        if (min_valid_ && n.time <= min_time_) min_valid_ = false;
        if (n.bucket != kStagedBucket) unlink(slot);
        free_slot(slot);
        --size_;
        return true;
    }

    /// Exact deadline of the earliest live timer.
    std::optional<SimTime> next_deadline() const {
        if (size_ == 0) return std::nullopt;
        if (!min_valid_) {
            min_time_ = compute_min();
            min_valid_ = true;
        }
        return min_time_;
    }

    /// Fire every timer with deadline <= now, in exact (deadline, FIFO)
    /// order; returns how many fired.  Work is proportional to timers
    /// fired plus cascade relinks, independent of the armed population.
    std::size_t fire_due(SimTime now) {
        if (size_ == 0) {
            base_tick_ = tick_of(now);
            return 0;
        }
        const std::uint64_t target = std::max(tick_of(now), base_tick_);
        std::size_t fired = 0;
        for (;;) {
            const std::uint64_t next = next_event_tick();
            if (next > target) {
                // Never move the cursor back: a handler that re-armed the
                // emptied wheel re-based it at its own, later, clock
                // reading, and its entry is placed against that base.
                base_tick_ = std::max(base_tick_, target);
                break;
            }
            advance_to(next);
            const std::size_t n = fire_cursor_bucket(now);
            fired += n;
            if (base_tick_ == target && n == 0) break;
            if (size_ == 0) {
                base_tick_ = target;
                break;
            }
        }
        if (fired > 0) min_valid_ = false;
        return fired;
    }

private:
    static constexpr int kLevelBits = 6;
    static constexpr std::uint64_t kBucketsPerLevel = 1ull << kLevelBits;
    static constexpr int kLevels = 6;
    /// Tick granularity: 2^16 ns.  Placement-only -- deadlines stay
    /// exact -- so the tick just bounds how far apart two timers must be
    /// to live in different level-0 buckets.
    static constexpr int kTickShift = 16;
    static constexpr std::uint32_t kNil = 0xFFFFFFFFu;
    static constexpr std::uint16_t kStagedBucket = 0xFFFF;  // collected for firing
    static constexpr std::uint16_t kFreeBucket = 0xFFFE;
    static constexpr std::uint64_t kNoTick = ~0ull;

    struct Node {
        Handler fn{};
        SimTime time = 0;
        std::uint64_t seq = 0;
        std::uint32_t gen = 0;  // odd = live (slab_heap's parity scheme)
        std::uint32_t prev = kNil;
        std::uint32_t next = kNil;  // doubles as the freelist link
        std::uint16_t bucket = kFreeBucket;
    };
    struct Bucket {
        std::uint32_t head = kNil;
        std::uint32_t tail = kNil;
    };
    struct Staged {
        SimTime time;
        std::uint64_t seq;
        std::uint32_t slot;
        std::uint32_t gen;
    };

    static Id make_id(std::uint32_t slot, std::uint32_t gen) {
        return (static_cast<Id>(slot + 1) << 32) | gen;
    }
    static std::uint64_t tick_of(SimTime t) {
        return t <= 0 ? 0 : static_cast<std::uint64_t>(t) >> kTickShift;
    }

    /// Lowest level whose span separates `tick` from the base cursor.
    /// Returns level * 64 + index.  Past ticks clamp to the cursor
    /// bucket; ticks beyond the wheel horizon (64^kLevels ticks, years)
    /// park at the top level and re-place as the base catches up.
    std::uint16_t place_bucket(std::uint64_t tick) const {
        std::uint64_t t = std::max(tick, base_tick_);
        std::uint64_t delta = t - base_tick_;
        int level = 0;
        if (delta >> kLevelBits != 0) {
            level = (63 - std::countl_zero(delta)) / kLevelBits;
            if (level >= kLevels) {
                level = kLevels - 1;
                t = base_tick_ + ((1ull << (kLevelBits * kLevels)) - 1);
            }
        }
        const std::uint64_t idx = (t >> (kLevelBits * level)) & (kBucketsPerLevel - 1);
        return static_cast<std::uint16_t>(level * kBucketsPerLevel + idx);
    }

    void link(std::uint32_t slot, std::uint16_t bucket) {
        Node& n = slab_[slot];
        Bucket& b = buckets_[bucket];
        n.bucket = bucket;
        n.prev = b.tail;
        n.next = kNil;
        if (b.tail == kNil) {
            b.head = slot;
            bitmap_[bucket >> kLevelBits] |= 1ull << (bucket & (kBucketsPerLevel - 1));
        } else {
            slab_[b.tail].next = slot;
        }
        b.tail = slot;
    }

    void unlink(std::uint32_t slot) {
        Node& n = slab_[slot];
        Bucket& b = buckets_[n.bucket];
        if (n.prev != kNil) slab_[n.prev].next = n.next;
        else b.head = n.next;
        if (n.next != kNil) slab_[n.next].prev = n.prev;
        else b.tail = n.prev;
        if (b.head == kNil)
            bitmap_[n.bucket >> kLevelBits] &= ~(1ull << (n.bucket & (kBucketsPerLevel - 1)));
    }

    std::uint32_t acquire_slot() {
        std::uint32_t slot;
        if (free_head_ != kNil) {
            slot = free_head_;
            free_head_ = slab_[slot].next;
        } else {
            slot = static_cast<std::uint32_t>(slab_.size());
            slab_.emplace_back();
        }
        slab_[slot].gen |= 1u;  // even (dead) -> odd (live)
        return slot;
    }

    void free_slot(std::uint32_t slot) {
        Node& n = slab_[slot];
        n.fn = Handler{};  // release the closure now, not at slot reuse
        n.gen += 1;        // odd -> even: outstanding ids die
        n.bucket = kFreeBucket;
        n.next = free_head_;
        free_head_ = slot;
    }

    /// Tick of the next occupied level-0 bucket or level>=1 cascade
    /// boundary at or after the base cursor.
    std::uint64_t next_event_tick() const {
        std::uint64_t best = kNoTick;
        if (bitmap_[0] != 0) {
            const unsigned cur = static_cast<unsigned>(base_tick_ & (kBucketsPerLevel - 1));
            const unsigned d = static_cast<unsigned>(std::countr_zero(std::rotr(bitmap_[0], cur)));
            best = base_tick_ + d;
        }
        for (int k = 1; k < kLevels; ++k) {
            if (bitmap_[k] == 0) continue;
            const std::uint64_t cur = base_tick_ >> (kLevelBits * k);
            const unsigned curj = static_cast<unsigned>(cur & (kBucketsPerLevel - 1));
            // Occupied level-k buckets always sit strictly ahead of the
            // cursor (they cascade exactly when the base reaches their
            // window start), so the circular distance 0 means a full lap.
            const unsigned d = static_cast<unsigned>(std::countr_zero(
                                   std::rotr(bitmap_[k], (curj + 1) & (kBucketsPerLevel - 1)))) +
                               1;
            best = std::min(best, (cur + d) << (kLevelBits * k));
        }
        return best;
    }

    /// Move the base cursor to `tick` (== next_event_tick()), cascading
    /// any occupied bucket whose window starts exactly there.  Higher
    /// levels first: their entries re-place strictly ahead of any
    /// lower-level bucket cascading at the same boundary.
    void advance_to(std::uint64_t tick) {
        base_tick_ = tick;
        for (int k = kLevels - 1; k >= 1; --k) {
            if ((tick & ((1ull << (kLevelBits * k)) - 1)) != 0) continue;
            const std::uint16_t bucket = static_cast<std::uint16_t>(
                k * kBucketsPerLevel + ((tick >> (kLevelBits * k)) & (kBucketsPerLevel - 1)));
            cascade(bucket);
        }
    }

    void cascade(std::uint16_t bucket) {
        ++work_;
        Bucket& b = buckets_[bucket];
        std::uint32_t slot = b.head;
        if (slot == kNil) return;
        b.head = b.tail = kNil;
        bitmap_[bucket >> kLevelBits] &= ~(1ull << (bucket & (kBucketsPerLevel - 1)));
        while (slot != kNil) {
            const std::uint32_t next = slab_[slot].next;
            link(slot, place_bucket(tick_of(slab_[slot].time)));
            ++work_;
            slot = next;
        }
    }

    /// Collect and fire the due entries of the level-0 bucket under the
    /// base cursor, sorted by exact (deadline, seq).  Entries not yet
    /// due (sub-tick remainder) stay linked.
    std::size_t fire_cursor_bucket(SimTime now) {
        ++work_;
        const std::uint16_t bucket =
            static_cast<std::uint16_t>(base_tick_ & (kBucketsPerLevel - 1));
        staged_.clear();
        std::uint32_t slot = buckets_[bucket].head;
        while (slot != kNil) {
            Node& n = slab_[slot];
            const std::uint32_t next = n.next;
            ++work_;
            if (n.time <= now) {
                unlink(slot);
                n.bucket = kStagedBucket;
                staged_.push_back({n.time, n.seq, slot, n.gen});
            }
            slot = next;
        }
        if (staged_.empty()) return 0;
        std::sort(staged_.begin(), staged_.end(), [](const Staged& a, const Staged& b) {
            return a.time != b.time ? a.time < b.time : a.seq < b.seq;
        });
        std::size_t fired = 0;
        for (const Staged& e : staged_) {
            Node& n = slab_[e.slot];
            if (n.gen != e.gen) continue;  // cancelled by an earlier handler
            assert(n.bucket == kStagedBucket);
            Handler fn = std::move(n.fn);
            free_slot(e.slot);
            --size_;
            ++fired;
            fn();  // may push/cancel freely; slab refs not held across this
        }
        return fired;
    }

    /// Exact minimum deadline.  Each level's minimum lives in its first
    /// occupied bucket (bucket windows within a level are disjoint and
    /// ordered), but levels are not ordered against each other, so scan
    /// one bucket per level.
    SimTime compute_min() const {
        SimTime best = 0;
        bool have = false;
        for (int k = 0; k < kLevels; ++k) {
            if (bitmap_[k] == 0) continue;
            std::uint64_t tick;
            if (k == 0) {
                const unsigned cur = static_cast<unsigned>(base_tick_ & (kBucketsPerLevel - 1));
                tick = base_tick_ +
                       static_cast<unsigned>(std::countr_zero(std::rotr(bitmap_[0], cur)));
            } else {
                const std::uint64_t cur = base_tick_ >> (kLevelBits * k);
                const unsigned curj = static_cast<unsigned>(cur & (kBucketsPerLevel - 1));
                const unsigned d = static_cast<unsigned>(std::countr_zero(std::rotr(
                                       bitmap_[k], (curj + 1) & (kBucketsPerLevel - 1)))) +
                                   1;
                tick = (cur + d) << (kLevelBits * k);
            }
            const std::uint16_t bucket =
                static_cast<std::uint16_t>(k * kBucketsPerLevel +
                                           ((tick >> (kLevelBits * k)) & (kBucketsPerLevel - 1)));
            for (std::uint32_t slot = buckets_[bucket].head; slot != kNil;
                 slot = slab_[slot].next) {
                if (!have || slab_[slot].time < best) {
                    best = slab_[slot].time;
                    have = true;
                }
            }
        }
        // Nodes collected for the current fire batch are unlinked from
        // their bucket but still armed; a handler querying the wheel
        // mid-fire must still see them.  Outside fire_due the scratch
        // holds only dead generations.
        for (const Staged& e : staged_) {
            const Node& n = slab_[e.slot];
            if (n.gen == e.gen && n.bucket == kStagedBucket && (!have || n.time < best)) {
                best = n.time;
                have = true;
            }
        }
        assert(have);
        return best;
    }

    std::vector<Node> slab_;
    std::vector<Staged> staged_;
    Bucket buckets_[kLevels * kBucketsPerLevel]{};
    std::uint64_t bitmap_[kLevels]{};
    std::uint64_t base_tick_ = 0;
    std::uint32_t free_head_ = kNil;
    std::uint64_t seq_ = 0;
    std::size_t size_ = 0;
    std::uint64_t work_ = 0;
    mutable SimTime min_time_ = 0;
    mutable bool min_valid_ = false;
};

}  // namespace bacp
