// Randomized oracle tests for common/flat_table.hpp: the open-addressing
// slot-slab table must agree with std::unordered_map under arbitrary
// insert/erase/find churn across rehash boundaries, keep generation-tagged
// handles honest across slot reuse, and stay off the heap once reserved.

#include <gtest/gtest.h>

#include <cstdint>
#include <string>
#include <unordered_map>
#include <vector>

#include "alloc_counting.hpp"
#include "common/flat_table.hpp"
#include "common/rng.hpp"

namespace bacp {
namespace {

// Move-only value: FlatTable must not require copyability (the server
// stores Session, which owns unique_ptrs).
struct Boxed {
    std::uint64_t v = 0;
    Boxed() = default;
    explicit Boxed(std::uint64_t x) : v(x) {}
    Boxed(Boxed&&) = default;
    Boxed& operator=(Boxed&&) = default;
    Boxed(const Boxed&) = delete;
    Boxed& operator=(const Boxed&) = delete;
};

TEST(FlatTable, BasicInsertFindErase) {
    FlatTable<std::uint64_t, Boxed> t;
    EXPECT_TRUE(t.empty());
    auto [a, inserted] = t.try_emplace(7);
    EXPECT_TRUE(inserted);
    a->v = 70;
    auto [b, again] = t.try_emplace(7);
    EXPECT_FALSE(again);
    EXPECT_EQ(b->v, 70u);
    EXPECT_EQ(t.size(), 1u);
    ASSERT_NE(t.find(7), nullptr);
    EXPECT_EQ(t.find(7)->v, 70u);
    EXPECT_EQ(t.find(8), nullptr);
    EXPECT_TRUE(t.erase(7));
    EXPECT_FALSE(t.erase(7));
    EXPECT_EQ(t.find(7), nullptr);
    EXPECT_TRUE(t.empty());
}

TEST(FlatTable, HandlesDieOnEraseAndSlotReuse) {
    FlatTable<std::uint64_t, Boxed> t;
    t.try_emplace(1).first->v = 10;
    const auto h1 = t.handle_of(1);
    ASSERT_NE(h1, 0u);
    EXPECT_EQ(t.get(h1)->v, 10u);

    EXPECT_TRUE(t.erase(1));
    EXPECT_EQ(t.get(h1), nullptr);

    // The freed slot is recycled for the next insert; the stale handle
    // must not resolve to the new tenant.
    t.try_emplace(2).first->v = 20;
    EXPECT_EQ(t.get(h1), nullptr);
    const auto h2 = t.handle_of(2);
    EXPECT_NE(h2, h1);
    EXPECT_EQ(t.get(h2)->v, 20u);
    EXPECT_EQ(t.handle_of(999), 0u);
    EXPECT_EQ(t.get(0), nullptr);
}

// Adversarial keys: identity hash over a small residue forces long
// probe clusters, exercising backward-shift repair across wraps.
struct ClusteredHash {
    std::size_t operator()(std::uint64_t k) const { return k % 7; }
};

template <typename HashT>
void churn_against_oracle(std::uint64_t seed, int ops, std::uint64_t key_space) {
    FlatTable<std::uint64_t, Boxed, HashT> table;
    std::unordered_map<std::uint64_t, std::uint64_t> oracle;
    std::unordered_map<std::uint64_t, std::uint64_t> handles;  // key -> live handle
    Rng rng(seed);
    for (int i = 0; i < ops; ++i) {
        const std::uint64_t key = rng.uniform(key_space);
        switch (rng.uniform(4)) {
            case 0:
            case 1: {  // insert-or-touch
                auto [slot, inserted] = table.try_emplace(key);
                auto [it, fresh] = oracle.try_emplace(key, 0);
                ASSERT_EQ(inserted, fresh);
                const std::uint64_t v = rng.uniform(std::uint64_t{1} << 40);
                slot->v = v;
                it->second = v;
                handles[key] = table.handle_of(key);
                break;
            }
            case 2: {  // erase
                ASSERT_EQ(table.erase(key), oracle.erase(key) > 0);
                break;
            }
            case 3: {  // find + handle check
                Boxed* found = table.find(key);
                auto it = oracle.find(key);
                ASSERT_EQ(found != nullptr, it != oracle.end());
                if (found != nullptr) {
                    ASSERT_EQ(found->v, it->second);
                }
                auto h = handles.find(key);
                if (h != handles.end()) {
                    Boxed* via = table.get(h->second);
                    ASSERT_EQ(via != nullptr, it != oracle.end());
                    if (via != nullptr) {
                        ASSERT_EQ(via->v, it->second);
                    }
                }
                break;
            }
        }
        ASSERT_EQ(table.size(), oracle.size());
    }
    // Full sweep: every oracle entry is reachable, and for_each visits
    // each live entry exactly once.
    std::unordered_map<std::uint64_t, std::uint64_t> seen;
    table.for_each([&](const std::uint64_t& k, Boxed& v) {
        ASSERT_TRUE(seen.emplace(k, v.v).second);
    });
    ASSERT_EQ(seen.size(), oracle.size());
    for (const auto& [k, v] : oracle) {
        auto it = seen.find(k);
        ASSERT_NE(it, seen.end());
        ASSERT_EQ(it->second, v);
    }
}

TEST(FlatTable, RandomChurnMatchesOracle) {
    churn_against_oracle<std::hash<std::uint64_t>>(0xF1A7'0001, 20000, 400);
}

TEST(FlatTable, RandomChurnSmallTableManyRehashes) {
    // Tight key space + heavy churn: size oscillates across the rehash
    // threshold repeatedly.
    churn_against_oracle<std::hash<std::uint64_t>>(0xF1A7'0002, 20000, 24);
}

TEST(FlatTable, RandomChurnAdversarialClusters) {
    churn_against_oracle<ClusteredHash>(0xF1A7'0003, 20000, 96);
}

TEST(FlatTable, SlotViewSamplesLiveEntries) {
    FlatTable<std::uint64_t, Boxed> t;
    for (std::uint64_t k = 0; k < 32; ++k) t.try_emplace(k).first->v = k;
    for (std::uint64_t k = 0; k < 32; k += 2) t.erase(k);
    std::size_t live = 0;
    for (std::size_t s = 0; s < t.slot_count(); ++s) {
        if (!t.slot_live(s)) continue;
        ++live;
        EXPECT_EQ(t.slot_key(s) % 2, 1u);
        EXPECT_EQ(t.slot_value(s).v, t.slot_key(s));
    }
    EXPECT_EQ(live, t.size());
    EXPECT_EQ(live, 16u);
}

volatile void* g_sink = nullptr;

TEST(FlatTable, ZeroSteadyStateAllocationsAfterReserve) {
    FlatTable<std::uint64_t, std::uint64_t> t;
    t.reserve(1024);
    // Warm the slab to high water once.
    for (std::uint64_t k = 0; k < 1024; ++k) t.try_emplace(k);
    for (std::uint64_t k = 0; k < 1024; ++k) t.erase(k);

    Rng rng(0xF1A7'0004);
    std::uint64_t population = 0;
    const test::Counting counting;
    for (int i = 0; i < 50000; ++i) {
        const std::uint64_t key = rng.uniform(1024);
        if (rng.uniform(2) == 0) {
            population += t.try_emplace(key).second ? 1 : 0;
        } else {
            population -= t.erase(key) ? 1 : 0;
        }
        g_sink = t.find(key);
    }
    EXPECT_EQ(t.size(), population);
    EXPECT_EQ(counting.allocs(), 0u) << "flat table touched the heap in steady state";
}

}  // namespace
}  // namespace bacp
