/**
 * @file
 * Tests for the packed bit-plane representation and the word-parallel
 * kernels built on it: pack/segment correctness against per-element
 * encoding, and bit-identical results between the packed kernels and
 * their scalar oracles (flat and row-aligned column statistics, BCS
 * measure/compress) on randomized tensors in both representations.
 * Also home of the process-cache tests: LruCache's exact LRU order,
 * holders outliving eviction, and the concurrent-reader paths the CI
 * TSan job checks.
 */
#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <thread>
#include <vector>

#include "common/lru.hpp"
#include "common/rng.hpp"
#include "compress/bcs.hpp"
#include "nn/layer.hpp"
#include "sparsity/bitcolumn.hpp"
#include "tensor/bitplane.hpp"

namespace bitwave {
namespace {

Int8Tensor
random_tensor(std::int64_t n, std::uint64_t seed, double zero_prob = 0.3)
{
    Rng rng(seed);
    Int8Tensor t({n});
    for (std::int64_t i = 0; i < n; ++i) {
        t[i] = rng.bernoulli(zero_prob)
            ? 0
            : static_cast<std::int8_t>(rng.uniform_int(-127, 127));
    }
    return t;
}

std::uint8_t
encode(std::int8_t v, Representation repr)
{
    return repr == Representation::kTwosComplement
        ? static_cast<std::uint8_t>(v) : to_sign_magnitude(v);
}

constexpr Representation kBothReprs[] = {
    Representation::kTwosComplement, Representation::kSignMagnitude};

// ------------------------------------------------------------- packing ---

TEST(BitPlanes, PackMatchesPerElementEncoding)
{
    // Odd length exercises the padded tail word.
    const Int8Tensor t = random_tensor(64 * 3 + 17, 11);
    for (const auto repr : kBothReprs) {
        const BitPlanes p = pack_bitplanes(t, repr);
        ASSERT_EQ(p.n, t.numel());
        ASSERT_EQ(p.words, (t.numel() + 63) / 64);
        for (std::int64_t e = 0; e < p.n; ++e) {
            const std::uint8_t enc = encode(t[e], repr);
            for (int b = 0; b < 8; ++b) {
                const std::uint64_t word = p.plane(b)[e >> 6];
                ASSERT_EQ((word >> (e & 63)) & 1ULL,
                          static_cast<std::uint64_t>((enc >> b) & 1))
                    << "element " << e << " bit " << b << " repr "
                    << representation_name(repr);
            }
        }
        // Padding lanes of the tail word stay zero in every plane.
        for (int b = 0; b < 8; ++b) {
            const std::uint64_t tail = p.plane(b)[p.words - 1];
            for (std::int64_t lane = p.n & 63; lane < 64; ++lane) {
                ASSERT_EQ((tail >> lane) & 1ULL, 0u);
            }
        }
    }
}

TEST(BitPlanes, SegmentMatchesColumnBits)
{
    const Int8Tensor t = random_tensor(300, 23, 0.2);
    for (const auto repr : kBothReprs) {
        const BitPlanes p = pack_bitplanes(t, repr);
        Rng rng(5);
        for (int trial = 0; trial < 200; ++trial) {
            const int len = 1 + static_cast<int>(rng.uniform_int(0, 63));
            const std::int64_t start =
                rng.uniform_int(0, t.numel() - len);
            const std::span<const std::int8_t> grp(
                t.data() + start, static_cast<std::size_t>(len));
            for (int b = 0; b < 8; ++b) {
                EXPECT_EQ(p.segment(b, start, len),
                          column_bits(grp, b, repr));
            }
            EXPECT_EQ(p.group_index(start, len), column_index(grp, repr));
        }
    }
}

// ----------------------------------------------- kernel equivalence ---

TEST(BitPlanes, AnalyzeBitColumnsMatchesScalar)
{
    // Group sizes cover the SWAR fast path (8..64) and the generic path
    // (non-power-of-two, < 8).
    const int group_sizes[] = {1, 2, 3, 4, 7, 8, 9, 16, 24, 32, 64};
    for (const std::int64_t n : {1LL, 63LL, 64LL, 1000LL, 4096LL}) {
        const Int8Tensor t = random_tensor(n, 17 + n);
        for (const auto repr : kBothReprs) {
            for (const int g : group_sizes) {
                const auto scalar =
                    analyze_bit_columns_scalar(t, g, t.numel(), repr);
                const auto packed = analyze_bit_columns(t, g, repr);
                EXPECT_EQ(packed.groups, scalar.groups);
                EXPECT_EQ(packed.columns, scalar.columns);
                EXPECT_EQ(packed.zero_columns, scalar.zero_columns);
                for (int z = 0; z <= 8; ++z) {
                    EXPECT_EQ(packed.zero_column_hist[z],
                              scalar.zero_column_hist[z])
                        << "n=" << n << " g=" << g << " z=" << z;
                }
            }
        }
    }
}

TEST(BitPlanes, ColumnIndexesMatchScalarWalk)
{
    const Int8Tensor t = random_tensor(777, 31);
    for (const auto repr : kBothReprs) {
        for (const int g : {1, 8, 13, 16, 32, 64}) {
            std::vector<std::uint8_t> packed(static_cast<std::size_t>(
                scan_group_count(t.numel(), t.numel(), g)));
            scan_group_indexes(pack_bitplanes(t, repr), t.numel(), g,
                               packed.data());
            std::vector<std::uint8_t> scalar;
            for (std::int64_t start = 0; start < t.numel(); start += g) {
                const std::int64_t len =
                    std::min<std::int64_t>(g, t.numel() - start);
                scalar.push_back(column_index(
                    {t.data() + start, static_cast<std::size_t>(len)},
                    repr));
            }
            EXPECT_EQ(packed, scalar) << "g=" << g;
        }
    }
}

TEST(BitPlanes, BcsSizeAndCompressMatchScalar)
{
    for (const std::int64_t n : {64LL, 257LL, 2048LL}) {
        const Int8Tensor t = random_tensor(n, 41 + n, 0.4);
        for (const auto repr : kBothReprs) {
            for (const int g : {1, 4, 8, 11, 16, 32, 64}) {
                // The column histogram's sizes are the stream's.
                const auto cs = bcs_compress_scalar(t, g, t.numel(), repr);
                const auto columns = analyze_bit_columns(t, g, repr);
                EXPECT_EQ(columns.bcs_bits(), cs.compressed_bits());
                EXPECT_EQ(columns.bcs_payload_bits(), cs.payload_bits());
                EXPECT_EQ(columns.bcs_compression_ratio(),
                          cs.compression_ratio());

                const auto cp = bcs_compress(t, g, repr);
                EXPECT_EQ(cp.element_count, cs.element_count);
                EXPECT_EQ(cp.shape, cs.shape);
                ASSERT_EQ(cp.groups.size(), cs.groups.size());
                for (std::size_t i = 0; i < cs.groups.size(); ++i) {
                    EXPECT_EQ(cp.groups[i].index, cs.groups[i].index);
                    EXPECT_EQ(cp.groups[i].columns, cs.groups[i].columns)
                        << "group " << i << " g=" << g;
                }
                // And the compressed stream still round-trips.
                EXPECT_EQ(bcs_decompress(cp), t);
            }
        }
    }
}

TEST(BitPlanes, RowAlignedBitColumnsMatchScalar)
{
    // Conv rows (row_len = C, both 64-aligned and not), linear rows and
    // the depthwise flat layout, at the row length the model prices
    // them with, all agree with the scalar walk. The BCS stream is
    // checked at the simulator's row length (rows of 96, 64, 100 and 9
    // elements, so every G leaves a truncated tail somewhere): group for
    // group against its oracle, sized by the row-aligned histogram, and
    // lossless.
    const LayerDesc descs[] = {
        make_conv("c", 8, 96, 5, 5, 3, 3),
        make_conv("c64", 4, 64, 4, 4, 3, 3),
        make_linear("fc", 24, 100, 2),
        make_depthwise("dw", 12, 5, 5, 3),
    };
    for (const auto &desc : descs) {
        const Int8Tensor w = random_tensor(desc.weight_count(), 59, 0.35);
        const std::int64_t sim_row_len = weight_row_geometry(desc).row_len;
        const std::int64_t row_len =
            desc.kind == LayerKind::kDepthwiseConv ? w.numel() : sim_row_len;
        for (const auto repr : kBothReprs) {
            const BitPlanes planes = pack_bitplanes(w, repr);
            for (const int g : {8, 16, 64}) {
                const auto s = analyze_bit_columns_scalar(w, g, row_len, repr);
                const auto p = analyze_bit_columns(planes, g, row_len);
                EXPECT_EQ(s.groups, scan_group_count(w.numel(), row_len, g))
                    << desc.name << " g=" << g;
                EXPECT_EQ(p.groups, s.groups) << desc.name << " g=" << g;
                EXPECT_EQ(p.columns, s.columns);
                EXPECT_EQ(p.zero_columns, s.zero_columns);
                for (int z = 0; z <= 8; ++z) {
                    EXPECT_EQ(p.zero_column_hist[z], s.zero_column_hist[z])
                        << desc.name << " g=" << g << " z=" << z;
                }

                const auto cs = bcs_compress_scalar(w, g, sim_row_len, repr);
                const auto cp = bcs_compress(planes, w.shape(), g, sim_row_len);
                ASSERT_EQ(cp.groups.size(), cs.groups.size())
                    << desc.name << " g=" << g;
                for (std::size_t i = 0; i < cs.groups.size(); ++i) {
                    EXPECT_EQ(cp.groups[i].index, cs.groups[i].index);
                    EXPECT_EQ(cp.groups[i].columns, cs.groups[i].columns)
                        << desc.name << " group " << i << " g=" << g;
                }
                const auto rows = analyze_bit_columns(planes, g, sim_row_len);
                EXPECT_EQ(cp.compressed_bits(), rows.bcs_bits())
                    << desc.name << " g=" << g;
                EXPECT_EQ(cp.payload_bits(), rows.bcs_payload_bits());
                EXPECT_EQ(bcs_decompress(cp), w) << desc.name << " g=" << g;
            }
        }
    }
}

// ------------------------------------------------------- shared cache ---

TEST(BitPlanes, SharedPlanesHitTheContentCache)
{
    const Int8Tensor t = random_tensor(500, 97);
    const auto a =
        shared_bitplanes(t, Representation::kSignMagnitude);
    const auto b =
        shared_bitplanes(t, Representation::kSignMagnitude);
    ASSERT_TRUE(a != nullptr);
    EXPECT_EQ(a.get(), b.get()) << "same content must share one pack";
    // The other representation is a distinct entry.
    const auto c =
        shared_bitplanes(t, Representation::kTwosComplement);
    EXPECT_NE(a.get(), c.get());
    // An identical copy hits by content, not identity.
    const Int8Tensor copy = t;
    const auto d =
        shared_bitplanes(copy, Representation::kSignMagnitude);
    EXPECT_EQ(a.get(), d.get());
}

// ----------------------------------------------------------------- LRU ---

TEST(LruCache, EvictsLeastRecentlyUsedAndRebuilds)
{
    LruCache<int, int> cache(2);
    int builds = 0;
    const auto build = [&](int v) {
        return [&builds, v] {
            ++builds;
            return v * 10;
        };
    };
    EXPECT_EQ(*cache.get_or_build(1, build(1)), 10);
    EXPECT_EQ(*cache.get_or_build(2, build(2)), 20);
    EXPECT_EQ(builds, 2);
    // Hit keeps 1 resident...
    bool hit = false;
    EXPECT_EQ(*cache.get_or_build(1, build(1), &hit), 10);
    EXPECT_TRUE(hit);
    EXPECT_EQ(builds, 2);
    // ...so inserting 3 evicts 2, and 2 rebuilds on the next request.
    EXPECT_EQ(*cache.get_or_build(3, build(3)), 30);
    EXPECT_EQ(cache.size(), 2u);
    EXPECT_EQ(*cache.get_or_build(2, build(2), &hit), 20);
    EXPECT_FALSE(hit);
    EXPECT_EQ(builds, 4);
    EXPECT_EQ(cache.hits(), 1);
    EXPECT_EQ(cache.evictions(), 2);
}

TEST(LruCache, IsExactLru)
{
    // Over a seeded mixed access pattern, every hit/miss must match an
    // exact LRU of the same capacity: a key hits iff it is among the
    // kCapacity most recently used distinct keys.
    constexpr std::size_t kCapacity = 8;
    LruCache<int, int> cache(kCapacity);
    ASSERT_EQ(cache.capacity(), kCapacity);

    std::vector<int> recent;  // Distinct keys, most recent last.
    Rng rng(0xCAFE);
    for (int step = 0; step < 2000; ++step) {
        // Zipf-ish: small keys dominate, so the pattern mixes hot hits
        // with cold misses and steady evictions.
        const int key = static_cast<int>(
            rng.uniform_int(0, rng.bernoulli(0.7) ? 7 : 31));
        bool hit = false;
        EXPECT_EQ(*cache.get_or_build(key, [&] { return key * 3; }, &hit),
                  key * 3);
        const auto it = std::find(recent.begin(), recent.end(), key);
        ASSERT_EQ(hit, it != recent.end()) << "step " << step;
        if (it != recent.end()) {
            recent.erase(it);
        }
        recent.push_back(key);
        if (recent.size() > kCapacity) {
            recent.erase(recent.begin());
        }
    }
    EXPECT_EQ(cache.size(), recent.size());
    EXPECT_EQ(cache.evictions(),
              cache.misses() - static_cast<std::int64_t>(cache.size()));
}

TEST(LruCache, EvictedValueStaysAliveThroughHolders)
{
    LruCache<int, std::vector<int>> cache(1);
    const auto held =
        cache.get_or_build(1, [] { return std::vector<int>{1, 2, 3}; });
    cache.get_or_build(2, [] { return std::vector<int>{9}; });  // evicts 1
    EXPECT_EQ(cache.evictions(), 1);
    EXPECT_EQ(held->size(), 3u) << "holder must outlive eviction";
}

TEST(LruCache, ConcurrentReadersAndBuildersStayConsistent)
{
    // The TSan CI job race-checks this: many workers hammering one
    // cache with overlapping hot keys must build each entry exactly
    // once, return the right value every time, and account every
    // access as a hit or a miss. Once with room for every key, once
    // with four keys per slot, where requests also splice and evict
    // under contention.
    constexpr int kThreads = 8, kOps = 400, kKeys = 64;
    for (const std::size_t capacity : {512u, 16u}) {
        LruCache<int, int> cache(capacity);
        std::atomic<std::int64_t> builds{0};
        std::vector<std::thread> workers;
        workers.reserve(kThreads);
        for (int t = 0; t < kThreads; ++t) {
            workers.emplace_back([&, t] {
                Rng rng(static_cast<std::uint64_t>(t) + 1);
                for (int op = 0; op < kOps; ++op) {
                    const int key =
                        static_cast<int>(rng.uniform_int(0, kKeys - 1));
                    const auto v = cache.get_or_build(key, [&] {
                        builds.fetch_add(1, std::memory_order_relaxed);
                        return key * 7;
                    });
                    if (*v != key * 7) {
                        ADD_FAILURE() << "wrong value for " << key;
                        return;
                    }
                }
            });
        }
        for (auto &w : workers) {
            w.join();
        }
        // Each miss inserts one entry, which builds once even under
        // concurrent first requests.
        EXPECT_EQ(builds.load(), cache.misses()) << capacity;
        EXPECT_EQ(cache.size(),
                  std::min(capacity, static_cast<std::size_t>(kKeys)));
        EXPECT_EQ(cache.evictions(),
                  cache.misses() - static_cast<std::int64_t>(cache.size()));
        EXPECT_EQ(cache.hits() + cache.misses(),
                  static_cast<std::int64_t>(kThreads) * kOps);
    }
}

}  // namespace
}  // namespace bitwave
