/**
 * @file
 * Helpers shared by the eval, service and chaos tests: a scoped fault
 * spec and the field-by-field bit-identity check of two results.
 */
#pragma once

#include <gtest/gtest.h>

#include <cstdint>
#include <string>

#include "common/fault.hpp"
#include "eval/engine.hpp"

namespace bitwave {

/// Arms a fault spec for one test and guarantees disarm on every exit
/// path — a leaked spec would poison every later test in the binary.
class FaultGuard
{
  public:
    FaultGuard(const std::string &spec, std::uint64_t seed)
    {
        fault::configure(spec, seed);
    }
    ~FaultGuard() { fault::reset(); }
    FaultGuard(const FaultGuard &) = delete;
    FaultGuard &operator=(const FaultGuard &) = delete;
};

/// Bit-identical, not approximately equal: the determinism contract.
inline void
expect_identical(const eval::ScenarioResult &a, const eval::ScenarioResult &b)
{
    EXPECT_EQ(a.name, b.name);
    EXPECT_EQ(a.rng_seed, b.rng_seed);
    EXPECT_EQ(a.total_cycles, b.total_cycles) << a.name;
    EXPECT_EQ(a.energy.total_pj, b.energy.total_pj) << a.name;
    EXPECT_EQ(a.nominal_macs, b.nominal_macs) << a.name;
    ASSERT_EQ(a.layers.size(), b.layers.size());
    for (std::size_t l = 0; l < a.layers.size(); ++l) {
        EXPECT_EQ(a.layers[l].layer_name, b.layers[l].layer_name);
        EXPECT_EQ(a.layers[l].total_cycles, b.layers[l].total_cycles);
        EXPECT_EQ(a.layers[l].energy.total_pj, b.layers[l].energy.total_pj);
        EXPECT_EQ(a.layers[l].cycles_per_group,
                  b.layers[l].cycles_per_group);
        // kStats records carry no cycles: compare their statistics.
        ASSERT_EQ(a.layers[l].stats == nullptr,
                  b.layers[l].stats == nullptr);
        if (a.layers[l].stats) {
            const auto &x = a.layers[l].stats->sparsity;
            const auto &y = b.layers[l].stats->sparsity;
            EXPECT_EQ(x.value_sparsity(), y.value_sparsity());
            EXPECT_EQ(x.bit_sparsity(Representation::kSignMagnitude),
                      y.bit_sparsity(Representation::kSignMagnitude));
        }
    }
}

}  // namespace bitwave
