#include "sim/bce.hpp"

#include "common/logging.hpp"

namespace bitwave {

void
Bce::load_inputs(std::span<const std::int8_t> activations,
                 std::uint64_t sign_bits)
{
    if (activations.size() > 64) {
        fatal("Bce::load_inputs: width %zu exceeds 64", activations.size());
    }
    width_ = activations.size();
    for (std::size_t i = 0; i < width_; ++i) {
        activations_[i] = activations[i];
    }
    sign_bits_ = sign_bits;
}

void
Bce::process_column(std::uint64_t column_bits, int shift)
{
    if (shift < 0 || shift > 7) {
        fatal("Bce::process_column: shift %d out of range", shift);
    }
    // Step 2 (SMM): AND gate per element; the weight sign and the
    // activation sign jointly determine the partial product sign — for a
    // two's-complement activation this is just a conditional negation.
    // Step 3: accumulate the column's partial products BEFORE shifting.
    std::int32_t column_sum = 0;
    for (std::size_t j = 0; j < width_; ++j) {
        if ((column_bits >> j) & 1ULL) {
            const std::int32_t a = activations_[j];
            column_sum += ((sign_bits_ >> j) & 1ULL) ? -a : a;
        }
    }
    // Step 4: one shift for the whole column.
    // Step 5: accumulate into the output register.
    accumulator_ += column_sum << shift;
}

std::int32_t
bce_group_pass(std::span<const std::int8_t> activations,
               const ZcipDecode &decode,
               std::span<const std::uint64_t> columns,
               std::uint64_t sign_column)
{
    if (columns.size() != decode.shifts.size()) {
        fatal("bce_group_pass: %zu columns for %zu shifts", columns.size(),
              decode.shifts.size());
    }
    Bce bce;
    bce.load_inputs(activations, decode.sign_request ? sign_column : 0);
    for (std::size_t c = 0; c < columns.size(); ++c) {
        bce.process_column(columns[c], decode.shifts[c]);
    }
    return bce.output();
}

}  // namespace bitwave
