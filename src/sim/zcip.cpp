#include "sim/zcip.hpp"

#include "common/bits.hpp"

namespace bitwave {

ZcipDecode
ZeroColumnIndexParser::parse(std::uint8_t index) const
{
    ZcipDecode out;
    out.sign_request = test_bit(index, 7);
    for (int b = 0; b < kMagnitudeBits; ++b) {
        if (test_bit(index, b)) {
            out.shifts.push_back(b);
        }
    }
    out.nonzero_columns =
        static_cast<int>(out.shifts.size()) + (out.sign_request ? 1 : 0);
    return out;
}

}  // namespace bitwave
