#include "common/bits.hpp"

namespace bitwave {

const char *
representation_name(Representation repr)
{
    return repr == Representation::kTwosComplement ? "2C" : "SM";
}

std::int8_t
from_sign_magnitude(std::uint8_t sm)
{
    const int magnitude = sm & 0x7Fu;
    const bool negative = (sm & 0x80u) != 0;
    return static_cast<std::int8_t>(negative ? -magnitude : magnitude);
}

std::string
to_binary_string(std::uint8_t word)
{
    std::string out(kWordBits, '0');
    for (int i = 0; i < kWordBits; ++i) {
        if (test_bit(word, kWordBits - 1 - i)) {
            out[i] = '1';
        }
    }
    return out;
}

}  // namespace bitwave
