// Fixture: common/rng.* is synthesis too, and is the seam the
// determinism rule exempts; the libm rule still fires here.
#include <cmath>

inline double gain(double g)
{
    return std::exp(g);  // line 7
}
