// Fixture: the libm rule covers weight synthesis only; the model may
// call libm.
#include <cmath>

double starvation(double positions, double tokens)
{
    return std::pow(positions / tokens, 0.5);
}
