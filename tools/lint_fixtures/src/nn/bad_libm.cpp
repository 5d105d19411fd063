// Fixture: libm transcendentals in weight synthesis must fire.
#include <cmath>

double draw(double t, double g)
{
    double x = -std::log(t);                      // line 6
    x *= exp(g);                                  // line 7
    x += ::pow(t, 2.0) + std::expm1(g);           // line 8
    return x + std::log1p(t) + tanhf(static_cast<float>(g));  // line 9
}
