// Fixture: the in-house functions, sqrt, member and other namespaces'
// functions of the same names stay silent; so do std::log(x) in a
// comment, "exp(x)" in a string and an allowed call.
#include <cmath>
#include <stdexcept>

double draw(double t, double g, Logger &logger)
{
    double x = -fdlibm_log(t) * fdlibm_exp(g) + std::sqrt(t);
    logger.log("exp(x)");
    x += stats::pow(t, 2) + logger->exp(g) + my_exp(g);
    if (x < 0) {
        throw std::logic_error("pow(x) < 0");
    }
    // bitwave-lint: allow(libm)
    return x + std::exp(g);
}
