// Seeded-violation fixture: a seeded engine is not enough. The
// std::*_distribution adaptors turn engine words into variates by
// implementation-defined algorithms, so this draw differs between
// standard libraries even though the seed is fixed; R1 must keep
// failing on it. Never "fix" this file.

#include <random>

double
libraryDefinedDraw()
{
    std::mt19937_64 engine(42);
    // R1: implementation-defined distribution.
    std::normal_distribution<double> gauss(0.0, 1.0);
    return gauss(engine);
}
