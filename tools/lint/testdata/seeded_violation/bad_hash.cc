// Seeded-violation fixture: std::hash is implementation-defined, so a
// seed keyed with it differs between standard libraries (libstdc++
// and libc++ hash the same name to different values). R1 must keep
// failing on it. Never "fix" this file.

#include <cstdint>
#include <functional>
#include <string>

std::uint64_t
libraryDefinedSeed(const std::string &name)
{
    // R1: implementation-defined hash.
    return 99 ^ std::hash<std::string>{}(name);
}
