/**
 * @file
 * Tiny argv helpers shared by the bench and example binaries.
 */

#ifndef ASR_COMMON_CLI_HH
#define ASR_COMMON_CLI_HH

#include <cstdint>
#include <cstdio>
#include <cstdlib>

namespace asr {

// Strict positive-integer argv parser: rejects junk and negative
// values instead of letting atoi wrap them into huge unsigneds.
inline unsigned
parseCountArg(const char *arg, const char *what, unsigned max)
{
    char *end = nullptr;
    const unsigned long v = std::strtoul(arg, &end, 10);
    if (arg[0] == '\0' || arg[0] == '-' || *end != '\0' || v == 0
        || v > max) {
        std::fprintf(stderr, "invalid %s '%s' (want 1..%u)\n", what,
                     arg, max);
        std::exit(EXIT_FAILURE);
    }
    return unsigned(v);
}

// Strict TCP port parser: decimal digits only, 0..65535 (0 asks for
// an ephemeral port).  Rejects junk ("80x8", "abc", "", " 80", "+80")
// and anything past 65535 -- including values that would wrap
// through a narrowing cast -- instead of binding a port the caller
// never asked for.
inline std::uint16_t
parsePortArg(const char *arg)
{
    std::uint32_t v = 0;
    const char *p = arg;
    for (; *p >= '0' && *p <= '9' && v <= 65535; ++p)
        v = v * 10 + std::uint32_t(*p - '0');
    if (p == arg || *p != '\0' || v > 65535) {
        std::fprintf(stderr, "invalid port '%s' (want 0..65535)\n",
                     arg);
        std::exit(EXIT_FAILURE);
    }
    return std::uint16_t(v);
}

} // namespace asr

#endif // ASR_COMMON_CLI_HH
