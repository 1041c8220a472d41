/**
 * @file
 * Error and status reporting, following the gem5 fatal/panic distinction:
 * panic() flags a simulator bug and aborts; fatal() flags a user error
 * (bad configuration) and exits cleanly; warn()/inform() report status.
 */

#ifndef CCNUMA_SIM_LOGGING_HH
#define CCNUMA_SIM_LOGGING_HH

#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <limits>
#include <optional>
#include <stdexcept>
#include <string>
#include <string_view>

namespace ccnuma
{

/** Thrown by panic(); tests can catch it instead of aborting. */
struct PanicError : std::logic_error
{
    using std::logic_error::logic_error;
};

/** Thrown by fatal(); indicates a configuration/user error. */
struct FatalError : std::runtime_error
{
    using std::runtime_error::runtime_error;
};

namespace logging_detail
{
std::string format(const char *fmt, ...)
    __attribute__((format(printf, 1, 2)));
} // namespace logging_detail

/**
 * Report an internal simulator bug. Never returns.
 * @throws PanicError always.
 */
template <typename... Args>
[[noreturn]] void
panic(const char *fmt, Args... args)
{
    throw PanicError("panic: " + logging_detail::format(fmt, args...));
}

/**
 * Report an unrecoverable user/configuration error. Never returns.
 * @throws FatalError always.
 */
template <typename... Args>
[[noreturn]] void
fatal(const char *fmt, Args... args)
{
    throw FatalError("fatal: " + logging_detail::format(fmt, args...));
}

/** Warn about suspicious but survivable conditions. */
template <typename... Args>
void
warn(const char *fmt, Args... args)
{
    std::fprintf(stderr, "warn: %s\n",
                 logging_detail::format(fmt, args...).c_str());
}

/** Print a normal informational status message. */
template <typename... Args>
void
inform(const char *fmt, Args... args)
{
    std::fprintf(stdout, "info: %s\n",
                 logging_detail::format(fmt, args...).c_str());
}

/**
 * Parse @p text as a plain decimal integer in [@p lo, @p hi]. Digits
 * only: a sign, blank, suffix or empty string is rejected, and so is
 * a value outside the range. The one checked parser behind every
 * numeric environment knob and command-line flag.
 * @return the value, or nullopt when rejected
 */
std::optional<std::uint64_t>
parseDecimal(std::string_view text, std::uint64_t lo = 0,
             std::uint64_t hi = std::numeric_limits<std::uint64_t>::max());

/**
 * Parse @p text as a finite number above zero ("0.25", "1e-2"); a
 * sign, blank, suffix, "inf", "nan" or zero is rejected.
 * @return the value, or nullopt when rejected
 */
std::optional<double> parsePositiveReal(std::string_view text);

/**
 * Read the positive-integer environment knob @p name into @p value.
 * Only a plain decimal integer >= 1 is taken; anything else ("abc",
 * "0", "-5", "256M", "") is warned about and leaves @p value as it
 * was. @return true when the knob was set and taken.
 */
bool envPositiveInt(const char *name, std::uint64_t &value);

/**
 * The line address CCNUMA_TRACE_LINE names (hex), read once at
 * start-up; 0 when it is unset, which traces nothing.
 */
extern const std::uint64_t tracedLine;

/**
 * Line-granular protocol tracing: returns true when @p line_addr
 * matches the CCNUMA_TRACE_LINE environment variable (hex). Used by
 * protocol components to emit debug traces for one cache line.
 */
inline bool
traceLineEnabled(std::uint64_t line_addr)
{
    return tracedLine != 0 && tracedLine == line_addr;
}

/** Emit a trace record for a traced line. */
#define ccnuma_trace(line, ...)                                      \
    do {                                                             \
        if (::ccnuma::traceLineEnabled(line)) {                      \
            std::fprintf(stderr, "trace: %s\n",                      \
                         ::ccnuma::logging_detail::format(           \
                             __VA_ARGS__)                            \
                             .c_str());                              \
        }                                                            \
    } while (0)

/** panic() unless the condition holds. */
#define ccnuma_assert(cond, ...)                                         \
    do {                                                                 \
        if (!(cond)) {                                                   \
            ::ccnuma::panic("assertion '%s' failed at %s:%d",            \
                            #cond, __FILE__, __LINE__);                  \
        }                                                                \
    } while (0)

} // namespace ccnuma

#endif // CCNUMA_SIM_LOGGING_HH
