#include "sim/logging.hh"

#include <charconv>
#include <cmath>
#include <cstdarg>
#include <cstdlib>
#include <vector>

namespace ccnuma
{
namespace logging_detail
{

std::string
format(const char *fmt, ...)
{
    std::va_list ap;
    va_start(ap, fmt);
    std::va_list ap2;
    va_copy(ap2, ap);
    int n = std::vsnprintf(nullptr, 0, fmt, ap);
    va_end(ap);
    if (n < 0) {
        va_end(ap2);
        return std::string(fmt);
    }
    std::vector<char> buf(static_cast<size_t>(n) + 1);
    std::vsnprintf(buf.data(), buf.size(), fmt, ap2);
    va_end(ap2);
    return std::string(buf.data(), static_cast<size_t>(n));
}

} // namespace logging_detail

std::optional<std::uint64_t>
parseDecimal(std::string_view text, std::uint64_t lo, std::uint64_t hi)
{
    // from_chars takes no sign, blank or base prefix for an unsigned
    // type and reports overflow instead of wrapping.
    std::uint64_t v = 0;
    const char *end = text.data() + text.size();
    auto [ptr, ec] = std::from_chars(text.data(), end, v);
    if (ec != std::errc() || ptr != end || v < lo || v > hi)
        return std::nullopt;
    return v;
}

std::optional<double>
parsePositiveReal(std::string_view text)
{
    // from_chars takes no blank or '+'; a leading '-' parses but
    // fails the > 0 check, as "inf" and "nan" fail isfinite.
    double v = 0.0;
    const char *end = text.data() + text.size();
    auto [ptr, ec] = std::from_chars(text.data(), end, v);
    if (ec != std::errc() || ptr != end || !std::isfinite(v) || v <= 0.0)
        return std::nullopt;
    return v;
}

bool
envPositiveInt(const char *name, std::uint64_t &value)
{
    const char *env = std::getenv(name);
    if (env == nullptr)
        return false;
    if (auto v = parseDecimal(env, 1)) {
        value = *v;
        return true;
    }
    warn("%s=%s not recognized (use a positive integer); it stays "
         "%llu", name, env, (unsigned long long)value);
    return false;
}

const std::uint64_t tracedLine = [] {
    const char *env = std::getenv("CCNUMA_TRACE_LINE");
    return env ? std::strtoull(env, nullptr, 16) : 0ull;
}();

} // namespace ccnuma
