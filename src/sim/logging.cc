#include "sim/logging.hh"

#include <cctype>
#include <cerrno>
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

bool
envPositiveInt(const char *name, std::uint64_t &value)
{
    const char *env = std::getenv(name);
    if (env == nullptr)
        return false;
    char *end = nullptr;
    errno = 0;
    unsigned long long v = std::strtoull(env, &end, 10);
    if (std::isdigit(static_cast<unsigned char>(env[0])) &&
        *end == '\0' && errno == 0 && v >= 1) {
        value = v;
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
