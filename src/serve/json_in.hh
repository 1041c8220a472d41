/**
 * @file
 * Minimal JSON reader for the campaign service. The simulator's
 * report layer only ever emits JSON (report/json.hh); the service
 * also has to *accept* it — sweep specs over the job API and cached
 * results off disk — so this adds the missing direction: a small
 * recursive-descent parser into a plain DOM value. No dependencies,
 * no streaming, strict-enough: numbers, strings with the standard
 * escapes, bool/null, arrays, objects (insertion order preserved).
 */

#ifndef CCNUMA_SERVE_JSON_IN_HH
#define CCNUMA_SERVE_JSON_IN_HH

#include <cstdint>
#include <memory>
#include <stdexcept>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

namespace ccnuma
{
namespace serve
{

/** Thrown on malformed JSON input (message includes the offset). */
class JsonError : public std::runtime_error
{
  public:
    explicit JsonError(const std::string &what)
        : std::runtime_error(what)
    {}
};

/** A parsed JSON value. */
class JsonValue
{
  public:
    enum class Type
    {
        Null,
        Bool,
        Number,
        String,
        Array,
        Object,
    };

    Type type = Type::Null;
    bool boolean = false;
    double number = 0.0;
    std::string str;
    std::vector<JsonValue> arr;
    /** Object members in input order. */
    std::vector<std::pair<std::string, JsonValue>> members;

    bool isNull() const { return type == Type::Null; }
    bool isBool() const { return type == Type::Bool; }
    bool isNumber() const { return type == Type::Number; }
    bool isString() const { return type == Type::String; }
    bool isArray() const { return type == Type::Array; }
    bool isObject() const { return type == Type::Object; }

    /** Object member lookup; null if absent or not an object. */
    const JsonValue *
    get(std::string_view key) const
    {
        if (type != Type::Object)
            return nullptr;
        for (const auto &[k, v] : members) {
            if (k == key)
                return &v;
        }
        return nullptr;
    }

    /**
     * Typed accessors; throw JsonError on a type mismatch. The
     * integer accessors also throw on a fractional or non-finite
     * number and on one outside their range: asU64 [0, 2^64),
     * asU32 [0, 2^32), asI64 [-2^63, 2^63).
     */
    bool asBool() const;
    double asDouble() const;
    std::uint64_t asU64() const;
    unsigned asU32() const;
    std::int64_t asI64() const;
    const std::string &asString() const;

    /** Member with a default when absent (throws on wrong type). */
    double getDouble(std::string_view key, double def) const;
    std::uint64_t getU64(std::string_view key,
                         std::uint64_t def) const;
    unsigned getU32(std::string_view key, unsigned def) const;
    std::int64_t getI64(std::string_view key, std::int64_t def) const;
    bool getBool(std::string_view key, bool def) const;
    std::string getString(std::string_view key,
                          const std::string &def) const;
};

/** Deepest nesting of arrays and objects that parseJson accepts. */
inline constexpr unsigned maxJsonDepth = 64;

/**
 * Parse @p text as one JSON document (trailing whitespace allowed,
 * trailing garbage rejected). Throws JsonError on malformed input,
 * including arrays and objects nested deeper than maxJsonDepth.
 */
JsonValue parseJson(std::string_view text);

} // namespace serve
} // namespace ccnuma

#endif // CCNUMA_SERVE_JSON_IN_HH
