#include "serve/json_in.hh"

#include <cctype>
#include <cmath>
#include <cstdlib>

namespace ccnuma
{
namespace serve
{

bool
JsonValue::asBool() const
{
    if (type != Type::Bool)
        throw JsonError("expected a boolean");
    return boolean;
}

double
JsonValue::asDouble() const
{
    if (type != Type::Number)
        throw JsonError("expected a number");
    return number;
}

namespace
{

/**
 * The integer @p v holds, checked to lie in [lo, hi) before any cast
 * (a float-to-integer cast of an out-of-range value is undefined
 * behaviour). @p lo and @p hi are powers of two or zero, so exact as
 * doubles; @p range names the bounds in the error.
 */
double
checkedInteger(const JsonValue &v, double lo, double hi,
               const char *range)
{
    if (v.type != JsonValue::Type::Number)
        throw JsonError("expected a number");
    if (!std::isfinite(v.number) || std::floor(v.number) != v.number)
        throw JsonError("expected an integer");
    if (v.number < lo || v.number >= hi)
        throw JsonError(std::string("integer out of range (") + range +
                        ")");
    return v.number;
}

} // namespace

std::uint64_t
JsonValue::asU64() const
{
    return static_cast<std::uint64_t>(
        checkedInteger(*this, 0.0, 18446744073709551616.0,
                       "0 to 2^64 - 1"));
}

unsigned
JsonValue::asU32() const
{
    return static_cast<unsigned>(
        checkedInteger(*this, 0.0, 4294967296.0, "0 to 2^32 - 1"));
}

std::int64_t
JsonValue::asI64() const
{
    return static_cast<std::int64_t>(
        checkedInteger(*this, -9223372036854775808.0,
                       9223372036854775808.0, "-2^63 to 2^63 - 1"));
}

const std::string &
JsonValue::asString() const
{
    if (type != Type::String)
        throw JsonError("expected a string");
    return str;
}

double
JsonValue::getDouble(std::string_view key, double def) const
{
    const JsonValue *v = get(key);
    return v ? v->asDouble() : def;
}

std::uint64_t
JsonValue::getU64(std::string_view key, std::uint64_t def) const
{
    const JsonValue *v = get(key);
    return v ? v->asU64() : def;
}

unsigned
JsonValue::getU32(std::string_view key, unsigned def) const
{
    const JsonValue *v = get(key);
    return v ? v->asU32() : def;
}

std::int64_t
JsonValue::getI64(std::string_view key, std::int64_t def) const
{
    const JsonValue *v = get(key);
    return v ? v->asI64() : def;
}

bool
JsonValue::getBool(std::string_view key, bool def) const
{
    const JsonValue *v = get(key);
    return v ? v->asBool() : def;
}

std::string
JsonValue::getString(std::string_view key,
                     const std::string &def) const
{
    const JsonValue *v = get(key);
    return v ? v->asString() : def;
}

namespace
{

class Parser
{
  public:
    explicit Parser(std::string_view text) : text_(text) {}

    JsonValue
    document()
    {
        JsonValue v = value();
        skipWs();
        if (pos_ != text_.size())
            fail("trailing garbage after JSON document");
        return v;
    }

  private:
    [[noreturn]] void
    fail(const std::string &msg)
    {
        throw JsonError("json: " + msg + " at offset " +
                        std::to_string(pos_));
    }

    void
    skipWs()
    {
        while (pos_ < text_.size() &&
               (text_[pos_] == ' ' || text_[pos_] == '\t' ||
                text_[pos_] == '\n' || text_[pos_] == '\r'))
            ++pos_;
    }

    char
    peek()
    {
        if (pos_ >= text_.size())
            fail("unexpected end of input");
        return text_[pos_];
    }

    void
    expect(char c)
    {
        if (pos_ >= text_.size() || text_[pos_] != c)
            fail(std::string("expected '") + c + "'");
        ++pos_;
    }

    bool
    consumeLiteral(std::string_view lit)
    {
        if (text_.substr(pos_, lit.size()) != lit)
            return false;
        pos_ += lit.size();
        return true;
    }

    JsonValue
    value()
    {
        skipWs();
        char c = peek();
        switch (c) {
          case '{': return nested(&Parser::object);
          case '[': return nested(&Parser::array);
          case '"': {
            JsonValue v;
            v.type = JsonValue::Type::String;
            v.str = string();
            return v;
          }
          case 't': {
            if (!consumeLiteral("true"))
                fail("bad literal");
            JsonValue v;
            v.type = JsonValue::Type::Bool;
            v.boolean = true;
            return v;
          }
          case 'f': {
            if (!consumeLiteral("false"))
                fail("bad literal");
            JsonValue v;
            v.type = JsonValue::Type::Bool;
            v.boolean = false;
            return v;
          }
          case 'n': {
            if (!consumeLiteral("null"))
                fail("bad literal");
            return JsonValue{};
          }
          default: return numberValue();
        }
    }

    /**
     * Parse one array or object level. The parser recurses once per
     * level, so without a cap a 100 KB run of '[' overflows a
     * thread's stack.
     */
    JsonValue
    nested(JsonValue (Parser::*level)())
    {
        if (depth_ == maxJsonDepth)
            fail("nested deeper than " + std::to_string(maxJsonDepth) +
                 " levels");
        ++depth_;
        JsonValue v = (this->*level)();
        --depth_;
        return v;
    }

    JsonValue
    object()
    {
        expect('{');
        JsonValue v;
        v.type = JsonValue::Type::Object;
        skipWs();
        if (peek() == '}') {
            ++pos_;
            return v;
        }
        while (true) {
            skipWs();
            std::string key = string();
            skipWs();
            expect(':');
            v.members.emplace_back(std::move(key), value());
            skipWs();
            char c = peek();
            if (c == ',') {
                ++pos_;
                continue;
            }
            if (c == '}') {
                ++pos_;
                return v;
            }
            fail("expected ',' or '}' in object");
        }
    }

    JsonValue
    array()
    {
        expect('[');
        JsonValue v;
        v.type = JsonValue::Type::Array;
        skipWs();
        if (peek() == ']') {
            ++pos_;
            return v;
        }
        while (true) {
            v.arr.push_back(value());
            skipWs();
            char c = peek();
            if (c == ',') {
                ++pos_;
                continue;
            }
            if (c == ']') {
                ++pos_;
                return v;
            }
            fail("expected ',' or ']' in array");
        }
    }

    std::string
    string()
    {
        expect('"');
        std::string out;
        while (true) {
            if (pos_ >= text_.size())
                fail("unterminated string");
            char c = text_[pos_++];
            if (c == '"')
                return out;
            if (c != '\\') {
                out += c;
                continue;
            }
            if (pos_ >= text_.size())
                fail("unterminated escape");
            char e = text_[pos_++];
            switch (e) {
              case '"': out += '"'; break;
              case '\\': out += '\\'; break;
              case '/': out += '/'; break;
              case 'b': out += '\b'; break;
              case 'f': out += '\f'; break;
              case 'n': out += '\n'; break;
              case 'r': out += '\r'; break;
              case 't': out += '\t'; break;
              case 'u': {
                if (pos_ + 4 > text_.size())
                    fail("truncated \\u escape");
                unsigned cp = 0;
                for (int i = 0; i < 4; ++i) {
                    char h = text_[pos_++];
                    cp <<= 4;
                    if (h >= '0' && h <= '9')
                        cp |= unsigned(h - '0');
                    else if (h >= 'a' && h <= 'f')
                        cp |= unsigned(h - 'a' + 10);
                    else if (h >= 'A' && h <= 'F')
                        cp |= unsigned(h - 'A' + 10);
                    else
                        fail("bad hex digit in \\u escape");
                }
                // UTF-8 encode the BMP code point (surrogate pairs
                // are passed through as two 3-byte sequences; the
                // service never emits them, this is input hygiene).
                if (cp < 0x80) {
                    out += char(cp);
                } else if (cp < 0x800) {
                    out += char(0xc0 | (cp >> 6));
                    out += char(0x80 | (cp & 0x3f));
                } else {
                    out += char(0xe0 | (cp >> 12));
                    out += char(0x80 | ((cp >> 6) & 0x3f));
                    out += char(0x80 | (cp & 0x3f));
                }
                break;
              }
              default: fail("unknown escape");
            }
        }
    }

    JsonValue
    numberValue()
    {
        std::size_t start = pos_;
        if (pos_ < text_.size() && text_[pos_] == '-')
            ++pos_;
        while (pos_ < text_.size() &&
               (std::isdigit(static_cast<unsigned char>(
                    text_[pos_])) ||
                text_[pos_] == '.' || text_[pos_] == 'e' ||
                text_[pos_] == 'E' || text_[pos_] == '+' ||
                text_[pos_] == '-'))
            ++pos_;
        if (pos_ == start)
            fail("expected a value");
        std::string tok(text_.substr(start, pos_ - start));
        char *end = nullptr;
        double d = std::strtod(tok.c_str(), &end);
        if (end != tok.c_str() + tok.size())
            fail("malformed number '" + tok + "'");
        JsonValue v;
        v.type = JsonValue::Type::Number;
        v.number = d;
        return v;
    }

    std::string_view text_;
    std::size_t pos_ = 0;
    /** Arrays and objects open around the current position. */
    unsigned depth_ = 0;
};

} // namespace

JsonValue
parseJson(std::string_view text)
{
    return Parser(text).document();
}

} // namespace serve
} // namespace ccnuma
