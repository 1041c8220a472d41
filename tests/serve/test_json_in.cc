/**
 * @file
 * The hand-rolled JSON reader that backs the job API: documents,
 * escapes, numbers, error positions, and the typed accessors the
 * campaign parser leans on.
 */

#include <gtest/gtest.h>

#include <string>
#include <thread>

#include "serve/json_in.hh"

using namespace ccnuma::serve;

namespace
{

TEST(JsonIn, ParsesScalarsAndContainers)
{
    JsonValue v = parseJson(
        " { \"a\": 1, \"b\": [true, false, null], "
        "\"c\": {\"d\": \"x\"}, \"e\": -2.5e2 } ");
    ASSERT_TRUE(v.isObject());
    EXPECT_EQ(v.getU64("a", 0), 1u);
    const JsonValue *b = v.get("b");
    ASSERT_TRUE(b && b->isArray());
    ASSERT_EQ(b->arr.size(), 3u);
    EXPECT_TRUE(b->arr[0].asBool());
    EXPECT_FALSE(b->arr[1].asBool());
    EXPECT_TRUE(b->arr[2].isNull());
    const JsonValue *c = v.get("c");
    ASSERT_TRUE(c && c->isObject());
    EXPECT_EQ(c->getString("d", ""), "x");
    EXPECT_DOUBLE_EQ(v.getDouble("e", 0.0), -250.0);
}

TEST(JsonIn, StringEscapes)
{
    JsonValue v = parseJson(
        "{\"s\": \"q\\\"b\\\\s\\/n\\nt\\tu\\u0041\\u00e9\"}");
    EXPECT_EQ(v.getString("s", ""),
              "q\"b\\s/n\nt\tuA\xc3\xa9");
}

TEST(JsonIn, RejectsMalformedDocuments)
{
    EXPECT_THROW(parseJson(""), JsonError);
    EXPECT_THROW(parseJson("{"), JsonError);
    EXPECT_THROW(parseJson("{\"a\": }"), JsonError);
    EXPECT_THROW(parseJson("[1,]"), JsonError);
    EXPECT_THROW(parseJson("tru"), JsonError);
    EXPECT_THROW(parseJson("\"unterminated"), JsonError);
    // A valid value followed by trailing garbage is still an error.
    EXPECT_THROW(parseJson("{} x"), JsonError);
    EXPECT_THROW(parseJson("1 2"), JsonError);
}

TEST(JsonIn, U64RejectsOutOfRangeNumbers)
{
    // Casting these doubles to uint64_t is undefined behaviour.
    for (const char *n : {"1e30", "18446744073709551616", "1e400",
                          "-1e400"}) {
        SCOPED_TRACE(n);
        EXPECT_THROW(parseJson(std::string("{\"n\": ") + n + "}")
                         .getU64("n", 0),
                     JsonError);
    }
    // The largest double below 2^64 still reads exactly.
    EXPECT_EQ(parseJson("{\"n\": 18446744073709549568}").getU64("n", 0),
              18446744073709549568ull);
}

TEST(JsonIn, RejectsDeepNesting)
{
    auto nest = [](unsigned depth, char open, const std::string &mid,
                   char close) {
        return std::string(depth, open) + mid + std::string(depth, close);
    };
    EXPECT_NO_THROW(parseJson(nest(maxJsonDepth, '[', "", ']')));
    EXPECT_NO_THROW(
        parseJson(nest(maxJsonDepth - 1, '[', "{\"a\": 1}", ']')));
    EXPECT_THROW(parseJson(nest(maxJsonDepth + 1, '[', "", ']')),
                 JsonError);
    EXPECT_THROW(parseJson(nest(maxJsonDepth, '[', "{\"a\": 1}", ']')),
                 JsonError);
    // 100 KB of '[' fits under the daemon's body limit, and parsed
    // without a depth cap on a std::thread, as the daemon parses
    // request bodies, it overflows the stack. It must be a clean
    // JsonError, and so must its unterminated prefix.
    const std::string deep(100000, '[');
    bool threw = false;
    std::thread t([&] {
        try {
            parseJson(deep + std::string(deep.size(), ']'));
        } catch (const JsonError &) {
            threw = true;
        }
    });
    t.join();
    EXPECT_TRUE(threw);
    EXPECT_THROW(parseJson(deep), JsonError);
}

TEST(JsonIn, TypedAccessorsEnforceTypes)
{
    JsonValue v = parseJson("{\"n\": 3, \"s\": \"x\"}");
    EXPECT_THROW(v.get("s")->asDouble(), JsonError);
    EXPECT_THROW(v.get("n")->asString(), JsonError);
    EXPECT_THROW(v.get("n")->asBool(), JsonError);
    // Defaults apply only when the key is absent, not on a type
    // mismatch — a mistyped field must not silently disappear.
    EXPECT_EQ(v.getU64("missing", 7), 7u);
    EXPECT_THROW(v.getU64("s", 7), JsonError);
}

TEST(JsonIn, NegativeNumberIsNotU64)
{
    JsonValue v = parseJson("{\"n\": -1}");
    EXPECT_THROW(v.getU64("n", 0), JsonError);
}

TEST(JsonIn, ObjectOrderIsPreserved)
{
    JsonValue v = parseJson("{\"z\": 1, \"a\": 2, \"m\": 3}");
    ASSERT_EQ(v.members.size(), 3u);
    EXPECT_EQ(v.members[0].first, "z");
    EXPECT_EQ(v.members[1].first, "a");
    EXPECT_EQ(v.members[2].first, "m");
}

} // namespace
