// JsonReader / JsonValue: strict-subset acceptance, number identity,
// escape handling, and the three robustness properties the serve
// protocol depends on:
//   (1) round-trip — anything the JsonWriter emits parses back equal,
//       and parse → dump → parse is a fixpoint (doubles keep their
//       source lexeme);
//   (2) truncation — every strict prefix of a document either parses or
//       errors cleanly, never crashes or hangs;
//   (3) depth bomb — nesting beyond kMaxNestingDepth is an error, not a
//       stack overflow.
#include "support/json_reader.hpp"

#include "support/json.hpp"

#include <gtest/gtest.h>

#include <cstdint>
#include <string>

namespace svlc::test {
namespace {

JsonValue parse_ok(const std::string& text) {
    JsonValue v;
    std::string error;
    EXPECT_TRUE(JsonReader::parse(text, v, error)) << text << ": " << error;
    return v;
}

std::string parse_err(const std::string& text) {
    JsonValue v;
    std::string error;
    EXPECT_FALSE(JsonReader::parse(text, v, error)) << text;
    EXPECT_FALSE(error.empty()) << text;
    return error;
}

TEST(JsonReader, Scalars) {
    EXPECT_TRUE(parse_ok("null").is_null());
    EXPECT_EQ(parse_ok("true").bool_val(), true);
    EXPECT_EQ(parse_ok("false").bool_val(), false);
    EXPECT_EQ(parse_ok("42").int_val(), 42);
    EXPECT_EQ(parse_ok("-7").int_val(), -7);
    EXPECT_EQ(parse_ok("\"hi\"").str(), "hi");
    EXPECT_DOUBLE_EQ(parse_ok("2.5").double_val(), 2.5);
    EXPECT_DOUBLE_EQ(parse_ok("1e3").double_val(), 1000.0);
}

TEST(JsonReader, NumberIdentity) {
    // Integral lexemes keep their integer kind; "1" and "1.0" are
    // different values under operator== (integer identity matters for
    // byte-stable re-emission).
    EXPECT_EQ(parse_ok("1").kind(), JsonValue::Kind::Int);
    EXPECT_EQ(parse_ok("1.0").kind(), JsonValue::Kind::Double);
    EXPECT_FALSE(parse_ok("1") == parse_ok("1.0"));

    // Above int64 max → UInt, still exact.
    JsonValue big = parse_ok("18446744073709551615");
    EXPECT_EQ(big.kind(), JsonValue::Kind::UInt);
    EXPECT_EQ(big.uint_val(), UINT64_MAX);
    // Int and UInt cross-compare by numeric value.
    EXPECT_TRUE(parse_ok("7") == JsonValue(uint64_t{7}));

    // Beyond uint64 range degrades to double instead of erroring.
    EXPECT_EQ(parse_ok("18446744073709551616").kind(),
              JsonValue::Kind::Double);
}

TEST(JsonReader, StrictNumbers) {
    parse_err("01");    // leading zero
    parse_err("1.");    // bare decimal point
    parse_err(".5");    // missing integer part
    parse_err("+1");    // explicit plus
    parse_err("1e");    // empty exponent
    parse_err("- 1");   // space inside number
    parse_err("0x10");  // no hex
    parse_err("NaN");
    parse_err("Infinity");
}

TEST(JsonReader, Strings) {
    EXPECT_EQ(parse_ok(R"("a\nb\t\"\\")").str(), "a\nb\t\"\\");
    EXPECT_EQ(parse_ok(R"("A")").str(), "A");
    // Surrogate pair → 4-byte UTF-8.
    EXPECT_EQ(parse_ok(R"("😀")").str(), "\xF0\x9F\x98\x80");
    parse_err(R"("\uD83D")");     // lone high surrogate
    parse_err(R"("\uDE00")");     // lone low surrogate
    parse_err("\"raw\ncontrol\""); // unescaped control char
    parse_err("\"\xFF\"");         // invalid UTF-8
    parse_err("\"unterminated");
}

TEST(JsonReader, Containers) {
    JsonValue arr = parse_ok("[1, [2, 3], {\"k\": 4}]");
    ASSERT_EQ(arr.size(), 3u);
    EXPECT_EQ(arr.items()[1].items()[1].int_val(), 3);
    EXPECT_EQ(arr.items()[2].get_uint("k"), 4u);

    parse_err("[1,]");       // trailing comma
    parse_err("{\"a\":1,}"); // trailing comma
    parse_err("[1 2]");      // missing comma
    parse_err("{'a':1}");    // single quotes
    parse_err("[1] x");      // trailing content
    parse_err("");           // empty document
}

TEST(JsonReader, DuplicateKeysLastWins) {
    JsonValue v = parse_ok(R"({"a": 1, "a": 2})");
    ASSERT_NE(v.find("a"), nullptr);
    EXPECT_EQ(v.find("a")->int_val(), 2);
    EXPECT_EQ(v.members().size(), 2u); // order preserved, nothing dropped
}

TEST(JsonReader, DepthBombErrorsNotCrash) {
    // Exactly at the cap: fine.
    std::string ok;
    for (int i = 0; i < JsonReader::kMaxNestingDepth; ++i)
        ok += '[';
    std::string ok_close(static_cast<size_t>(JsonReader::kMaxNestingDepth),
                         ']');
    parse_ok(ok + ok_close);

    // One past the cap: clean error.
    parse_err(ok + "[" + ok_close + "]");

    // A megabyte of '[' must error quickly, not smash the stack.
    parse_err(std::string(1 << 20, '['));
    // Same for objects.
    std::string objs;
    for (int i = 0; i < 100000; ++i)
        objs += "{\"a\":";
    parse_err(objs);
}

// --- round-trip properties -------------------------------------------------

/// Deterministic xorshift so failures reproduce.
struct Rng {
    uint64_t s = 0x9E3779B97F4A7C15ull;
    uint64_t next() {
        s ^= s << 13;
        s ^= s >> 7;
        s ^= s << 17;
        return s;
    }
    uint64_t below(uint64_t n) { return next() % n; }
};

JsonValue random_value(Rng& rng, int depth) {
    switch (depth > 4 ? rng.below(6) : rng.below(8)) {
    case 0: return JsonValue();
    case 1: return JsonValue(rng.below(2) == 0);
    case 2: return JsonValue(static_cast<int64_t>(rng.next()));
    case 3: return JsonValue(rng.next());
    case 4:
        return JsonValue(static_cast<double>(rng.next() % 100000) / 256.0);
    case 5: {
        std::string s;
        size_t len = rng.below(12);
        for (size_t i = 0; i < len; ++i) {
            // Mix printable ASCII with characters that require escaping
            // and multi-byte UTF-8.
            switch (rng.below(5)) {
            case 0: s += static_cast<char>('a' + rng.below(26)); break;
            case 1: s += '"'; break;
            case 2: s += '\\'; break;
            case 3: s += '\n'; break;
            default: s += "\xC3\xA9"; break; // é
            }
        }
        return JsonValue(std::move(s));
    }
    case 6: {
        JsonValue arr = JsonValue::array();
        size_t n = rng.below(4);
        for (size_t i = 0; i < n; ++i)
            arr.push_back(random_value(rng, depth + 1));
        return arr;
    }
    default: {
        JsonValue obj = JsonValue::object();
        size_t n = rng.below(4);
        for (size_t i = 0; i < n; ++i)
            obj.set('k' + std::to_string(i), random_value(rng, depth + 1));
        return obj;
    }
    }
}

TEST(JsonReaderProperty, DumpParseRoundTrip) {
    Rng rng;
    for (int iter = 0; iter < 300; ++iter) {
        JsonValue v = random_value(rng, 0);
        for (int indent : {0, 2}) {
            std::string text = v.dump(indent);
            JsonValue back;
            std::string error;
            ASSERT_TRUE(JsonReader::parse(text, back, error))
                << text << ": " << error;
            EXPECT_TRUE(v == back) << text;
            // parse → dump is a fixpoint (doubles keep their lexeme).
            EXPECT_EQ(back.dump(indent), text);
        }
    }
}

TEST(JsonReaderProperty, WriterOutputParsesBack) {
    JsonWriter w(2);
    w.begin_object();
    w.kv("schema", "svlc-serve/v1");
    w.kv("count", uint64_t{18446744073709551615ull});
    w.kv("neg", int64_t{-42});
    w.kv("ratio", 0.125, 3);
    w.kv("text", "line1\nline2 \"quoted\" \x01 é");
    w.key("list").begin_array();
    w.value(true).value(false).null_value();
    w.end_array();
    w.end_object();

    JsonValue v;
    std::string error;
    ASSERT_TRUE(JsonReader::parse(w.str(), v, error)) << error;
    EXPECT_EQ(v.get_string("schema"), "svlc-serve/v1");
    EXPECT_EQ(v.get_uint("count"), UINT64_MAX);
    EXPECT_EQ(v.find("neg")->int_val(), -42);
    EXPECT_DOUBLE_EQ(v.find("ratio")->double_val(), 0.125);
    EXPECT_EQ(v.get_string("text"), "line1\nline2 \"quoted\" \x01 é");
    ASSERT_EQ(v.find("list")->size(), 3u);
    EXPECT_TRUE(v.find("list")->items()[2].is_null());
}

TEST(JsonReaderProperty, TruncationNeverCrashes) {
    Rng rng;
    std::string docs[] = {
        parse_ok(R"({"a":[1,2.5,"x\n",{"b":null}],"c":true})").dump(),
        parse_ok(R"([18446744073709551615,-3,1e10,"😀"])").dump(),
        std::string(random_value(rng, 0).dump(2)),
    };
    for (const std::string& doc : docs) {
        for (size_t len = 0; len < doc.size(); ++len) {
            JsonValue v;
            std::string error;
            // Every prefix must return — usually an error, occasionally
            // a valid shorter document (e.g. "12" from "123"). Either
            // way: no crash, no hang, and errors carry a message.
            if (!JsonReader::parse(doc.substr(0, len), v, error)) {
                EXPECT_FALSE(error.empty());
            }
        }
    }
}

} // namespace
} // namespace svlc::test
