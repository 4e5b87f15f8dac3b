// Tests for osprey/json: parsing, serialization, round-trips, error cases.
#include <gtest/gtest.h>

#include "osprey/json/json.h"

namespace osprey::json {
namespace {

TEST(JsonValueTest, TypesAndAccessors) {
  EXPECT_TRUE(Value().is_null());
  EXPECT_TRUE(Value(true).is_bool());
  EXPECT_TRUE(Value(7).is_int());
  EXPECT_TRUE(Value(3.5).is_double());
  EXPECT_TRUE(Value("hi").is_string());
  EXPECT_TRUE(Value(Array{}).is_array());
  EXPECT_TRUE(Value(Object{}).is_object());

  EXPECT_EQ(Value(7).as_int(), 7);
  EXPECT_DOUBLE_EQ(Value(7).as_double(), 7.0);  // int widens
  EXPECT_EQ(Value(3.9).as_int(), 3);            // double truncates
  EXPECT_EQ(Value("hi").as_string(), "hi");
}

TEST(JsonValueTest, ObjectIndexing) {
  Value v;
  v["a"] = Value(1);
  v["b"]["nested"] = Value("x");  // null -> object promotion
  const Value& cv = v;            // const access must not insert keys
  EXPECT_EQ(cv["a"].as_int(), 1);
  EXPECT_EQ(cv["b"]["nested"].as_string(), "x");
  EXPECT_TRUE(cv["missing"].is_null());
  EXPECT_TRUE(cv.contains("a"));
  EXPECT_FALSE(cv.contains("missing"));
}

TEST(JsonDumpTest, CompactOutput) {
  Value v;
  v["sample"] = array_of({1.0, 2.5});
  v["type"] = Value("work");
  v["eq_task_id"] = Value(42);
  EXPECT_EQ(v.dump(), R"({"eq_task_id":42,"sample":[1,2.5],"type":"work"})");
}

TEST(JsonDumpTest, StringEscapes) {
  Value v(std::string("a\"b\\c\n\t\x01"));
  EXPECT_EQ(v.dump(), "\"a\\\"b\\\\c\\n\\t\\u0001\"");
}

TEST(JsonDumpTest, PrettyHasNewlines) {
  Value v;
  v["a"] = Value(1);
  std::string pretty = v.dump_pretty();
  EXPECT_NE(pretty.find('\n'), std::string::npos);
  EXPECT_NE(pretty.find("\"a\": 1"), std::string::npos);
}

TEST(JsonParseTest, Scalars) {
  EXPECT_TRUE(parse("null").value().is_null());
  EXPECT_EQ(parse("true").value().as_bool(), true);
  EXPECT_EQ(parse("false").value().as_bool(), false);
  EXPECT_EQ(parse("42").value().as_int(), 42);
  EXPECT_EQ(parse("-17").value().as_int(), -17);
  EXPECT_DOUBLE_EQ(parse("3.25").value().as_double(), 3.25);
  EXPECT_DOUBLE_EQ(parse("1e3").value().as_double(), 1000.0);
  EXPECT_DOUBLE_EQ(parse("-2.5e-2").value().as_double(), -0.025);
  EXPECT_EQ(parse("\"hi\"").value().as_string(), "hi");
}

TEST(JsonParseTest, TaskPayloadShape) {
  // The exact dictionary shape of the paper's query_task response (§IV-C).
  auto r = parse(R"({"type": "work", "eq_task_id": 7, "payload": "[1,2]"})");
  ASSERT_TRUE(r.ok());
  const Value& v = r.value();
  EXPECT_EQ(v["type"].as_string(), "work");
  EXPECT_EQ(v["eq_task_id"].as_int(), 7);
  EXPECT_EQ(v["payload"].as_string(), "[1,2]");
}

TEST(JsonParseTest, NestedStructures) {
  auto r = parse(R"([{"a":[1,2,[3]]},{},[],null])");
  ASSERT_TRUE(r.ok());
  EXPECT_EQ(r.value().size(), 4u);
  const Value& doc = r.value();
  EXPECT_EQ(doc[0]["a"][2][0].as_int(), 3);
}

TEST(JsonParseTest, UnicodeEscapes) {
  auto r = parse(R"("Aé中😀")");
  ASSERT_TRUE(r.ok());
  EXPECT_EQ(r.value().as_string(), "A\xC3\xA9\xE4\xB8\xAD\xF0\x9F\x98\x80");
}

TEST(JsonParseTest, WhitespaceTolerant) {
  auto r = parse(" \n\t{ \"a\" :\t1 , \"b\" : [ ] } \r\n");
  ASSERT_TRUE(r.ok());
  EXPECT_EQ(r.value()["a"].as_int(), 1);
}

TEST(JsonParseTest, RoundTripPreservesValue) {
  const std::string doc =
      R"({"exp":"exp1","pri":-3,"xs":[0.125,2e10,-7],"flag":true,"note":null})";
  Value v1 = parse(doc).value();
  Value v2 = parse(v1.dump()).value();
  EXPECT_EQ(v1, v2);
}

TEST(JsonParseTest, DoubleRoundTripExact) {
  Value v(0.1 + 0.2);
  Value back = parse(v.dump()).value();
  EXPECT_DOUBLE_EQ(back.as_double(), 0.1 + 0.2);
}

struct BadCase {
  const char* name;
  const char* text;
};

// Print a case by name: gtest's default byte dump of the struct holds
// pointers, which would make the listed test names differ on every run.
void PrintTo(const BadCase& c, std::ostream* os) { *os << c.name; }

class JsonParseErrorTest : public ::testing::TestWithParam<BadCase> {};

TEST_P(JsonParseErrorTest, Rejects) {
  auto r = parse(GetParam().text);
  EXPECT_FALSE(r.ok()) << GetParam().text;
  if (!r.ok()) {
    EXPECT_EQ(r.error().code, ErrorCode::kInvalidArgument);
  }
}

INSTANTIATE_TEST_SUITE_P(
    Malformed, JsonParseErrorTest,
    ::testing::Values(
        BadCase{"empty", ""}, BadCase{"bare_word", "nope"},
        BadCase{"trailing", "1 2"}, BadCase{"unclosed_obj", "{\"a\":1"},
        BadCase{"unclosed_arr", "[1,2"}, BadCase{"bad_comma", "[1,]"},
        BadCase{"obj_no_colon", "{\"a\" 1}"},
        BadCase{"unquoted_key", "{a:1}"},
        BadCase{"single_quotes", "{'a':1}"},
        BadCase{"unterminated_str", "\"abc"},
        BadCase{"bad_escape", "\"\\x\""},
        BadCase{"bad_unicode", "\"\\u12g4\""},
        BadCase{"lone_surrogate", "\"\\ud800\""},
        BadCase{"leading_zero", "012"}, BadCase{"dot_no_digits", "1."},
        BadCase{"exp_no_digits", "1e"}, BadCase{"plus_number", "+1"}),
    [](const ::testing::TestParamInfo<BadCase>& info) {
      return info.param.name;
    });

TEST(JsonParseTest, DeepNestingRejected) {
  std::string deep(400, '[');
  deep += std::string(400, ']');
  EXPECT_FALSE(parse(deep).ok());
}

TEST(JsonHelpersTest, ToDoubles) {
  auto r = to_doubles(parse("[1, 2.5, -3]").value());
  ASSERT_TRUE(r.ok());
  EXPECT_EQ(r.value(), (std::vector<double>{1.0, 2.5, -3.0}));
  EXPECT_FALSE(to_doubles(parse("[1, \"x\"]").value()).ok());
  EXPECT_FALSE(to_doubles(Value("not array")).ok());
}

TEST(JsonHelpersTest, ArrayOfRoundTrip) {
  std::vector<double> xs{0.5, -1.25, 1e6};
  auto r = to_doubles(parse(array_of(xs).dump()).value());
  ASSERT_TRUE(r.ok());
  EXPECT_EQ(r.value(), xs);
}

}  // namespace
}  // namespace osprey::json
