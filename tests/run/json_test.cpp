#include "run/json.hpp"

#include <gtest/gtest.h>

#include <cmath>
#include <cstdint>
#include <functional>
#include <string>

namespace cohesion::run {
namespace {

TEST(Json, ParsesScalars) {
  EXPECT_TRUE(Json::parse("null").is_null());
  EXPECT_EQ(Json::parse("true").as_bool(), true);
  EXPECT_EQ(Json::parse("false").as_bool(), false);
  EXPECT_DOUBLE_EQ(Json::parse("-2.5e3").as_double(), -2500.0);
  EXPECT_EQ(Json::parse("\"hi\\nthere\"").as_string(), "hi\nthere");
}

TEST(Json, IntegerFidelityAt64Bits) {
  // Above 2^53: a double would corrupt these — exactly the values derived
  // per-run seeds take.
  const std::uint64_t seed = 0xDEADBEEFCAFEF00Dull;
  Json j = Json::object();
  j.set("seed", seed);
  const Json back = Json::parse(j.dump());
  EXPECT_EQ(back.at("seed").as_uint(), seed);

  EXPECT_EQ(Json::parse("18446744073709551615").as_uint(), UINT64_MAX);
  EXPECT_EQ(Json::parse("-9223372036854775808").as_int(), INT64_MIN);
}

TEST(Json, DoublesRoundTripShortest) {
  for (const double d : {0.1, 1.0 / 3.0, 1e-300, 6.3, 0.030000000000000002}) {
    const Json back = Json::parse(Json(d).dump());
    EXPECT_EQ(back.as_double(), d) << Json(d).dump();
  }
  // Integral doubles keep their flavor visible.
  EXPECT_EQ(Json(2.0).dump(), "2.0");
}

TEST(Json, ObjectOrderIsPreserved) {
  const Json j = Json::parse(R"({"z": 1, "a": 2, "m": 3})");
  const JsonObject& o = j.entries();
  ASSERT_EQ(o.size(), 3u);
  EXPECT_EQ(o[0].first, "z");
  EXPECT_EQ(o[1].first, "a");
  EXPECT_EQ(o[2].first, "m");
  EXPECT_EQ(j.dump(), R"({"z":1,"a":2,"m":3})");
}

TEST(Json, NestedRoundTrip) {
  const std::string text =
      R"({"name":"e","base":{"n":12,"seed":9000,"xs":[1,2.5,"s",null,true]},"sweep":[]})";
  const Json j = Json::parse(text);
  EXPECT_EQ(j.dump(), text);
  EXPECT_EQ(Json::parse(j.dump(2)), j);  // pretty-printing re-parses equal
}

TEST(Json, RejectsMalformedInput) {
  EXPECT_THROW((void)Json::parse("{"), std::runtime_error);
  EXPECT_THROW((void)Json::parse("[1,]"), std::runtime_error);
  EXPECT_THROW((void)Json::parse("{\"a\":1 \"b\":2}"), std::runtime_error);
  EXPECT_THROW((void)Json::parse("12 34"), std::runtime_error);
  EXPECT_THROW((void)Json::parse("\"unterminated"), std::runtime_error);
  EXPECT_THROW((void)Json::parse("{\"a\":1,\"a\":2}"), std::runtime_error);  // dup key
  EXPECT_THROW((void)Json::parse(""), std::runtime_error);
}

TEST(Json, AccessorsEnforceKindAndRange) {
  EXPECT_THROW((void)Json::parse("\"s\"").as_double(), std::runtime_error);
  EXPECT_THROW((void)Json::parse("-1").as_uint(), std::runtime_error);
  EXPECT_THROW((void)Json::parse("2.5").as_int(), std::runtime_error);
  EXPECT_THROW((void)Json::parse("{}").at("missing"), std::runtime_error);
  EXPECT_EQ(Json::parse("7").as_double(), 7.0);  // widening is fine
}

TEST(Json, DefaultedLookups) {
  const Json j = Json::parse(R"({"k": 3, "xi": 0.5, "on": true, "s": "x"})");
  EXPECT_EQ(j.uint_or("k", 9), 3u);
  EXPECT_EQ(j.uint_or("absent", 9), 9u);
  EXPECT_DOUBLE_EQ(j.number_or("xi", 1.0), 0.5);
  EXPECT_EQ(j.bool_or("on", false), true);
  EXPECT_EQ(j.string_or("s", "d"), "x");
  EXPECT_EQ(j.string_or("absent", "d"), "d");
}

TEST(Json, DoubleToIntegerNarrowingIsRangeCheckedBeforeTheCast) {
  // Casting a double at or beyond 2^64 (outside [-2^63, 2^63) for int64) is
  // undefined; such values, e.g. "n": 1e20 or "k": 1e300, must throw.
  EXPECT_EQ(Json(std::nextafter(0x1p64, 0.0)).as_uint(), 18446744073709549568ull);
  for (const double d : {0x1p64, 1e20, 1e300}) {
    EXPECT_THROW((void)Json(d).as_uint(), std::runtime_error) << d;
  }
  EXPECT_THROW((void)Json::parse("1e20").as_uint(), std::runtime_error);
  EXPECT_EQ(Json(-0x1p63).as_int(), INT64_MIN);
  EXPECT_EQ(Json(std::nextafter(0x1p63, 0.0)).as_int(), 9223372036854774784);
  for (const double d : {0x1p63, std::nextafter(-0x1p63, -1e300), 1e300, -1e300}) {
    EXPECT_THROW((void)Json(d).as_int(), std::runtime_error) << d;
  }
  try {
    (void)Json(0x1p64).as_uint();
  } catch (const std::runtime_error& e) {
    EXPECT_STREQ(e.what(), "JSON number is not a non-negative integer");
  }
}

/// Fields' error text for `read` then done() over `doc`, or "" on success.
std::string fields_error(const char* doc, const std::function<void(Fields&)>& read) {
  const Json j = Json::parse(doc);
  try {
    Fields f(j, "Ctx", "pre.");
    read(f);
    f.done();
  } catch (const std::runtime_error& e) {
    return e.what();
  }
  return "";
}

TEST(Fields, ReadsDeclareTheKeysDoneAccepts) {
  const Json j = Json::parse(R"({"a": 3, "s": "x", "on": true, "blk": {"v": 0.5}})");
  Fields f(j, "Ctx");
  EXPECT_EQ(f.size("a", 9), 3u);
  EXPECT_EQ(f.string("s", "d"), "x");
  EXPECT_TRUE(f.flag("on", false));
  EXPECT_EQ(f.number("absent", 2.5), 2.5);
  Fields blk = f.object("blk");
  EXPECT_EQ(blk.number("v", 0.0), 0.5);
  blk.done();
  EXPECT_NO_THROW(f.done());
}

TEST(Fields, ErrorsNameTheKeyPath) {
  struct Row {
    const char* doc;
    std::function<void(Fields&)> read;
    const char* what;
  };
  const Row rows[] = {
      {R"({"nn": 1})", [](Fields& f) {
         (void)f.uint("n", 0);
         (void)f.uint("seed", 0);
       },
       R"(Ctx: unknown key "pre.nn" (nearest known: "pre.n"))"},
      {R"({"k": 1})", [](Fields&) {}, R"(Ctx: unknown key "pre.k" (takes no keys))"},
      {R"({"n": "16"})", [](Fields& f) { (void)f.uint("n", 0); },
       R"(Ctx: "pre.n": JSON value is not a number)"},
      {R"({"b": {"c": -1}})", [](Fields& f) { (void)f.object("b").uint("c", 0); },
       R"(Ctx: "pre.b.c": JSON integer is negative)"},
      {R"({"b": 1})", [](Fields& f) { (void)f.object("b"); },
       R"(Ctx: "pre.b": JSON value is not an object)"},
      {R"({"xs": [{}, {"pth": 1}]})",
       [](Fields& f) {
         for (std::size_t i = 0; i < f.array("xs").size(); ++i) {
           Fields x = f.object("xs", i);
           (void)x.number("path", 0);
           x.done();
         }
       },
       R"(Ctx: unknown key "pre.xs[1].pth" (nearest known: "pre.xs[1].path"))"},
      // A misspelled required key is named as the misspelling first.
      {R"({"vals": [1]})", [](Fields& f) { (void)f.array("values"); },
       R"(Ctx: unknown key "pre.vals" (nearest known: "pre.values"))"},
      {R"({})", [](Fields& f) { (void)f.string("path"); },
       R"(Ctx: "pre.path": required key is missing)"},
      {R"({"old": false})", [](Fields& f) { f.retired("old", true, "gone"); },
       R"(Ctx: "pre.old": false is no longer supported: gone (omit the key or set it to true))"},
      {R"({"old": true})", [](Fields& f) { f.retired("old", true, "gone"); }, ""},
  };
  for (const Row& row : rows) EXPECT_EQ(fields_error(row.doc, row.read), row.what) << row.doc;
}

}  // namespace
}  // namespace cohesion::run
