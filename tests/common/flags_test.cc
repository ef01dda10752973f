#include "common/flags.h"

#include <cstdint>
#include <string>

#include <gtest/gtest.h>

namespace jxp {
namespace {

Flags ParseOk(std::vector<std::string> args) {
  std::vector<char*> argv = {const_cast<char*>("prog")};
  for (auto& a : args) argv.push_back(a.data());
  Flags flags;
  const Status s = flags.Parse(static_cast<int>(argv.size()), argv.data());
  EXPECT_TRUE(s.ok()) << s;
  return flags;
}

TEST(FlagsTest, ParsesEqualsForm) {
  Flags f = ParseOk({"--scale=0.5", "--name=web"});
  EXPECT_DOUBLE_EQ(f.GetDouble("scale", 1.0), 0.5);
  EXPECT_EQ(f.GetString("name", ""), "web");
}

TEST(FlagsTest, ParsesSpaceForm) {
  Flags f = ParseOk({"--meetings", "300"});
  EXPECT_EQ(f.GetInt("meetings", 0), 300);
}

TEST(FlagsTest, BareFlagIsTrue) {
  Flags f = ParseOk({"--verbose"});
  EXPECT_TRUE(f.GetBool("verbose", false));
}

TEST(FlagsTest, DefaultsWhenAbsent) {
  Flags f = ParseOk({});
  EXPECT_EQ(f.GetInt("missing", 42), 42);
  EXPECT_EQ(f.GetString("missing", "d"), "d");
  EXPECT_FALSE(f.GetBool("missing", false));
  EXPECT_FALSE(f.Has("missing"));
}

TEST(FlagsTest, RejectsPositionalArguments) {
  char prog[] = "prog";
  char pos[] = "positional";
  char* argv[] = {prog, pos};
  Flags flags;
  EXPECT_EQ(flags.Parse(2, argv).code(), StatusCode::kInvalidArgument);
}

TEST(FlagsTest, NegativeNumbers) {
  Flags f = ParseOk({"--offset=-5"});
  EXPECT_EQ(f.GetInt("offset", 0), -5);
}

TEST(FlagsTest, CountRejectsNegative) {
  Flags f = ParseOk({"--meetings=-1", "--zero=0", "--topk=25"});
  EXPECT_EQ(f.GetCount("zero", 7), 0u);
  EXPECT_EQ(f.GetCount("topk", 7), 25u);
  EXPECT_EQ(f.GetCount("missing", 7), 7u);
  EXPECT_DEATH(f.GetCount("meetings", 7), "flag --meetings is not a count: -1");
}

TEST(FlagsTest, RejectsMalformedNumbers) {
  // An empty, out-of-range or non-finite value fails like a non-number
  // instead of parsing as 0, a clamped integer or an infinity.
  Flags f = ParseOk({"--meetings=", "--word=abc", "--seed=99999999999999999999",
                     "--low=-99999999999999999999", "--max=9223372036854775807",
                     "--scale=", "--big=1e999", "--tiny=1e-999", "--inf=inf",
                     "--ninf=-inf", "--nan=nan"});
  EXPECT_EQ(f.GetInt("max", 0), INT64_MAX);
  for (const char* name : {"meetings", "word", "seed", "low"}) {
    EXPECT_DEATH(f.GetInt(name, 7), std::string("flag --") + name + " is not an integer");
  }
  EXPECT_DEATH(f.GetCount("meetings", 7), "flag --meetings is not an integer");
  for (const char* name : {"scale", "word", "big", "tiny", "inf", "ninf", "nan"}) {
    EXPECT_DEATH(f.GetDouble(name, 1.0), std::string("flag --") + name + " is not a number");
  }
}

TEST(FlagsTest, BoolLiterals) {
  Flags f = ParseOk({"--a=true", "--b=false", "--c=1", "--d=0"});
  EXPECT_TRUE(f.GetBool("a", false));
  EXPECT_FALSE(f.GetBool("b", true));
  EXPECT_TRUE(f.GetBool("c", false));
  EXPECT_FALSE(f.GetBool("d", true));
}

}  // namespace
}  // namespace jxp
