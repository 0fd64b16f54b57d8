// Command-line flag parser used by the example drivers.
#include "util/flags.hpp"

#include <gtest/gtest.h>

#include <string>
#include <vector>

namespace p2p {
namespace {

Flags make(std::vector<const char*> args) {
  args.insert(args.begin(), "prog");
  return Flags(static_cast<int>(args.size()),
               const_cast<char**>(args.data()));
}

TEST(Flags, EqualsSyntax) {
  Flags f = make({"--k=5", "--rate=2.5", "--name=abc"});
  EXPECT_EQ(f.get_int("k", 1, ""), 5);
  EXPECT_NEAR(f.get_double("rate", 0.0, ""), 2.5, 1e-12);
  EXPECT_EQ(f.get_string("name", "", ""), "abc");
  f.finish();
}

TEST(Flags, SpaceSyntax) {
  Flags f = make({"--k", "7", "--rate", "0.25"});
  EXPECT_EQ(f.get_int("k", 1, ""), 7);
  EXPECT_NEAR(f.get_double("rate", 0.0, ""), 0.25, 1e-12);
  f.finish();
}

TEST(Flags, DefaultsWhenAbsent) {
  Flags f = make({});
  EXPECT_EQ(f.get_int("k", 42, ""), 42);
  EXPECT_EQ(f.get_string("policy", "random-useful", ""), "random-useful");
  EXPECT_FALSE(f.get_bool("verbose", false, ""));
  f.finish();
}

TEST(Flags, BareBooleanIsTrue) {
  Flags f = make({"--verbose"});
  EXPECT_TRUE(f.get_bool("verbose", false, ""));
  f.finish();
}

TEST(Flags, BooleanFalseSpellings) {
  Flags f = make({"--a=false", "--b=0", "--c=yes"});
  EXPECT_FALSE(f.get_bool("a", true, ""));
  EXPECT_FALSE(f.get_bool("b", true, ""));
  EXPECT_TRUE(f.get_bool("c", false, ""));
  f.finish();
}

TEST(Flags, BooleanYesNoSpellings) {
  Flags f = make({"--a=no", "--b", "yes", "--c=true", "--d", "1"});
  EXPECT_FALSE(f.get_bool("a", true, ""));
  EXPECT_TRUE(f.get_bool("b", false, ""));
  EXPECT_TRUE(f.get_bool("c", false, ""));
  EXPECT_TRUE(f.get_bool("d", false, ""));
  f.finish();
}

TEST(FlagsDeath, UnknownBooleanTokenAbortsEchoingIt) {
  // "--fluid foo" must not silently take "foo" as a true value.
  for (const char* token : {"foo", "off", "TRUE", "2", ""}) {
    EXPECT_EXIT(
        {
          Flags f = make({"--fluid", token});
          f.get_bool("fluid", false, "");
        },
        ::testing::ExitedWithCode(2),
        "flag --fluid expects a boolean .*got '" + std::string(token) + "'")
        << token;
  }
}

TEST(Flags, GivenReportsPresenceWhateverTheValue) {
  Flags f = make({"--rounds", "4"});
  EXPECT_TRUE(f.given("rounds"));
  EXPECT_FALSE(f.given("other"));
  // A flag given its default value is still given.
  EXPECT_EQ(f.get_int("rounds", 4, ""), 4);
  EXPECT_TRUE(f.given("rounds"));
  f.finish();
}

TEST(Flags, NegativeValueSpaceSyntax) {
  // Regression: "-1.5" must parse as the value of --name, not as a flag.
  Flags f = make({"--name", "-1.5"});
  EXPECT_NEAR(f.get_double("name", 0.0, ""), -1.5, 1e-12);
  f.finish();
}

TEST(Flags, NegativeValueEqualsSyntax) {
  Flags f = make({"--name=-1.5", "--n=-3"});
  EXPECT_NEAR(f.get_double("name", 0.0, ""), -1.5, 1e-12);
  EXPECT_EQ(f.get_int("n", 0, ""), -3);
  f.finish();
}

TEST(FlagsDeath, FractionalIntegerFlagAborts) {
  EXPECT_DEATH(
      {
        Flags f = make({"--k=2.5"});
        f.get_int("k", 1, "");
      },
      "expects an integer");
}

TEST(FlagsDeath, IntegerRejectionEchoesTheTokenAsTyped) {
  EXPECT_DEATH(
      {
        Flags f = make({"--threads", "2.5"});
        f.get_int("threads", 1, "");
      },
      "--threads expects an integer, got '2.5'");
  EXPECT_DEATH(
      {
        Flags f = make({"--seed=5e9"});
        f.get_int("seed", 1, "");
      },
      "got '5e9'");
}

TEST(FlagsDeath, HelpPrintsIntDefaultsAsIntegers) {
  // The regex matches "(default 64)" but not "(default 64.000000)".
  EXPECT_EXIT(
      {
        Flags f = make({"--help"});
        f.get_int("threads", 64, "worker threads");
        f.get_double("rate", 2.5, "arrival rate");
        f.finish();
      },
      ::testing::ExitedWithCode(0),
      "--rate +arrival rate \\(default 2\\.5.*"
      "--threads +worker threads \\(default 64\\)");
}

TEST(FlagsDeath, OutOfIntRangeFlagAborts) {
  // Would be UB if cast before range-checking.
  EXPECT_DEATH(
      {
        Flags f = make({"--seed=5000000000"});
        f.get_int("seed", 1, "");
      },
      "expects an integer");
}

TEST(Flags, Uint64SpansTheFullSeedRange) {
  // Seeds past the int range are legal: base_seed is a uint64_t.
  Flags f = make({"--seed", "3000000000", "--top=18446744073709551615"});
  EXPECT_EQ(f.get_uint64("seed", 1, ""), 3000000000ULL);
  EXPECT_EQ(f.get_uint64("top", 1, ""), 18446744073709551615ULL);
  EXPECT_EQ(f.get_uint64("absent", 7, ""), 7u);
  f.finish();
}

TEST(FlagsDeath, NegativeUint64IsOutOfRangeEchoingTheToken) {
  // Must not wrap to 2^64 - 1.
  EXPECT_DEATH(
      {
        Flags f = make({"--seed", "-1"});
        f.get_uint64("seed", 1, "");
      },
      "flag --seed is out of range .*got '-1'");
}

TEST(FlagsDeath, Uint64OverflowIsOutOfRange) {
  EXPECT_DEATH(
      {
        Flags f = make({"--seed=18446744073709551616"});
        f.get_uint64("seed", 1, "");
      },
      "out of range .*got '18446744073709551616'");
}

TEST(FlagsDeath, NonDigitUint64Aborts) {
  for (const char* token : {"2.5", "1e3", "abc", "+4", "-"}) {
    EXPECT_DEATH(
        {
          Flags f = make({"--seed", token});
          f.get_uint64("seed", 1, "");
        },
        "expects an unsigned integer")
        << token;
  }
}

TEST(FlagsDeath, DuplicateFlagAborts) {
  EXPECT_DEATH(make({"--k=1", "--k=2"}), "more than once");
}

TEST(FlagsDeath, DuplicateFlagMixedSyntaxAborts) {
  EXPECT_DEATH(make({"--k", "1", "--k=1"}), "more than once");
}

TEST(FlagsDeath, DuplicateBareBooleanAborts) {
  EXPECT_DEATH(make({"--verbose", "--verbose"}), "more than once");
}

TEST(FlagsDeath, UnknownFlagAborts) {
  EXPECT_DEATH(
      {
        Flags f = make({"--oops=1"});
        f.get_int("k", 1, "");
        f.finish();
      },
      "unknown flag");
}

TEST(FlagsDeath, NonNumericValueAborts) {
  EXPECT_DEATH(
      {
        Flags f = make({"--k=abc"});
        f.get_int("k", 1, "");
      },
      "expects a number");
}

TEST(FlagsDeath, StrtodLeniencyHolesStayClosed) {
  // Same hole as the engine spec grammar: strtod also accepts "nan",
  // any-case "inf"/"infinity", hex floats and leading whitespace. A
  // numeric flag takes finite plain decimals only; each rejected
  // spelling is echoed back so the user sees what was actually parsed.
  // "-.5" and the out-of-range spellings in both directions fail the
  // shared plain-decimal grammar (util/decimal.hpp) like everywhere else.
  for (const char* bad : {"--rate=nan", "--rate=inf", "--rate=INFINITY",
                          "--rate=-inf", "--rate=0x1p3", "--rate= 2",
                          "--rate=1e999", "--rate=-.5", "--rate=1e-400"}) {
    EXPECT_DEATH(
        {
          Flags f = make({bad});
          f.get_double("rate", 0.0, "");
        },
        "expects a number")
        << bad;
  }
  // The echoed value names the offending spelling verbatim.
  EXPECT_DEATH(
      {
        Flags f = make({"--rate=nan"});
        f.get_double("rate", 0.0, "");
      },
      "got 'nan'");
}

TEST(FlagsDeath, PositionalArgumentAborts) {
  EXPECT_DEATH(make({"positional"}), "positional");
}

}  // namespace
}  // namespace p2p
