/** @file Unit tests for CLI option parsing. */

#include <gtest/gtest.h>

#include "common/cli.hh"

using namespace cmpcache;

namespace
{

CliArgs
parse(std::initializer_list<const char *> args)
{
    std::vector<const char *> v = {"prog"};
    v.insert(v.end(), args.begin(), args.end());
    return CliArgs(static_cast<int>(v.size()), v.data());
}

} // namespace

TEST(Cli, ParsesKeyValue)
{
    const auto a = parse({"--refs=100", "--name=tp"});
    EXPECT_EQ(a.getInt("refs", 0), 100);
    EXPECT_EQ(a.getString("name", ""), "tp");
}

TEST(Cli, FlagWithoutValueIsTrue)
{
    const auto a = parse({"--verbose"});
    EXPECT_TRUE(a.getBool("verbose", false));
    EXPECT_TRUE(a.has("verbose"));
    EXPECT_FALSE(a.has("quiet"));
}

TEST(Cli, DefaultsWhenAbsent)
{
    const auto a = parse({});
    EXPECT_EQ(a.getInt("x", 42), 42);
    EXPECT_EQ(a.getString("y", "dflt"), "dflt");
    EXPECT_DOUBLE_EQ(a.getDouble("z", 2.5), 2.5);
    EXPECT_FALSE(a.getBool("w", false));
}

TEST(Cli, PositionalCollected)
{
    const auto a = parse({"one", "--k=v", "two"});
    ASSERT_EQ(a.positional().size(), 2u);
    EXPECT_EQ(a.positional()[0], "one");
    EXPECT_EQ(a.positional()[1], "two");
}

TEST(Cli, BooleanSpellings)
{
    const auto a = parse({"--a=yes", "--b=off", "--c=1", "--d=false"});
    EXPECT_TRUE(a.getBool("a", false));
    EXPECT_FALSE(a.getBool("b", true));
    EXPECT_TRUE(a.getBool("c", false));
    EXPECT_FALSE(a.getBool("d", true));
}

TEST(Cli, DoubleParsing)
{
    const auto a = parse({"--f=0.125"});
    EXPECT_DOUBLE_EQ(a.getDouble("f", 0.0), 0.125);
}

TEST(Cli, NegativeIntegers)
{
    const auto a = parse({"--n=-5"});
    EXPECT_EQ(a.getInt("n", 0), -5);
}

TEST(CliDeath, MalformedIntegerIsFatal)
{
    const auto a = parse({"--n=abc"});
    EXPECT_EXIT(a.getInt("n", 0), ::testing::ExitedWithCode(1),
                "expects an integer");
}

TEST(Cli, UnreadListsOnlyOptionsNeverQueried)
{
    const auto a = parse({"--refs=100", "--thread=4", "--quiet", "pos"});
    EXPECT_EQ(a.getInt("refs", 0), 100);
    EXPECT_FALSE(a.has("threads")); // a near miss is not a read of --thread
    EXPECT_TRUE(a.getBool("quiet", false));
    const std::vector<std::string> want = {"thread"};
    EXPECT_EQ(a.unread(), want);
    // Positionals are the caller's to validate; they never show up.
    EXPECT_EQ(a.positional().size(), 1u);
}

TEST(Cli, EveryAccessorMarksItsKeyRead)
{
    const auto a = parse({"--a=1", "--b=2.5", "--c=on", "--d=x",
                          "--e"});
    a.getInt("a", 0);
    a.getDouble("b", 0.0);
    a.getBool("c", false);
    a.getString("d", "");
    EXPECT_EQ(a.unread(), std::vector<std::string>{"e"});
    a.has("e");
    EXPECT_TRUE(a.unread().empty());
}

TEST(Cli, SubcommandIsNotAnOption)
{
    std::vector<const char *> v = {"prog", "sweep", "--bogus-flag=3"};
    const CliArgs a(static_cast<int>(v.size()), v.data(),
                    /*allow_subcommand=*/true);
    EXPECT_EQ(a.subcommand(), "sweep");
    EXPECT_EQ(a.unread(), std::vector<std::string>{"bogus-flag"});
}
