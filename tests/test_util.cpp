/**
 * @file
 * Utility helpers: table printer, string helpers, arg parser.
 */
#include <gtest/gtest.h>

#include <cstdio>

#include "util/string_util.h"
#include "util/table.h"

namespace snip {
namespace {

TEST(Table, AlignsColumnsAndCountsRows)
{
    TablePrinter t({"name", "value"});
    t.newRow();
    t.cell("short");
    t.cell(3.14159, 2);
    t.newRow();
    t.cell("much longer name");
    t.cell(static_cast<int64_t>(42));
    EXPECT_EQ(t.rowCount(), 2u);
    std::string s = t.toString();
    EXPECT_NE(s.find("3.14"), std::string::npos);
    EXPECT_NE(s.find("42"), std::string::npos);
    EXPECT_NE(s.find("much longer name"), std::string::npos);
}

TEST(Table, CsvOutput)
{
    TablePrinter t({"a", "b"});
    t.newRow();
    t.cell(static_cast<int64_t>(1));
    t.cell(static_cast<int64_t>(2));
    EXPECT_EQ(t.toCsv(), "a,b\n1,2\n");
}

TEST(Table, WriteFileRoundTrip)
{
    const std::string path = "test_table_out.txt";
    ASSERT_TRUE(writeFile(path, "hello\n"));
    FILE *f = std::fopen(path.c_str(), "r");
    ASSERT_NE(f, nullptr);
    char buf[16] = {};
    ASSERT_NE(std::fgets(buf, sizeof(buf), f), nullptr);
    std::fclose(f);
    EXPECT_STREQ(buf, "hello\n");
    std::remove(path.c_str());
}

TEST(Strings, SplitKeepsEmptyFields)
{
    auto v = split("a,,b", ',');
    ASSERT_EQ(v.size(), 3u);
    EXPECT_EQ(v[0], "a");
    EXPECT_EQ(v[1], "");
    EXPECT_EQ(v[2], "b");
    EXPECT_EQ(split("", ',').size(), 1u);
}

TEST(Strings, Trim)
{
    EXPECT_EQ(trim("  x y \t\n"), "x y");
    EXPECT_EQ(trim(""), "");
    EXPECT_EQ(trim("   "), "");
}

TEST(Strings, Format)
{
    EXPECT_EQ(strformat("%d-%s", 7, "ok"), "7-ok");
    EXPECT_EQ(strformat("%.2f", 1.234), "1.23");
}

TEST(Strings, StartsWith)
{
    EXPECT_TRUE(startsWith("random0", "random"));
    EXPECT_FALSE(startsWith("rand", "random"));
}

TEST(Args, ParsesFlagsValuesAndPositionals)
{
    const char *argv[] = {"prog", "--steps=12", "--full", "pos1",
                          "--rate=0.5"};
    ArgParser args(5, const_cast<char **>(argv));
    EXPECT_EQ(args.getInt("steps", 0), 12);
    EXPECT_TRUE(args.has("full"));
    EXPECT_FALSE(args.has("absent"));
    EXPECT_DOUBLE_EQ(args.getDouble("rate", 0.0), 0.5);
    EXPECT_EQ(args.get("missing", "def"), "def");
    ASSERT_EQ(args.positional().size(), 1u);
    EXPECT_EQ(args.positional()[0], "pos1");
}

TEST(Args, RejectsValuesThatAreNotEntirelyANumber)
{
    const auto parse = [](const char *flag) {
        const char *argv[] = {"prog", flag};
        return ArgParser(2, const_cast<char **>(argv));
    };
    const auto fails = ::testing::ExitedWithCode(1);
    EXPECT_EXIT(parse("--steps=3O").getInt("steps", 0), fails, "--steps");
    EXPECT_EXIT(parse("--steps=abc").getInt("steps", 0), fails, "--steps");
    EXPECT_EXIT(parse("--n=1e3").getInt("n", 0), fails, "--n=1e3");
    EXPECT_EXIT(parse("--n=99999999999999999999").getInt("n", 0), fails,
                "--n=9+");
    EXPECT_EXIT(parse("--rate=0.5x").getDouble("rate", 0), fails, "--rate");
    EXPECT_EXIT(parse("--rate=1e999").getDouble("rate", 0), fails, "--rate");
    EXPECT_DOUBLE_EQ(parse("--lr=3e-4").getDouble("lr", 0.0), 3e-4);
    EXPECT_EQ(parse("--n=-7").getInt("n", 0), -7);
}

} // namespace
} // namespace snip
