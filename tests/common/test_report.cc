/**
 * @file
 * Table/report module tests: alignment, CSV escaping, file output,
 * and the shared text-file writer's failure reporting.
 */

#include <gtest/gtest.h>

#include <cstdio>
#include <fstream>
#include <sstream>

#include "common/report.hh"
#include "common/text_file.hh"

namespace hnoc
{
namespace
{

TEST(Table, TextAligned)
{
    Table t({"name", "value"});
    t.row({"a", "1"});
    t.row({"longer-name", "2.5"});
    std::string s = t.text();
    // Every line has the same column start for "value".
    std::istringstream in(s);
    std::string line;
    std::getline(in, line);
    auto col = line.find("value");
    ASSERT_NE(col, std::string::npos);
    std::getline(in, line);
    EXPECT_EQ(line.find('1'), col);
}

TEST(Table, CsvEscaping)
{
    Table t({"a", "b"});
    t.row({"plain", "has,comma"});
    t.row({"has\"quote", "x"});
    std::string csv = t.csv();
    EXPECT_NE(csv.find("\"has,comma\""), std::string::npos);
    EXPECT_NE(csv.find("\"has\"\"quote\""), std::string::npos);
}

TEST(Table, NumFormatting)
{
    EXPECT_EQ(Table::num(3.14159, 2), "3.14");
    EXPECT_EQ(Table::num(3.0, 0), "3");
}

TEST(Table, WriteCsvRoundTrip)
{
    Table t({"x", "y"});
    t.row({"1", "2"});
    std::string path = "/tmp/hnoc_table_test.csv";
    ASSERT_TRUE(t.writeCsv(path));
    std::ifstream in(path);
    std::string line;
    std::getline(in, line);
    EXPECT_EQ(line, "x,y");
    std::getline(in, line);
    EXPECT_EQ(line, "1,2");
    std::remove(path.c_str());
}

TEST(Table, RowCountAndColumns)
{
    Table t({"a", "b", "c"});
    EXPECT_EQ(t.columns(), 3u);
    EXPECT_EQ(t.rows(), 0u);
    t.row({"1", "2", "3"});
    EXPECT_EQ(t.rows(), 1u);
}

TEST(TextFile, FullDiskReturnsFalse)
{
    // /dev/full opens fine and fails every write with ENOSPC: a small
    // payload fails at the buffered flush in fclose, a large one at
    // fwrite itself. Both must report failure.
    if (std::FILE *probe = std::fopen("/dev/full", "w"))
        std::fclose(probe);
    else
        GTEST_SKIP() << "/dev/full not available";
    EXPECT_FALSE(writeTextFile("/dev/full", "x,y\n"));
    EXPECT_FALSE(writeTextFile("/dev/full", std::string(1 << 20, 'x')));
}

TEST(TextFile, MissingDirectoryReturnsFalse)
{
    EXPECT_FALSE(writeTextFile("/nonexistent/dir/out.csv", "x\n"));
}

} // namespace
} // namespace hnoc
