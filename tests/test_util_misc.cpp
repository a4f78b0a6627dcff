// Tests for the remaining utility surface: text tables, CSV escaping,
// parallel_for error propagation, and contracts.
#include <gtest/gtest.h>

#include <atomic>
#include <cstdio>
#include <fstream>
#include <set>
#include <sstream>

#include "util/check.h"
#include "util/csv.h"
#include "util/table.h"
#include "util/thread_pool.h"

namespace wire::util {
namespace {

TEST(TextTable, AlignsColumns) {
  TextTable table;
  table.set_header({"a", "bbbb", "c"});
  table.add_row({"xxxxx", "y", "z"});
  table.add_row({"1", "2", "3"});
  const std::string out = table.render();
  std::istringstream is(out);
  std::string header, sep, row1, row2;
  std::getline(is, header);
  std::getline(is, sep);
  std::getline(is, row1);
  std::getline(is, row2);
  // All rows render to the same width (trailing cells unpadded).
  EXPECT_EQ(header.find("bbbb"), row1.find("y"));
  EXPECT_EQ(sep.find_first_not_of('-'), std::string::npos);
  EXPECT_EQ(table.row_count(), 2u);
}

TEST(TextTable, RejectsMismatchedRows) {
  TextTable table;
  table.set_header({"a", "b"});
  EXPECT_THROW(table.add_row({"only-one"}), ContractViolation);
  EXPECT_THROW(table.set_header({}), ContractViolation);
}

TEST(TextTable, HeaderAfterRowsRejected) {
  TextTable table;
  table.set_header({"a"});
  table.add_row({"1"});
  EXPECT_THROW(table.set_header({"b"}), ContractViolation);
}

TEST(Format, FixedDigits) {
  EXPECT_EQ(fmt(3.14159, 2), "3.14");
  EXPECT_EQ(fmt(2.0, 0), "2");
  EXPECT_EQ(fmt_mean_std(1.5, 0.25, 2), "1.50 ± 0.25");
}

TEST(CsvWriter, EscapesSpecialCharacters) {
  const std::string path = "test_util_misc.csv";
  {
    CsvWriter csv(path);
    csv.write_row({"plain", "with,comma", "with\"quote", "multi\nline"});
    csv.write_row({"1", "2", "3", "4"});
  }
  std::ifstream in(path);
  std::stringstream buffer;
  buffer << in.rdbuf();
  const std::string content = buffer.str();
  EXPECT_NE(content.find("plain,\"with,comma\",\"with\"\"quote\""),
            std::string::npos);
  EXPECT_NE(content.find("1,2,3,4"), std::string::npos);
  std::remove(path.c_str());
}

TEST(CsvWriter, UnwritablePathThrows) {
  EXPECT_THROW(CsvWriter("/nonexistent-dir/foo.csv"), std::runtime_error);
}

TEST(ParallelFor, CoversEveryIndexExactlyOnce) {
  std::vector<std::atomic<int>> hits(200);
  parallel_for(200, [&hits](std::size_t i) { hits[i].fetch_add(1); }, 8);
  for (const auto& h : hits) EXPECT_EQ(h.load(), 1);
}

TEST(ParallelFor, PropagatesExceptions) {
  EXPECT_THROW(
      parallel_for(
          16,
          [](std::size_t i) {
            if (i == 7) throw std::runtime_error("boom");
          },
          4),
      std::runtime_error);
}

TEST(ParallelFor, ZeroJobsIsFine) {
  parallel_for(0, [](std::size_t) { FAIL() << "must not be called"; }, 2);
}

TEST(Contracts, MessagesCarryContext) {
  try {
    WIRE_REQUIRE(1 == 2, "one is not two");
    FAIL() << "should have thrown";
  } catch (const ContractViolation& e) {
    const std::string what = e.what();
    EXPECT_NE(what.find("precondition"), std::string::npos);
    EXPECT_NE(what.find("1 == 2"), std::string::npos);
    EXPECT_NE(what.find("one is not two"), std::string::npos);
  }
}

}  // namespace
}  // namespace wire::util
