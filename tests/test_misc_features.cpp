// Tests for the CSV sweep export.
#include <gtest/gtest.h>

#include <algorithm>
#include <fstream>

#include "src/perfmodel/csv.h"

namespace pf {
namespace {

TEST(SweepCsv, HeaderAndRowColumnCountsMatch) {
  const auto pts = sweep_depth_bmicro(bert_base(), p100(), "chimera", {4},
                                      {8}, 1, false);
  const std::string header = sweep_csv_header();
  const std::string row = sweep_point_csv(pts[0]);
  const auto count = [](const std::string& s) {
    return std::count(s.begin(), s.end(), ',');
  };
  EXPECT_EQ(count(header), count(row));
  EXPECT_GT(count(header), 20);
}

TEST(SweepCsv, DocumentHasOneLinePerPointPlusHeader) {
  const auto pts = sweep_depth_bmicro(bert_base(), p100(), "chimera", {4, 8},
                                      {8, 16}, 1, false);
  const std::string csv = sweep_to_csv(pts);
  EXPECT_EQ(std::count(csv.begin(), csv.end(), '\n'), 5);  // header + 4
  EXPECT_NE(csv.find("bert-base,p100,chimera,4,4,8,0,1,"),
            std::string::npos);
}

TEST(SweepCsv, WritesFile) {
  const auto pts = sweep_depth_bmicro(bert_base(), p100(), "chimera", {4},
                                      {8}, 1, false);
  const std::string path = ::testing::TempDir() + "/sweep.csv";
  write_sweep_csv(pts, path);
  std::ifstream f(path);
  ASSERT_TRUE(f.good());
  std::string first;
  std::getline(f, first);
  EXPECT_EQ(first, sweep_csv_header());
}

}  // namespace
}  // namespace pf
