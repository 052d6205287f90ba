// Tests for src/trace: timeline bookkeeping, the paper's utilization metric,
// bubble (gap) extraction, ASCII Gantt and Chrome trace export.
#include <gtest/gtest.h>

#include "src/common/check.h"
#include "src/trace/ascii_gantt.h"
#include "src/trace/chrome_trace.h"
#include "src/trace/timeline.h"

namespace pf {
namespace {

Interval iv(std::size_t dev, double s, double e, WorkKind k) {
  return Interval{.device = dev, .start = s, .end = e, .kind = k};
}

TEST(Timeline, AddAndQuery) {
  Timeline tl(2);
  tl.add(iv(0, 0.0, 1.0, WorkKind::kForward));
  tl.add(iv(0, 2.0, 3.0, WorkKind::kBackward));
  tl.add(iv(1, 1.0, 2.0, WorkKind::kForward));
  EXPECT_EQ(tl.device_intervals(0).size(), 2u);
  EXPECT_DOUBLE_EQ(tl.makespan(), 3.0);
  EXPECT_DOUBLE_EQ(tl.earliest_start(), 0.0);
}

TEST(Timeline, RejectsOverlapOnSameDevice) {
  Timeline tl(1);
  tl.add(iv(0, 0.0, 2.0, WorkKind::kForward));
  EXPECT_THROW(tl.add(iv(0, 1.0, 3.0, WorkKind::kBackward)), Error);
}

TEST(Timeline, RejectsBadDeviceAndNegativeDuration) {
  Timeline tl(1);
  EXPECT_THROW(tl.add(iv(3, 0.0, 1.0, WorkKind::kForward)), Error);
  EXPECT_THROW(tl.add(iv(0, 2.0, 1.0, WorkKind::kForward)), Error);
}

TEST(Timeline, BusyTimeClipsToWindow) {
  Timeline tl(1);
  tl.add(iv(0, 1.0, 5.0, WorkKind::kForward));
  EXPECT_DOUBLE_EQ(tl.busy_time(0, 0.0, 10.0), 4.0);
  EXPECT_DOUBLE_EQ(tl.busy_time(0, 2.0, 3.0), 1.0);
  EXPECT_DOUBLE_EQ(tl.busy_time(0, 6.0, 8.0), 0.0);
}

TEST(Timeline, UtilizationMatchesHandComputation) {
  // Device 0 busy 50% of [0,4], device 1 busy 25% → mean 37.5%.
  Timeline tl(2);
  tl.add(iv(0, 0.0, 2.0, WorkKind::kForward));
  tl.add(iv(1, 0.0, 1.0, WorkKind::kBackward));
  EXPECT_DOUBLE_EQ(tl.utilization(0.0, 4.0), 0.375);
}

TEST(Timeline, AdmissionDoesNotCountAsBusy) {
  Timeline tl(1);
  tl.add(iv(0, 0.0, 1.0, WorkKind::kAdmission));
  tl.add(iv(0, 1.0, 2.0, WorkKind::kForward));
  EXPECT_DOUBLE_EQ(tl.utilization(0.0, 2.0), 0.5);
}

TEST(Timeline, GapsAreTheComplementOfBusyIntervals) {
  Timeline tl(1);
  tl.add(iv(0, 1.0, 2.0, WorkKind::kForward));
  tl.add(iv(0, 4.0, 5.0, WorkKind::kBackward));
  const auto gaps = tl.gaps(0, 0.0, 6.0);
  ASSERT_EQ(gaps.size(), 3u);
  EXPECT_DOUBLE_EQ(gaps[0].start, 0.0);
  EXPECT_DOUBLE_EQ(gaps[0].end, 1.0);
  EXPECT_DOUBLE_EQ(gaps[1].start, 2.0);
  EXPECT_DOUBLE_EQ(gaps[1].end, 4.0);
  EXPECT_DOUBLE_EQ(gaps[2].start, 5.0);
  EXPECT_DOUBLE_EQ(gaps[2].end, 6.0);
  EXPECT_DOUBLE_EQ(tl.bubble_time(0, 0.0, 6.0), 4.0);
}

TEST(Timeline, GapsPlusBusyCoverWindow) {
  Timeline tl(1);
  tl.add(iv(0, 0.5, 1.5, WorkKind::kForward));
  tl.add(iv(0, 1.5, 2.0, WorkKind::kBackward));
  tl.add(iv(0, 3.0, 4.5, WorkKind::kForward));
  const double window = 6.0;
  EXPECT_NEAR(tl.busy_time(0, 0.0, window) + tl.bubble_time(0, 0.0, window),
              window, 1e-12);
}

TEST(Timeline, AppendShiftedReplicatesSteps) {
  Timeline step(2);
  step.add(iv(0, 0.0, 1.0, WorkKind::kForward));
  step.add(iv(1, 0.5, 1.5, WorkKind::kForward));
  Timeline two(2);
  two.append_shifted(step, 0.0);
  two.append_shifted(step, 2.0);
  EXPECT_EQ(two.device_intervals(0).size(), 2u);
  EXPECT_DOUBLE_EQ(two.device_intervals(0)[1].start, 2.0);
  EXPECT_DOUBLE_EQ(two.makespan(), 3.5);
}

TEST(WorkKind, NamesAndGlyphsAreDistinctivePerKind) {
  EXPECT_STREQ(work_kind_name(WorkKind::kForward), "forward");
  EXPECT_STREQ(work_kind_name(WorkKind::kSyncCurvature), "sync-curvature");
  EXPECT_EQ(work_kind_glyph(WorkKind::kForward), 'F');
  EXPECT_NE(work_kind_glyph(WorkKind::kCurvatureA),
            work_kind_glyph(WorkKind::kCurvatureB));
}

TEST(AsciiGantt, RendersRowsAndGlyphs) {
  Timeline tl(2);
  tl.add(iv(0, 0.0, 5.0, WorkKind::kForward));
  tl.add(iv(1, 5.0, 10.0, WorkKind::kBackward));
  GanttOptions opt;
  opt.width = 10;
  const std::string g = render_ascii_gantt(tl, opt);
  EXPECT_NE(g.find("dev0"), std::string::npos);
  EXPECT_NE(g.find("dev1"), std::string::npos);
  EXPECT_NE(g.find("FFFFF"), std::string::npos);
  EXPECT_NE(g.find("BBBBB"), std::string::npos);
  EXPECT_NE(g.find("legend"), std::string::npos);
}

TEST(AsciiGantt, EmptyTimeline) {
  Timeline tl(1);
  EXPECT_EQ(render_ascii_gantt(tl), "(empty timeline)\n");
}

TEST(ChromeTrace, EmitsOneEventPerInterval) {
  Timeline tl(2);
  tl.add(iv(0, 0.0, 1e-3, WorkKind::kForward));
  tl.add(iv(1, 1e-3, 2e-3, WorkKind::kPrecondition));
  const std::string json = to_chrome_trace_json(tl);
  EXPECT_NE(json.find("\"name\":\"forward\""), std::string::npos);
  EXPECT_NE(json.find("\"name\":\"precondition\""), std::string::npos);
  EXPECT_NE(json.find("\"tid\":1"), std::string::npos);
  // Durations are microseconds.
  EXPECT_NE(json.find("\"dur\":1000.000"), std::string::npos);
}

TEST(ChromeTrace, WritesFile) {
  Timeline tl(1);
  tl.add(iv(0, 0.0, 1.0, WorkKind::kForward));
  const std::string path = ::testing::TempDir() + "/trace.json";
  write_chrome_trace(tl, path);
  FILE* f = fopen(path.c_str(), "r");
  ASSERT_NE(f, nullptr);
  fclose(f);
}

}  // namespace
}  // namespace pf
