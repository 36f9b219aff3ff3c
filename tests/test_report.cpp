#include "core/report.hpp"

#include <sstream>

#include <gtest/gtest.h>

namespace vcdl {
namespace {

TrainResult fake_result() {
  TrainResult r;
  r.spec.parameter_servers = 3;
  r.spec.clients = 3;
  r.spec.tasks_per_client = 4;
  r.spec.alpha = "var";
  EpochStats e1;
  e1.epoch = 1;
  e1.alpha = 0.5;
  e1.end_time = 3600.0;
  e1.mean_subtask_acc = 0.25;
  e1.min_subtask_acc = 0.1;
  e1.max_subtask_acc = 0.4;
  e1.val_acc = 0.3;
  e1.test_acc = 0.28;
  EpochStats e2 = e1;
  e2.epoch = 2;
  e2.end_time = 7200.0;
  e2.mean_subtask_acc = 0.5;
  r.epochs = {e1, e2};
  r.totals.duration_s = 7200.0;
  r.totals.cost_standard_usd = 2.5;
  r.metrics.counters["store.lost_updates"] = 3;
  r.totals.parameter_count = 1234;
  return r;
}

TEST(Report, JsonContainsSpecSeriesAndTotals) {
  const std::string json = to_json(fake_result());
  EXPECT_NE(json.find("\"label\":\"P3C3T4\""), std::string::npos);
  EXPECT_NE(json.find("\"alpha\":\"var\""), std::string::npos);
  EXPECT_NE(json.find("\"epochs\":["), std::string::npos);
  EXPECT_NE(json.find("\"mean_acc\":0.25"), std::string::npos);
  EXPECT_NE(json.find("\"mean_acc\":0.5"), std::string::npos);
  EXPECT_NE(json.find("\"duration_hours\":2"), std::string::npos);
  EXPECT_NE(json.find("\"lost_updates\":3"), std::string::npos);
  EXPECT_NE(json.find("\"parameter_count\":1234"), std::string::npos);
}

TEST(Report, JsonIsStructurallyBalanced) {
  const std::string json = to_json(fake_result());
  EXPECT_EQ(std::count(json.begin(), json.end(), '{'),
            std::count(json.begin(), json.end(), '}'));
  EXPECT_EQ(std::count(json.begin(), json.end(), '['),
            std::count(json.begin(), json.end(), ']'));
  EXPECT_EQ(json.front(), '{');
  EXPECT_EQ(json.back(), '}');
  // No adjacent-field glitches like ",," or "{,".
  EXPECT_EQ(json.find(",,"), std::string::npos);
  EXPECT_EQ(json.find("{,"), std::string::npos);
  EXPECT_EQ(json.find("[,"), std::string::npos);
}

TEST(Report, JsonEscapesStrings) {
  TrainResult r = fake_result();
  r.spec.alpha = "a\"b\\c";
  const std::string json = to_json(r);
  EXPECT_NE(json.find("a\\\"b\\\\c"), std::string::npos);
}

TEST(Report, CsvHasHeaderAndOneRowPerEpoch) {
  std::ostringstream os;
  write_epochs_csv(os, fake_result(), "myrun");
  const std::string csv = os.str();
  EXPECT_EQ(std::count(csv.begin(), csv.end(), '\n'), 3);  // header + 2 rows
  EXPECT_EQ(csv.rfind("series,epoch,alpha,hours", 0), 0u);
  EXPECT_NE(csv.find("myrun,1,"), std::string::npos);
  EXPECT_NE(csv.find("myrun,2,"), std::string::npos);
}

}  // namespace
}  // namespace vcdl
