// Flight recorder: the manual dump surface, the AER_CHECK failure path and
// the fatal-signal path. Crash paths run inside gtest death tests, so the
// dump file is written by the dying child and inspected by the parent.
// SIGABRT stands in for the fatal-signal family: unlike SIGSEGV it is not
// intercepted by ASan, so the test behaves the same under every sanitizer
// leg.
#include "obs/flight_recorder.h"

#include <csignal>
#include <cstdio>
#include <fstream>
#include <sstream>
#include <string>

#include <gtest/gtest.h>

#include "common/check.h"
#include "common/profiler.h"

namespace aer::obs {
namespace {

std::string ReadFileOrEmpty(const std::string& path) {
  std::ifstream in(path);
  if (!in) return {};
  std::ostringstream os;
  os << in.rdbuf();
  return os.str();
}

class FlightRecorderTest : public ::testing::Test {
 protected:
  // Every test uninstalls, so a prior test's sources (or the CI-wide
  // recorder from test_main.cc) never leak into the next one.
  void TearDown() override { FlightRecorder::Uninstall(); }
};

TEST_F(FlightRecorderTest, ManualDumpContainsAllSections) {
  MetricsRegistry metrics;
  TimeSeriesRecorder timeseries(metrics, {.window_width = 100});
  TraceCollector traces;

  TraceRecord record;
  record.trace_id = MakeTraceId(3, 7, 1);
  record.time = 10;
  record.kind = TraceEventKind::kIncident;
  record.machine = 7;
  record.detail = "Watchdog";
  traces.Record(record);
  metrics.GetCounter("aer_test_total").Inc(5);
  timeseries.AdvanceTo(100);
  {
    ProfileScope scope("flight_probe");
  }

  const std::string path =
      ::testing::TempDir() + "/aer_flight_manual.json";
  std::remove(path.c_str());
  FlightRecorder::Install({.path = path}, &metrics, &timeseries, &traces);
  EXPECT_TRUE(FlightRecorder::installed());
  ASSERT_TRUE(FlightRecorder::DumpNow("unit test"));

  const std::string dump = ReadFileOrEmpty(path);
  std::remove(path.c_str());
  EXPECT_NE(dump.find("\"manual\""), std::string::npos);
  EXPECT_NE(dump.find("unit test"), std::string::npos);
  EXPECT_NE(dump.find("\"Watchdog\""), std::string::npos);  // trace DAG
  EXPECT_NE(dump.find("aer_test_total"), std::string::npos);  // metrics
  EXPECT_NE(dump.find("last_window"), std::string::npos);     // timeseries
  EXPECT_NE(dump.find("flight_probe"), std::string::npos);    // profile
}

// Trace records are the only trace store: a dump carries them as the
// stitched DAG and has no separate span section.
TEST_F(FlightRecorderTest, DumpCarriesRecordsButNoSpansSection) {
  TraceCollector traces;
  TraceRecord record;
  record.trace_id = MakeTraceId(3, 7, 1);
  record.time = 10;
  record.kind = TraceEventKind::kIncident;
  record.machine = 7;
  traces.Record(record);

  const std::string path =
      ::testing::TempDir() + "/aer_flight_nospans.json";
  std::remove(path.c_str());
  FlightRecorder::Install({.path = path}, nullptr, nullptr, &traces);
  ASSERT_TRUE(FlightRecorder::DumpNow("no spans"));
  const std::string dump = ReadFileOrEmpty(path);
  std::remove(path.c_str());
  EXPECT_NE(dump.find("\"trace_dag\""), std::string::npos);
  EXPECT_NE(dump.find("\"incident\""), std::string::npos);
  EXPECT_EQ(dump.find("\"spans\""), std::string::npos);
}

TEST_F(FlightRecorderTest, DumpStitchesTraceRecordsIntoADag) {
  MetricsRegistry metrics;
  TraceCollector traces;
  const TraceId id = MakeTraceId(3, 7, 1);
  TraceRecord record;
  record.trace_id = id;
  record.time = 10;
  record.kind = TraceEventKind::kIncident;
  record.machine = 7;
  traces.Record(record);
  record.time = 12;
  record.kind = TraceEventKind::kSymptom;
  traces.Record(record);
  record.time = 40;
  record.kind = TraceEventKind::kCure;
  traces.Record(record);

  const std::string path = ::testing::TempDir() + "/aer_flight_traces.json";
  std::remove(path.c_str());
  FlightRecorder::Install({.path = path}, &metrics, nullptr, &traces);
  ASSERT_TRUE(FlightRecorder::DumpNow("trace dump"));

  const std::string dump = ReadFileOrEmpty(path);
  std::remove(path.c_str());
  // The dump carries the stitched DAG, not raw records: one cured process
  // with its causal node kinds.
  EXPECT_NE(dump.find("\"trace_dag\""), std::string::npos);
  EXPECT_NE(dump.find("\"incident\""), std::string::npos);
  EXPECT_NE(dump.find("\"cure\""), std::string::npos);
  EXPECT_NE(dump.find("\"cured\": true"), std::string::npos);
}

TEST_F(FlightRecorderTest, MaxTraceRecordsKeepsOnlyTheMostRecent) {
  MetricsRegistry metrics;
  TraceCollector traces;
  for (int episode = 1; episode <= 5; ++episode) {
    TraceRecord record;
    record.trace_id = MakeTraceId(3, 1, static_cast<std::uint64_t>(episode));
    record.time = 10 * episode;
    record.kind = TraceEventKind::kIncident;
    record.machine = 1;
    record.detail = "episode_" + std::to_string(episode);
    traces.Record(record);
  }

  const std::string path = ::testing::TempDir() + "/aer_flight_trim.json";
  std::remove(path.c_str());
  FlightRecorder::Install({.path = path, .max_trace_records = 2}, &metrics,
                          nullptr, &traces);
  ASSERT_TRUE(FlightRecorder::DumpNow("trim traces"));

  const std::string dump = ReadFileOrEmpty(path);
  std::remove(path.c_str());
  // Only the newest records survive the cap.
  EXPECT_EQ(dump.find("episode_3"), std::string::npos);
  EXPECT_NE(dump.find("episode_4"), std::string::npos);
  EXPECT_NE(dump.find("episode_5"), std::string::npos);
}

TEST_F(FlightRecorderTest, DumpNowWithoutInstallFails) {
  FlightRecorder::Uninstall();
  EXPECT_FALSE(FlightRecorder::installed());
  EXPECT_FALSE(FlightRecorder::DumpNow("nothing installed"));
}

TEST_F(FlightRecorderTest, CheckFailureWritesDump) {
  const std::string path =
      ::testing::TempDir() + "/aer_flight_check.json";
  std::remove(path.c_str());
  EXPECT_DEATH(
      {
        MetricsRegistry metrics;
        metrics.GetCounter("aer_test_total").Inc(9);
        FlightRecorder::Install({.path = path}, &metrics, nullptr);
        AER_CHECK(false) << "flight recorder check probe";
      },
      "flight recorder check probe");
  const std::string dump = ReadFileOrEmpty(path);
  std::remove(path.c_str());
  EXPECT_NE(dump.find("check_failure"), std::string::npos);
  EXPECT_NE(dump.find("flight recorder check probe"), std::string::npos);
  EXPECT_NE(dump.find("aer_test_total"), std::string::npos);
}

TEST_F(FlightRecorderTest, FatalSignalWritesDumpAndRedelivers) {
  const std::string path =
      ::testing::TempDir() + "/aer_flight_signal.json";
  std::remove(path.c_str());
  EXPECT_DEATH(
      {
        FlightRecorder::Install({.path = path}, nullptr, nullptr);
        std::raise(SIGABRT);
      },
      "");
  const std::string dump = ReadFileOrEmpty(path);
  std::remove(path.c_str());
  EXPECT_NE(dump.find("\"signal\""), std::string::npos);
  EXPECT_NE(dump.find("SIGABRT"), std::string::npos);
}

}  // namespace
}  // namespace aer::obs
