// Critical-path attribution units: the exact-sum contract (stage durations
// partition [start, end) with no gaps and no double counting), duplicate
// and out-of-order robustness, the leadership/election overlay, the
// takeover-gap overlay, metric publication, and the truncated flag that keeps
// ring-evicted roots out of the latency metrics.
#include <array>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "obs/critical_path.h"
#include "obs/metrics.h"
#include "obs/trace_collector.h"
#include "obs/trace_context.h"

namespace aer::obs {
namespace {

TraceRecord Rec(TraceId id, SimTime time, TraceEventKind kind,
                std::int64_t machine, int attempt = -1, int node = -1) {
  TraceRecord r;
  r.trace_id = id;
  r.time = time;
  r.kind = kind;
  r.machine = machine;
  r.attempt = attempt;
  r.node = node;
  return r;
}

SimTime Stage(const CriticalPath& path, TraceStage stage) {
  return path.stage_seconds[static_cast<int>(stage)];
}

// The exact-sum contract plus segment-partition well-formedness.
void ExpectExact(const CriticalPath& path) {
  EXPECT_EQ(path.total_seconds(), path.end - path.start) << "trace "
      << path.trace_id;
  // Non-zero-width segments tile [start, end): contiguous, in order.
  SimTime pos = path.start;
  for (const StageSegment& segment : path.segments) {
    if (segment.from == segment.to) {
      EXPECT_EQ(segment.stage, TraceStage::kFenceAdmit);
      continue;
    }
    EXPECT_EQ(segment.from, pos);
    EXPECT_LT(segment.from, segment.to);
    pos = segment.to;
  }
  EXPECT_EQ(pos, path.end);
}

TEST(CriticalPathTest, SingleAttemptAttributesEveryInstant) {
  const TraceId id = MakeTraceId(11, 3, 1);
  const auto paths = AnalyzeCriticalPaths({
      Rec(id, 100, TraceEventKind::kIncident, 3),
      Rec(id, 102, TraceEventKind::kSymptom, 3),
      Rec(id, 105, TraceEventKind::kDispatch, 3, 0, 0),
      Rec(id, 106, TraceEventKind::kActionStart, 3, 0),
      Rec(id, 116, TraceEventKind::kActionDone, 3, 0),
      Rec(id, 116, TraceEventKind::kCure, 3),
      Rec(id, 117, TraceEventKind::kResultDeliver, 3, 0, 0),
  });
  ASSERT_EQ(paths.size(), 1u);
  const CriticalPath& path = paths[0];
  EXPECT_TRUE(path.cured);
  EXPECT_EQ(path.start, 100);
  EXPECT_EQ(path.end, 116);
  EXPECT_EQ(path.attempts, 1);
  // No leadership overlay in the stream: with no leader_elected record the
  // walker has no leaseholder, so the control-plane waits become
  // election_wait — detect [100,102) and dispatch_queue [102,105) combined.
  EXPECT_EQ(Stage(path, TraceStage::kElectionWait), 5);
  EXPECT_EQ(Stage(path, TraceStage::kDispatchTransit), 1);
  EXPECT_EQ(Stage(path, TraceStage::kActionExec), 10);
  EXPECT_EQ(Stage(path, TraceStage::kFenceAdmit), 0);
  ExpectExact(path);
  // The zero-width fence_admit marker is present in the segment list.
  bool fence_marker = false;
  for (const StageSegment& s : path.segments) {
    if (s.stage == TraceStage::kFenceAdmit) {
      fence_marker = true;
      EXPECT_EQ(s.from, s.to);
    }
  }
  EXPECT_TRUE(fence_marker);
}

// With a leader elected before the incident, the control-plane waits keep
// their own names.
TEST(CriticalPathTest, LeadershipOverlaySplitsControlWaits) {
  const TraceId id = MakeTraceId(11, 6, 1);
  TraceRecord elected = Rec(kNoTrace, 0, TraceEventKind::kLeaderElected, -1);
  elected.node = 0;
  const auto paths = AnalyzeCriticalPaths({
      elected,
      Rec(id, 100, TraceEventKind::kIncident, 6),
      Rec(id, 102, TraceEventKind::kSymptom, 6),
      Rec(id, 105, TraceEventKind::kDispatch, 6, 0, 0),
      Rec(id, 106, TraceEventKind::kActionStart, 6, 0),
      Rec(id, 116, TraceEventKind::kActionDone, 6, 0),
      Rec(id, 116, TraceEventKind::kCure, 6),
  });
  ASSERT_EQ(paths.size(), 1u);
  const CriticalPath& path = paths[0];
  EXPECT_EQ(Stage(path, TraceStage::kDetect), 2);
  EXPECT_EQ(Stage(path, TraceStage::kDispatchQueue), 3);
  EXPECT_EQ(Stage(path, TraceStage::kElectionWait), 0);
  ExpectExact(path);
}

// A leaderless window in the middle of detection becomes election_wait;
// the rest of the wait keeps its base stage. Exactness still holds.
TEST(CriticalPathTest, LeaderlessIntervalBecomesElectionWait) {
  const TraceId id = MakeTraceId(11, 8, 1);
  TraceRecord elected0 = Rec(kNoTrace, 0, TraceEventKind::kLeaderElected, -1);
  elected0.node = 0;
  TraceRecord lost = Rec(kNoTrace, 110, TraceEventKind::kLeaderLost, -1);
  lost.node = 0;
  TraceRecord elected1 = Rec(kNoTrace, 130, TraceEventKind::kLeaderElected, -1);
  elected1.node = 1;
  const auto paths = AnalyzeCriticalPaths({
      elected0,
      Rec(id, 100, TraceEventKind::kIncident, 8),
      lost,
      elected1,
      Rec(id, 140, TraceEventKind::kSymptom, 8),
      Rec(id, 142, TraceEventKind::kDispatch, 8, 0, 1),
      Rec(id, 143, TraceEventKind::kActionStart, 8, 0),
      Rec(id, 153, TraceEventKind::kActionDone, 8, 0),
      Rec(id, 153, TraceEventKind::kCure, 8),
  });
  ASSERT_EQ(paths.size(), 1u);
  const CriticalPath& path = paths[0];
  // detect = [100,110) + [130,140); election_wait = [110,130).
  EXPECT_EQ(Stage(path, TraceStage::kDetect), 20);
  EXPECT_EQ(Stage(path, TraceStage::kElectionWait), 20);
  ExpectExact(path);
}

// Duplicated hops (network duplication) and stale-attempt records never
// advance the cursor: the stage sum stays exact and attempts don't double.
TEST(CriticalPathTest, DuplicatesDoNotDoubleCount) {
  const TraceId id = MakeTraceId(11, 5, 1);
  TraceRecord elected = Rec(kNoTrace, 0, TraceEventKind::kLeaderElected, -1);
  elected.node = 0;
  TraceRecord dup_start = Rec(id, 108, TraceEventKind::kActionStart, 5, 0);
  dup_start.duplicate = true;
  TraceRecord dup_result = Rec(id, 119, TraceEventKind::kResultDeliver, 5, 0, 0);
  dup_result.duplicate = true;
  const auto paths = AnalyzeCriticalPaths({
      elected,
      Rec(id, 100, TraceEventKind::kIncident, 5),
      Rec(id, 102, TraceEventKind::kSymptom, 5),
      Rec(id, 102, TraceEventKind::kSymptom, 5),  // re-emitted symptom
      Rec(id, 105, TraceEventKind::kDispatch, 5, 0, 0),
      Rec(id, 106, TraceEventKind::kActionStart, 5, 0),
      dup_start,  // duplicated delivery arrives again mid-exec
      Rec(id, 116, TraceEventKind::kActionDone, 5, 0),
      Rec(id, 117, TraceEventKind::kResultDeliver, 5, 0, 0),
      dup_result,  // duplicated result
      Rec(id, 120, TraceEventKind::kDispatch, 5, 1, 0),
      Rec(id, 121, TraceEventKind::kActionStart, 5, 1),
      Rec(id, 131, TraceEventKind::kActionDone, 5, 1),
      Rec(id, 131, TraceEventKind::kCure, 5),
  });
  ASSERT_EQ(paths.size(), 1u);
  const CriticalPath& path = paths[0];
  EXPECT_EQ(path.attempts, 2);
  EXPECT_EQ(Stage(path, TraceStage::kActionExec), 20);
  EXPECT_EQ(Stage(path, TraceStage::kResultTransit), 1);
  EXPECT_EQ(Stage(path, TraceStage::kTimeoutWait), 3);  // [117,120)
  ExpectExact(path);
}

// A timeout record whose deadline predates the cursor (out-of-order rescue)
// changes state without moving time backward.
TEST(CriticalPathTest, OutOfOrderTimeoutKeepsSumExact) {
  const TraceId id = MakeTraceId(11, 9, 1);
  TraceRecord elected = Rec(kNoTrace, 0, TraceEventKind::kLeaderElected, -1);
  elected.node = 0;
  const auto paths = AnalyzeCriticalPaths({
      elected,
      Rec(id, 100, TraceEventKind::kIncident, 9),
      Rec(id, 102, TraceEventKind::kSymptom, 9),
      Rec(id, 105, TraceEventKind::kDispatch, 9, 0, 0),
      // The dispatch was dropped; the issuer's timeout record carries a
      // time at (not after) the next dispatch. Feed it out of order with a
      // stale time to exercise the monotonic-cursor guard.
      Rec(id, 103, TraceEventKind::kTimeout, 9, 0, 0),
      Rec(id, 150, TraceEventKind::kDispatch, 9, 1, 0),
      Rec(id, 151, TraceEventKind::kActionStart, 9, 1),
      Rec(id, 161, TraceEventKind::kActionDone, 9, 1),
      Rec(id, 161, TraceEventKind::kCure, 9),
  });
  ASSERT_EQ(paths.size(), 1u);
  const CriticalPath& path = paths[0];
  // The stale timeout moved the wait to Recovery without rewinding: the
  // whole [105,150) window lands in timeout_wait, nothing is lost or
  // counted twice.
  EXPECT_EQ(Stage(path, TraceStage::kTimeoutWait), 45);
  ExpectExact(path);
}

// Issuer crash between dispatch and the adopting leader's re-dispatch: the
// wait after the crash is the takeover gap, leaderless sub-intervals before
// the re-dispatch notwithstanding.
TEST(CriticalPathTest, TakeoverGapAttribution) {
  const TraceId id = MakeTraceId(11, 2, 1);
  TraceRecord elected0 = Rec(kNoTrace, 0, TraceEventKind::kLeaderElected, -1);
  elected0.node = 0;
  TraceRecord crash = Rec(kNoTrace, 120, TraceEventKind::kNodeCrash, -1);
  crash.node = 0;
  TraceRecord elected1 = Rec(kNoTrace, 135, TraceEventKind::kLeaderElected, -1);
  elected1.node = 1;
  const auto paths = AnalyzeCriticalPaths({
      elected0,
      Rec(id, 100, TraceEventKind::kIncident, 2),
      Rec(id, 102, TraceEventKind::kSymptom, 2),
      Rec(id, 105, TraceEventKind::kDispatch, 2, 0, 0),
      Rec(id, 106, TraceEventKind::kActionStart, 2, 0),
      Rec(id, 116, TraceEventKind::kActionDone, 2, 0),
      crash,
      Rec(id, 120, TraceEventKind::kResultLost, 2, 0, 0),
      elected1,
      Rec(id, 140, TraceEventKind::kDispatch, 2, 1, 1),
      Rec(id, 141, TraceEventKind::kActionStart, 2, 1),
      Rec(id, 151, TraceEventKind::kActionDone, 2, 1),
      Rec(id, 151, TraceEventKind::kCure, 2),
  });
  ASSERT_EQ(paths.size(), 1u);
  const CriticalPath& path = paths[0];
  // result_transit [116,120) ends at the loss; the recovery wait [120,140)
  // is entirely after the issuer's crash, so all 20 seconds are takeover
  // gap (not election_wait, though the lease was also vacant).
  EXPECT_EQ(Stage(path, TraceStage::kResultTransit), 4);
  EXPECT_EQ(Stage(path, TraceStage::kTakeoverGap), 20);
  EXPECT_EQ(Stage(path, TraceStage::kElectionWait), 0);
  ExpectExact(path);
}

TEST(CriticalPathTest, UncuredPathsAreReportedButNotPublished) {
  const TraceId id = MakeTraceId(11, 7, 1);
  const auto paths = AnalyzeCriticalPaths({
      Rec(id, 100, TraceEventKind::kIncident, 7),
      Rec(id, 110, TraceEventKind::kSymptom, 7),
  });
  ASSERT_EQ(paths.size(), 1u);
  EXPECT_FALSE(paths[0].cured);
  EXPECT_EQ(paths[0].end, 110);
  obs::MetricsRegistry registry;
  PublishCriticalPathMetrics(registry, paths);
  // Histograms are registered unconditionally (frozen catalog), but an
  // uncured path contributes no observation.
  EXPECT_EQ(registry.GetHistogram("aer_trace_end_to_end_seconds").Snapshot().total_count(), 0);
}

// A small ring evicts a cured trace's kIncident root. The surviving
// records still walk to the cure, but from a later start: the path is
// flagged truncated and its understated latency never reaches the
// end-to-end or stage histograms.
TEST(CriticalPathTest, RingEvictedRootIsTruncatedAndNotPublished) {
  const TraceId id = MakeTraceId(11, 3, 1);
  TraceCollector traces({.capacity = 5});
  for (const TraceRecord& r : {
           Rec(id, 100, TraceEventKind::kIncident, 3),
           Rec(id, 102, TraceEventKind::kSymptom, 3),
           Rec(id, 105, TraceEventKind::kDispatch, 3, 0, 0),
           Rec(id, 106, TraceEventKind::kActionStart, 3, 0),
           Rec(id, 116, TraceEventKind::kActionDone, 3, 0),
           Rec(id, 116, TraceEventKind::kCure, 3),
       }) {
    traces.Record(r);
  }
  const auto paths = AnalyzeCriticalPaths(traces.Snapshot());
  ASSERT_EQ(paths.size(), 1u);
  EXPECT_TRUE(paths[0].cured);
  EXPECT_TRUE(paths[0].truncated);
  EXPECT_EQ(paths[0].start, 102);
  obs::MetricsRegistry registry;
  PublishCriticalPathMetrics(registry, paths);
  EXPECT_EQ(registry.GetHistogram("aer_trace_end_to_end_seconds")
                .Snapshot()
                .total_count(),
            0);
  EXPECT_EQ(registry.GetHistogram("aer_trace_stage_action_exec_seconds")
                .Snapshot()
                .total_count(),
            0);
  EXPECT_NE(FormatCriticalPaths(paths).find(" cured=1 truncated\n"),
            std::string::npos);
}

TEST(CriticalPathTest, PublishObservesCuredPathsPerStage) {
  const TraceId id = MakeTraceId(11, 3, 1);
  TraceRecord elected = Rec(kNoTrace, 0, TraceEventKind::kLeaderElected, -1);
  elected.node = 0;
  const auto paths = AnalyzeCriticalPaths({
      elected,
      Rec(id, 100, TraceEventKind::kIncident, 3),
      Rec(id, 102, TraceEventKind::kSymptom, 3),
      Rec(id, 105, TraceEventKind::kDispatch, 3, 0, 0),
      Rec(id, 106, TraceEventKind::kActionStart, 3, 0),
      Rec(id, 116, TraceEventKind::kActionDone, 3, 0),
      Rec(id, 116, TraceEventKind::kCure, 3),
  });
  ASSERT_EQ(paths.size(), 1u);
  EXPECT_FALSE(paths[0].truncated);
  obs::MetricsRegistry registry;
  PublishCriticalPathMetrics(registry, paths);
  EXPECT_EQ(registry.GetHistogram("aer_trace_end_to_end_seconds").Snapshot().total_count(), 1);
  EXPECT_EQ(registry.GetHistogram("aer_trace_stage_detect_seconds").Snapshot().total_count(),
            1);
  EXPECT_EQ(
      registry.GetHistogram("aer_trace_stage_action_exec_seconds").Snapshot().total_count(), 1);
  // Stages absent from the path get no observation.
  EXPECT_EQ(
      registry.GetHistogram("aer_trace_stage_takeover_gap_seconds").Snapshot().total_count(),
      0);
  // The text rendering is deterministic and carries the exact totals.
  const std::string text = FormatCriticalPaths(paths);
  EXPECT_EQ(text, FormatCriticalPaths(paths));
  EXPECT_NE(text.find("total=16"), std::string::npos);
  EXPECT_NE(text.find("action_exec=10"), std::string::npos);
  EXPECT_EQ(text.find("truncated"), std::string::npos);
}

}  // namespace
}  // namespace aer::obs
