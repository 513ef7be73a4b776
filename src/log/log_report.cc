#include "log/log_report.h"

#include <sstream>

#include "common/string_util.h"

namespace aer {

LogReport BuildLogReport(const RecoveryLog& log, std::size_t top_k) {
  LogReport report;
  report.entries = log.size();
  // Phase 1 of segmentation is enough: every figure here comes from a
  // process's opening and closing entries.
  const ProcessIndex index = IndexProcesses(log);
  report.incomplete = index.incomplete;
  report.orphan_entries = index.orphan_entries;
  ErrorTypeTally tally;
  for (const ProcessSpan& span : index.spans) {
    if (!span.closed()) continue;
    const LogEntry& open = index.entries[span.open];
    const SimTime downtime = index.entries[span.close].time - open.time;
    ++report.processes;
    report.total_downtime += downtime;
    tally.Add(open.symptom, downtime);
  }
  report.mean_downtime_s =
      report.processes > 0
          ? static_cast<double>(report.total_downtime) /
                static_cast<double>(report.processes)
          : 0.0;
  std::vector<ErrorTypeStat> ranked = tally.Ranked();
  report.error_types = ranked.size();
  if (ranked.size() > top_k) ranked.resize(top_k);
  report.top_types = std::move(ranked);
  return report;
}

LogReport BuildLogReport(const RecoveryLog& log, const LogParseResult& parse,
                         std::size_t top_k) {
  LogReport report = BuildLogReport(log, top_k);
  report.ingest_skipped = parse.skipped;
  report.ingest_repaired = parse.repaired;
  return report;
}

std::string FormatLogReport(const LogReport& report,
                            const SymptomTable& symptoms) {
  std::ostringstream os;
  os << StrFormat("entries:             %zu\n", report.entries);
  os << StrFormat("recovery processes:  %zu (+%d incomplete, %d orphan "
                  "entries)\n",
                  report.processes, report.incomplete,
                  report.orphan_entries);
  if (report.ingest_skipped > 0 || report.ingest_repaired > 0) {
    os << StrFormat("ingestion:           %zu line(s) skipped, %zu "
                    "repaired (lenient parse)\n",
                    report.ingest_skipped, report.ingest_repaired);
  }
  os << StrFormat("total downtime:      %.3f Msec (mean %.0f s / process)\n",
                  static_cast<double>(report.total_downtime) / 1e6,
                  report.mean_downtime_s);
  os << StrFormat("error types:         %zu; top %zu by count:\n",
                  report.error_types, report.top_types.size());
  for (const ErrorTypeStat& stat : report.top_types) {
    os << StrFormat("  %-28s %6lld processes, %8.3f Msec downtime\n",
                    symptoms.Name(stat.type).c_str(),
                    static_cast<long long>(stat.process_count),
                    static_cast<double>(stat.total_downtime) / 1e6);
  }
  return os.str();
}

}  // namespace aer
