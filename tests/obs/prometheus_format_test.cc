// Prometheus text exposition coverage: a byte-exact golden for a small
// registry, plus a property test that every exported sample line — registry
// and time-series exports alike — round-trips through a minimal parser
// (name, labels, value). The parser is deliberately strict: anything it
// rejects would also confuse a real scraper.
#include <cstdlib>
#include <string>
#include <utility>
#include <vector>

#include <gtest/gtest.h>

#include "obs/metrics.h"
#include "obs/timeseries.h"

namespace aer::obs {
namespace {

struct ParsedLine {
  std::string name;
  std::vector<std::pair<std::string, std::string>> labels;
  std::string value;
};

// Parses `name{key="value",...} number` (labels optional). Label values are
// unescaped per the exposition format (`\\`, `\"`, `\n`); any other escape
// sequence, or a raw quote/newline inside a value, is a parse failure.
// Returns false on any deviation from that shape.
bool ParseExpositionLine(const std::string& line, ParsedLine& out) {
  out = ParsedLine{};
  std::size_t i = 0;
  while (i < line.size() &&
         ((line[i] >= 'a' && line[i] <= 'z') ||
          (line[i] >= '0' && line[i] <= '9') || line[i] == '_')) {
    ++i;
  }
  if (i == 0) return false;
  out.name = line.substr(0, i);
  if (i < line.size() && line[i] == '{') {
    ++i;
    while (i < line.size() && line[i] != '}') {
      std::size_t eq = line.find('=', i);
      if (eq == std::string::npos || eq + 1 >= line.size() ||
          line[eq + 1] != '"') {
        return false;
      }
      const std::string key = line.substr(i, eq - i);
      std::string value;
      std::size_t j = eq + 2;
      while (j < line.size() && line[j] != '"') {
        if (line[j] == '\\') {
          if (j + 1 >= line.size()) return false;
          switch (line[j + 1]) {
            case '\\': value += '\\'; break;
            case '"': value += '"'; break;
            case 'n': value += '\n'; break;
            default: return false;
          }
          j += 2;
        } else {
          value += line[j];
          ++j;
        }
      }
      if (j >= line.size()) return false;  // unterminated value
      out.labels.emplace_back(key, std::move(value));
      i = j + 1;
      if (i < line.size() && line[i] == ',') ++i;
    }
    if (i >= line.size() || line[i] != '}') return false;
    ++i;
  }
  if (i >= line.size() || line[i] != ' ') return false;
  out.value = line.substr(i + 1);
  if (out.value.empty()) return false;
  char* end = nullptr;
  std::strtod(out.value.c_str(), &end);
  return end != nullptr && *end == '\0';
}

// Re-renders a parse result, re-escaping label values; used to prove
// parsing is lossless.
std::string Render(const ParsedLine& parsed) {
  std::string out = parsed.name;
  if (!parsed.labels.empty()) {
    out += "{";
    for (std::size_t i = 0; i < parsed.labels.size(); ++i) {
      if (i > 0) out += ",";
      out += parsed.labels[i].first + "=\"" +
             EscapeLabelValue(parsed.labels[i].second) + "\"";
    }
    out += "}";
  }
  return out + " " + parsed.value;
}

std::vector<std::string> SplitLines(const std::string& text) {
  std::vector<std::string> lines;
  std::size_t start = 0;
  while (start < text.size()) {
    std::size_t end = text.find('\n', start);
    if (end == std::string::npos) end = text.size();
    lines.push_back(text.substr(start, end - start));
    start = end + 1;
  }
  return lines;
}

TEST(PrometheusFormatTest, GoldenExposition) {
  MetricsRegistry registry;
  registry.GetCounter("aer_golden_total").Inc(3);
  registry.GetGauge("aer_golden_ratio").Set(2.5);
  Histogram& h = registry.GetHistogram("aer_golden_seconds", 10.0, 10.0, 3);
  h.Observe(5.0);
  h.Observe(50.0);
  StatMetric& s = registry.GetStat("aer_golden_wait");
  s.Observe(1.0);
  s.Observe(3.0);

  EXPECT_EQ(registry.ExportText(),
            "# TYPE aer_golden_ratio gauge\n"
            "aer_golden_ratio 2.5\n"
            "# TYPE aer_golden_seconds histogram\n"
            "aer_golden_seconds_bucket{le=\"10\"} 1\n"
            "aer_golden_seconds_bucket{le=\"100\"} 2\n"
            "aer_golden_seconds_bucket{le=\"+Inf\"} 2\n"
            "aer_golden_seconds_count 2\n"
            "# TYPE aer_golden_total counter\n"
            "aer_golden_total 3\n"
            "# TYPE aer_golden_wait summary\n"
            "aer_golden_wait_count 2\n"
            "aer_golden_wait_sum 4\n"
            "aer_golden_wait_min 1\n"
            "aer_golden_wait_max 3\n"
            "aer_golden_wait_mean 2\n");
}

TEST(PrometheusFormatTest, EveryRegistryLineRoundTrips) {
  MetricsRegistry registry;
  registry.GetCounter("aer_prop_total").Inc(123456789);
  registry.GetGauge("aer_prop_ratio").Set(0.1);  // 17-digit decimal
  registry.GetGauge("aer_prop_negative").Set(-1234.5);
  registry.GetGauge("aer_prop_tiny").Set(4.2e-17);
  Histogram& h = registry.GetHistogram("aer_prop_seconds");
  for (int i = 0; i < 40; ++i) h.Observe(30.0 * (i + 1));
  StatMetric& s = registry.GetStat("aer_prop_cost");
  s.Observe(3.25);
  s.Observe(-7.5);

  int samples = 0;
  for (const std::string& line : SplitLines(registry.ExportText())) {
    if (line.empty() || line[0] == '#') continue;
    ParsedLine parsed;
    ASSERT_TRUE(ParseExpositionLine(line, parsed)) << line;
    EXPECT_EQ(Render(parsed), line);
    EXPECT_EQ(parsed.name.rfind("aer_prop_", 0), 0u) << line;
    for (const auto& [key, value] : parsed.labels) {
      EXPECT_EQ(key, "le");
      EXPECT_FALSE(value.empty());
    }
    ++samples;
  }
  EXPECT_GE(samples, 8);
}

TEST(PrometheusFormatTest, EveryTimeSeriesLineRoundTrips) {
  MetricsRegistry registry;
  TimeSeriesConfig config;
  config.window_width = 50;
  TimeSeriesRecorder recorder(registry, config);
  for (int i = 1; i <= 3; ++i) {
    registry.GetCounter("aer_prop_total").Inc(i);
    registry.GetGauge("aer_prop_level").Set(0.3 * i);
    registry.GetStat("aer_prop_cost").Observe(2.0 * i);
    recorder.AdvanceTo(50 * i);
  }

  int samples = 0;
  for (const std::string& line : SplitLines(recorder.ExportText())) {
    if (line.empty() || line[0] == '#') continue;
    ParsedLine parsed;
    ASSERT_TRUE(ParseExpositionLine(line, parsed)) << line;
    EXPECT_EQ(Render(parsed), line);
    ASSERT_EQ(parsed.labels.size(), 3u) << line;
    EXPECT_EQ(parsed.labels[0].first, "window");
    EXPECT_EQ(parsed.labels[1].first, "start");
    EXPECT_EQ(parsed.labels[2].first, "end");
    ++samples;
  }
  EXPECT_GE(samples, 9);
}

// Static labels carrying every byte the exposition format must escape —
// quotes, backslashes, newlines, and adversarial combinations like a value
// ending in a lone backslash — survive a byte round-trip: the exporter
// escapes them, the parser recovers the original bytes, and re-escaping
// reproduces the exported line exactly.
TEST(PrometheusFormatTest, HostileLabelValuesRoundTrip) {
  const std::vector<std::pair<std::string, std::string>> hostile = {
      {"job", "say \"hi\""},
      {"path", "C:\\temp\\x"},
      {"note", "line1\nline2"},
      {"tail", "ends with \\"},
      {"mix", "\\\"\n\\\\\""},
      {"brace", "a{b}=c,d"},
  };
  MetricsRegistry registry;
  TimeSeriesRecorder recorder(registry, {.window_width = 50,
                                         .labels = hostile});
  for (int i = 1; i <= 2; ++i) {
    registry.GetCounter("aer_hostile_total").Inc(i);
    registry.GetGauge("aer_hostile_level").Set(1.5 * i);
    recorder.AdvanceTo(50 * i);
  }

  int samples = 0;
  for (const std::string& line : SplitLines(recorder.ExportText())) {
    if (line.empty() || line[0] == '#') continue;
    // The raw line must never leak an unescaped quote or newline: exactly
    // the delimiting quotes remain unescaped.
    ASSERT_EQ(line.find('\n'), std::string::npos) << line;
    ParsedLine parsed;
    ASSERT_TRUE(ParseExpositionLine(line, parsed)) << line;
    EXPECT_EQ(Render(parsed), line);
    ASSERT_EQ(parsed.labels.size(), hostile.size() + 3) << line;
    // The parser recovered the original (unescaped) bytes.
    for (std::size_t i = 0; i < hostile.size(); ++i) {
      EXPECT_EQ(parsed.labels[i].first, hostile[i].first);
      EXPECT_EQ(parsed.labels[i].second, hostile[i].second);
    }
    ++samples;
  }
  EXPECT_GE(samples, 4);
}

TEST(PrometheusFormatTest, ParserRejectsMalformedLines) {
  ParsedLine parsed;
  EXPECT_FALSE(ParseExpositionLine("", parsed));
  EXPECT_FALSE(ParseExpositionLine("no_value", parsed));
  EXPECT_FALSE(ParseExpositionLine("name{unclosed=\"x\" 1", parsed));
  EXPECT_FALSE(ParseExpositionLine("name{noquote=x} 1", parsed));
  EXPECT_FALSE(ParseExpositionLine("name notanumber", parsed));
  EXPECT_FALSE(ParseExpositionLine("Name 1", parsed));
  EXPECT_FALSE(ParseExpositionLine("name{bad=\"\\t\"} 1", parsed));
  EXPECT_FALSE(ParseExpositionLine("name{cut=\"x\\", parsed));
}

}  // namespace
}  // namespace aer::obs
