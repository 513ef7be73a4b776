#!/usr/bin/env python3
"""Unit tests for tools/aer_lint.py: every rule must fire on a seeded
violation, stay quiet on the idiomatic equivalent, and honor the
`aer-lint: allow(...)` pragma."""

from __future__ import annotations

import sys
import tempfile
import unittest
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))
import aer_lint  # noqa: E402


class LintRunner:
    """Writes files into a scratch repo root and runs the linter on them."""

    def __init__(self, root: Path):
        self.root = root

    def lint(self, rel_path: str, content: str) -> list[str]:
        path = self.root / rel_path
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(content, encoding="utf-8")
        linter = aer_lint.Linter(self.root)
        linter.lint_file(path)
        return linter.findings


class AerLintTest(unittest.TestCase):
    def setUp(self):
        self._tmp = tempfile.TemporaryDirectory()
        self.repo = LintRunner(Path(self._tmp.name))

    def tearDown(self):
        self._tmp.cleanup()

    def assert_rule(self, findings: list[str], rule: str):
        self.assertTrue(any(f"[{rule}]" in f for f in findings),
                        f"expected [{rule}] in {findings}")

    # -- rng-containment ----------------------------------------------------

    def test_rand_outside_rng_flagged(self):
        findings = self.repo.lint("src/sim/platform.cc",
                                  "int f() { return rand() % 6; }\n")
        self.assert_rule(findings, "rng-containment")

    def test_std_engines_and_distributions_flagged(self):
        for snippet in ("std::mt19937 gen(42);",
                        "std::random_device rd;",
                        "std::uniform_int_distribution<int> d(0, 5);",
                        "std::normal_distribution<double> n;"):
            findings = self.repo.lint("src/rl/qlearning.cc", snippet + "\n")
            self.assert_rule(findings, "rng-containment")

    def test_rng_impl_files_are_exempt(self):
        findings = self.repo.lint("src/common/rng.cc",
                                  "// std::mt19937 comparison notes\n"
                                  "std::uint64_t x = 1;\n")
        self.assertEqual(findings, [])

    def test_mention_in_comment_not_flagged(self):
        findings = self.repo.lint("src/rl/policy.cc",
                                  "// std::mt19937 would be wrong here\n"
                                  "int x = 0;  // not rand() either\n")
        self.assertEqual(findings, [])

    # -- no-raw-assert ------------------------------------------------------

    def test_raw_assert_flagged(self):
        findings = self.repo.lint("src/core/recovery_manager.cc",
                                  "#include <cassert>\n"
                                  "void f(int n) { assert(n > 0); }\n")
        self.assert_rule(findings, "no-raw-assert")

    def test_static_assert_and_aer_check_ok(self):
        findings = self.repo.lint(
            "src/core/recovery_manager.cc",
            "static_assert(sizeof(int) == 4);\n"
            "void f(int n) { AER_CHECK_GT(n, 0) << \"n\"; }\n")
        self.assertEqual(findings, [])

    # -- include-guard ------------------------------------------------------

    def test_wrong_guard_flagged(self):
        findings = self.repo.lint("src/rl/qtable.h",
                                  "#ifndef QTABLE_H\n#define QTABLE_H\n"
                                  "#endif\n")
        self.assert_rule(findings, "include-guard")

    def test_missing_guard_flagged(self):
        findings = self.repo.lint("src/rl/qtable.h", "int x = 1;\n")
        self.assert_rule(findings, "include-guard")

    def test_correct_guards(self):
        for rel, guard in (("src/rl/qtable.h", "AER_RL_QTABLE_H_"),
                           ("src/common/sim_time.h", "AER_COMMON_SIM_TIME_H_"),
                           ("bench/bench_common.h", "AER_BENCH_BENCH_COMMON_H_")):
            findings = self.repo.lint(
                rel, f"#ifndef {guard}\n#define {guard}\n#endif  // {guard}\n")
            self.assertEqual(findings, [], rel)

    # -- no-float -----------------------------------------------------------

    def test_float_in_accounting_path_flagged(self):
        findings = self.repo.lint("src/sim/cost_model.cc",
                                  "float total_cost = 0.f;\n")
        self.assert_rule(findings, "no-float")

    def test_float_in_comment_or_test_ok(self):
        self.assertEqual(
            self.repo.lint("src/sim/cost_model.cc",
                           "// never use float here\ndouble cost = 0.0;\n"),
            [])
        self.assertEqual(
            self.repo.lint("tests/sim/cost_model_test.cc", "float x = 1.f;\n"),
            [])

    # -- no-unchecked-at ----------------------------------------------------

    def test_container_at_flagged(self):
        findings = self.repo.lint("src/rl/qlearning.cc",
                                  "double q = table.at(key);\n")
        self.assert_rule(findings, "no-unchecked-at")

    def test_at_in_tests_ok(self):
        findings = self.repo.lint("tests/rl/qtable_test.cc",
                                  "EXPECT_EQ(groups.at(7).size(), 3u);\n")
        self.assertEqual(findings, [])

    # -- unchecked-io -------------------------------------------------------

    def test_raw_strtoull_in_parser_layer_flagged(self):
        findings = self.repo.lint(
            "src/rl/qtable.cc",
            "std::uint64_t k = std::strtoull(buf, &end, 16);\n")
        self.assert_rule(findings, "unchecked-io")

    def test_std_stoi_flagged_checked_parse_ok(self):
        self.assert_rule(
            self.repo.lint("src/log/recovery_log.cc",
                           "int t = std::stoi(field);\n"),
            "unchecked-io")
        self.assertEqual(
            self.repo.lint("src/log/recovery_log.cc",
                           "const auto t = ParseInt64(field);\n"),
            [])

    def test_raw_parse_outside_io_layers_not_flagged(self):
        # common/string_util.cc is where the checked wrappers live; the rule
        # scopes to the deserialization layers only.
        findings = self.repo.lint(
            "src/common/string_util.cc",
            "const long long v = std::strtoll(buf.c_str(), &end, 10);\n")
        self.assertEqual(findings, [])

    def test_discarded_getline_flagged(self):
        findings = self.repo.lint("src/log/recovery_log.cc",
                                  "std::getline(is, line);\n")
        self.assert_rule(findings, "unchecked-io")

    def test_condition_position_getline_ok(self):
        findings = self.repo.lint(
            "src/log/recovery_log.cc",
            "while (std::getline(is, line)) { use(line); }\n"
            "if (!std::getline(is, header)) return false;\n")
        self.assertEqual(findings, [])

    def test_unchecked_fstream_flagged(self):
        findings = self.repo.lint("src/rl/qtable.cc",
                                  "std::ifstream is(path);\n"
                                  "Read(is, out);\n")
        self.assert_rule(findings, "unchecked-io")

    def test_checked_fstream_ok(self):
        findings = self.repo.lint(
            "src/rl/qtable.cc",
            "std::ifstream is(path);\n"
            "if (!is.good()) return false;\n")
        self.assertEqual(findings, [])
        findings = self.repo.lint(
            "src/log/recovery_log.cc",
            "std::ofstream os(path);\n"
            "AER_CHECK(os.good()) << path;\n")
        self.assertEqual(findings, [])

    # -- no-direct-output ---------------------------------------------------

    def test_cout_in_library_layer_flagged(self):
        for snippet in ("std::cout << stats.cures << std::endl;",
                        "std::cerr << \"timeout\" << machine;",
                        "printf(\"trained %d types\\n\", n);",
                        "std::fprintf(stderr, \"sweep %lld\\n\", sweep);"):
            for scope in ("src/core/recovery_manager.cc",
                          "src/rl/qlearning.cc", "src/sim/platform.cc"):
                findings = self.repo.lint(scope, snippet + "\n")
                self.assert_rule(findings, "no-direct-output")

    def test_output_outside_library_layers_ok(self):
        # The CLI, benches, and tests print by design; so may src layers
        # outside the scoped three (e.g. log_report builds report strings).
        for scope in ("examples/aerctl.cpp", "bench/bench_common.cc",
                      "tests/core/manager_test.cc", "src/log/log_report.cc"):
            findings = self.repo.lint(
                scope, "std::printf(\"%s\", report.c_str());\n")
            self.assertEqual(findings, [], scope)

    def test_output_mention_in_comment_or_string_ok(self):
        findings = self.repo.lint(
            "src/core/recovery_manager.cc",
            "// never std::cout from here; emit a span instead\n"
            "const char* kHint = \"printf(...) is banned in src/core\";\n")
        self.assertEqual(findings, [])

    def test_direct_output_allow_pragma(self):
        findings = self.repo.lint(
            "src/rl/qlearning.cc",
            "std::cerr << x;  // aer-lint: allow(no-direct-output)\n")
        self.assertEqual(findings, [])

    # -- mutex-annotation ---------------------------------------------------

    def test_raw_std_mutex_in_src_flagged(self):
        for snippet in ("std::mutex mu_;",
                        "std::lock_guard<std::mutex> lock(mu_);",
                        "std::unique_lock<std::mutex> lock(mu_);",
                        "std::scoped_lock lock(a_, b_);",
                        "std::condition_variable cv_;"):
            findings = self.repo.lint("src/obs/trace_collector.cc",
                                      snippet + "\n")
            self.assert_rule(findings, "mutex-annotation")

    def test_aer_mutex_with_guarded_field_ok(self):
        findings = self.repo.lint(
            "src/obs/widget.h",
            "#ifndef AER_OBS_WIDGET_H_\n"
            "#define AER_OBS_WIDGET_H_\n"
            "class Widget {\n"
            "  mutable aer::Mutex mu_;\n"
            "  int value_ AER_GUARDED_BY(mu_) = 0;\n"
            "};\n"
            "#endif  // AER_OBS_WIDGET_H_\n")
        self.assertEqual(findings, [])

    def test_unannotated_aer_mutex_member_flagged(self):
        findings = self.repo.lint(
            "src/obs/widget.h",
            "#ifndef AER_OBS_WIDGET_H_\n"
            "#define AER_OBS_WIDGET_H_\n"
            "class Widget {\n"
            "  mutable Mutex mu_;\n"
            "  int value_ = 0;\n"
            "};\n"
            "#endif  // AER_OBS_WIDGET_H_\n")
        self.assert_rule(findings, "mutex-annotation")

    def test_mutex_wrapper_header_is_exempt(self):
        findings = self.repo.lint(
            "src/common/mutex.h",
            "#ifndef AER_COMMON_MUTEX_H_\n"
            "#define AER_COMMON_MUTEX_H_\n"
            "class Mutex { std::mutex mu_; };\n"
            "#endif  // AER_COMMON_MUTEX_H_\n")
        self.assertEqual(findings, [])

    def test_raw_mutex_outside_src_not_flagged(self):
        findings = self.repo.lint(
            "tests/common/pool_test.cc",
            "std::mutex mu;\nstd::lock_guard<std::mutex> lock(mu);\n")
        self.assertEqual(findings, [])

    def test_mutex_annotation_allow_pragma(self):
        findings = self.repo.lint(
            "src/obs/special.cc",
            "std::mutex raw;  // aer-lint: allow(mutex-annotation)\n")
        self.assertEqual(findings, [])

    # -- metric-catalog -----------------------------------------------------

    CATALOG = ("# Observability\n\n"
               "- `aer_recovery_processes_total` — counter\n"
               "- `aer_training_types` — gauge\n")

    def write_catalog(self):
        doc = self.repo.root / "docs/OBSERVABILITY.md"
        doc.parent.mkdir(parents=True, exist_ok=True)
        doc.write_text(self.CATALOG, encoding="utf-8")

    def test_undocumented_metric_flagged(self):
        self.write_catalog()
        findings = self.repo.lint(
            "src/core/recovery_manager.cc",
            'metrics.GetCounter("aer_recovery_new_thing_total").Inc();\n')
        self.assert_rule(findings, "metric-catalog")
        self.assertIn("aer_recovery_new_thing_total", findings[0])

    def test_documented_metric_ok(self):
        self.write_catalog()
        findings = self.repo.lint(
            "src/core/recovery_manager.cc",
            'metrics.GetCounter("aer_recovery_processes_total").Inc();\n'
            'metrics.GetGauge("aer_training_types").Set(1.0);\n')
        self.assertEqual(findings, [])

    def test_wrapped_registration_call_matched(self):
        # A call wrapped across the line break still registers the name.
        self.write_catalog()
        findings = self.repo.lint(
            "src/rl/telemetry.cc",
            "metrics.GetCounter(\n"
            '    "aer_training_undocumented_total");\n')
        self.assert_rule(findings, "metric-catalog")
        self.assertIn(":1:", findings[0])

    def test_tests_and_non_aer_names_exempt(self):
        self.write_catalog()
        self.assertEqual(
            self.repo.lint("tests/obs/metrics_test.cc",
                           'registry.GetCounter("aer_test_total").Inc();\n'),
            [])
        self.assertEqual(
            self.repo.lint("src/obs/metrics.cc",
                           'registry.GetCounter(name);\n'),
            [])

    def test_metric_catalog_allow_pragma(self):
        self.write_catalog()
        findings = self.repo.lint(
            "src/core/recovery_manager.cc",
            'metrics.GetCounter("aer_tmp_total");'
            '  // aer-lint: allow(metric-catalog)\n')
        self.assertEqual(findings, [])

    def test_metric_catalog_pragma_on_wrapped_name_line(self):
        # For a call wrapped across lines the pragma may sit on the name's
        # line, where it reads naturally.
        self.write_catalog()
        findings = self.repo.lint(
            "bench/micro_benchmarks.cc",
            "registry.GetCounter(\n"
            '    "aer_bench_probe");  // aer-lint: allow(metric-catalog)\n')
        self.assertEqual(findings, [])

    def test_missing_catalog_doc_skips_rule(self):
        # Scratch roots (like this test's) have no docs/OBSERVABILITY.md;
        # the rule must not fire on them.
        findings = self.repo.lint(
            "src/core/recovery_manager.cc",
            'metrics.GetCounter("aer_recovery_whatever_total");\n')
        self.assertEqual(findings, [])

    def test_unregistered_catalog_name_flagged(self):
        # The reverse direction: a frozen-catalog name no src/ or bench/
        # literal registers is a finding on the doc line. Stage histograms
        # count as registered through their `stage:<name>` tokens, and names
        # outside the frozen section are not catalog entries.
        doc = self.repo.root / "docs/OBSERVABILITY.md"
        doc.parent.mkdir(parents=True, exist_ok=True)
        doc.write_text(
            "# Observability\n\n"
            "See `aer_inject_incidents_total_delta` below.\n\n"
            "## Metric catalog (frozen)\n\n"
            "- `aer_recovery_processes_total` — counter\n"
            "- `aer_inject_hangs_total` — counter\n"
            "- `aer_trace_stage_<name>_seconds`: "
            "`aer_trace_stage_detect_seconds`\n\n"
            "## Critical-path stages\n\n"
            "`stage:detect`, `aer_ts_unregistered_total`\n",
            encoding="utf-8")
        src = self.repo.root / "src/core/recovery_manager.cc"
        src.parent.mkdir(parents=True, exist_ok=True)
        src.write_text(
            'metrics.GetCounter("aer_recovery_processes_total").Inc();\n',
            encoding="utf-8")
        linter = aer_lint.Linter(self.repo.root)
        linter.lint_file(src)
        linter.lint_catalog_coverage()
        self.assertEqual(len(linter.findings), 1, linter.findings)
        self.assert_rule(linter.findings, "metric-catalog")
        self.assertIn("docs/OBSERVABILITY.md:8:", linter.findings[0])
        self.assertIn("aer_inject_hangs_total", linter.findings[0])
        # Registering it clears the finding; a whole-tree main() run checks
        # the same direction.
        src.write_text(
            'metrics.GetCounter("aer_recovery_processes_total").Inc();\n'
            'metrics.GetCounter("aer_inject_hangs_total").Inc();\n',
            encoding="utf-8")
        self.assertEqual(aer_lint.main(["--root", str(self.repo.root)]), 0)

    # -- stage-catalog ------------------------------------------------------

    def write_stage_catalog(self):
        doc = self.repo.root / "docs/OBSERVABILITY.md"
        doc.parent.mkdir(parents=True, exist_ok=True)
        doc.write_text("# Observability\n\n"
                       "Stage catalog: `stage:detect`, `stage:action_exec`.\n",
                       encoding="utf-8")

    def test_undocumented_stage_flagged(self):
        self.write_stage_catalog()
        findings = self.repo.lint(
            "src/obs/critical_path.cc",
            'return AER_TRACE_STAGE("warp_drive");\n')
        self.assert_rule(findings, "stage-catalog")
        self.assertIn("warp_drive", findings[0])

    def test_documented_stage_ok(self):
        self.write_stage_catalog()
        findings = self.repo.lint(
            "src/obs/critical_path.cc",
            'return AER_TRACE_STAGE("detect");\n'
            'return AER_TRACE_STAGE("action_exec");\n')
        self.assertEqual(findings, [])

    def test_stage_catalog_allow_pragma(self):
        self.write_stage_catalog()
        findings = self.repo.lint(
            "src/obs/critical_path.cc",
            'return AER_TRACE_STAGE("tmp");'
            '  // aer-lint: allow(stage-catalog)\n')
        self.assertEqual(findings, [])

    def test_missing_catalog_doc_skips_stage_rule(self):
        findings = self.repo.lint(
            "src/obs/critical_path.cc",
            'return AER_TRACE_STAGE("anything_goes");\n')
        self.assertEqual(findings, [])

    # -- allow pragma & stripping -------------------------------------------

    def test_allow_pragma_suppresses(self):
        findings = self.repo.lint(
            "src/rl/qlearning.cc",
            "double q = table.at(key);  // aer-lint: allow(no-unchecked-at)\n")
        self.assertEqual(findings, [])

    def test_violation_in_string_literal_not_flagged(self):
        findings = self.repo.lint(
            "src/log/log_report.cc",
            'const char* kMsg = "do not call rand() or std::mt19937";\n')
        self.assertEqual(findings, [])

    def test_block_comment_stripping_preserves_line_numbers(self):
        findings = self.repo.lint("src/log/log_report.cc",
                                  "/* multi\nline\ncomment */\n"
                                  "int bad = rand();\n")
        self.assert_rule(findings, "rng-containment")
        self.assertIn(":4:", findings[0])

    # -- end-to-end exit codes ----------------------------------------------

    def test_main_exit_codes(self):
        root = Path(self._tmp.name)
        (root / "src/common").mkdir(parents=True, exist_ok=True)
        clean = root / "src/common/ok.cc"
        clean.write_text("int x = 0;\n", encoding="utf-8")
        self.assertEqual(aer_lint.main(["--root", str(root)]), 0)
        dirty = root / "src/common/bad.cc"
        dirty.write_text("int y = rand();\n", encoding="utf-8")
        self.assertEqual(aer_lint.main(["--root", str(root)]), 1)

    def test_main_rejects_missing_root(self):
        # A typo'd --root must not silently lint zero files and pass.
        missing = Path(self._tmp.name) / "no/such/dir"
        self.assertEqual(aer_lint.main(["--root", str(missing)]), 2)


if __name__ == "__main__":
    unittest.main()
