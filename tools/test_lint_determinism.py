#!/usr/bin/env python3
"""Tests for tools/lint_determinism.py.

unittest.TestCase-based so both runners work:

    python3 -m pytest tools/ -q          # CI
    python3 -m unittest discover -s tools -p 'test_*.py'   # no-pytest boxes

The suite covers every rule (fires / does not fire), comment and string
stripping, the allowlist lifecycle (suppression, mandatory justification,
stale-entry failure), the CLI exit codes, and — as an integration check —
that the real repository passes with the checked-in allowlist.
"""
import os
import shutil
import subprocess
import sys
import tempfile
import unittest

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))

import lint_determinism as lint  # noqa: E402

REPO_ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
CRITICAL = "src/sim/session.cpp"  # any member of lint.CRITICAL_PATHS


def rules_of(findings):
    return sorted({finding.rule for finding in findings})


class StripTest(unittest.TestCase):
    def test_line_comments_blanked(self):
        out = lint.strip_comments_and_strings("int a; // std::rand()\nint b;")
        self.assertNotIn("rand", out)
        self.assertEqual(out.count("\n"), 1)

    def test_block_comments_keep_line_structure(self):
        text = "a /* std::random_device\n spans lines */ b\n"
        out = lint.strip_comments_and_strings(text)
        self.assertNotIn("random_device", out)
        self.assertEqual(out.count("\n"), text.count("\n"))

    def test_string_literals_blanked(self):
        out = lint.strip_comments_and_strings('call("std::rand()");')
        self.assertNotIn("rand", out)

    def test_raw_strings_blanked(self):
        out = lint.strip_comments_and_strings('x = R"js({"t":"time()"})js";')
        self.assertNotIn("time()", out)

    def test_code_survives(self):
        out = lint.strip_comments_and_strings("std::rand();  // seed\n")
        self.assertIn("std::rand()", out)


class BannedTimeSourceTest(unittest.TestCase):
    def check(self, snippet, path="src/yield/x.cpp"):
        return lint.scan_text(path, snippet)

    def test_random_device_fires(self):
        findings = self.check("std::random_device rd;\n")
        self.assertEqual(rules_of(findings), ["banned-time-source"])

    def test_system_clock_fires(self):
        findings = self.check("auto t = std::chrono::system_clock::now();\n")
        self.assertEqual(rules_of(findings), ["banned-time-source"])

    def test_high_resolution_clock_fires(self):
        findings = self.check(
            "using C = std::chrono::high_resolution_clock;\n")
        self.assertEqual(rules_of(findings), ["banned-time-source"])

    def test_time_call_fires(self):
        for call in ("time(NULL)", "time(nullptr)", "time(0)"):
            findings = self.check(f"auto t = {call};\n")
            self.assertEqual(rules_of(findings), ["banned-time-source"], call)

    def test_srand_and_rand_fire(self):
        findings = self.check("srand(42); int x = std::rand();\n")
        self.assertEqual(len(findings), 2)

    def test_steady_clock_is_fine(self):
        findings = self.check("auto t = std::chrono::steady_clock::now();\n")
        self.assertEqual(findings, [])

    def test_runtime_identifier_is_fine(self):
        # `time` as a substring of an identifier must not fire.
        findings = self.check("double run_time(int x);\ncompletion_time();\n")
        self.assertEqual(findings, [])

    def test_comment_mention_is_fine(self):
        findings = self.check("// never std::random_device here\nint a;\n")
        self.assertEqual(findings, [])


class UnorderedRulesTest(unittest.TestCase):
    def test_declaration_in_critical_file_fires(self):
        findings = lint.scan_text(
            CRITICAL, "std::unordered_map<std::string, int> cache;\n")
        self.assertIn("unordered-in-critical-path", rules_of(findings))

    def test_declaration_in_ordinary_file_is_fine(self):
        findings = lint.scan_text(
            "src/io/x.cpp", "std::unordered_map<int, int> lookup;\n")
        self.assertEqual(findings, [])

    def test_range_for_iteration_fires_anywhere(self):
        snippet = ("std::unordered_set<int> seen;\n"
                   "for (const int v : seen) use(v);\n")
        findings = lint.scan_text("src/io/x.cpp", snippet)
        self.assertEqual(rules_of(findings), ["unordered-iteration"])
        self.assertEqual(findings[0].line, 2)

    def test_begin_iteration_fires(self):
        snippet = ("std::unordered_map<int, int> m;\n"
                   "auto it = m.begin();\n")
        findings = lint.scan_text("src/io/x.cpp", snippet)
        self.assertEqual(rules_of(findings), ["unordered-iteration"])

    def test_find_and_end_comparison_is_fine(self):
        snippet = ("std::unordered_map<int, int> m;\n"
                   "if (m.find(k) != m.end()) return m.count(k);\n")
        self.assertEqual(lint.scan_text("src/io/x.cpp", snippet), [])

    def test_other_objects_member_is_fine(self):
        # plan->used / other.used share the name but not the container.
        snippet = ("std::unordered_set<int> used;\n"
                   "for (int v : plan->used) use(v);\n"
                   "copy(other.used.begin(), other.used.end());\n")
        self.assertEqual(lint.scan_text("src/io/x.cpp", snippet), [])


class FpAccumulateTest(unittest.TestCase):
    def test_double_accumulation_in_critical_file_fires(self):
        snippet = "double total = 0.0;\nfor (double v : xs) total += v;\n"
        findings = lint.scan_text(CRITICAL, snippet)
        self.assertEqual(rules_of(findings), ["fp-accumulate"])
        self.assertEqual(findings[0].line, 2)

    def test_minus_equals_fires(self):
        snippet = "double debt = 0.0;\ndebt -= payment;\n"
        findings = lint.scan_text(CRITICAL, snippet)
        self.assertEqual(rules_of(findings), ["fp-accumulate"])

    def test_integer_accumulation_is_fine(self):
        snippet = "std::int64_t runs = 0;\nruns += chunk;\n"
        self.assertEqual(lint.scan_text(CRITICAL, snippet), [])

    def test_ordinary_file_is_fine(self):
        snippet = "double total = 0.0;\ntotal += v;\n"
        self.assertEqual(lint.scan_text("src/yield/x.cpp", snippet), [])


class MixedRngVersionTest(unittest.TestCase):
    INJECTOR = "src/fault/samplers.hpp"

    def test_v1_only_function_is_fine(self):
        snippet = ("void inject(HexArray& a, Rng& rng) {\n"
                   "  if (rng.uniform01() < p) mark(a, rng);\n"
                   "}\n")
        self.assertEqual(lint.scan_text(self.INJECTOR, snippet), [])

    def test_v2_only_function_needs_no_allowlist(self):
        snippet = ("void inject_v2(HexArray& a, CounterStream& stream) {\n"
                   "  skip_sample_bernoulli(stream, n, p, on_fault);\n"
                   "  stream.skip(1);\n"
                   "}\n")
        self.assertEqual(lint.scan_text(self.INJECTOR, snippet), [])

    def test_mixing_contracts_in_one_function_fires_line_anchored(self):
        snippet = ("void inject(HexArray& a, Rng& rng,\n"
                   "            CounterStream& stream) {\n"
                   "  if (rng.uniform01() < p) mark(a);\n"
                   "  stream.skip(1);\n"
                   "}\n")
        findings = lint.scan_text(self.INJECTOR, snippet)
        self.assertEqual(rules_of(findings), ["mixed-rng-version"])
        self.assertEqual(findings[0].line, 4)  # where the mix begins

    def test_passing_both_generators_on_fires(self):
        snippet = ("void inject(HexArray& a, Rng& rng, CounterStream& s2) {\n"
                   "  helper(a, rng);\n"
                   "  other(a, stream);\n"
                   "}\n")
        findings = lint.scan_text(self.INJECTOR, snippet)
        self.assertEqual(rules_of(findings), ["mixed-rng-version"])

    def test_adjacent_v1_and_v2_twins_are_fine(self):
        snippet = ("void inject(HexArray& a, Rng& rng) {\n"
                   "  helper(a, rng);\n"
                   "}\n"
                   "void inject_v2(HexArray& a, CounterStream& stream) {\n"
                   "  helper_v2(a, stream);\n"
                   "}\n")
        self.assertEqual(lint.scan_text(self.INJECTOR, snippet), [])

    def test_declarations_mentioning_both_types_are_fine(self):
        # A header declaring both overloads: parameter names are preceded by
        # '&', which is not a draw.
        snippet = ("FaultMap inject(const FaultModel& model, HexArray& array,\n"
                   "                Rng& rng);\n"
                   "FaultMap inject_v2(const FaultModel& model, HexArray& array,\n"
                   "                   CounterStream& stream);\n")
        self.assertEqual(lint.scan_text("src/sim/fault_model.hpp", snippet),
                         [])

    def test_sim_fault_model_is_an_injector_path(self):
        snippet = ("void inject(FaultState& s, Rng& rng) {\n"
                   "  rng.uniform01();\n"
                   "  stream.skip(1);\n"
                   "}\n")
        findings = lint.scan_text("src/sim/fault_model.cpp", snippet)
        self.assertEqual(rules_of(findings), ["mixed-rng-version"])

    def test_non_injector_paths_are_exempt(self):
        # session.cpp holds the v1/v2 dispatch (separate lambdas per
        # contract) and is deliberately outside the rule's scope.
        snippet = ("void run(Rng& rng, CounterStream& stream) {\n"
                   "  rng.uniform01();\n"
                   "  stream.skip(1);\n"
                   "}\n")
        self.assertEqual(lint.scan_text("src/sim/session.cpp", snippet), [])


class AllowlistTest(unittest.TestCase):
    def setUp(self):
        self.tmp = tempfile.mkdtemp(prefix="lint_determinism_")
        self.addCleanup(shutil.rmtree, self.tmp)
        os.makedirs(os.path.join(self.tmp, "src", "yield"))

    def write(self, rel, text):
        path = os.path.join(self.tmp, rel)
        os.makedirs(os.path.dirname(path), exist_ok=True)
        with open(path, "w", encoding="utf-8") as handle:
            handle.write(text)
        return path

    def lint_repo(self, allow_text=""):
        allow = self.write("tools/allow.txt", allow_text)
        files = lint.collect_files(self.tmp, [])
        return lint.lint(self.tmp, files, allow, use_libclang=False)

    def test_entry_suppresses_finding(self):
        self.write("src/yield/x.cpp", "std::random_device rd;\n")
        kept, suppressed, errors = self.lint_repo(
            "src/yield/x.cpp:banned-time-source:random_device rd"
            " | hardware entropy for a one-off calibration tool\n")
        self.assertEqual(errors, [])
        self.assertEqual(kept, [])
        self.assertEqual(suppressed, 1)

    def test_unmatched_finding_is_kept(self):
        self.write("src/yield/x.cpp",
                   "std::random_device rd;\nsrand(1);\n")
        kept, suppressed, errors = self.lint_repo(
            "src/yield/x.cpp:banned-time-source:random_device rd | ok\n")
        self.assertEqual(errors, [])
        self.assertEqual(suppressed, 1)
        self.assertEqual(len(kept), 1)
        self.assertIn("srand", kept[0].source)

    def test_missing_justification_is_config_error(self):
        self.write("src/yield/x.cpp", "int a;\n")
        kept, _suppressed, errors = self.lint_repo(
            "src/yield/x.cpp:banned-time-source:whatever\n")
        self.assertEqual(kept, [])
        self.assertTrue(errors and "justification" in errors[0])

    def test_malformed_entry_is_config_error(self):
        self.write("src/yield/x.cpp", "int a;\n")
        _kept, _suppressed, errors = self.lint_repo(
            "not-enough-colons | some reason\n")
        self.assertTrue(errors)

    def test_stale_entry_fails_the_lint(self):
        self.write("src/yield/x.cpp", "int a;\n")
        kept, _suppressed, errors = self.lint_repo(
            "src/yield/x.cpp:banned-time-source:random_device | gone\n")
        self.assertEqual(errors, [])
        self.assertEqual(rules_of(kept), ["stale-allowlist"])

    def test_comments_and_blanks_ignored(self):
        self.write("src/yield/x.cpp", "int a;\n")
        kept, _suppressed, errors = self.lint_repo(
            "# a comment\n\n   \n")
        self.assertEqual(errors, [])
        self.assertEqual(kept, [])


class CliTest(unittest.TestCase):
    SCRIPT = os.path.join(REPO_ROOT, "tools", "lint_determinism.py")

    def run_cli(self, *args, cwd=None):
        return subprocess.run(
            [sys.executable, self.SCRIPT, *args],
            capture_output=True, text=True, cwd=cwd or REPO_ROOT)

    def test_real_repo_is_clean_with_checked_in_allowlist(self):
        result = self.run_cli("--no-libclang")
        self.assertEqual(result.returncode, 0,
                         result.stdout + result.stderr)

    def test_violation_exits_one(self):
        with tempfile.TemporaryDirectory() as tmp:
            os.makedirs(os.path.join(tmp, "src"))
            bad = os.path.join(tmp, "src", "bad.cpp")
            with open(bad, "w", encoding="utf-8") as handle:
                handle.write("std::random_device rd;\n")
            allow = os.path.join(tmp, "allow.txt")
            open(allow, "w", encoding="utf-8").close()
            result = self.run_cli("--no-libclang", "--root", tmp,
                                  "--allowlist", allow)
            self.assertEqual(result.returncode, 1, result.stderr)
            self.assertIn("banned-time-source", result.stdout)

    def test_malformed_allowlist_exits_two(self):
        with tempfile.TemporaryDirectory() as tmp:
            os.makedirs(os.path.join(tmp, "src"))
            allow = os.path.join(tmp, "allow.txt")
            with open(allow, "w", encoding="utf-8") as handle:
                handle.write("no-justification-here\n")
            result = self.run_cli("--no-libclang", "--root", tmp,
                                  "--allowlist", allow)
            self.assertEqual(result.returncode, 2, result.stderr)


if __name__ == "__main__":
    unittest.main()
