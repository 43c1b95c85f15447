#!/usr/bin/env python3
"""Fixture tests for tools/lint/mandilint.py.

Each case builds a throwaway repo (a CMakeLists.txt stub plus source
files written from inline strings — fixtures are never committed as
scannable files, so the real repo lint stays clean) and runs the linter
programmatically. Covers the three concurrency rules added for the
thread-safety work (raw-lock-discipline, atomic-order-audit,
arena-escape — each with multiple violating fixtures), the resilience
rule no-unbounded-queue (queue-typed members in src/auth/ must carry a
bounded-by comment), no-fast-math (no value-unsafe float flag in
any CMake file), waiver precedence
(file-level allow-file suppresses the named rule only; line-level allow
suppresses its own line only), and the CLI contract (exit 0/1/2,
unknown-rule waivers rejected, --list-rules lists the full catalogue).

The arena-escape cases force the regex backend so results are identical
whether or not a clang toolchain is installed on the host.
"""

from __future__ import annotations

import contextlib
import io
import sys
import tempfile
import unittest
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parents[2] / "tools" / "lint"))

import mandilint  # noqa: E402


def write_repo(root: Path, files: dict[str, str]) -> None:
    (root / "CMakeLists.txt").write_text("# fixture repo\n", encoding="utf-8")
    for rel, content in files.items():
        path = root / rel
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(content, encoding="utf-8")


class MandilintCase(unittest.TestCase):
    def setUp(self) -> None:
        self._tmp = tempfile.TemporaryDirectory()
        self.repo = Path(self._tmp.name)
        self.addCleanup(self._tmp.cleanup)

    def lint_files(self, files: dict[str, str], subdirs=("src",)) -> list:
        write_repo(self.repo, files)
        ctx = mandilint.Context(self.repo, arena_backend="regex")
        return mandilint.lint(self.repo, list(subdirs), ctx)

    def findings_for(self, rule: str, files: dict[str, str], subdirs=("src",)) -> list:
        return [f for f in self.lint_files(files, subdirs) if f.rule == rule]


GUARD = "MANDIPASS_EXPECTS(true);\n"  # satisfies expects-guard in .cpp fixtures


class RawLockDiscipline(MandilintCase):
    def test_bare_lock_and_unlock_are_flagged(self) -> None:
        found = self.findings_for(
            "raw-lock-discipline",
            {
                "src/a/engine.cpp": GUARD + "void f(M& m) {\n  m.lock();\n  m.unlock();\n}\n",
            },
        )
        self.assertEqual([f.line for f in found], [3, 4])

    def test_pthread_primitives_are_flagged(self) -> None:
        found = self.findings_for(
            "raw-lock-discipline",
            {"src/a/legacy.cpp": GUARD + "void f() { pthread_mutex_lock(&mu); }\n"},
        )
        self.assertEqual(len(found), 1)

    def test_shared_variants_are_flagged(self) -> None:
        found = self.findings_for(
            "raw-lock-discipline",
            {
                "src/a/rw.cpp": GUARD
                + "void f(S& m) {\n  m.lock_shared();\n  m.unlock_shared();\n}\n",
            },
        )
        self.assertEqual(len(found), 2)

    def test_scoped_guards_are_clean(self) -> None:
        found = self.findings_for(
            "raw-lock-discipline",
            {
                "src/a/good.cpp": GUARD
                + "void f(Mutex& m) {\n  MutexLock lock(m);\n  WriterLock w(m2);\n}\n",
            },
        )
        self.assertEqual(found, [])

    def test_wrapper_header_is_exempt(self) -> None:
        found = self.findings_for(
            "raw-lock-discipline",
            {"src/common/mutex.h": "#pragma once\nvoid lock() { m_.lock(); }\n"},
        )
        self.assertEqual(found, [])

    def test_outside_src_is_out_of_scope(self) -> None:
        found = self.findings_for(
            "raw-lock-discipline",
            {"tests/t.cpp": "void f(M& m) { m.lock(); }\n"},
            subdirs=("tests",),
        )
        self.assertEqual(found, [])

    def test_line_waiver_suppresses_one_site(self) -> None:
        found = self.findings_for(
            "raw-lock-discipline",
            {
                "src/a/mixed.cpp": GUARD
                + "void f(M& m) {\n"
                + "  m.lock();  // mandilint: allow(raw-lock-discipline) -- timed acquire\n"
                + "  m.unlock();\n"
                + "}\n",
            },
        )
        self.assertEqual([f.line for f in found], [4])


class AtomicOrderAudit(MandilintCase):
    def test_unjustified_acquire_is_flagged(self) -> None:
        found = self.findings_for(
            "atomic-order-audit",
            {"src/a/sync.cpp": GUARD + "auto v = x.load(std::memory_order_acquire);\n"},
        )
        self.assertEqual(len(found), 1)

    def test_unjustified_seq_cst_is_flagged(self) -> None:
        found = self.findings_for(
            "atomic-order-audit",
            {"src/a/sync.cpp": GUARD + "x.store(1, std::memory_order_seq_cst);\n"},
        )
        self.assertEqual(len(found), 1)

    def test_same_line_comment_justifies(self) -> None:
        found = self.findings_for(
            "atomic-order-audit",
            {
                "src/a/sync.cpp": GUARD
                + "auto v = x.load(std::memory_order_acquire);"
                + "  // pairs with the release store in publish()\n",
            },
        )
        self.assertEqual(found, [])

    def test_preceding_comment_line_justifies(self) -> None:
        found = self.findings_for(
            "atomic-order-audit",
            {
                "src/a/sync.cpp": GUARD
                + "// pairs with the release store in publish()\n"
                + "auto v = x.load(std::memory_order_acquire);\n",
            },
        )
        self.assertEqual(found, [])

    def test_relaxed_needs_no_justification(self) -> None:
        found = self.findings_for(
            "atomic-order-audit",
            {"src/a/sync.cpp": GUARD + "auto v = x.load(std::memory_order_relaxed);\n"},
        )
        self.assertEqual(found, [])

    def test_bare_atomic_outside_blessed_files_is_flagged(self) -> None:
        found = self.findings_for(
            "atomic-order-audit",
            {"src/a/state.h": "#pragma once\nstd::atomic<int> counter{0};\n"},
        )
        self.assertEqual(len(found), 1)

    def test_atomic_in_blessed_files_is_clean(self) -> None:
        found = self.findings_for(
            "atomic-order-audit",
            {
                "src/common/obs.h": "#pragma once\nstd::atomic<int> v{0};\n",
                "src/common/thread_pool.cpp": GUARD + "std::atomic<bool> stop{false};\n",
            },
        )
        self.assertEqual(found, [])


ARENA_HINT = "// uses ScratchArena\n"


class ArenaEscape(MandilintCase):
    def test_member_stored_arena_pointer_is_flagged(self) -> None:
        found = self.findings_for(
            "arena-escape",
            {"src/a/holder.h": "#pragma once\nclass H {\n  ScratchArena* arena_ = nullptr;\n};\n"},
        )
        self.assertEqual(len(found), 1)

    def test_returning_alloc_result_is_flagged(self) -> None:
        found = self.findings_for(
            "arena-escape",
            {
                "src/a/leak.cpp": GUARD
                + ARENA_HINT
                + "float* f(ScratchArena& arena) {\n  return arena.alloc(64);\n}\n",
            },
        )
        self.assertEqual(len(found), 1)

    def test_member_stored_alloc_result_is_flagged(self) -> None:
        found = self.findings_for(
            "arena-escape",
            {
                "src/a/cache.cpp": GUARD
                + ARENA_HINT
                + "void H::warm(ScratchArena& arena) {\n  buf_ = arena.alloc(64);\n}\n",
            },
        )
        self.assertEqual(len(found), 1)

    def test_arena_handed_to_thread_is_flagged(self) -> None:
        found = self.findings_for(
            "arena-escape",
            {
                "src/a/spawn.cpp": GUARD
                + ARENA_HINT
                + "void f(ScratchArena& arena) {\n"
                + "  std::thread t([&arena] { arena.reset(); });\n"
                + "}\n",
            },
        )
        self.assertEqual(len(found), 1)

    def test_local_use_is_clean(self) -> None:
        found = self.findings_for(
            "arena-escape",
            {
                "src/a/ok.cpp": GUARD
                + "void f(ScratchArena& arena, float* out) {\n"
                + "  float* tmp = arena.alloc(64);\n"
                + "  out[0] = tmp[0];\n"
                + "}\n",
            },
        )
        self.assertEqual(found, [])

    def test_inference_plan_itself_is_exempt(self) -> None:
        found = self.findings_for(
            "arena-escape",
            {
                "src/nn/inference_plan.cpp": GUARD
                + "float* ScratchArena::alloc(std::size_t n) { return blocks_.alloc(n); }\n",
            },
        )
        self.assertEqual(found, [])


class NoUnboundedQueue(MandilintCase):
    def test_uncommented_deque_member_in_auth_is_flagged(self) -> None:
        found = self.findings_for(
            "no-unbounded-queue",
            {
                "src/auth/q.h": "#pragma once\nclass Q {\n  std::deque<Item> pending_;\n};\n",
            },
        )
        self.assertEqual([f.line for f in found], [3])

    def test_queue_and_priority_queue_members_are_flagged(self) -> None:
        found = self.findings_for(
            "no-unbounded-queue",
            {
                "src/auth/q.h": "#pragma once\nclass Q {\n"
                "  std::queue<Item> inbox_;\n"
                "  std::priority_queue<Item, std::vector<Item>, Cmp> heap_{};\n"
                "};\n",
            },
        )
        self.assertEqual([f.line for f in found], [3, 4])

    def test_same_line_bounded_by_comment_is_clean(self) -> None:
        found = self.findings_for(
            "no-unbounded-queue",
            {
                "src/auth/q.h": "#pragma once\nclass Q {\n"
                "  std::deque<Item> pending_;  // bounded-by: capacity_, enforced in try_push\n"
                "};\n",
            },
        )
        self.assertEqual(found, [])

    def test_preceding_line_bounded_by_comment_is_clean(self) -> None:
        found = self.findings_for(
            "no-unbounded-queue",
            {
                "src/auth/q.h": "#pragma once\nclass Q {\n"
                "  // bounded-by: capacity_, enforced in try_push\n"
                "  std::deque<Item> pending_;\n"
                "};\n",
            },
        )
        self.assertEqual(found, [])

    def test_line_waiver_suppresses(self) -> None:
        found = self.findings_for(
            "no-unbounded-queue",
            {
                "src/auth/q.h": "#pragma once\nclass Q {\n"
                "  std::deque<Item> pending_;"
                "  // mandilint: allow(no-unbounded-queue) -- drained every tick\n"
                "};\n",
            },
        )
        self.assertEqual(found, [])

    def test_queue_member_outside_auth_is_out_of_scope(self) -> None:
        found = self.findings_for(
            "no-unbounded-queue",
            {
                "src/common/q.h": "#pragma once\nclass Q {\n  std::deque<Item> pending_;\n};\n",
            },
        )
        self.assertEqual(found, [])

    def test_local_queue_variable_is_not_a_member(self) -> None:
        found = self.findings_for(
            "no-unbounded-queue",
            {
                "src/auth/q.cpp": GUARD
                + "void f() {\n  std::deque<Item> scratch;\n  use(scratch);\n}\n",
            },
        )
        self.assertEqual(found, [])


class WaiverPrecedence(MandilintCase):
    def test_file_waiver_suppresses_named_rule_only(self) -> None:
        files = {
            "src/a/mixed.cpp": GUARD
            + "// mandilint: allow-file(raw-lock-discipline) -- transition period\n"
            + "void f(M& m) {\n"
            + "  m.lock();\n"
            + "  auto v = x.load(std::memory_order_acquire);\n"
            + "}\n",
        }
        all_findings = self.lint_files(files)
        rules = sorted({f.rule for f in all_findings})
        self.assertNotIn("raw-lock-discipline", rules, "file waiver must suppress its rule")
        self.assertIn("atomic-order-audit", rules, "file waiver must not leak to other rules")

    def test_file_waiver_does_not_cross_files(self) -> None:
        files = {
            "src/a/waived.cpp": GUARD
            + "// mandilint: allow-file(raw-lock-discipline) -- transition period\n"
            + "void f(M& m) { m.lock(); }\n",
            "src/a/unwaived.cpp": GUARD + "void g(M& m) { m.lock(); }\n",
        }
        found = [f for f in self.lint_files(files) if f.rule == "raw-lock-discipline"]
        self.assertEqual([f.path for f in found], ["src/a/unwaived.cpp"])

    def test_line_waiver_for_other_rule_does_not_suppress(self) -> None:
        found = self.findings_for(
            "raw-lock-discipline",
            {
                "src/a/wrong.cpp": GUARD
                + "void f(M& m) {\n"
                + "  m.lock();  // mandilint: allow(unchecked-io) -- wrong rule\n"
                + "}\n",
            },
        )
        self.assertEqual(len(found), 1)

    def test_unknown_rule_in_waiver_is_a_usage_error(self) -> None:
        write_repo(
            self.repo,
            {"src/a/typo.cpp": GUARD + "int x;  // mandilint: allow(raw-lock-dicipline)\n"},
        )
        ctx = mandilint.Context(self.repo, arena_backend="regex")
        with self.assertRaises(mandilint.UsageError):
            mandilint.lint(self.repo, ["src"], ctx)


class CliContract(MandilintCase):
    def run_cli(self, argv: list[str]) -> tuple[int, str, str]:
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = mandilint.main(argv)
        return code, out.getvalue(), err.getvalue()

    def test_clean_repo_exits_zero(self) -> None:
        write_repo(self.repo, {"src/a/ok.h": "#pragma once\nint f();\n"})
        code, out, _ = self.run_cli(
            ["--repo", str(self.repo), "--arena-backend", "regex", "src"]
        )
        self.assertEqual(code, 0)
        self.assertIn("clean", out)

    def test_findings_exit_one(self) -> None:
        write_repo(self.repo, {"src/a/bad.cpp": GUARD + "void f(M& m) { m.lock(); }\n"})
        code, out, err = self.run_cli(
            ["--repo", str(self.repo), "--arena-backend", "regex", "src"]
        )
        self.assertEqual(code, 1)
        self.assertIn("raw-lock-discipline", out)
        self.assertIn("finding(s)", err)

    def test_unknown_waiver_rule_exits_two_with_usage(self) -> None:
        write_repo(
            self.repo,
            {"src/a/typo.cpp": GUARD + "int x;  // mandilint: allow(not-a-rule)\n"},
        )
        code, _, err = self.run_cli(
            ["--repo", str(self.repo), "--arena-backend", "regex", "src"]
        )
        self.assertEqual(code, 2)
        self.assertIn("unknown rule 'not-a-rule'", err)
        self.assertIn("valid rules:", err)

    def test_bad_repo_root_exits_two(self) -> None:
        code, _, err = self.run_cli(["--repo", str(self.repo / "nowhere"), "src"])
        self.assertEqual(code, 2)
        self.assertIn("repo root", err)

    def test_bad_compile_commands_exits_two(self) -> None:
        write_repo(self.repo, {"src/a/ok.h": "#pragma once\n"})
        bad = self.repo / "cc.json"
        bad.write_text("{not json", encoding="utf-8")
        code, _, err = self.run_cli(
            ["--repo", str(self.repo), "--compile-commands", str(bad), "src"]
        )
        self.assertEqual(code, 2)
        self.assertIn("compile database", err)

    def test_list_rules_names_every_rule(self) -> None:
        code, out, _ = self.run_cli(["--list-rules"])
        self.assertEqual(code, 0)
        for rule in mandilint.RULES:
            self.assertIn(rule, out, f"--list-rules must document {rule}")


class NoFastMath(MandilintCase):
    def test_flag_in_a_module_cmakelists_is_flagged(self) -> None:
        found = self.findings_for(
            "no-fast-math",
            {
                "src/nn/CMakeLists.txt": (
                    "add_library(nn kernel.cpp)\n"
                    "target_compile_options(nn PRIVATE -O3 -ffast-math -funroll-loops)\n"
                ),
            },
        )
        self.assertEqual([(f.path, f.line) for f in found], [("src/nn/CMakeLists.txt", 2)])
        self.assertIn("-ffast-math", found[0].message)

    def test_flag_in_a_source_properties_block_is_flagged(self) -> None:
        found = self.findings_for(
            "no-fast-math",
            {
                "src/nn/CMakeLists.txt": (
                    "set_source_files_properties(\n"
                    "  kernel.cpp\n"
                    '  PROPERTIES COMPILE_OPTIONS "-O2;-freciprocal-math")\n'
                ),
            },
        )
        self.assertEqual([f.line for f in found], [3])

    def test_every_value_unsafe_flag_anywhere_is_flagged(self) -> None:
        flags = (
            "-ffast-math", "-Ofast", "-ffinite-math-only", "-funsafe-math-optimizations",
            "-fassociative-math", "-freciprocal-math", "-fno-signed-zeros",
            "-ffp-contract=fast",
        )
        found = self.findings_for(
            "no-fast-math",
            {
                "cmake/flags.cmake": "".join(f"add_compile_options({f})\n" for f in flags),
                "CMakePresets.json": '{"CMAKE_CXX_FLAGS": "-Ofast"}\n',
            },
        )
        self.assertEqual(
            sorted((f.path, f.line) for f in found),
            [("CMakePresets.json", 1)] + [("cmake/flags.cmake", i) for i in range(1, 9)],
        )

    def test_clean_tree_passes(self) -> None:
        found = self.findings_for(
            "no-fast-math",
            {
                "src/nn/CMakeLists.txt": (
                    "# never pass -ffast-math here\n"
                    "add_compile_options(-ffp-contract=off -fno-fast-math)\n"
                    "target_compile_options(nn PRIVATE -O3 -march=native)  # not -Ofast\n"
                ),
                "build/CMakeFiles/flags.cmake": "set(FLAGS -ffast-math)\n",
            },
        )
        self.assertEqual(found, [])


if __name__ == "__main__":
    unittest.main(verbosity=2)
