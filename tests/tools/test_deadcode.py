#!/usr/bin/env python3
"""Fixture tests for tools/lint/deadcode.py.

Each case feeds the scanner small `nm --defined-only` listings written
inline (mangled names, as nm prints them), so no build is needed: an
unlisted dead symbol fails, an allowlisted one passes, a stale allowlist
entry fails, constructor/destructor variants fold together, compiler
clones count as their function, and one binary keeping a symbol is
enough. The CLI cases cover the exit codes for a tree with nothing built
and for an allowlist entry without a reason.
"""

from __future__ import annotations

import contextlib
import io
import sys
import tempfile
import unittest
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parents[2] / "tools" / "lint"))

import deadcode  # noqa: E402

FOO = "_ZN9mandipass3dsp3fooEv"  # mandipass::dsp::foo()
BAR = "_ZN9mandipass3dsp3barEi"  # mandipass::dsp::bar(int)
SIZE = "_ZNK9mandipass4auth11MatrixCache4sizeEv"  # MatrixCache::size() const
CTOR = "_ZN9mandipass4auth7CounterC{}Ev"  # Counter::Counter()
DTOR = "_ZN9mandipass4auth7CounterD{}Ev"  # Counter::~Counter()


def listing(*rows: tuple[str, str], member: str = "lib.o") -> str:
    """An nm listing: an archive member header, then `addr type name` rows."""
    lines = [f"\n{member}:"]
    lines += [f"{0x1000 + 16 * i:016x} {kind} {name}" for i, (kind, name) in enumerate(rows)]
    return "\n".join(lines) + "\n"


class ScanCase(unittest.TestCase):
    def scan(self, archive: str, binaries: list[str], allowlist: dict[str, str] | None = None):
        return deadcode.scan([archive], binaries, allowlist or {})

    def test_unlisted_dead_symbol_fails(self) -> None:
        dead, stale = self.scan(listing(("T", FOO), ("T", BAR)), [listing(("T", BAR))])
        self.assertEqual(dead, ["mandipass::dsp::foo()"])
        self.assertEqual(stale, [])

    def test_allowlisted_dead_symbol_passes(self) -> None:
        dead, stale = self.scan(listing(("T", FOO), ("T", SIZE)), [listing(("T", FOO))],
                                {"mandipass::auth::MatrixCache::size": "tests read it"})
        self.assertEqual((dead, stale), ([], []))

    def test_stale_allowlist_entry_fails(self) -> None:
        dead, stale = self.scan(listing(("T", FOO)), [listing(("T", FOO))],
                                {"mandipass::dsp::foo": "kept on purpose"})
        self.assertEqual(dead, [])
        self.assertEqual(stale, ["mandipass::dsp::foo"])

    def test_ctor_and_dtor_variants_fold_together(self) -> None:
        archive = listing(*[("T", CTOR.format(v)) for v in (1, 2)],
                          *[("T", DTOR.format(v)) for v in (0, 1, 2)])
        # The binary keeps one variant of each: the class is alive.
        dead, _ = self.scan(archive, [listing(("T", CTOR.format(2)), ("W", DTOR.format(1)))])
        self.assertEqual(dead, [])
        # Nothing kept: one finding per function, not one per variant.
        dead, _ = self.scan(archive, [listing(("T", FOO))])
        self.assertEqual(dead, ["mandipass::auth::Counter::Counter()",
                                "mandipass::auth::Counter::~Counter()"])

    def test_clones_count_as_their_function(self) -> None:
        archive = listing(("T", FOO), ("t", FOO + ".cold"), ("T", BAR), ("t", BAR + ".part.0"))
        binary = listing(("t", FOO + ".constprop.0"), ("t", BAR + ".isra.0"))
        self.assertEqual(self.scan(archive, [binary]), ([], []))

    def test_symbol_kept_by_only_one_binary_passes(self) -> None:
        binaries = [listing(("T", BAR), member="bench_a"), listing(("T", FOO), member="bench_b"),
                    listing(("T", "main"), member="bench_c")]
        self.assertEqual(self.scan(listing(("T", FOO), ("T", BAR)), binaries), ([], []))

    def test_only_strong_library_functions_are_scanned(self) -> None:
        archive = listing(("W", "_ZN9mandipass3dsp6inlineEv"),            # inline: weak
                          ("T", "_ZN9mandipass3dsp12_GLOBAL__N_16helperEv"),  # anonymous ns
                          ("T", "_ZN5other3fooEv"),                        # not mandipass
                          ("D", "_ZN9mandipass3dsp5tableE"),               # data, not code
                          ("T", FOO))
        self.assertEqual(self.scan(archive, [listing(("T", FOO))]), ([], []))

    def test_qualified_name_drops_the_parameter_list(self) -> None:
        self.assertEqual(deadcode.qualified_name("mandipass::a::B::size() const"),
                         "mandipass::a::B::size")
        self.assertEqual(deadcode.qualified_name("mandipass::a::F::operator()(int (*)(int))"),
                         "mandipass::a::F::operator()")


class CliCase(unittest.TestCase):
    def setUp(self) -> None:
        self._tmp = tempfile.TemporaryDirectory()
        self.root = Path(self._tmp.name)
        self.addCleanup(self._tmp.cleanup)

    def run_main(self, *argv: str) -> int:
        with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
            return deadcode.main(list(argv))

    def test_tree_with_nothing_built_is_an_error(self) -> None:
        allow = self.root / "allow.txt"
        allow.write_text("# nothing kept on purpose\n", encoding="utf-8")
        self.assertEqual(self.run_main(str(self.root), "--allowlist", str(allow)), 2)

    def test_allowlist_entry_without_reason_is_an_error(self) -> None:
        allow = self.root / "allow.txt"
        allow.write_text("mandipass::dsp::foo\n", encoding="utf-8")
        self.assertEqual(self.run_main(str(self.root), "--allowlist", str(allow)), 2)
        allow.write_text("mandipass::dsp::foo  # tests call it\n", encoding="utf-8")
        self.assertEqual(deadcode.load_allowlist(allow), {"mandipass::dsp::foo": "tests call it"})


if __name__ == "__main__":
    unittest.main()
