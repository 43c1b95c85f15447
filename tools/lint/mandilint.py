#!/usr/bin/env python3
"""mandilint — repo-local invariant linter for MandiPass.

Enforces project rules that clang-tidy and compiler warnings cannot express:

  unchecked-io     Raw std::istream::read / std::ostream::write calls are
                   forbidden under src/ outside the checked wrappers in
                   src/common/io.cpp (common::read_exact / write_exact).
                   A short read on a raw call silently yields a zero-filled
                   template that still gets matched.
  raw-random       rand()/srand()/std::time()/std::random_device seeding is
                   forbidden outside src/common/rng.*. All randomness flows
                   through mandipass::Rng so experiments stay reproducible.
  expects-guard    Every .cpp under src/ must guard its public entry points
                   with MANDIPASS_EXPECTS (at least one use per file), or
                   carry an explicit file-level waiver explaining why the
                   API is total.
  header-hygiene   Every header must open with `#pragma once` before any
                   code, and headers must not contain `using namespace`.
  no-build-artifacts
                   Build output (build*/ trees, objects, archives,
                   CMakeCache.txt, compile_commands.json) must not be
                   committed to git.
  no-throw-in-datapath
                   `throw` is forbidden under src/core, src/dsp and
                   src/auth (DESIGN.md section 12): data-dependent failures
                   must come back as common::Result reject reasons, not
                   exceptions. Legacy throwing wrappers and serialization
                   entry points carry explicit allow()/allow-file() waivers.
  raw-lock-discipline
                   Bare `.lock()` / `.unlock()` / `try_lock*()` calls and
                   pthread mutex primitives are forbidden under src/: every
                   critical section must be a scoped guard from
                   src/common/mutex.h (MutexLock / WriterLock / ReaderLock)
                   so the Clang thread-safety analysis sees the acquire and
                   the release (DESIGN.md section 14). The deferred-guard
                   timed acquire (`guard.lock()` after kDeferLock) is the
                   one sanctioned exception and must carry a per-site
                   allow() waiver stating why the wait is timed.
  atomic-order-audit
                   Any memory_order stronger than relaxed must carry a
                   justifying comment on the same line or the line above —
                   acquire/release edges are part of the concurrency proof
                   and unexplained ones rot. Bare std::atomic outside the
                   blessed primitives (src/common/obs.*,
                   src/common/thread_pool.*) is flagged: new shared state
                   belongs behind an annotated Mutex + MANDIPASS_GUARDED_BY,
                   not ad-hoc atomics.
  no-unbounded-queue
                   A std::deque / std::queue / std::priority_queue member
                   under src/auth/ is a backpressure hazard: an unbounded
                   queue in the serving layer turns overload into memory
                   exhaustion instead of typed load-shedding (DESIGN.md
                   section 17). Every such member must carry a
                   `// bounded-by: <what enforces the cap>` comment on its
                   own line or the line above, or an explicit allow()
                   waiver.
  arena-escape     nn::ScratchArena is a thread-confined bump allocator:
                   pointers into it die at the next reset() and the arena
                   itself must never cross threads. Storing an arena (or an
                   alloc() result) in a member, returning an alloc() result,
                   or handing an arena to a std::thread is flagged.
                   Analysis backend is selected automatically: libclang
                   when importable, `clang -Xclang -ast-dump=json` when a
                   clang binary is on PATH (both understand
                   --compile-commands), else a documented regex
                   approximation (member-store / return / thread-capture
                   patterns on lines mentioning the arena).
                   src/nn/inference_plan.* (the arena itself) is exempt.
  no-fast-math     No CMake file in the repo (CMakeLists.txt, *.cmake,
                   CMake*Presets.json) may pass a value-unsafe float flag:
                   -ffast-math, -Ofast, -ffinite-math-only,
                   -funsafe-math-optimizations, -fassociative-math,
                   -freciprocal-math, -fno-signed-zeros or
                   -ffp-contract=fast. The tree builds IEEE-strict with
                   -ffp-contract=off (DESIGN.md section 13.3), so a
                   near-tie decision lands on the same side of the
                   threshold on every host and kernel tier. CMake comments
                   are ignored; there is no waiver.

Suppression:
  A single finding:    <offending line>  // mandilint: allow(<rule>) -- reason
  A whole file:        // mandilint: allow-file(<rule>) -- reason
Precedence: a file-level allow-file(<rule>) suppresses findings of *that
rule only* in that file; a line-level allow(<rule>) suppresses that rule on
that line only. Waivers never cross rules or files. A waiver naming an
unknown rule is a usage error (exit 2), so typos cannot silently disable
nothing.

Exit status: 0 when clean, 1 when any finding is reported, 2 on usage error.
"""

from __future__ import annotations

import argparse
import json
import os
import re
import shutil
import subprocess
import sys
from pathlib import Path

RULES = (
    "unchecked-io",
    "raw-random",
    "expects-guard",
    "header-hygiene",
    "no-build-artifacts",
    "no-throw-in-datapath",
    "raw-lock-discipline",
    "atomic-order-audit",
    "no-unbounded-queue",
    "arena-escape",
    "no-fast-math",
)

ALLOW_LINE_RE = re.compile(r"//\s*mandilint:\s*allow\(([A-Za-z0-9_-]+)\)")
ALLOW_FILE_RE = re.compile(r"//\s*mandilint:\s*allow-file\(([A-Za-z0-9_-]+)\)")

RAW_IO_RE = re.compile(r"\b[A-Za-z_][\w.\->]*\.(read|write)\s*\(")
RAW_RANDOM_RE = re.compile(
    r"(?<![\w:])(s?rand\s*\(|std::time\b|time\s*\(\s*(?:NULL|nullptr|0)\s*\)|random_device)"
)
USING_NAMESPACE_RE = re.compile(r"^\s*using\s+namespace\b")
PRAGMA_ONCE_RE = re.compile(r"^\s*#\s*pragma\s+once\b")

BUILD_ARTIFACT_RE = re.compile(
    r"^(build[^/]*/|out/|cmake-build[^/]*/)"
    r"|(^|/)(CMakeCache\.txt|compile_commands\.json|CMakeFiles/)"
    r"|\.(o|obj|a|so|dylib|pyc)$"
)

# Bare lock-primitive calls. The receiver requirement (an identifier /
# call / index expression before the dot or arrow) keeps `->lock()` on
# smart pointers matched while `std::scoped_lock(` declarations are not.
RAW_LOCK_CALL_RE = re.compile(
    r"[\w\)\]]\s*(?:\.|->)\s*"
    r"(unlock_shared|lock_shared|try_lock_shared|try_lock_for|try_lock_until"
    r"|try_lock|unlock|lock)\s*\("
)
PTHREAD_LOCK_RE = re.compile(r"\bpthread_(?:mutex|rwlock|spin)_\w+\s*\(")

ATOMIC_DECL_RE = re.compile(r"\bstd::atomic(?:_flag)?\s*[<\s;(]")
MEMORY_ORDER_RE = re.compile(r"\bmemory_order(?:::|_)(\w+)")
# Files allowed to hold raw atomics: the lock-free metric primitives and
# the thread pool. Everything else uses common::Mutex + GUARDED_BY.
ATOMIC_BLESSED = (
    "src/common/obs.h",
    "src/common/obs.cpp",
    "src/common/thread_pool.h",
    "src/common/thread_pool.cpp",
)

# Queue-typed *members* (trailing-underscore naming per the style guide);
# locals used as scratch (e.g. a BFS frontier) are not admission queues
# and stay out of scope.
QUEUE_MEMBER_RE = re.compile(
    r"\bstd::(?:deque|queue|priority_queue)\s*<[^;]*>\s+\w+_\s*(?:;|\{|=)"
)
BOUNDED_BY_RE = re.compile(r"//.*\bbounded-by:")

ARENA_EXEMPT = ("src/nn/inference_plan.h", "src/nn/inference_plan.cpp")
ARENA_MEMBER_DECL_RE = re.compile(r"\bScratchArena\s*[*&]\s*\w+_\s*(?:=|;|\{)")
ARENA_MEMBER_STORE_RE = re.compile(r"\b\w+_\s*=\s*[^=;]*\.\s*alloc\s*\(")
ARENA_RETURN_RE = re.compile(r"\breturn\b[^;]*\.\s*alloc\s*\(")
ARENA_THREAD_RE = re.compile(r"\bstd::(?:thread|jthread)\b")
ARENA_NAME_RE = re.compile(r"\b(?:\w*arena\w*|thread_scratch_arena)\b", re.IGNORECASE)


class UsageError(Exception):
    """Invalid invocation or malformed waiver; maps to exit status 2."""


class Finding:
    def __init__(self, rule: str, path: str, line: int, message: str):
        self.rule = rule
        self.path = path
        self.line = line
        self.message = message

    def __str__(self) -> str:
        where = f"{self.path}:{self.line}" if self.line else self.path
        return f"{where}: [{self.rule}] {self.message}"


class Context:
    """Per-run configuration shared by the checks."""

    def __init__(
        self,
        repo: Path,
        compile_commands: Path | None = None,
        arena_backend: str = "auto",
    ):
        self.repo = repo
        self.arena_backend = arena_backend
        self.compile_db: dict[str, list[str]] = {}
        self._arena_backend_resolved: str | None = None
        self._backend_warned = False
        if compile_commands is not None:
            self.compile_db = _load_compile_db(compile_commands)

    def resolve_arena_backend(self) -> str:
        """Picks the best available arena-escape backend exactly once."""
        if self._arena_backend_resolved is None:
            if self.arena_backend != "auto":
                self._arena_backend_resolved = self.arena_backend
            else:
                try:
                    import clang.cindex  # noqa: F401

                    self._arena_backend_resolved = "libclang"
                except ImportError:
                    if shutil.which("clang++") or shutil.which("clang"):
                        self._arena_backend_resolved = "ast-json"
                    else:
                        self._arena_backend_resolved = "regex"
        return self._arena_backend_resolved

    def warn_backend_fallback(self, why: str) -> None:
        if not self._backend_warned:
            print(f"mandilint: arena-escape falling back to regex backend ({why})",
                  file=sys.stderr)
            self._backend_warned = True


def _load_compile_db(path: Path) -> dict[str, list[str]]:
    try:
        entries = json.loads(path.read_text(encoding="utf-8"))
    except (OSError, ValueError) as e:
        raise UsageError(f"cannot read compile database {path}: {e}") from e
    db: dict[str, list[str]] = {}
    for entry in entries:
        file = entry.get("file")
        if not file:
            continue
        directory = entry.get("directory", ".")
        args = entry.get("arguments")
        if args is None:
            args = entry.get("command", "").split()
        # Drop the compiler itself and output-producing flags; keep
        # include paths / defines / standard flags for -fsyntax-only use.
        flags: list[str] = []
        skip_next = False
        for a in args[1:]:
            if skip_next:
                skip_next = False
                continue
            if a in ("-c", file):
                continue
            if a == "-o":
                skip_next = True
                continue
            flags.append(a)
        abspath = str((Path(directory) / file).resolve()) if not Path(file).is_absolute() else file
        db[abspath] = flags
    return db


def _strip_line_comment(line: str) -> str:
    """Best-effort removal of // comments (ignores // inside string literals poorly,
    which is acceptable for the patterns these rules match)."""
    idx = line.find("//")
    return line if idx < 0 else line[:idx]


def file_waivers(text: str) -> set[str]:
    return set(ALLOW_FILE_RE.findall(text))


def line_waived(line: str, rule: str) -> bool:
    return rule in ALLOW_LINE_RE.findall(line)


def validate_waivers(rel: str, lines: list[str]) -> None:
    """Rejects waivers naming unknown rules — a typo'd allow() would
    otherwise suppress nothing while looking like it suppresses something."""
    for i, raw in enumerate(lines, start=1):
        for regex, form in ((ALLOW_LINE_RE, "allow"), (ALLOW_FILE_RE, "allow-file")):
            for rule in regex.findall(raw):
                if rule not in RULES:
                    raise UsageError(
                        f"{rel}:{i}: unknown rule '{rule}' in mandilint: {form}(...)"
                    )


def apply_waivers(
    findings: list[Finding], lines: list[str], waived: set[str]
) -> list[Finding]:
    """Central waiver filter. Precedence: a file-level allow-file(<rule>)
    drops that rule's findings in this file only; a line-level
    allow(<rule>) drops that rule on its own line only."""
    out = []
    for f in findings:
        if f.rule in waived:
            continue
        if 0 < f.line <= len(lines) and line_waived(lines[f.line - 1], f.rule):
            continue
        out.append(f)
    return out


def check_unchecked_io(
    ctx: Context, path: Path, rel: str, lines: list[str]
) -> list[Finding]:
    if not rel.startswith("src/") or rel.endswith((".md", ".txt")):
        return []
    if rel == "src/common/io.cpp":
        # The checked wrappers themselves; annotated inline anyway.
        return []
    out = []
    for i, raw in enumerate(lines, start=1):
        code = _strip_line_comment(raw)
        if RAW_IO_RE.search(code):
            out.append(
                Finding(
                    "unchecked-io",
                    rel,
                    i,
                    "raw stream .read()/.write() — use mandipass::common::read_exact/"
                    "write_exact (src/common/io.h) so short transfers throw",
                )
            )
    return out


def check_raw_random(
    ctx: Context, path: Path, rel: str, lines: list[str]
) -> list[Finding]:
    if not rel.startswith(("src/", "bench/", "examples/")):
        return []
    if rel.startswith("src/common/rng"):
        return []
    out = []
    for i, raw in enumerate(lines, start=1):
        code = _strip_line_comment(raw)
        m = RAW_RANDOM_RE.search(code)
        if m:
            out.append(
                Finding(
                    "raw-random",
                    rel,
                    i,
                    f"'{m.group(0).strip()}' — route all randomness through "
                    "mandipass::Rng (src/common/rng.h) for reproducibility",
                )
            )
    return out


def check_expects_guard(
    ctx: Context, path: Path, rel: str, lines: list[str]
) -> list[Finding]:
    if not (rel.startswith("src/") and rel.endswith(".cpp")):
        return []
    if any("MANDIPASS_EXPECTS" in line for line in lines):
        return []
    return [
        Finding(
            "expects-guard",
            rel,
            0,
            "no MANDIPASS_EXPECTS precondition guard in this translation unit; "
            "guard public entry points or add "
            "`// mandilint: allow-file(expects-guard) -- <why the API is total>`",
        )
    ]


def check_header_hygiene(
    ctx: Context, path: Path, rel: str, lines: list[str]
) -> list[Finding]:
    if not rel.endswith((".h", ".hpp")):
        return []
    out = []
    saw_pragma = False
    in_block_comment = False
    for i, raw in enumerate(lines, start=1):
        stripped = raw.strip()
        if in_block_comment:
            if "*/" in stripped:
                in_block_comment = False
            continue
        if not stripped or stripped.startswith("//"):
            continue
        if stripped.startswith("/*"):
            if "*/" not in stripped:
                in_block_comment = True
            continue
        if PRAGMA_ONCE_RE.match(stripped):
            saw_pragma = True
        # First non-comment line must be the pragma.
        if not saw_pragma:
            out.append(
                Finding(
                    "header-hygiene",
                    rel,
                    i,
                    "first non-comment line of a header must be `#pragma once`",
                )
            )
        break
    for i, raw in enumerate(lines, start=1):
        if USING_NAMESPACE_RE.match(_strip_line_comment(raw)):
            out.append(
                Finding(
                    "header-hygiene",
                    rel,
                    i,
                    "`using namespace` in a header leaks into every includer",
                )
            )
    return out


DATAPATH_PREFIXES = ("src/core/", "src/dsp/", "src/auth/")
THROW_RE = re.compile(r"(?<![\w])throw\b")


def check_no_throw_in_datapath(
    ctx: Context, path: Path, rel: str, lines: list[str]
) -> list[Finding]:
    if not rel.startswith(DATAPATH_PREFIXES):
        return []
    out = []
    for i, raw in enumerate(lines, start=1):
        code = _strip_line_comment(raw)
        if THROW_RE.search(code):
            out.append(
                Finding(
                    "no-throw-in-datapath",
                    rel,
                    i,
                    "`throw` in the authentication data path — return a "
                    "common::Result reject reason (src/common/result.h) instead, "
                    "or waive with `// mandilint: allow(no-throw-in-datapath) -- "
                    "<why this path may throw>`",
                )
            )
    return out


def check_raw_lock_discipline(
    ctx: Context, path: Path, rel: str, lines: list[str]
) -> list[Finding]:
    if not rel.startswith("src/"):
        return []
    if rel in ("src/common/mutex.h",):
        # The annotated wrapper layer is where the raw calls live, once.
        return []
    out = []
    for i, raw in enumerate(lines, start=1):
        code = _strip_line_comment(raw)
        m = RAW_LOCK_CALL_RE.search(code) or PTHREAD_LOCK_RE.search(code)
        if m:
            out.append(
                Finding(
                    "raw-lock-discipline",
                    rel,
                    i,
                    f"bare '{m.group(0).strip().rstrip('(')}(' — critical sections "
                    "must use the scoped guards in src/common/mutex.h (MutexLock/"
                    "WriterLock/ReaderLock) so Clang's thread-safety analysis sees "
                    "acquire and release; a deferred-guard timed acquire needs a "
                    "per-site allow(raw-lock-discipline) waiver with its reason",
                )
            )
    return out


def _has_order_justification(lines: list[str], i: int) -> bool:
    """A non-relaxed memory_order is justified by a same-line comment with
    some substance, or by a comment line directly above."""
    line = lines[i - 1]
    idx = line.find("//")
    if idx >= 0 and len(line[idx + 2 :].strip()) >= 8:
        return True
    return i >= 2 and lines[i - 2].strip().startswith("//")


def check_atomic_order_audit(
    ctx: Context, path: Path, rel: str, lines: list[str]
) -> list[Finding]:
    if not rel.startswith("src/"):
        return []
    out = []
    blessed = rel in ATOMIC_BLESSED
    for i, raw in enumerate(lines, start=1):
        code = _strip_line_comment(raw)
        for m in MEMORY_ORDER_RE.finditer(code):
            order = m.group(1)
            if order != "relaxed" and not _has_order_justification(lines, i):
                out.append(
                    Finding(
                        "atomic-order-audit",
                        rel,
                        i,
                        f"memory_order_{order} without a justifying comment — "
                        "every edge stronger than relaxed is part of the "
                        "concurrency proof; say what it synchronizes with "
                        "(same line or the line above)",
                    )
                )
        if not blessed and ATOMIC_DECL_RE.search(code):
            out.append(
                Finding(
                    "atomic-order-audit",
                    rel,
                    i,
                    "bare std::atomic outside src/common/obs.* / "
                    "src/common/thread_pool.* — new shared state belongs behind "
                    "an annotated common::Mutex with MANDIPASS_GUARDED_BY, not "
                    "ad-hoc atomics (DESIGN.md section 14)",
                )
            )
    return out


def check_no_unbounded_queue(
    ctx: Context, path: Path, rel: str, lines: list[str]
) -> list[Finding]:
    if not rel.startswith("src/auth/"):
        return []
    out = []
    for i, raw in enumerate(lines, start=1):
        code = _strip_line_comment(raw)
        if not QUEUE_MEMBER_RE.search(code):
            continue
        justified = BOUNDED_BY_RE.search(raw) or (
            i >= 2 and BOUNDED_BY_RE.search(lines[i - 2])
        )
        if not justified:
            out.append(
                Finding(
                    "no-unbounded-queue",
                    rel,
                    i,
                    "queue-typed member in the serving layer without a "
                    "`// bounded-by: <what enforces the cap>` comment (same "
                    "line or the line above) — an unbounded queue turns "
                    "overload into memory exhaustion instead of typed "
                    "load-shedding (DESIGN.md section 17)",
                )
            )
    return out


def _arena_escape_regex(rel: str, lines: list[str]) -> list[Finding]:
    """Documented regex approximation of the AST analysis: member-stored
    arenas / alloc results, returned alloc results, and arenas handed to
    std::thread. Only lines in arena-mentioning files are examined, so
    unrelated `.alloc(` idioms elsewhere stay out of scope."""
    out = []
    for i, raw in enumerate(lines, start=1):
        code = _strip_line_comment(raw)
        if ARENA_MEMBER_DECL_RE.search(code):
            out.append(
                Finding(
                    "arena-escape",
                    rel,
                    i,
                    "ScratchArena stored in a member — arenas are thread-confined "
                    "and reset between samples; take one as a parameter or call "
                    "thread_scratch_arena() at use",
                )
            )
            continue
        if ARENA_MEMBER_STORE_RE.search(code) and ARENA_NAME_RE.search(code):
            out.append(
                Finding(
                    "arena-escape",
                    rel,
                    i,
                    "arena alloc() result stored in a member — the pointer dies "
                    "at the next reset(); copy the data out instead",
                )
            )
            continue
        if ARENA_RETURN_RE.search(code) and ARENA_NAME_RE.search(code):
            out.append(
                Finding(
                    "arena-escape",
                    rel,
                    i,
                    "returning an arena alloc() result — the pointer dies at the "
                    "next reset(); write into caller-provided storage instead",
                )
            )
            continue
        if ARENA_THREAD_RE.search(code) and ARENA_NAME_RE.search(code):
            out.append(
                Finding(
                    "arena-escape",
                    rel,
                    i,
                    "arena handed to a std::thread — arenas are thread-confined; "
                    "the spawned thread must use its own thread_scratch_arena()",
                )
            )
    return out


def _arena_escape_libclang(
    ctx: Context, path: Path, rel: str
) -> list[Finding] | None:
    """AST analysis via python libclang. Returns None when the TU cannot
    be parsed (caller falls back to regex)."""
    try:
        from clang import cindex
    except ImportError:
        return None
    try:
        index = cindex.Index.create()
        flags = ctx.compile_db.get(str(path.resolve()), ["-std=c++20", "-I", "src"])
        tu = index.parse(str(path), args=flags)
    except cindex.LibclangError:
        return None
    if tu is None:
        return None

    out: list[Finding] = []

    def is_arena_type(type_obj) -> bool:
        return "ScratchArena" in type_obj.spelling

    def visit(node, in_return: bool, in_thread_ctor: bool) -> None:
        kind = node.kind
        if kind == cindex.CursorKind.FIELD_DECL and is_arena_type(node.type):
            out.append(
                Finding(
                    "arena-escape", rel, node.location.line,
                    "ScratchArena-typed member — arenas are thread-confined; "
                    "pass one in or call thread_scratch_arena() at use",
                )
            )
        if (
            kind == cindex.CursorKind.CALL_EXPR
            and node.spelling == "alloc"
            and in_return
        ):
            out.append(
                Finding(
                    "arena-escape", rel, node.location.line,
                    "returning an arena alloc() result — the pointer dies at "
                    "the next reset()",
                )
            )
        if (
            kind == cindex.CursorKind.DECL_REF_EXPR
            and in_thread_ctor
            and is_arena_type(node.type)
        ):
            out.append(
                Finding(
                    "arena-escape", rel, node.location.line,
                    "arena referenced inside a std::thread construction — "
                    "arenas are thread-confined",
                )
            )
        next_return = in_return or kind == cindex.CursorKind.RETURN_STMT
        next_thread = in_thread_ctor or (
            kind == cindex.CursorKind.CALL_EXPR and "thread" in node.type.spelling
        )
        for child in node.get_children():
            if child.location.file and child.location.file.name == str(path):
                visit(child, next_return, next_thread)

    for child in tu.cursor.get_children():
        if child.location.file and child.location.file.name == str(path):
            visit(child, False, False)
    return out


def _arena_escape_ast_json(
    ctx: Context, path: Path, rel: str
) -> list[Finding] | None:
    """AST analysis via `clang -Xclang -ast-dump=json -fsyntax-only`.
    Returns None when clang is unavailable or the dump fails (caller
    falls back to regex)."""
    clang = shutil.which("clang++") or shutil.which("clang")
    if clang is None:
        return None
    flags = ctx.compile_db.get(str(path.resolve()), ["-std=c++20", "-I", "src"])
    try:
        proc = subprocess.run(
            [clang, "-fsyntax-only", "-Xclang", "-ast-dump=json", *flags, str(path)],
            capture_output=True,
            text=True,
            timeout=120,
        )
        tree = json.loads(proc.stdout)
    except (OSError, ValueError, subprocess.TimeoutExpired):
        return None

    out: list[Finding] = []

    def node_line(node: dict) -> int:
        loc = node.get("loc") or {}
        return loc.get("line") or (node.get("range", {}).get("begin", {}).get("line") or 0)

    def walk(node: dict, in_return: bool) -> None:
        kind = node.get("kind", "")
        qual = (node.get("type") or {}).get("qualType", "")
        if kind == "FieldDecl" and "ScratchArena" in qual:
            out.append(
                Finding(
                    "arena-escape", rel, node_line(node),
                    "ScratchArena-typed member — arenas are thread-confined; "
                    "pass one in or call thread_scratch_arena() at use",
                )
            )
        if (
            kind == "MemberExpr"
            and node.get("name") == "alloc"
            and in_return
        ):
            out.append(
                Finding(
                    "arena-escape", rel, node_line(node),
                    "returning an arena alloc() result — the pointer dies at "
                    "the next reset()",
                )
            )
        next_return = in_return or kind == "ReturnStmt"
        for child in node.get("inner", []) or []:
            walk(child, next_return)

    walk(tree, False)
    return out


def check_arena_escape(
    ctx: Context, path: Path, rel: str, lines: list[str]
) -> list[Finding]:
    if not rel.startswith("src/") or rel in ARENA_EXEMPT:
        return []
    if not any("ScratchArena" in l or "thread_scratch_arena" in l for l in lines):
        return []
    backend = ctx.resolve_arena_backend()
    if backend == "libclang":
        found = _arena_escape_libclang(ctx, path, rel)
        if found is not None:
            return found
        ctx.warn_backend_fallback("libclang parse failed")
    elif backend == "ast-json":
        found = _arena_escape_ast_json(ctx, path, rel)
        if found is not None:
            return found
        ctx.warn_backend_fallback("clang ast-dump failed")
    return _arena_escape_regex(rel, lines)


FAST_MATH_FLAG_RE = re.compile(
    r"(?<![\w-])(-ffast-math|-Ofast|-ffinite-math-only|-funsafe-math-optimizations"
    r"|-fassociative-math|-freciprocal-math|-fno-signed-zeros|-ffp-contract=fast)(?![\w-])"
)
CMAKE_FILE_RE = re.compile(r"^(CMakeLists\.txt|.*\.cmake|CMake(User)?Presets\.json)$")
SKIPPED_DIR_RE = re.compile(r"^(build|cmake-build|out$|\.)")


def check_fast_math_flags(repo: Path) -> list[Finding]:
    out = []
    for dirpath, dirnames, filenames in os.walk(repo):
        dirnames[:] = sorted(d for d in dirnames if not SKIPPED_DIR_RE.match(d))
        for name in sorted(filenames):
            if not CMAKE_FILE_RE.match(name):
                continue
            path = Path(dirpath) / name
            rel = path.relative_to(repo).as_posix()
            text = path.read_text(encoding="utf-8", errors="replace")
            for i, line in enumerate(text.splitlines(), 1):
                m = FAST_MATH_FLAG_RE.search(line.split("#", 1)[0])
                if m:
                    out.append(
                        Finding(
                            "no-fast-math",
                            rel,
                            i,
                            f"`{m.group(1)}` lets the compiler change float results: the "
                            "tree builds IEEE-strict with -ffp-contract=off so decisions "
                            "do not depend on codegen (DESIGN.md section 13.3)",
                        )
                    )
    return out


def check_build_artifacts(repo: Path) -> list[Finding]:
    try:
        tracked = subprocess.run(
            ["git", "-C", str(repo), "ls-files"],
            capture_output=True,
            text=True,
            check=True,
        ).stdout.splitlines()
    except (OSError, subprocess.CalledProcessError):
        return []  # not a git checkout (e.g. exported tarball); nothing to check
    out = []
    for rel in tracked:
        if BUILD_ARTIFACT_RE.search(rel):
            out.append(
                Finding(
                    "no-build-artifacts",
                    rel,
                    0,
                    "build artifact committed to git — `git rm --cached` it; "
                    ".gitignore should already exclude it",
                )
            )
    return out


FILE_CHECKS = (
    check_unchecked_io,
    check_raw_random,
    check_expects_guard,
    check_header_hygiene,
    check_no_throw_in_datapath,
    check_raw_lock_discipline,
    check_atomic_order_audit,
    check_no_unbounded_queue,
    check_arena_escape,
)

SOURCE_SUFFIXES = (".h", ".hpp", ".cpp", ".cc")


def lint(repo: Path, subdirs: list[str], ctx: Context | None = None) -> list[Finding]:
    if ctx is None:
        ctx = Context(repo)
    findings: list[Finding] = []
    for sub in subdirs:
        root = repo / sub
        if not root.exists():
            continue
        for path in sorted(root.rglob("*")):
            if not (path.is_file() and path.suffix in SOURCE_SUFFIXES):
                continue
            rel = path.relative_to(repo).as_posix()
            if rel.startswith(("build", "out/")):
                continue
            try:
                text = path.read_text(encoding="utf-8", errors="replace")
            except OSError as e:
                findings.append(Finding("io-error", rel, 0, str(e)))
                continue
            lines = text.splitlines()
            validate_waivers(rel, lines)
            waived = file_waivers(text)
            raw: list[Finding] = []
            for check in FILE_CHECKS:
                raw.extend(check(ctx, path, rel, lines))
            findings.extend(apply_waivers(raw, lines, waived))
    findings.extend(check_build_artifacts(repo))
    findings.extend(check_fast_math_flags(repo))
    return findings


def main(argv: list[str]) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "paths",
        nargs="*",
        default=["src", "tests", "bench", "examples"],
        help="repo-relative directories to lint (default: src tests bench examples)",
    )
    parser.add_argument("--repo", default=None, help="repository root (default: auto-detect)")
    parser.add_argument("--list-rules", action="store_true", help="print rule names and exit")
    parser.add_argument(
        "--compile-commands",
        default=None,
        metavar="JSON",
        help="compile_commands.json for the AST-backed rules (arena-escape); "
        "per-TU include paths and defines are taken from it",
    )
    parser.add_argument(
        "--arena-backend",
        choices=("auto", "libclang", "ast-json", "regex"),
        default="auto",
        help="arena-escape analysis backend (default: auto — libclang, then "
        "clang ast-dump, then the regex approximation)",
    )
    args = parser.parse_args(argv)

    if args.list_rules:
        print(__doc__)
        return 0

    repo = Path(args.repo) if args.repo else Path(__file__).resolve().parents[2]
    if not (repo / "CMakeLists.txt").exists():
        print(f"mandilint: {repo} does not look like the repo root", file=sys.stderr)
        return 2

    try:
        ctx = Context(
            repo,
            compile_commands=Path(args.compile_commands) if args.compile_commands else None,
            arena_backend=args.arena_backend,
        )
        findings = lint(repo, list(args.paths), ctx)
    except UsageError as e:
        print(f"mandilint: {e}", file=sys.stderr)
        print(f"mandilint: valid rules: {', '.join(RULES)}", file=sys.stderr)
        return 2
    for f in findings:
        print(f)
    if findings:
        print(f"\nmandilint: {len(findings)} finding(s)", file=sys.stderr)
        return 1
    print("mandilint: clean")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
