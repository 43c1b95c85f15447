#!/usr/bin/env python3
"""deadcode — fail on library functions that no product binary keeps.

Reads `nm` over the build trees given: the strong (T) `mandipass::` text
symbols of every libmandipass_*.a archive, and the text symbols of every
ELF executable outside CMakeFiles/. Build the trees with
-ffunction-sections -fno-inline and link with -Wl,--gc-sections
(`scripts/ci.sh dead-code`), so the linker drops what nothing calls and no
same-file caller inlines a function away. Ctor (C1/C2/C3) and dtor
(D0/D1/D2) variants fold together, clones (.cold, .isra, .constprop,
.part) count as their function, anonymous namespaces are skipped.

A dead symbol fails unless the allowlist has a `qualified::name  # reason`
line for it (the demangled name without parameters); an entry naming no
dead symbol fails too. Exit 0 clean, 1 findings, 2 bad input.
"""

from __future__ import annotations

import argparse
import os
import re
import subprocess
import sys
from pathlib import Path

ALLOWLIST = Path(__file__).with_name("deadcode_allowlist.txt")
LIBRARY_SYMBOL = re.compile(r"^_ZN[KVRO]*9mandipass")
CTOR_DTOR_VARIANT = re.compile(r"([CD])[0-5](?=[EI])")


def fold(symbol: str) -> str:
    """One key per function: clone suffix cut, ctor/dtor variants merged."""
    return CTOR_DTOR_VARIANT.sub(r"\1*", symbol.split(".", 1)[0])


def parse_nm(listing: str) -> list[tuple[str, str]]:
    """(type, mangled name) of each symbol line of an `nm` listing."""
    rows = (line.split() for line in listing.splitlines())
    return [(f[1], f[2]) for f in rows if len(f) == 3 and len(f[1]) == 1]


def qualified_name(signature: str) -> str:
    """`ns::f(int) const` -> `ns::f`: cut at the '(' matching the last ')'."""
    depth = 0
    for i in range(len(signature) - 1, -1, -1):
        depth += {")": 1, "(": -1}.get(signature[i], 0)
        if signature[i] == "(" and depth == 0:
            return signature[:i]
    return signature


def scan(archive_listings: list[str], binary_listings: list[str],
         allowlist: dict[str, str]) -> tuple[list[str], list[str]]:
    """(dead signatures not allowlisted, allowlist entries naming nothing)."""
    library: dict[str, str] = {}
    for kind, name in (row for listing in archive_listings for row in parse_nm(listing)):
        if kind == "T" and LIBRARY_SYMBOL.match(name) and "_GLOBAL__N" not in name:
            library.setdefault(fold(name), name.split(".", 1)[0])
    kept = {fold(name) for listing in binary_listings
            for kind, name in parse_nm(listing) if kind in "TtWw"}
    dead_symbols = [library[key] for key in library.keys() - kept]
    demangled = subprocess.run(["c++filt"], input="\n".join(dead_symbols), capture_output=True,
                               text=True, check=True).stdout.splitlines()
    dead = sorted(set(demangled))
    stale = sorted(set(allowlist) - {qualified_name(sig) for sig in dead})
    return [sig for sig in dead if qualified_name(sig) not in allowlist], stale


def load_allowlist(path: Path) -> dict[str, str]:
    entries = {}
    for n, line in enumerate(path.read_text(encoding="utf-8").splitlines(), 1):
        name, _, reason = (part.strip() for part in line.partition("#"))
        if name and not reason:
            raise ValueError(f"{path}:{n}: entry '{name}' has no '# reason'")
        if name:
            entries[name] = reason
    return entries


def is_elf(path: Path) -> bool:
    with path.open("rb") as f:
        return f.read(4) == b"\x7fELF"


def find_inputs(roots: list[Path]) -> tuple[list[Path], list[Path]]:
    archives, binaries = [], []
    for root in roots:
        for dirpath, dirnames, filenames in os.walk(root):
            dirnames[:] = [d for d in dirnames if d != "CMakeFiles"]
            for f in map(Path(dirpath).joinpath, filenames):
                if f.name.startswith("libmandipass_") and f.suffix == ".a":
                    archives.append(f)
                elif os.access(f, os.X_OK) and is_elf(f):
                    binaries.append(f)
    return archives, binaries


def nm(path: Path) -> str:
    return subprocess.run(["nm", "--defined-only", str(path)], capture_output=True, text=True,
                          check=True).stdout


def main(argv: list[str]) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("build_dirs", nargs="+", type=Path)
    parser.add_argument("--allowlist", type=Path, default=ALLOWLIST)
    args = parser.parse_args(argv)
    try:
        allowlist = load_allowlist(args.allowlist)
    except ValueError as err:
        print(f"deadcode: {err}", file=sys.stderr)
        return 2
    archives, binaries = find_inputs(args.build_dirs)
    if not archives or not binaries:
        print(f"deadcode: {len(archives)} archives and {len(binaries)} binaries found; "
              "build the trees first", file=sys.stderr)
        return 2
    dead, stale = scan([nm(a) for a in archives], [nm(b) for b in binaries], allowlist)
    for sig in dead:
        print(f"deadcode: no product binary keeps {sig}")
    for name in stale:
        print(f"deadcode: allowlist entry {name} names no dead symbol; remove it")
    print(f"deadcode: {len(archives)} archives, {len(binaries)} binaries, "
          f"{len(allowlist)} allowlisted, {len(dead)} dead, {len(stale)} stale")
    return 1 if dead or stale else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
