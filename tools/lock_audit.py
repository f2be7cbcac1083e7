#!/usr/bin/env python3
"""Static lock-discipline auditor (the build-time half of lockdep).

Checks, over every C++ file under src/:

  1. No raw locking primitives (std::mutex, std::scoped_lock,
     std::lock_guard, std::unique_lock, std::condition_variable,
     recursive/timed/shared variants, pthread mutexes) outside the
     lockdep layer itself — everything must go through
     lockdep::OrderedMutex / Guard / UniqueLock / CondVar so the
     runtime order checker sees every acquisition.
  2. Every lockdep::LockClass::<name> referenced in source is declared
     in src/common/lock_order.def, and every declared class is
     referenced at least once (a stale declaration hides rank gaps).
  3. The declared hierarchy parses cleanly (no duplicate classes, only
     known flags) and the implied ordering graph is acyclic.
  4. Every OrderedMutex declaration names its LockClass at
     construction (no default-constructed untagged mutexes).
  5. No process-global singleton: a `static <Type>& instance()`
     declaration is allowed only in the files SINGLETON_ALLOWLIST
     names. Everything else a Simulator observes or injects is owned
     by that Simulator, so Simulators sharing a process stay separate.

Exit status: 0 clean, 1 violations (each printed as file:line: msg),
2 usage/environment error.
"""

import argparse
import pathlib
import re
import sys

RAW_PRIMITIVES = [
    "std::mutex",
    "std::recursive_mutex",
    "std::timed_mutex",
    "std::recursive_timed_mutex",
    "std::shared_mutex",
    "std::shared_timed_mutex",
    "std::scoped_lock",
    "std::lock_guard",
    "std::unique_lock",
    "std::shared_lock",
    "std::condition_variable",
    "std::condition_variable_any",
    "pthread_mutex_t",
    "pthread_cond_t",
]

# The lockdep layer itself is the one place raw primitives are legal
# (its internal meta/report mutexes must not be self-tracked).
ALLOWLIST = {
    "src/common/lockdep.h",
    "src/common/lockdep.cpp",
}

# The one process-wide object that stays a singleton, and why: the
# crash handler needs one async-signal-safe ring to dump for the whole
# process.
SINGLETON_ALLOWLIST = {
    "src/obs/telemetry/flight_recorder.h",
}

VALID_FLAGS = {"NONE", "ORDERED", "MULTI"}

CLASS_DECL_RE = re.compile(r"^\s*LOCK_CLASS\(\s*(\w+)\s*,\s*(\w+)\s*\)")
CLASS_REF_RE = re.compile(r"\bLockClass::(\w+)\b")
UNTAGGED_MUTEX_RE = re.compile(
    r"\bOrderedMutex\s+\w+\s*;")
SINGLETON_RE = re.compile(r"\bstatic\s+[\w:<>]+\s*&\s*instance\s*\(\s*\)")
ACQUISITION_RE = re.compile(
    r"\block(?:dep::Guard|dep::UniqueLock)\b|\.lock\(|\.try_lock\(")


def strip_comments_and_strings(text: str) -> str:
    """Blank out comments and string/char literals, preserving line
    structure so reported line numbers stay exact."""
    out = []
    i, n = 0, len(text)
    state = None  # None | 'line' | 'block' | '"' | "'"
    while i < n:
        c = text[i]
        nxt = text[i + 1] if i + 1 < n else ""
        if state is None:
            if c == "/" and nxt == "/":
                state = "line"
                out.append("  ")
                i += 2
                continue
            if c == "/" and nxt == "*":
                state = "block"
                out.append("  ")
                i += 2
                continue
            if c in "\"'":
                state = c
                out.append(c)
                i += 1
                continue
            out.append(c)
        elif state == "line":
            if c == "\n":
                state = None
                out.append(c)
            else:
                out.append(" ")
        elif state == "block":
            if c == "*" and nxt == "/":
                state = None
                out.append("  ")
                i += 2
                continue
            out.append(c if c == "\n" else " ")
        else:  # inside a literal
            if c == "\\":
                out.append("  ")
                i += 2
                continue
            if c == state:
                state = None
            out.append(c if c in (state, "\n", "\"", "'") else " ")
        i += 1
    return "".join(out)


def parse_lock_order(def_path: pathlib.Path):
    """Return ([(name, flags)], errors) from lock_order.def."""
    classes = []
    errors = []
    seen = set()
    for lineno, line in enumerate(
            def_path.read_text().splitlines(), start=1):
        stripped = line.strip()
        if not stripped or stripped.startswith("//"):
            continue
        m = CLASS_DECL_RE.match(line)
        if m is None:
            if "LOCK_CLASS" in line:
                errors.append(f"{def_path}:{lineno}: malformed "
                              f"LOCK_CLASS declaration: {stripped}")
            continue
        name, flags = m.group(1), m.group(2)
        if name in seen:
            errors.append(f"{def_path}:{lineno}: duplicate lock class "
                          f"'{name}' (ranks would conflict)")
        seen.add(name)
        if flags not in VALID_FLAGS:
            errors.append(f"{def_path}:{lineno}: unknown flags "
                          f"'{flags}' for class '{name}' "
                          f"(expected one of {sorted(VALID_FLAGS)})")
        classes.append((name, flags))
    if not classes:
        errors.append(f"{def_path}: no LOCK_CLASS declarations found")
    return classes, errors


def check_acyclic(classes):
    """The .def implies edges rank(i) -> rank(j) for i < j; run a real
    topological sort over them so the gate still holds if the format
    ever grows explicit edge declarations."""
    names = [name for name, _ in classes]
    edges = {name: set(names[i + 1:]) for i, name in enumerate(names)}
    indeg = {name: 0 for name in names}
    for src, dsts in edges.items():
        for dst in dsts:
            indeg[dst] += 1
    ready = [n for n in names if indeg[n] == 0]
    visited = 0
    while ready:
        n = ready.pop()
        visited += 1
        for dst in edges[n]:
            indeg[dst] -= 1
            if indeg[dst] == 0:
                ready.append(dst)
    if visited != len(names):
        stuck = sorted(n for n in names if indeg[n] > 0)
        return [f"lock_order.def: declared hierarchy contains a cycle "
                f"involving: {', '.join(stuck)}"]
    return []


def audit(repo_root: pathlib.Path):
    src = repo_root / "src"
    def_path = src / "common" / "lock_order.def"
    errors = []
    if not def_path.is_file():
        return [f"{def_path}: missing lock hierarchy declaration"], 0

    classes, errors_def = parse_lock_order(def_path)
    errors.extend(errors_def)
    errors.extend(check_acyclic(classes))
    declared = {name for name, _ in classes}

    referenced = {}
    acquisition_sites = 0
    files_scanned = 0
    for path in sorted(src.rglob("*")):
        if path.suffix not in (".h", ".cpp"):
            continue
        rel = path.relative_to(repo_root).as_posix()
        files_scanned += 1
        text = strip_comments_and_strings(path.read_text())
        lines = text.splitlines()
        allowlisted = rel in ALLOWLIST
        for lineno, line in enumerate(lines, start=1):
            if not allowlisted:
                for prim in RAW_PRIMITIVES:
                    if re.search(rf"{re.escape(prim)}\b", line):
                        errors.append(
                            f"{rel}:{lineno}: raw '{prim}' outside "
                            f"the lockdep layer — use "
                            f"lockdep::OrderedMutex/Guard/UniqueLock/"
                            f"CondVar (see src/common/lockdep.h)")
            for m in CLASS_REF_RE.finditer(line):
                referenced.setdefault(m.group(1), f"{rel}:{lineno}")
            if UNTAGGED_MUTEX_RE.search(line):
                errors.append(
                    f"{rel}:{lineno}: OrderedMutex declared without a "
                    f"LockClass — tag it at construction")
            if (SINGLETON_RE.search(line)
                    and rel not in SINGLETON_ALLOWLIST):
                errors.append(
                    f"{rel}:{lineno}: process-global singleton "
                    f"'static ...& instance()' — let the Simulator own "
                    f"this object and hand out pointers")
            acquisition_sites += len(ACQUISITION_RE.findall(line))

    # lockdep.h materializes the enum from the .def, so its references
    # are definitionally complete; drop the X-macro artifacts.
    referenced.pop("COUNT", None)
    referenced.pop("name", None)

    for name, where in sorted(referenced.items()):
        if name not in declared:
            errors.append(
                f"{where}: lock class '{name}' is not declared in "
                f"src/common/lock_order.def")
    for name in sorted(declared):
        if name not in referenced:
            errors.append(
                f"{def_path.relative_to(repo_root)}: declared lock "
                f"class '{name}' is never used — remove it or convert "
                f"the mutex it was meant for")
    stats = (f"lock_audit: {files_scanned} files, "
             f"{len(declared)} lock classes, "
             f"{len(referenced)} referenced, "
             f"{acquisition_sites} acquisition sites")
    return errors, stats


def main():
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--repo-root", default=None,
                        help="repository root (default: parent of "
                             "this script's directory)")
    args = parser.parse_args()
    root = (pathlib.Path(args.repo_root).resolve()
            if args.repo_root
            else pathlib.Path(__file__).resolve().parent.parent)
    if not (root / "src").is_dir():
        print(f"lock_audit: no src/ under {root}", file=sys.stderr)
        return 2
    errors, stats = audit(root)
    if errors:
        for e in errors:
            print(e)
        print(f"lock_audit: FAILED with {len(errors)} violation(s)")
        return 1
    print(stats)
    print("lock_audit: OK")
    return 0


if __name__ == "__main__":
    sys.exit(main())
