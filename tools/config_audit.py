#!/usr/bin/env python3
"""Static config-key auditor.

graphite.cfg is the one copy of the config defaults: the build compiles
it in as defaultTargetConfig(), and no read site in src/ carries a
fallback. This gate keeps the file and the read sites in step, so a
typo'd read site ("perf_model/l2cache/...") or a knob with no default
fails the analysis gate instead of failing a run.

Key sources:
  - read sites: cfg.getString/getInt/getDouble/getBool("section/key")
    literals anywhere under src/, plus slash-path
    string literals fed to helpers that forward to Config::get*, plus
    keys composed at run time (below).
  - entries: graphite.cfg's "key = value" lines under [section]
    headers. A commented-out line is not an entry.

Composed reads:
  - get*(prefix_var + "/suffix") completes a prefix literal
    ("perf_model/l1_dcache") with each such suffix.
  - a slash-terminated literal completed on the next line by
    `key += fn(...)` reads the literal plus each string literal fn
    returns ("perf_model/core/cost/" + instrClassName(c)).

Checks:
  1. Every key read in src/ has an entry in graphite.cfg. A literal
     that is a section prefix of entries (caches compose
     "perf_model/l2_cache" + "/cache_size") counts as covered.
  2. Every graphite.cfg entry is read somewhere (catches typos and dead
     knobs on the file's side). A composed read covers only what it
     composes, not every key below its prefix.

Exit status: 0 clean, 1 violations, 2 usage error.
"""

import argparse
import pathlib
import re
import sys

GET_RE = re.compile(
    r"\b(?:getString|getInt|getDouble|getBool)\(\s*\"([^\"]+)\"")
# Composed reads: get*(prefix_var + "/suffix"). The suffix completes
# whatever prefix literal the helper was handed.
COMPOSED_RE = re.compile(
    r"\b(?:getString|getInt|getDouble|getBool)\(\s*\w+\s*\+\s*"
    r"\"(/[a-z0-9_]+)\"")
# Bare string literals shaped like config paths (lowercase segments
# joined by '/'), to catch keys passed through helper lambdas before
# reaching Config::get*.
PATH_LITERAL_RE = re.compile(r"\"([a-z][a-z0-9_]*(?:/[a-z0-9_]+)+)\"")
# A slash-terminated path literal, completed by `+= fn(...)` on the next
# line.
PREFIX_LITERAL_RE = re.compile(r"\"([a-z][a-z0-9_]*(?:/[a-z0-9_]+)*/)\"")
APPEND_CALL_RE = re.compile(r"\w+\s*\+=\s*(\w+)\(")
RETURN_LITERAL_RE = re.compile(r"\breturn\s+\"([a-z0-9_]+)\";")
SECTION_RE = re.compile(r"^\s*\[([^\]]+)\]")
ENTRY_RE = re.compile(r"^\s*([A-Za-z0-9_/]+)\s*=")

# Path-shaped string literals that are not config keys (trace/span
# event names, stat names, file paths). Extend when a new non-config
# literal trips check 1; keep sorted.
NON_CONFIG_LITERALS = {
    "fuzz-artifacts/repro",
    "mem/access",
}


def parse_cfg_text(text: str):
    keys = set()
    section = None
    for line in text.splitlines():
        line = re.split(r"[#;]", line)[0]
        m = SECTION_RE.match(line)
        if m is not None:
            section = m.group(1).strip()
            continue
        m = ENTRY_RE.match(line)
        if m is not None and section is not None:
            keys.add(f"{section}/{m.group(1)}")
    return keys


def function_literals(src: pathlib.Path, name: str):
    """String literals returned by the function defined as `name(` at
    the start of a line under src/ (the repository's definition style),
    up to the closing brace at the start of a line."""
    for path in sorted(src.rglob("*.cpp")):
        text = path.read_text()
        m = re.search(rf"^{name}\(", text, re.MULTILINE)
        if m is not None:
            end = text.find("\n}", m.end())
            return RETURN_LITERAL_RE.findall(text[m.end():end])
    return []


def collect_read_sites(src: pathlib.Path):
    """Return ({key: first file:line} for every key-shaped read, the
    set of suffixes composed reads append, a list of unresolved
    `+= fn(...)` compositions)."""
    reads = {}
    suffixes = set()
    unresolved = []
    for path in sorted(src.rglob("*")):
        if path.suffix not in (".h", ".cpp"):
            continue
        rel = path.as_posix()
        prefix = None
        for lineno, line in enumerate(
                path.read_text().splitlines(), start=1):
            stripped = line.lstrip()
            if stripped.startswith("//") or stripped.startswith("*"):
                continue
            where = f"{rel}:{lineno}"
            for m in GET_RE.finditer(line):
                reads.setdefault(m.group(1), where)
            suffixes.update(COMPOSED_RE.findall(line))
            for m in PATH_LITERAL_RE.finditer(line):
                key = m.group(1)
                if key not in NON_CONFIG_LITERALS:
                    reads.setdefault(key, where)
            m = APPEND_CALL_RE.search(line)
            if m is not None and prefix is not None:
                names = function_literals(src, m.group(1))
                if not names:
                    unresolved.append(
                        f"{where}: cannot resolve the keys "
                        f"'{prefix}' + {m.group(1)}(...) composes")
                for name in names:
                    reads.setdefault(prefix + name, where)
            m = PREFIX_LITERAL_RE.search(line)
            prefix = m.group(1) if m is not None else None
    return reads, suffixes, unresolved


def main():
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--repo-root", default=None)
    args = parser.parse_args()
    root = (pathlib.Path(args.repo_root).resolve()
            if args.repo_root
            else pathlib.Path(__file__).resolve().parent.parent)
    src = root / "src"
    cfg_path = root / "graphite.cfg"
    if not src.is_dir() or not cfg_path.is_file():
        print(f"config_audit: missing src/ or graphite.cfg under "
              f"{root}", file=sys.stderr)
        return 2

    file_keys = parse_cfg_text(cfg_path.read_text())
    reads, suffixes, errors = collect_read_sites(src)

    # Section-prefix literals: "a/b" also counts as a read of any key
    # "a/b/c" (helpers compose the final key at runtime).
    def prefix_covered(key, pool):
        return any(other.startswith(key + "/") for other in pool)

    for key, where in sorted(reads.items()):
        if key not in file_keys and not prefix_covered(key, file_keys):
            errors.append(
                f"{where}: config key '{key}' is read but has no entry "
                f"in graphite.cfg — typo, or give the knob its default "
                f"there")

    composed = {p + s for p in reads
                if prefix_covered(p, file_keys) for s in suffixes}
    for key in sorted(file_keys):
        if key in reads or key in composed:
            continue
        errors.append(
            f"graphite.cfg: key '{key}' is never read by src/ — "
            f"dead knob or typo'd name")

    if errors:
        for e in errors:
            print(e)
        print(f"config_audit: FAILED with {len(errors)} violation(s)")
        return 1
    print(f"config_audit: {len(reads)} read keys, "
          f"{len(file_keys)} graphite.cfg entries")
    print("config_audit: OK")
    return 0


if __name__ == "__main__":
    sys.exit(main())
