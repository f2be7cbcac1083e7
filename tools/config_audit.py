#!/usr/bin/env python3
"""Static config-key auditor.

Cross-checks every config key the simulator reads against the keys
that are documented, so a typo'd read site ("perf_model/l2cache/...")
or an undocumented knob fails the analysis gate instead of silently
falling back to its default.

Key sources:
  - read sites: cfg.getString/getInt/getDouble/getBool("section/key")
    and cfg.has("...") literals anywhere under src/, plus slash-path
    string literals fed to helpers that forward to Config::get*.
  - documentation: graphite.cfg ([section] + "key = value" entries),
    the compiled-in defaultTargetConfig() text in
    src/common/config.cpp, and `section/key` spans in DESIGN.md.

Checks:
  1. Every key read in src/ is documented (graphite.cfg, the built-in
     default config, or DESIGN.md). A literal that is a section
     prefix of documented keys (caches compose "perf_model/l2_cache"
     + "/cache_size") counts as documented.
  2. Every key in graphite.cfg and defaultTargetConfig() is actually
     read somewhere (catches typos and dead knobs on the documentation
     side). A composed read covers only what it composes: a prefix
     literal ("perf_model/l1_dcache") reads prefix + each suffix that
     a get*(var + "/suffix") call appends, not every key below it.

Exit status: 0 clean, 1 violations, 2 usage error.
"""

import argparse
import pathlib
import re
import sys

GET_RE = re.compile(
    r"\b(?:getString|getInt|getDouble|getBool|has)\(\s*\"([^\"]+)\"")
# Composed reads: get*(prefix_var + "/suffix"). The suffix completes
# whatever prefix literal the helper was handed.
COMPOSED_RE = re.compile(
    r"\b(?:getString|getInt|getDouble|getBool|has)\(\s*\w+\s*\+\s*"
    r"\"(/[a-z0-9_]+)\"")
# Bare string literals shaped like config paths (lowercase segments
# joined by '/'), to catch keys passed through helper lambdas before
# reaching Config::get*.
PATH_LITERAL_RE = re.compile(r"\"([a-z][a-z0-9_]*(?:/[a-z0-9_]+)+)\"")
SECTION_RE = re.compile(r"^\s*\[([^\]]+)\]")
# "#key = value" comment lines document opt-in knobs; count them.
ENTRY_RE = re.compile(r"^\s*#?\s*([A-Za-z0-9_/]+)\s*=")
DESIGN_KEY_RE = re.compile(r"`([a-z][a-z0-9_]*(?:/[a-z0-9_]+)+)`")

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
        line = line.split(";")[0]
        m = SECTION_RE.match(line)
        if m is not None:
            section = m.group(1).strip()
            continue
        m = ENTRY_RE.match(line)
        if m is not None and section is not None:
            keys.add(f"{section}/{m.group(1)}")
    return keys


def collect_read_sites(src: pathlib.Path):
    """Return ({key: first file:line} for every key-shaped read, the
    set of suffixes composed reads append)."""
    reads = {}
    suffixes = set()
    for path in sorted(src.rglob("*")):
        if path.suffix not in (".h", ".cpp"):
            continue
        rel = path.as_posix()
        for lineno, line in enumerate(
                path.read_text().splitlines(), start=1):
            stripped = line.lstrip()
            if stripped.startswith("//") or stripped.startswith("*"):
                continue
            for m in GET_RE.finditer(line):
                reads.setdefault(m.group(1), f"{rel}:{lineno}")
            suffixes.update(COMPOSED_RE.findall(line))
            for m in PATH_LITERAL_RE.finditer(line):
                key = m.group(1)
                if key not in NON_CONFIG_LITERALS:
                    reads.setdefault(key, f"{rel}:{lineno}")
    return reads, suffixes


def extract_default_config(config_cpp: pathlib.Path):
    text = config_cpp.read_text()
    m = re.search(r"R\"cfg\((.*?)\)cfg\"", text, re.DOTALL)
    return parse_cfg_text(m.group(1)) if m else set()


def main():
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--repo-root", default=None)
    args = parser.parse_args()
    root = (pathlib.Path(args.repo_root).resolve()
            if args.repo_root
            else pathlib.Path(__file__).resolve().parent.parent)
    src = root / "src"
    cfg_path = root / "graphite.cfg"
    design_path = root / "DESIGN.md"
    if not src.is_dir() or not cfg_path.is_file():
        print(f"config_audit: missing src/ or graphite.cfg under "
              f"{root}", file=sys.stderr)
        return 2

    file_keys = parse_cfg_text(cfg_path.read_text())
    builtin_keys = extract_default_config(src / "common" / "config.cpp")
    design_keys = (set(DESIGN_KEY_RE.findall(design_path.read_text()))
                   if design_path.is_file() else set())
    documented = file_keys | builtin_keys | design_keys

    reads, suffixes = collect_read_sites(src)
    errors = []

    # Section-prefix literals: "a/b" also counts as a read/doc of any
    # key "a/b/c" (helpers compose the final key at runtime).
    def prefix_covered(key, pool):
        return any(other.startswith(key + "/") for other in pool)

    for key, where in sorted(reads.items()):
        if key not in documented and not prefix_covered(key, documented):
            errors.append(
                f"{where}: config key '{key}' is read but documented "
                f"nowhere (graphite.cfg, defaultTargetConfig(), "
                f"DESIGN.md) — typo, or document the knob")

    composed = {p + s for p in reads
                if prefix_covered(p, documented) for s in suffixes}
    for where, keys in (("graphite.cfg", file_keys),
                        ("defaultTargetConfig()", builtin_keys)):
        for key in sorted(keys):
            if key in reads or key in composed:
                continue
            errors.append(
                f"{where}: key '{key}' is never read by src/ — "
                f"dead knob or typo'd name")

    if errors:
        for e in errors:
            print(e)
        print(f"config_audit: FAILED with {len(errors)} violation(s)")
        return 1
    print(f"config_audit: {len(reads)} read keys, "
          f"{len(documented)} documented "
          f"({len(file_keys)} graphite.cfg, {len(builtin_keys)} "
          f"built-in, {len(design_keys)} DESIGN.md)")
    print("config_audit: OK")
    return 0


if __name__ == "__main__":
    sys.exit(main())
