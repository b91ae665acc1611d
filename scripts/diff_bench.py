#!/usr/bin/env python3
"""Check that two bench JSON outputs are identical.

Usage: diff_bench.py A.json B.json [--drop KEY ...]

Simulated results are deterministic, so two runs of the same bench -- at a
different --threads or --sim-threads, or built from two revisions that must
not change behaviour -- must produce the same document. Wall-clock and
heap-allocation fields are machine-dependent and are always dropped:

    threads, wall_clock_seconds, events_per_second, heap_allocations,
    allocs_per_event

--drop names further keys to ignore. A key is dropped wherever it occurs,
at any depth (e.g. --drop wall_seconds for bench_pdes's per-series wall
times).

Prints "identical" and exits 0, or lists the differing paths and exits 1.
"""
import json
import sys

ALWAYS_DROPPED = {
    "threads",
    "wall_clock_seconds",
    "events_per_second",
    "heap_allocations",
    "allocs_per_event",
}


def strip(node, drop):
    if isinstance(node, dict):
        return {k: strip(v, drop) for k, v in node.items() if k not in drop}
    if isinstance(node, list):
        return [strip(v, drop) for v in node]
    return node


def differences(a, b, path="$"):
    if isinstance(a, dict) and isinstance(b, dict):
        for k in sorted(set(a) | set(b)):
            sub = f"{path}.{k}"
            if k not in a or k not in b:
                yield f"{sub}: only in {'B' if k not in a else 'A'}"
            else:
                yield from differences(a[k], b[k], sub)
    elif isinstance(a, list) and isinstance(b, list):
        if len(a) != len(b):
            yield f"{path}: {len(a)} vs {len(b)} entries"
        for i, (x, y) in enumerate(zip(a, b)):
            yield from differences(x, y, f"{path}[{i}]")
    elif a != b:
        yield f"{path}: {a!r} vs {b!r}"


def main(argv):
    files, drop = [], set(ALWAYS_DROPPED)
    args = iter(argv[1:])
    for arg in args:
        if arg == "--drop":
            drop.update(args)
        else:
            files.append(arg)
    if len(files) != 2:
        print(__doc__.strip(), file=sys.stderr)
        return 2
    docs = []
    for path in files:
        with open(path) as f:
            docs.append(strip(json.load(f), drop))
    diffs = list(differences(*docs))
    if not diffs:
        print("identical")
        return 0
    print(f"{files[0]} and {files[1]} differ in {len(diffs)} place(s):")
    for d in diffs[:20]:
        print("  " + d)
    if len(diffs) > 20:
        print(f"  ... and {len(diffs) - 20} more")
    return 1


if __name__ == "__main__":
    sys.exit(main(sys.argv))
