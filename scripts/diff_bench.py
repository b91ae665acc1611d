#!/usr/bin/env python3
"""Diff two bench JSON outputs: simulated fields exactly, wall-clock by note.

Usage: diff_bench.py A.json B.json [--drop KEY ...]

Simulated results are deterministic, so two runs of the same bench -- at a
different --threads or --sim-threads, built from two revisions that must
not change behaviour, or a fresh run and its committed baseline in
bench/baselines/ -- must produce the same document. Wall-clock and
heap-allocation fields are machine-dependent. Keys matching one of

    threads, hardware_threads, wall_clock_seconds, wall_seconds,
    events_per_second, heap_allocations, allocs_per_event,
    speedup_vs_serial, *_serial_wall_seconds, *_speedup_at_4_threads

are left out of the exact comparison, wherever they occur. A "note:" line
names each one that moved by more than 20% from A to B; a note never fails
the diff. A google-benchmark document (BENCH_micro.json) holds wall-clock
fields only: it gets one note per benchmark whose real_time moved by more
than 20%, and never fails.

--drop names further keys to ignore, at any depth (e.g. --drop sim_threads
to diff a --sim-threads=2 run against a serial one).

Prints the notes, then "identical" and exits 0 when no simulated field
differs. Otherwise lists the differing paths and exits 1. Exits 2, with a
message, on bad usage or a file it cannot read.
"""
import fnmatch
import json
import sys

WALL_CLOCK = (
    "threads",
    "hardware_threads",
    "wall_clock_seconds",
    "wall_seconds",
    "events_per_second",
    "heap_allocations",
    "allocs_per_event",
    "speedup_vs_serial",
    "*_serial_wall_seconds",
    "*_speedup_at_4_threads",
)
NOTE_THRESHOLD = 0.20


def is_wall_clock(key):
    return any(fnmatch.fnmatchcase(key, p) for p in WALL_CLOCK)


def moved(a, b):
    return abs(b - a) > NOTE_THRESHOLD * abs(a)


def compare(a, b, drop, diffs, notes, path="$"):
    if isinstance(a, dict) and isinstance(b, dict):
        for k in sorted(set(a) | set(b)):
            if k in drop:
                continue
            sub = f"{path}.{k}"
            if is_wall_clock(k):
                if k in a and k in b and moved(a[k], b[k]):
                    notes.append(f"note: {sub}: {a[k]!r} -> {b[k]!r}")
            elif k not in a or k not in b:
                diffs.append(f"{sub}: only in {'B' if k not in a else 'A'}")
            else:
                compare(a[k], b[k], drop, diffs, notes, sub)
    elif isinstance(a, list) and isinstance(b, list):
        if len(a) != len(b):
            diffs.append(f"{path}: {len(a)} vs {len(b)} entries")
        for i, (x, y) in enumerate(zip(a, b)):
            compare(x, y, drop, diffs, notes, f"{path}[{i}]")
    elif a != b:
        diffs.append(f"{path}: {a!r} vs {b!r}")


def is_google_benchmark(doc):
    return isinstance(doc, dict) and "context" in doc and "benchmarks" in doc


def real_times(doc):
    return {b["name"]: (b["real_time"], b.get("time_unit", "ns"))
            for b in doc["benchmarks"]}


def benchmark_notes(a, b):
    ta, tb = real_times(a), real_times(b)
    for name in sorted(set(ta) | set(tb)):
        if name not in ta or name not in tb:
            yield f"note: {name}: only in {'B' if name not in ta else 'A'}"
            continue
        (x, unit_a), (y, unit_b) = ta[name], tb[name]
        if unit_a != unit_b or moved(x, y):
            yield (f"note: {name}: real_time {x:.4g} {unit_a} -> "
                   f"{y:.4g} {unit_b}")


def main(argv):
    files, drop = [], set()
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
        try:
            with open(path) as f:
                docs.append(json.load(f))
        except (OSError, ValueError) as e:
            print(f"diff_bench: cannot read {path}: {e}", file=sys.stderr)
            return 2
    if is_google_benchmark(docs[0]) != is_google_benchmark(docs[1]):
        print(f"diff_bench: {files[0]} and {files[1]} are not both "
              "google-benchmark output", file=sys.stderr)
        return 2
    diffs, notes = [], []
    if is_google_benchmark(docs[0]):
        notes.extend(benchmark_notes(*docs))
    else:
        compare(*docs, drop, diffs, notes)
    for n in notes:
        print(n)
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
