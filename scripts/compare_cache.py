#!/usr/bin/env python3
"""List every difference between two cell caches, one line per file and field.

Checkpoints, loss curves and any other non-JSON file must match byte for
byte. JSON files (manifests, evaluations, CKA values) are compared by
value, field by field; a manifest's `runtime_s`, the wall time of its
training, is left out. Exits 1 if anything differs, else 0.

    python3 scripts/compare_cache.py runs/acceptance/cache <other cache>
"""

import argparse
import json
import os
import sys

# fields that may differ between two runs that trained the same bytes
IGNORED = {".manifest.json": ("runtime_s",)}


def _read_json(path):
    with open(path) as f:
        return json.load(f)


def file_diffs(name, path_a, path_b) -> list:
    """How the file `name` differs between `path_a` and `path_b`."""
    if not name.endswith(".json"):
        with open(path_a, "rb") as fa, open(path_b, "rb") as fb:
            return [] if fa.read() == fb.read() else ["bytes differ"]
    try:
        a, b = _read_json(path_a), _read_json(path_b)
    except (OSError, ValueError) as exc:
        return [f"unreadable JSON: {exc}"]
    if not (isinstance(a, dict) and isinstance(b, dict)):
        return [] if a == b else ["values differ"]
    ignored = next((keys for suffix, keys in IGNORED.items() if name.endswith(suffix)), ())
    diffs = []
    for key in sorted((set(a) | set(b)) - set(ignored)):
        if key not in b:
            diffs.append(f"{key}: only in a")
        elif key not in a:
            diffs.append(f"{key}: only in b")
        elif a[key] != b[key]:
            diffs.append(f"{key}: {a[key]!r} != {b[key]!r}")
    return diffs


def compare(dir_a, dir_b) -> list:
    """(file name, difference) for every difference between the caches."""
    names_a, names_b = set(os.listdir(dir_a)), set(os.listdir(dir_b))
    diffs = [(name, "only in a") for name in sorted(names_a - names_b)]
    diffs += [(name, "only in b") for name in sorted(names_b - names_a)]
    for name in sorted(names_a & names_b):
        diffs += [(name, d) for d in file_diffs(name, os.path.join(dir_a, name),
                                                os.path.join(dir_b, name))]
    return sorted(diffs)


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__,
                                 formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("a", help="a cell cache directory")
    ap.add_argument("b", help="the cell cache to compare it with")
    args = ap.parse_args(argv)
    diffs = compare(args.a, args.b)
    for name, diff in diffs:
        print(f"{name}: {diff}")
    n_files = len(set(os.listdir(args.a)) | set(os.listdir(args.b)))
    print(f"{n_files} files, {len(diffs)} difference(s)")
    return 1 if diffs else 0


if __name__ == "__main__":
    sys.exit(main())
