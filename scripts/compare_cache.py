#!/usr/bin/env python3
"""List every difference between two cell caches, one line per file and field.

Checkpoints, loss curves and any other non-JSON file must match byte for
byte. JSON files (manifests, evaluations, CKA values) are compared by
value, field by field; a manifest's `runtime_s`, the wall time of its
training, is left out. Within a field, dicts are compared key by key and
lists of dicts item by item, so a field's one line names each differing
key by its path, e.g. `specs[0].seed: 0 != 1; specs[1].clamp: only in a`.
Exits 1 if anything differs, else 0.

    python3 scripts/compare_cache.py runs/acceptance/cache <other cache>
"""

import argparse
import json
import os
import sys

# fields that may differ between two runs that trained the same bytes
IGNORED = {".manifest.json": ("runtime_s",)}
_MISSING = object()


def _read_json(path):
    with open(path) as f:
        return json.load(f)


def value_diffs(path, a, b) -> list:
    """`<path>: <how>` for each difference between the values `a` and `b`
    (either `_MISSING`), walking dicts by key and equal-length lists of
    dicts by index; any other pair is compared whole."""
    if b is _MISSING:
        return [f"{path}: only in a"]
    if a is _MISSING:
        return [f"{path}: only in b"]
    if isinstance(a, dict) and isinstance(b, dict):
        return [d for key in sorted(set(a) | set(b))
                for d in value_diffs(f"{path}.{key}", a.get(key, _MISSING), b.get(key, _MISSING))]
    if (isinstance(a, list) and isinstance(b, list) and len(a) == len(b)
            and all(isinstance(v, dict) for v in a + b)):
        return [d for i, (x, y) in enumerate(zip(a, b)) for d in value_diffs(f"{path}[{i}]", x, y)]
    return [] if a == b else [f"{path}: {a!r} != {b!r}"]


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
        field = value_diffs(key, a.get(key, _MISSING), b.get(key, _MISSING))
        if field:
            diffs.append("; ".join(field))
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
