#!/usr/bin/env python3
"""Flatten a JSON file's key paths, one sorted dotted path per line.

Used by CI to diff the key sets of BENCH_service.json, BENCH_detect.json
and the telemetry snapshot against the checked-in schemas (ci/*_keys.txt):
values change every run, the key set is a contract. Arrays contribute their element keys
under `[]` (index-independent, so schema does not depend on counts).
"""

import json
import sys


def walk(value, prefix, out):
    if isinstance(value, dict):
        for key, child in value.items():
            walk(child, f"{prefix}.{key}" if prefix else key, out)
    elif isinstance(value, list):
        for child in value:
            walk(child, f"{prefix}[]", out)
        if not value:
            out.add(f"{prefix}[]")
    else:
        out.add(prefix)


def main():
    if len(sys.argv) != 2:
        print("usage: flatten_json_keys.py FILE.json", file=sys.stderr)
        return 2
    with open(sys.argv[1]) as fh:
        data = json.load(fh)
    paths = set()
    walk(data, "", paths)
    for path in sorted(paths):
        print(path)
    return 0


if __name__ == "__main__":
    sys.exit(main())
