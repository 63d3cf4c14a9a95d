#!/usr/bin/env python3
"""Helpers of tools/parity.sh.

  parity.py serve PORT SPECS   send every spec of SPECS (one per line,
                               blank lines and #-comments skipped) to the
                               simq serve daemon on 127.0.0.1:PORT, one at
                               a time, print each response line, then shut
                               the daemon down
  parity.py bits REF CUR       compare two output trees at printed
                               precision: every line must match but for
                               the "distance" numbers of JSON lines; list
                               each distance whose %.17g digits differ

`bits` exits 1 when an answer set, a printed row or any other field
differs, and 0 when only distance bits do.
"""

import json
import os
import socket
import sys


def specs_of(path):
    with open(path) as f:
        return [
            line.rstrip("\n")
            for line in f
            if line.strip() and not line.lstrip().startswith("#")
        ]


def serve(port, specs):
    with socket.create_connection(("127.0.0.1", int(port)), timeout=60) as s:
        f = s.makefile("rwb")
        for spec in specs_of(specs):
            f.write(spec.encode() + b"\n")
            f.flush()
            sys.stdout.write(f.readline().decode())
        f.write(b"shutdown\n")
        f.flush()
        f.readline()


def masked(value, found):
    """[value] with every "distance" number replaced by None, the
    numbers appended to [found] with the id or name beside them."""
    if isinstance(value, dict):
        out = {}
        for k, v in value.items():
            if k == "distance" and isinstance(v, (int, float)):
                found.append((value.get("name", value.get("id")), v))
                out[k] = None
            else:
                out[k] = masked(v, found)
        return out
    if isinstance(value, list):
        return [masked(v, found) for v in value]
    return value


def as_json(line):
    try:
        return json.loads(line)
    except ValueError:
        return None


def files_of(root):
    for d, _, names in os.walk(root):
        for name in names:
            yield os.path.relpath(os.path.join(d, name), root)


def bits(ref, cur):
    ref_files = sorted(f for f in files_of(ref) if not f.endswith((".rel", ".prepared")))
    cur_files = sorted(f for f in files_of(cur) if not f.endswith((".rel", ".prepared")))
    problems = []
    if ref_files != cur_files:
        problems.append("the two runs wrote other files")
    moved = []
    lines = 0
    for name in sorted(set(ref_files) & set(cur_files)):
        with open(os.path.join(ref, name), errors="replace") as f:
            a_lines = f.read().splitlines()
        with open(os.path.join(cur, name), errors="replace") as f:
            b_lines = f.read().splitlines()
        if len(a_lines) != len(b_lines):
            problems.append(f"{name}: {len(a_lines)} lines against {len(b_lines)}")
            continue
        for a, b in zip(a_lines, b_lines):
            lines += 1
            if a == b:
                continue
            ja, jb = as_json(a), as_json(b)
            da, db = [], []
            if ja is not None and jb is not None and masked(ja, da) == masked(jb, db):
                spec = ja.get("spec", "") if isinstance(ja, dict) else ""
                for (who, x), (_, y) in zip(da, db):
                    if x != y:
                        moved.append((name, spec, who, x, y))
            else:
                problems.append(f"{name}:\n  ref {a}\n  cur {b}")
    print(f"parity: {len(ref_files)} files, {lines} lines compared")
    largest = max(
        (abs(x - y) / max(abs(x), abs(y)) for *_, x, y in moved if x or y),
        default=0.0,
    )
    print(
        f"parity: {len(moved)} distances differ in their %.17g digits,"
        f" largest relative difference {largest:.3g}"
    )
    for name, spec, who, x, y in moved:
        print(f"  {name}: {spec}: {who}: {x:.17g} -> {y:.17g}")
    if problems:
        print(f"parity: {len(problems)} other differences:")
        for p in problems:
            print("  " + p)
        return 1
    print("parity: answer sets, printed rows and every other field identical")
    return 0


if __name__ == "__main__":
    if len(sys.argv) == 4 and sys.argv[1] == "serve":
        serve(sys.argv[2], sys.argv[3])
    elif len(sys.argv) == 4 and sys.argv[1] == "bits":
        sys.exit(bits(sys.argv[2], sys.argv[3]))
    else:
        sys.stderr.write(__doc__)
        sys.exit(2)
