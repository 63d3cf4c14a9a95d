#!/bin/sh
# Parity harness: run one corpus of queries through the simq built from
# the working tree and through the simq built from the git ref REF, and
# compare what they print.
#
#   tools/parity.sh REF          every output must be byte-identical
#   tools/parity.sh --bits REF   answer sets and printed %.4f rows must
#                                be identical; each %.17g distance that
#                                differs is listed, with their count and
#                                the largest relative difference
#
# REF is extracted with `git archive` into a temporary directory and
# built there; the working tree is built in place. For each corpus file
# tools/parity/nN.ql (series length N, 150 series, seed 1995) both
# builds generate the relation (whose bytes must match) and run:
# simq info; simq batch plain and --shards 4 --sketch at --jobs 1 and 2
# (plain --jobs 1 with --qlog); simq query for every spec, and every
# third spec again with --shards 4 --sketch; and a simq serve daemon
# sent every spec. The first run on each relation opens it cold and
# writes its image, the rest open warm. Durations are stripped before
# the comparison. Exits non-zero on any difference. Needs git, dune
# and python3; run it from anywhere inside the checkout.
set -eu

bits=0
if [ "${1:-}" = "--bits" ]; then
  bits=1
  shift
fi
[ $# -eq 1 ] || {
  echo "usage: tools/parity.sh [--bits] REF" >&2
  exit 2
}
ref=$1
root=$(cd "$(dirname "$0")/.." && pwd)
corpus=$root/tools/parity
work=$(mktemp -d "${TMPDIR:-/tmp}/simq-parity.XXXXXX")
daemon=
cleanup() {
  [ -z "$daemon" ] || kill "$daemon" 2>/dev/null || true
  rm -rf "$work"
}
trap cleanup EXIT

echo "== building $ref and the working tree"
mkdir "$work/src"
git -C "$root" archive "$ref" | tar -x -C "$work/src"
dune build --root "$work/src" ./bin/simq.exe 2>"$work/build.err" || {
  cat "$work/build.err" >&2
  exit 2
}
cp "$work/src/_build/default/bin/simq.exe" "$work/ref.exe"
dune build --root "$root" ./bin/simq.exe
cp "$root/_build/default/bin/simq.exe" "$work/cur.exe"

strip_durations() {
  sed -E -e 's/"duration_ms":[-+0-9.eE]+/"duration_ms":0/g' \
    -e 's/, [0-9.:]+(us|ms|s)\)$/)/'
}

# run_side NAME: every run of one build, its outputs in $work/NAME.
run_side() {
  simq=$work/$1.exe
  out=$work/$1
  mkdir "$out"
  cd "$out"
  for spec_file in "$corpus"/n*.ql; do
    n=$(basename "$spec_file" .ql)
    n=${n#n}
    rel=r$n.rel
    "$simq" generate --count 150 --length "$n" --seed 1995 -o "$rel" >/dev/null
    "$simq" info "$rel" >"info$n.out"
    for jobs in 1 2; do
      qlog=
      [ "$jobs" -eq 1 ] && qlog="--qlog batch$n.qlog"
      # shellcheck disable=SC2086
      "$simq" batch "$rel" "$spec_file" --jobs "$jobs" $qlog \
        >"batch$n.j$jobs.raw" 2>"batch$n.j$jobs.err" || true
      "$simq" batch "$rel" "$spec_file" --jobs "$jobs" --shards 4 --sketch \
        >"batch$n.j$jobs.shard.raw" 2>"batch$n.j$jobs.shard.err" || true
    done
    i=0
    grep -v '^[[:space:]]*\(#\|$\)' "$spec_file" | while IFS= read -r spec; do
      status=0
      "$simq" query "$rel" "$spec" >>"query$n.raw" 2>&1 || status=$?
      echo "exit $status" >>"query$n.raw"
      if [ $((i % 3)) -eq 0 ]; then
        status=0
        "$simq" query "$rel" "$spec" --shards 4 --sketch \
          >>"query$n.shard.raw" 2>&1 || status=$?
        echo "exit $status" >>"query$n.shard.raw"
      fi
      i=$((i + 1))
    done
    : >serve.err
    "$simq" serve "$rel" 2>serve.err &
    daemon=$!
    port=
    tries=0
    while [ -z "$port" ] && [ "$tries" -lt 500 ]; do
      port=$(sed -n 's!.*serving queries on 127\.0\.0\.1:\([0-9]*\)$!\1!p' serve.err)
      sleep 0.02
      tries=$((tries + 1))
    done
    [ -n "$port" ] || {
      echo "parity: the $1 daemon never announced its port" >&2
      exit 2
    }
    python3 "$corpus/parity.py" serve "$port" "$spec_file" >"serve$n.raw"
    wait "$daemon"
    daemon=
    rm serve.err
  done
  for raw in *.raw; do
    strip_durations <"$raw" >"${raw%.raw}.out"
    rm "$raw"
  done
  for log in *.qlog; do
    strip_durations <"$log" >"$log.out"
    rm "$log"
  done
  cd "$root"
}

echo "== running the corpus on $ref"
run_side ref
echo "== running the corpus on the working tree"
run_side cur

status=0
for rel in "$work"/ref/*.rel; do
  cmp -s "$rel" "$work/cur/$(basename "$rel")" || {
    echo "parity: generate wrote other bytes for $(basename "$rel")"
    status=1
  }
done
if [ "$bits" -eq 1 ]; then
  python3 "$corpus/parity.py" bits "$work/ref" "$work/cur" || status=1
else
  diff -r -x '*.rel' -x '*.prepared' "$work/ref" "$work/cur" || status=1
fi
if [ "$status" -eq 0 ]; then
  echo "parity: no difference from $ref"
else
  echo "parity: differences from $ref"
fi
exit "$status"
