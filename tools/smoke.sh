#!/bin/sh
# Smoke test: drive the built binaries end to end — the fast benchmark
# sweep with observability on, an admission-control rejection (exit 5)
# that still dumps its metrics and trace, a profiled query with both
# profile exports, a bench sweep persisting its registry state, a
# batch run (a workload file in, one JSON line per query out, with
# metrics, a sampled query log aggregated by qlog-top and a --from-qlog
# replay), a live
# scrape of the TCP exposition endpoint while a bench run is serving
# it, a simq serve daemon on an ephemeral port driven through a
# chaotic stress session (good, malformed and disconnecting clients),
# scraped live, its windowed telemetry polled by simq top (the raw
# /history document once, then the rendered view, both checked for
# non-negative rates), its worst-query store fetched over the in-band
# slow command, shut down in-band, with the drained dumps checked and
# the daemon qlog broken down by trace id, and
# the sharded executor: a --shards query checked bit-identical to the
# unsharded run, a MEAN-constrained range checked identical to the
# plain run under a budget, admission and a budgeted --shards run, an
# STD band below 1 rejected as usage, a sharded batch whose qlog
# aggregates by fanout and whose answers, at --shards 4 with and
# without --sketch, equal the unsharded batch's, and a sharded
# daemon verified by stress with its qlog aggregated by fanout, and the
# sketch funnel: a --sketch query (plain and sharded) checked
# bit-identical to the unsketched run with its filter counters exposed,
# a NEAREST query printing the same rows plain, with --shards 4 and
# with --shards 4 --sketch, and profiled with --shards 4 showing pages
# on every executed shard, every operator of a profiled planner RANGE
# (--sketch) and of a profiled --shards 4 NEAREST found as a span of
# its name in the query's trace,
# an --approx query checked superset-free against the exact answers
# with the sketch ladder visible in its profile tree, and an
# out-of-range --approx rejected as a usage error, plus PAIRS joins
# (identity, rev, mavg(4), wma(3)) whose early-abandoning band join prints the
# same pairs as the full scan and the index join, whose rows are the
# band join's pairs in both directions and which exits 4 with a
# node_accesses outcome under a one-node budget, the same two checks
# at a Bluestein length
# (100) and at a length below the mirrored bounds' twins (5), where RANGE
# and NEAREST print the plain rows with --shards 4 --sketch and the band
# join prints the full scan's pairs, and a daemon whose budget carries
# always-firing node and page faults, driven by a plain stress session
# with every NEAREST line of its qlog failed typed, and the prepared
# image, a sharded NEAREST at k 1, 5 and 24 printing the plain rows
# with --shards 4 and --shards 16 (k above a shard's size) at lengths
# 100 and 7, where every shard after the first runs under the first's
# k-th distance, and the prepared
# image: a second query opened from it (an image.open span, no prepare
# or build span) printing the first one's rows, a directory in the
# image's place ignored, and a daemon that opened the image answering
# from it after the relation is regenerated and a query replaces the
# image, a relation file with one byte flipped in its series or its
# name table refused by info and query with exit 2, a relation
# exported to CSV and imported again printing the same info, file
# bytes and answer rows, and warp(2) RANGE
# and NEAREST and index PAIRS
# under mavg(4) printing the same rows cold and warm, plain and with
# --shards 4 --sketch.
#
# Two modes:
#   tools/smoke.sh                full standalone run: dune build @all,
#                                 dune runtest, then the drive below
#   tools/smoke.sh SIMQ BENCH     driven (what `dune build @smoke` runs):
#                                 binaries are supplied, build and test
#                                 are dune dependencies already
#
# Any nonzero exit fails the script immediately.
set -eu

if [ $# -eq 0 ]; then
  cd "$(dirname "$0")/.."
  echo "== dune build @all"
  dune build @all
  echo "== dune runtest"
  dune runtest
  simq=$PWD/_build/default/bin/simq.exe
  bench=$PWD/_build/default/bench/main.exe
else
  case $1 in /*) simq=$1 ;; *) simq=$PWD/$1 ;; esac
  case $2 in /*) bench=$2 ;; *) bench=$PWD/$2 ;; esac
fi

workdir=$(mktemp -d)
trap 'rm -rf "$workdir"' EXIT
cd "$workdir"

echo "== bench --fast with metrics and tracing on"
"$bench" --fast --metrics=metrics.prom --trace trace.json

# The exposition must contain every instrumented family the bench
# links (simq_batch, the batch executor's, is checked on the simq batch
# run below, and simq_planner on the planned query below: the bench
# runs no planner); the trace must be non-empty valid JSON (well-formedness
# is checked structurally by the test suite, so a cheap shape check
# suffices here).
for family in simq_buffer_pool simq_rtree simq_pool \
  simq_fault simq_scan simq_kindex simq_join simq_timer simq_admission; do
  grep -q "^# TYPE $family" metrics.prom || {
    echo "smoke: family $family missing from the exposition" >&2
    exit 1
  }
done
grep -q '"traceEvents"' trace.json || {
  echo "smoke: trace.json has no traceEvents" >&2
  exit 1
}

echo "== admission rejection exits 5 and still dumps observability"
"$simq" generate --count 200 --length 64 -o smoke.rel
status=0
"$simq" query smoke.rel "RANGE FROM r QUERY s0 EPS 2.5" \
  --admission --max-page-reads 2 --max-comparisons 2 --max-node-accesses 0 \
  --metrics reject.prom --trace reject.json 2>reject.err || status=$?
[ "$status" -eq 5 ] || {
  echo "smoke: expected admission rejection to exit 5, got $status" >&2
  cat reject.err >&2
  exit 1
}
grep -q "rejected by admission control" reject.err || {
  echo "smoke: rejection did not print the one-line reason" >&2
  exit 1
}
grep -q '^simq_admission_decisions_total{decision="reject"} 1' reject.prom || {
  echo "smoke: rejection not counted in the dumped exposition" >&2
  exit 1
}
grep -q '^# TYPE simq_planner' reject.prom || {
  echo "smoke: family simq_planner missing from the planned query's exposition" >&2
  exit 1
}
grep -q '"traceEvents"' reject.json || {
  echo "smoke: rejected run left no trace dump" >&2
  exit 1
}

echo "== profiled query: EXPLAIN ANALYZE text tree and JSON export"
"$simq" query smoke.rel "RANGE FROM r USING mavg(7) QUERY s0 EPS 2.5" \
  --profile >profiled.out
grep -q -- '-> kindex.range' profiled.out || {
  echo "smoke: --profile printed no operator tree" >&2
  exit 1
}
grep -q 'pages=' profiled.out || {
  echo "smoke: profile tree carries no page counts" >&2
  exit 1
}
"$simq" query smoke.rel "RANGE FROM r QUERY s0 EPS 2.5" \
  --admission --profile=profile.json >/dev/null
grep -q '"event":"simq.profile"' profile.json || {
  echo "smoke: --profile=FILE.json did not write the JSON export" >&2
  exit 1
}

echo "== PAIRS: the early-abandoning band join equals the full scan"
for using in "" "USING rev " "USING mavg(4) " "USING wma(3) "; do
  "$simq" query smoke.rel "PAIRS FROM r ${using}EPS 2.5 METHOD scan" \
    >pairs.full.out
  "$simq" query smoke.rel "PAIRS FROM r ${using}EPS 2.5 METHOD scan-early" \
    >pairs.early.out
  grep -q ' ~ ' pairs.full.out || {
    echo "smoke: the PAIRS scan join ${using}found no pair" >&2
    exit 1
  }
  [ "$(grep ' ~ ' pairs.early.out)" = "$(grep ' ~ ' pairs.full.out)" ] || {
    echo "smoke: scan-early pairs ${using}differ from the full scan" >&2
    diff pairs.full.out pairs.early.out >&2 || true
    exit 1
  }
done

echo "== index PAIRS: the scan join's pairs, both directions, under a budget"
# The index join reports every pair in both directions; taken once
# (the first name below the second), its rows are the band join's.
for using in "" "USING rev " "USING mavg(4) " "USING wma(3) "; do
  "$simq" query smoke.rel "PAIRS FROM r ${using}EPS 2.5 METHOD scan-early" \
    >pairs.early.out
  "$simq" query smoke.rel "PAIRS FROM r ${using}EPS 2.5 METHOD index" \
    >pairs.index.out
  grep ' ~ ' pairs.early.out | sort >pairs.early.rows
  grep ' ~ ' pairs.index.out | awk '$1 < $3' | sort >pairs.index.rows
  cmp -s pairs.early.rows pairs.index.rows || {
    echo "smoke: index pairs ${using}differ from the band join's" >&2
    diff pairs.early.rows pairs.index.rows >&2 || true
    exit 1
  }
  [ "$(grep -c ' ~ ' pairs.index.out)" -eq $((2 * $(wc -l <pairs.early.rows))) ] || {
    echo "smoke: index pairs ${using}are not reported in both directions" >&2
    exit 1
  }
done
# The index join runs under the budget like RANGE: one node access
# cannot answer it.
status=0
"$simq" query smoke.rel "PAIRS FROM r EPS 1.5 METHOD index" \
  --max-node-accesses 1 --qlog pairs.qlog 2>pairs.err || status=$?
[ "$status" -eq 4 ] || {
  echo "smoke: a one-node budget on index PAIRS exited $status, expected 4" >&2
  cat pairs.err >&2
  exit 1
}
grep -q '"outcome":"budget_exceeded:node_accesses"' pairs.qlog || {
  echo "smoke: the budgeted index PAIRS logged no node_accesses outcome" >&2
  cat pairs.qlog >&2
  exit 1
}

echo "== seeded sharded NEAREST: k at and above a shard's size"
# Each shard after the seed starts its top-k at the seed's k-th
# distance; the merged rows must still be the plain run's, also where
# k = 24 exceeds the 7 or 8 series of a shard at --shards 16.
for len in 100 7; do
  "$simq" generate --count 120 --length "$len" -o "seeded$len.rel" >/dev/null
  for k in 1 5 24; do
    for using in "" "USING mavg(4) "; do
      spec="NEAREST $k FROM r ${using}QUERY s7"
      "$simq" query "seeded$len.rel" "$spec" >seeded.plain.out
      [ "$(grep -c ' distance ' seeded.plain.out)" -eq "$k" ] || {
        echo "smoke: '$spec' at length $len did not print $k rows" >&2
        exit 1
      }
      for shards in 4 16; do
        "$simq" query "seeded$len.rel" "$spec" --shards "$shards" >seeded.shard.out
        [ "$(grep ' distance ' seeded.shard.out)" = "$(grep ' distance ' seeded.plain.out)" ] || {
          echo "smoke: '$spec' at length $len differs with --shards $shards" >&2
          diff seeded.plain.out seeded.shard.out >&2 || true
          exit 1
        }
      done
    done
  done
done

echo "== mirrored bounds: a Bluestein length and one below the twins"
# Length 100 is not a power of two (Bluestein's transform); length 5
# is below 2·head_width, where the bounds stay one-sided. On each the
# sharded, sketched executor prints the plain rows and the band join
# the full scan's pairs.
for shape in "100 10 4" "5 2 0.3"; do
  set -- $shape
  len=$1 range_eps=$2 pairs_eps=$3
  "$simq" generate --count 120 --length "$len" -o "mirror$len.rel" >/dev/null
  for spec in "RANGE FROM r USING mavg(4) QUERY s7 EPS $range_eps" \
    "NEAREST 5 FROM r USING wma(3) QUERY s7"; do
    "$simq" query "mirror$len.rel" "$spec" >mirror.plain.out
    grep -q ' distance ' mirror.plain.out || {
      echo "smoke: '$spec' at length $len printed no rows" >&2
      exit 1
    }
    "$simq" query "mirror$len.rel" "$spec" --shards 4 --sketch >mirror.shard.out
    [ "$(grep ' distance ' mirror.shard.out)" = "$(grep ' distance ' mirror.plain.out)" ] || {
      echo "smoke: '$spec' at length $len differs sharded and sketched" >&2
      diff mirror.plain.out mirror.shard.out >&2 || true
      exit 1
    }
  done
  for using in "" "USING rev " "USING wma(3) "; do
    "$simq" query "mirror$len.rel" \
      "PAIRS FROM r ${using}EPS $pairs_eps METHOD scan" >mirror.full.out
    "$simq" query "mirror$len.rel" \
      "PAIRS FROM r ${using}EPS $pairs_eps METHOD scan-early" >mirror.early.out
    grep -q ' ~ ' mirror.full.out || {
      echo "smoke: the PAIRS scan ${using}at length $len found no pair" >&2
      exit 1
    }
    [ "$(grep ' ~ ' mirror.early.out)" = "$(grep ' ~ ' mirror.full.out)" ] || {
      echo "smoke: scan-early pairs ${using}at length $len differ from the full scan" >&2
      diff mirror.full.out mirror.early.out >&2 || true
      exit 1
    }
  done
done

echo "== bench sweep persists the metrics registry"
"$bench" --fast fig8 --metrics-state smoke.state >/dev/null
grep -q '"event":"simq.metrics-state"' smoke.state || {
  echo "smoke: --metrics-state wrote no registry snapshot" >&2
  exit 1
}

echo "== batch: a workload file in, one JSON line per query out"
cat >batch.specs <<'EOF'
RANGE FROM r QUERY s0 EPS 2.5
RANGE FROM r USING mavg(7) QUERY s1 EPS 2.5
# comments and the blank line below are skipped

NEAREST 3 FROM r QUERY s2
this is not a query
RANGE FROM r USING rev QUERY s3 EPS 1.5
EOF
"$simq" batch smoke.rel batch.specs --jobs 2 -o batch.jsonl \
  --metrics batch.prom --qlog batch.qlog --qlog-sample 2 2>batch.err
grep -q 'batch: 5 queries (4 ok, 1 failed)' batch.err || {
  echo "smoke: batch summary line wrong or missing" >&2
  cat batch.err >&2
  exit 1
}
[ "$(grep -c '"event":"simq.batch"' batch.jsonl)" -eq 5 ] || {
  echo "smoke: expected one simq.batch line per spec" >&2
  exit 1
}
grep -q '"outcome":"usage"' batch.jsonl || {
  echo "smoke: the malformed spec did not produce a usage error line" >&2
  exit 1
}
[ "$(grep -c '"outcome":"ok"' batch.jsonl)" -eq 4 ] || {
  echo "smoke: expected 4 ok result lines" >&2
  exit 1
}
grep -q '^# TYPE simq_batch' batch.prom || {
  echo "smoke: family simq_batch missing from the exposition" >&2
  exit 1
}
grep -q '^simq_batch_queries_total 5' batch.prom || {
  echo "smoke: batch executor queries not counted in the exposition" >&2
  exit 1
}
# --qlog-sample 2 keeps sequence numbers 0, 2 and 4 — a pure function
# of the query sequence number, so this count is deterministic.
[ "$(grep -c '"event":"simq.qlog"' batch.qlog)" -eq 3 ] || {
  echo "smoke: sampled batch qlog should hold exactly 3 lines" >&2
  exit 1
}
"$simq" qlog-top batch.qlog >qlogtop.out
grep -q 'top by duration:' qlogtop.out || {
  echo "smoke: qlog-top printed no duration ranking" >&2
  exit 1
}
grep -q 'by path:' qlogtop.out || {
  echo "smoke: qlog-top printed no path breakdown" >&2
  exit 1
}

echo "== batch --from-qlog replays the sampled specs"
"$simq" batch smoke.rel --from-qlog batch.qlog -o replay.jsonl 2>replay.err
grep -q 'batch: 3 queries (3 ok, 0 failed)' replay.err || {
  echo "smoke: qlog replay summary wrong or missing" >&2
  cat replay.err >&2
  exit 1
}
[ "$(grep -c '"event":"simq.batch"' replay.jsonl)" -eq 3 ] || {
  echo "smoke: replay should re-execute the 3 sampled specs" >&2
  exit 1
}

echo "== sharded query: fanout report, shard metrics, unsharded parity"
"$simq" query smoke.rel "RANGE FROM r QUERY s0 EPS 2.5" >plain.out
"$simq" query smoke.rel "RANGE FROM r QUERY s0 EPS 2.5" \
  --shards 4 --metrics shard.prom >shard.out
grep -q '(path shard, 4 shards: fanout' shard.out || {
  echo "smoke: sharded query printed no scatter-gather report" >&2
  cat shard.out >&2
  exit 1
}
[ "$(grep ' distance ' shard.out)" = "$(grep ' distance ' plain.out)" ] || {
  echo "smoke: sharded answers differ from the unsharded run" >&2
  diff plain.out shard.out >&2 || true
  exit 1
}
grep -q '^# TYPE simq_shard' shard.prom || {
  echo "smoke: simq_shard family missing from the sharded exposition" >&2
  exit 1
}
grep -q '^simq_shard_queries_total 1' shard.prom || {
  echo "smoke: sharded query not counted in the exposition" >&2
  exit 1
}

echo "== side constraints: checked and sharded runs keep MEAN, bad STD is usage"
# simq query routes through the same engine as batch and serve, so a
# budget, admission or a budgeted sharded run answers a MEAN-constrained
# range exactly as the plain run does — also when a one-node budget
# degrades the index path to the scan (per shard on a sharded run).
"$simq" query smoke.rel "RANGE FROM r QUERY s0 EPS 6 MEAN 0.5" >mean.out
grep -q ' distance ' mean.out || {
  echo "smoke: the MEAN-constrained range found no answer" >&2
  exit 1
}
for opts in "--max-page-reads 100000" "--admission" \
  "--shards 4 --max-node-accesses 100000" "--max-node-accesses 1" \
  "--shards 4 --max-node-accesses 1"; do
  # shellcheck disable=SC2086
  "$simq" query smoke.rel "RANGE FROM r QUERY s0 EPS 6 MEAN 0.5" $opts \
    >mean.checked.out
  [ "$(grep ' distance ' mean.checked.out)" = "$(grep ' distance ' mean.out)" ] || {
    echo "smoke: MEAN-constrained answers under $opts differ from the plain run" >&2
    diff mean.out mean.checked.out >&2 || true
    exit 1
  }
done
status=0
"$simq" query smoke.rel "RANGE FROM r QUERY s0 EPS 6 STD 0.5" \
  2>std.err >/dev/null || status=$?
[ "$status" -eq 1 ] || {
  echo "smoke: an STD band below 1 should exit 1 (usage), got $status" >&2
  cat std.err >&2
  exit 1
}
grep -q 'std_band must be >= 1' std.err || {
  echo "smoke: the bad STD band printed no usage message" >&2
  cat std.err >&2
  exit 1
}

echo "== sharded batch: every executed spec takes the shard path"
"$simq" batch smoke.rel batch.specs --shards 4 --jobs 2 \
  -o shardbatch.jsonl --metrics shardbatch.prom --qlog shardbatch.qlog \
  2>shardbatch.err
grep -q 'batch: 5 queries (4 ok, 1 failed)' shardbatch.err || {
  echo "smoke: sharded batch summary line wrong or missing" >&2
  cat shardbatch.err >&2
  exit 1
}
[ "$(grep -c '"path":"shard"' shardbatch.jsonl)" -eq 4 ] || {
  echo "smoke: expected all 4 ok lines to report the shard path" >&2
  exit 1
}
grep -q '^simq_shard_queries_total 4' shardbatch.prom || {
  echo "smoke: sharded batch queries not counted in the exposition" >&2
  exit 1
}
# Sharded and sketched answers are the unsharded batch's, line for
# line, once the path and the timing are stripped.
"$simq" batch smoke.rel batch.specs --shards 4 --sketch --jobs 2 \
  -o sketchbatch.jsonl 2>/dev/null
results_only() {
  sed -e 's/"path":[^,]*,//' -e 's/,"duration_ms":[^,}]*//' "$1"
}
results_only batch.jsonl >batch.results
for out in shardbatch.jsonl sketchbatch.jsonl; do
  results_only "$out" | cmp -s batch.results - || {
    echo "smoke: $out answers differ from the unsharded batch" >&2
    results_only "$out" | diff batch.results - >&2 || true
    exit 1
  }
done
# Batch qlog lines project the same record as query and serve lines,
# shard counts included.
"$simq" qlog-top shardbatch.qlog >shardbatch.top
grep -q 'by fanout:' shardbatch.top || {
  echo "smoke: sharded batch qlog has no fanout breakdown" >&2
  cat shardbatch.top >&2
  exit 1
}
grep -q '4-shard' shardbatch.top || {
  echo "smoke: sharded batch fanout breakdown lacks the 4-shard bucket" >&2
  cat shardbatch.top >&2
  exit 1
}

echo "== sketch funnel: exact parity, approx guarantee, profile ladder"
"$simq" query smoke.rel "RANGE FROM r QUERY s0 EPS 2.5" --sketch \
  --metrics sketch.prom >sketch.out
[ "$(grep ' distance ' sketch.out)" = "$(grep ' distance ' plain.out)" ] || {
  echo "smoke: sketched answers differ from the unsketched run" >&2
  diff plain.out sketch.out >&2 || true
  exit 1
}
grep -q '^# TYPE simq_sketch_filtered_total' sketch.prom || {
  echo "smoke: sketch filter family missing from the exposition" >&2
  exit 1
}
"$simq" query smoke.rel "RANGE FROM r QUERY s0 EPS 2.5" \
  --sketch --shards 4 >sketchshard.out
[ "$(grep ' distance ' sketchshard.out)" = "$(grep ' distance ' plain.out)" ] || {
  echo "smoke: sketched sharded answers differ from the unsketched run" >&2
  diff plain.out sketchshard.out >&2 || true
  exit 1
}
# NEAREST through the CLI: the same rows plain, sharded, and sharded
# with sketches (NN takes no sketch; each shard queues its entries
# under its own head bound).
nn_spec="NEAREST 5 FROM r USING mavg(4) QUERY s3"
"$simq" query smoke.rel "$nn_spec" >nn.plain.out
grep -q ' distance ' nn.plain.out || {
  echo "smoke: plain NEAREST printed no rows" >&2
  exit 1
}
for opts in "--shards 4" "--shards 4 --sketch"; do
  # shellcheck disable=SC2086
  "$simq" query smoke.rel "$nn_spec" $opts >nn.shard.out
  [ "$(grep ' distance ' nn.shard.out)" = "$(grep ' distance ' nn.plain.out)" ] || {
    echo "smoke: NEAREST rows under $opts differ from the plain run" >&2
    diff nn.plain.out nn.shard.out >&2 || true
    exit 1
  }
done
# A profiled sharded NEAREST shows each shard's real work: all four
# shards execute, and every executed shard.N line carries its node
# expansions as pages.
"$simq" query smoke.rel "$nn_spec" --shards 4 --profile >nn.profile.out
grep -E -- '-> shard\.[0-9]+ \[(index|scan)\]' nn.profile.out >nn.shards || true
[ "$(wc -l <nn.shards)" -eq 4 ] || {
  echo "smoke: sharded NEAREST profile does not show four executed shards" >&2
  cat nn.profile.out >&2
  exit 1
}
if grep -v -E 'pages=[1-9]' nn.shards | grep -q .; then
  echo "smoke: an executed shard of a profiled NEAREST shows no pages" >&2
  cat nn.profile.out >&2
  exit 1
fi
# Every operator node is also a span: each name the profile tree
# prints appears as a span in the same query's Chrome trace.
op_spans() {
  label=$1
  shift
  "$simq" query smoke.rel "$@" --profile --trace ops.json >ops.out
  sed -n 's/^ *-> \([^ ]*\).*/\1/p' ops.out | sort -u >ops.names
  [ -s ops.names ] || {
    echo "smoke: $label printed no operator tree" >&2
    exit 1
  }
  while IFS= read -r op; do
    grep -qF "\"name\":\"$op\"" ops.json || {
      echo "smoke: operator $op of $label has no span in its trace" >&2
      cat ops.out >&2
      exit 1
    }
  done <ops.names
}
op_spans "the planner RANGE" "RANGE FROM r USING mavg(4) QUERY s0 EPS 2.5" \
  --sketch
op_spans "the sharded NEAREST" "$nn_spec" --shards 4
"$simq" query smoke.rel "RANGE FROM r QUERY s0 EPS 2.5" \
  --approx 0.4 --profile >approx.out
grep -q 'sketch.coarse' approx.out || {
  echo "smoke: approx profile tree shows no sketch ladder" >&2
  cat approx.out >&2
  exit 1
}
# Every approximate answer must be a true answer (superset-free).
grep ' distance ' approx.out >approx.lines || true
while IFS= read -r line; do
  grep -qF -- "$line" plain.out || {
    echo "smoke: approx returned a non-answer: $line" >&2
    exit 1
  }
done <approx.lines
status=0
"$simq" query smoke.rel "RANGE FROM r QUERY s0 EPS 2.5" \
  --approx 1.5 2>approx.err || status=$?
[ "$status" -ne 0 ] || {
  echo "smoke: out-of-range --approx was accepted" >&2
  exit 1
}
grep -q -- '--approx must be in \[0, 1)' approx.err || {
  echo "smoke: out-of-range --approx printed no usage message" >&2
  cat approx.err >&2
  exit 1
}

echo "== prepared image: the second query opens it and prints the same rows"
"$simq" generate --count 300 --length 64 -o image.rel >/dev/null
image_spec="NEAREST 5 FROM r USING mavg(4) QUERY s7"
"$simq" query image.rel "$image_spec" --trace cold.json >cold.out
[ -f image.rel.prepared ] || {
  echo "smoke: the first query wrote no prepared image" >&2
  exit 1
}
"$simq" query image.rel "$image_spec" --trace warm.json >warm.out
# The header line carries the duration; the rows must match exactly.
sed 1d cold.out >cold.rows
sed 1d warm.out >warm.rows
cmp -s cold.rows warm.rows || {
  echo "smoke: the query opened from the image printed other rows" >&2
  diff cold.rows warm.rows >&2 || true
  exit 1
}
grep -q '"name":"prepare"' cold.json || {
  echo "smoke: the first query traced no prepare span" >&2
  exit 1
}
grep -q '"name":"image.open"' warm.json || {
  echo "smoke: the second query traced no image.open span" >&2
  exit 1
}
if grep -q -e '"name":"prepare"' -e '"name":"build"' warm.json; then
  echo "smoke: the second query prepared or built the index again" >&2
  exit 1
fi
# A directory where the image belongs is neither read nor replaced:
# the query still answers, exit 0, with the same rows.
"$simq" generate --count 300 --length 64 -o dir.rel >/dev/null
mkdir dir.rel.prepared
"$simq" query dir.rel "$image_spec" >dir.out
sed 1d dir.out | cmp -s - cold.rows || {
  echo "smoke: a directory in the image's place changed the rows" >&2
  exit 1
}

echo "== relation file: a flipped byte is a file error, never a signal"
# The relation file's trailer sums every word, so one flipped byte in
# the series section or in the name table makes simq info and simq
# query exit 2 with the file message, never end on a signal, even with
# a valid image beside it. A regenerated file is read again, and its
# first query rewrites the image and prints the plain rows.
"$simq" generate --count 300 --length 64 -o flip.rel >/dev/null
"$simq" query flip.rel "$image_spec" >/dev/null
# Header (5 words) and the name "flip" (1 word), then the rows, then
# 301 name offsets and the names' bytes.
rows_at=48
names_at=$((8 * (6 + 300 * 64 + 301)))
flip_byte() {
  b=$(dd if="$1" bs=1 skip="$2" count=1 2>/dev/null | od -An -tu1 | tr -d ' ')
  # shellcheck disable=SC2059
  printf "$(printf '\\%03o' $((b ^ 1)))" |
    dd of="$1" bs=1 seek="$2" conv=notrunc 2>/dev/null
}
for at in $((rows_at + 1000)) $((names_at + 3)); do
  "$simq" generate --count 300 --length 64 -o flip.rel >/dev/null
  flip_byte flip.rel "$at"
  for cmd in info query; do
    status=0
    if [ "$cmd" = info ]; then
      "$simq" info flip.rel >flip.out 2>flip.err || status=$?
    else
      "$simq" query flip.rel "$image_spec" >flip.out 2>flip.err || status=$?
    fi
    [ "$status" -eq 2 ] && grep -q "not a relation file" flip.err || {
      echo "smoke: simq $cmd on a byte flipped at $at exited $status" >&2
      cat flip.err >&2
      exit 1
    }
  done
done
"$simq" generate --count 300 --length 64 --seed 2024 -o flip.rel >/dev/null
cp flip.rel flip-fresh.rel
flip_image=$(ls -i flip.rel.prepared)
"$simq" query flip.rel "$image_spec" >flip.out
"$simq" query flip-fresh.rel "$image_spec" >flip-fresh.out
[ "$(ls -i flip.rel.prepared)" != "$flip_image" ] || {
  echo "smoke: the query after the regeneration kept the old image" >&2
  exit 1
}
sed 1d flip.out >flip.rows
sed 1d flip-fresh.out | cmp -s flip.rows - || {
  echo "smoke: the regenerated relation printed other rows than a fresh copy" >&2
  exit 1
}

echo "== CSV round trip: export, import, and the same relation back"
# A generated relation exported to CSV and imported again, under the
# same file name in another directory, is the same file byte for byte:
# info prints the same count and length, and a RANGE and a NEAREST
# print the same answer lines, names included.
mkdir csv
"$simq" generate --count 120 --length 48 -o csv.rel >/dev/null
"$simq" export csv.rel -o csv.csv >/dev/null
"$simq" import csv.csv -o csv/csv.rel >/dev/null
"$simq" info csv.rel >csv.info
"$simq" info csv/csv.rel | cmp -s csv.info - || {
  echo "smoke: info differs after a CSV round trip" >&2
  exit 1
}
grep -q "^relation csv: 120 series" csv.info &&
  grep -q "^series length: 48$" csv.info || {
  echo "smoke: info did not print the generated count and length" >&2
  exit 1
}
cmp -s csv.rel csv/csv.rel || {
  echo "smoke: the imported relation file differs from the exported one" >&2
  exit 1
}
for spec in "RANGE FROM r USING mavg(4) QUERY s7 EPS 3.0" \
  "NEAREST 6 FROM r QUERY s11"; do
  "$simq" query csv.rel "$spec" | sed 1d >csv.rows
  "$simq" query csv/csv.rel "$spec" | sed 1d | cmp -s csv.rows - || {
    echo "smoke: $spec printed other rows after a CSV round trip" >&2
    exit 1
  }
  grep -q "seq-" csv.rows || {
    echo "smoke: $spec printed no named answers" >&2
    exit 1
  }
done

echo "== prepared image: a daemon keeps its mapped image when a query replaces it"
# A daemon opened from the image reads its spectra from the mapped
# file. The relation is then regenerated at the same path and a query
# rewrites the image (a new file renamed over the old one): the daemon
# still answers from the old relation, which stress --verify replays
# offline against a copy of it, and the query prints the new
# relation's rows, those of a fresh copy without an image.
"$simq" generate --count 300 --length 64 -o mapped.rel >/dev/null
"$simq" query mapped.rel "$image_spec" >mapped-first.out
cp mapped.rel mapped-old.rel
: >mapped.err
"$simq" serve mapped.rel 2>mapped.err &
mapped_pid=$!
mapped_port=
i=0
while [ -z "$mapped_port" ]; do
  mapped_port=$(sed -n 's!.*serving queries on 127\.0\.0\.1:\([0-9]*\)$!\1!p' mapped.err | head -n 1)
  kill -0 "$mapped_pid" 2>/dev/null || break
  [ "$i" -lt 400 ] || break
  sleep 0.02
  i=$((i + 1))
done
[ -n "$mapped_port" ] || {
  echo "smoke: the image daemon never announced its port" >&2
  cat mapped.err >&2
  exit 1
}
"$simq" generate --count 300 --length 64 --seed 2024 -o mapped.rel >/dev/null
cp mapped.rel mapped-new.rel
"$simq" query mapped.rel "$image_spec" >mapped-second.out
"$simq" query mapped-new.rel "$image_spec" >mapped-fresh.out
sed 1d mapped-second.out >mapped-second.rows
sed 1d mapped-fresh.out | cmp -s mapped-second.rows - || {
  echo "smoke: the query after the regeneration printed other rows than the new relation's" >&2
  exit 1
}
sed 1d mapped-first.out | cmp -s mapped-second.rows - && {
  echo "smoke: the regenerated relation printed the old relation's rows" >&2
  exit 1
}
"$simq" stress mapped-old.rel --port "$mapped_port" --clients 2 --queries 10 \
  --verify --shutdown >mapped-stress.out || {
  echo "smoke: the daemon stopped answering from its mapped image" >&2
  cat mapped-stress.out >&2
  cat mapped.err >&2
  exit 1
}
wait "$mapped_pid" || {
  echo "smoke: the image daemon did not exit cleanly after shutdown" >&2
  cat mapped.err >&2
  exit 1
}

echo "== warp and index PAIRS: cold, warm, plain and sharded print the same rows"
# The warp is the one path that standardises each entry it touches on
# demand; index PAIRS stretches every stored spectrum. Each query is run
# with its image removed (cold) and then opened from it (warm), plain
# and with --shards 4 --sketch, and must print the first run's rows.
"$simq" generate --count 120 --length 32 -o warp.rel >/dev/null
for spec in "RANGE FROM r USING warp(2) QUERY s5 EPS 6" \
  "NEAREST 5 FROM r USING warp(2) QUERY s5" \
  "PAIRS FROM r USING mavg(4) EPS 2 METHOD index"; do
  rm -f warp.rel.prepared
  "$simq" query warp.rel "$spec" --noise 0.3 >warp.out
  sed 1d warp.out >warp-first.rows
  [ -s warp-first.rows ] || {
    echo "smoke: $spec printed no rows" >&2
    exit 1
  }
  for opts in "" "--shards 4 --sketch"; do
    for open in cold warm; do
      [ "$open" = warm ] || rm -f warp.rel.prepared
      # shellcheck disable=SC2086
      "$simq" query warp.rel "$spec" --noise 0.3 $opts >warp.out
      [ -f warp.rel.prepared ] || {
        echo "smoke: $spec ($open $opts) wrote no prepared image" >&2
        exit 1
      }
      sed 1d warp.out | cmp -s warp-first.rows - || {
        echo "smoke: $spec ($open $opts) printed other rows" >&2
        sed 1d warp.out | diff warp-first.rows - >&2 || true
        exit 1
      }
    done
  done
done

echo "== live scrape of a serving bench run"
# Each log a background process writes is created before the process
# starts, so the polling sed below never reads a missing file.
: >serve.err
"$bench" --fast --metrics-port 0 2>serve.err &
bench_pid=$!
port=
scraped=0
i=0
while [ "$i" -lt 400 ]; do
  if [ -z "$port" ]; then
    port=$(sed -n 's!.*http://127\.0\.0\.1:\([0-9]*\)/metrics.*!\1!p' serve.err | head -n 1)
  fi
  if [ -n "$port" ] && "$simq" scrape --port "$port" >scrape.prom 2>/dev/null; then
    scraped=1
    break
  fi
  kill -0 "$bench_pid" 2>/dev/null || break
  sleep 0.02
  i=$((i + 1))
done
wait "$bench_pid" || {
  echo "smoke: background bench run failed" >&2
  cat serve.err >&2
  exit 1
}
[ "$scraped" -eq 1 ] || {
  echo "smoke: never reached the live metrics endpoint" >&2
  cat serve.err >&2
  exit 1
}
grep -q '^# TYPE simq_' scrape.prom || {
  echo "smoke: live scrape returned no simq metric families" >&2
  exit 1
}

echo "== serve: daemon + chaotic stress session, live scrape, in-band shutdown"
: >daemon.err
"$simq" serve smoke.rel --admission --slow-k 3 --qlog daemon.qlog \
  --metrics-state daemon.state --metrics-port 0 2>daemon.err &
daemon_pid=$!
serve_port=
metrics_port=
i=0
while [ -z "$serve_port" ] || [ -z "$metrics_port" ]; do
  serve_port=$(sed -n 's!.*serving queries on 127\.0\.0\.1:\([0-9]*\)$!\1!p' daemon.err | head -n 1)
  metrics_port=$(sed -n 's!.*http://127\.0\.0\.1:\([0-9]*\)/metrics.*!\1!p' daemon.err | head -n 1)
  kill -0 "$daemon_pid" 2>/dev/null || break
  [ "$i" -lt 400 ] || break
  sleep 0.02
  i=$((i + 1))
done
[ -n "$serve_port" ] || {
  echo "smoke: daemon never announced its port" >&2
  cat daemon.err >&2
  exit 1
}
# Scrape the daemon's live exposition while it serves.
[ -n "$metrics_port" ] || {
  echo "smoke: daemon never announced its metrics endpoint" >&2
  cat daemon.err >&2
  exit 1
}
"$simq" scrape --port "$metrics_port" --timeout-ms 5000 >daemon.prom
grep -q '^# TYPE simq_' daemon.prom || {
  echo "smoke: live daemon scrape returned no simq metric families" >&2
  exit 1
}
"$simq" stress smoke.rel --port "$serve_port" --clients 4 --queries 10 \
  --chaos --verify --slow >stress.out || {
  echo "smoke: stress run against the daemon failed" >&2
  cat stress.out >&2
  cat daemon.err >&2
  exit 1
}
grep -q '0 protocol errors' stress.out || {
  echo "smoke: stress saw protocol errors" >&2
  cat stress.out >&2
  exit 1
}
# The in-band slow command: the daemon keeps its --slow-k worst
# queries and answers with one typed document.
grep -q '"event":"simq.serve.slow"' stress.out || {
  echo "smoke: the slow command returned no worst-query document" >&2
  cat stress.out >&2
  exit 1
}
# Poll the windowed telemetry while the daemon still serves: the raw
# /history document once, then the rendered view (which parses it).
"$simq" top --once --port "$metrics_port" --timeout-ms 5000 >top.json
grep -q '"event":"simq.history"' top.json || {
  echo "smoke: simq top --once returned no history document" >&2
  cat top.json >&2
  exit 1
}
if grep -Eq '"(qps|shed_rate|prune_rate|filter_rate)":-' top.json; then
  echo "smoke: the history window reported a negative rate" >&2
  cat top.json >&2
  exit 1
fi
"$simq" top --port "$metrics_port" --iterations 2 --interval-ms 50 \
  --timeout-ms 5000 >top.txt
grep -q 'qps' top.txt || {
  echo "smoke: simq top rendered no windowed rates" >&2
  cat top.txt >&2
  exit 1
}
if grep -Eq 'qps +-' top.txt; then
  echo "smoke: simq top rendered a negative query rate" >&2
  cat top.txt >&2
  exit 1
fi
# A final minimal session drains the daemon in-band.
"$simq" stress smoke.rel --port "$serve_port" --clients 1 --queries 1 \
  --shutdown >>stress.out || {
  echo "smoke: in-band shutdown session failed" >&2
  cat stress.out >&2
  cat daemon.err >&2
  exit 1
}
wait "$daemon_pid" || {
  echo "smoke: daemon did not exit cleanly after shutdown" >&2
  cat daemon.err >&2
  exit 1
}
grep -q 'simq: serve: drained' daemon.err || {
  echo "smoke: daemon printed no drain summary" >&2
  cat daemon.err >&2
  exit 1
}
grep -q '"event":"simq.qlog"' daemon.qlog || {
  echo "smoke: drained daemon left no query log" >&2
  exit 1
}
grep -q '"event":"simq.metrics-state"' daemon.state || {
  echo "smoke: drained daemon left no metrics state" >&2
  exit 1
}
"$simq" qlog-top daemon.qlog --by-trace >daemon.top
grep -q 'top by duration:' daemon.top || {
  echo "smoke: the daemon qlog does not aggregate" >&2
  exit 1
}
grep -q 'by trace:' daemon.top || {
  echo "smoke: the daemon qlog has no per-trace breakdown" >&2
  cat daemon.top >&2
  exit 1
}

echo "== sharded serve: --shards daemon verified by stress, qlog by fanout"
: >sharded.err
"$simq" serve smoke.rel --shards 4 --qlog sharded.qlog 2>sharded.err &
sharded_pid=$!
sharded_port=
i=0
while [ -z "$sharded_port" ]; do
  sharded_port=$(sed -n 's!.*serving queries on 127\.0\.0\.1:\([0-9]*\)$!\1!p' sharded.err | head -n 1)
  kill -0 "$sharded_pid" 2>/dev/null || break
  [ "$i" -lt 400 ] || break
  sleep 0.02
  i=$((i + 1))
done
[ -n "$sharded_port" ] || {
  echo "smoke: sharded daemon never announced its port" >&2
  cat sharded.err >&2
  exit 1
}
# --verify replays every answered query offline (unsharded) and
# compares bit for bit — the sharded daemon must be invisible there.
"$simq" stress smoke.rel --port "$sharded_port" --clients 4 --queries 10 \
  --verify --shutdown >sharded-stress.out || {
  echo "smoke: stress run against the sharded daemon failed" >&2
  cat sharded-stress.out >&2
  cat sharded.err >&2
  exit 1
}
grep -q '0 protocol errors' sharded-stress.out || {
  echo "smoke: sharded stress saw protocol errors" >&2
  cat sharded-stress.out >&2
  exit 1
}
wait "$sharded_pid" || {
  echo "smoke: sharded daemon did not exit cleanly after shutdown" >&2
  cat sharded.err >&2
  exit 1
}
"$simq" qlog-top sharded.qlog >sharded.top
grep -q 'by fanout:' sharded.top || {
  echo "smoke: sharded daemon qlog has no fanout breakdown" >&2
  cat sharded.top >&2
  exit 1
}
grep -q '4-shard' sharded.top || {
  echo "smoke: fanout breakdown lacks the 4-shard bucket" >&2
  cat sharded.top >&2
  exit 1
}

echo "== fault plan: every query class of a daemon under always-firing faults"
: >faults.err
"$simq" serve smoke.rel --fault-node-prob 1 --fault-page-prob 1 --slow-k 4 \
  --qlog faults.qlog 2>faults.err &
faults_pid=$!
faults_port=
i=0
while [ -z "$faults_port" ]; do
  faults_port=$(sed -n 's!.*serving queries on 127\.0\.0\.1:\([0-9]*\)$!\1!p' faults.err | head -n 1)
  kill -0 "$faults_pid" 2>/dev/null || break
  [ "$i" -lt 400 ] || break
  sleep 0.02
  i=$((i + 1))
done
[ -n "$faults_port" ] || {
  echo "smoke: faulted daemon never announced its port" >&2
  cat faults.err >&2
  exit 1
}
"$simq" stress smoke.rel --port "$faults_port" --clients 2 --queries 10 \
  --slow --shutdown >faults-stress.out || {
  echo "smoke: stress run against the faulted daemon failed" >&2
  cat faults-stress.out >&2
  cat faults.err >&2
  exit 1
}
grep -q '0 protocol errors' faults-stress.out || {
  echo "smoke: faulted stress saw protocol errors" >&2
  cat faults-stress.out >&2
  exit 1
}
wait "$faults_pid" || {
  echo "smoke: faulted daemon did not exit cleanly after shutdown" >&2
  cat faults.err >&2
  exit 1
}
# The budget's fault plan reaches NEAREST: no nearest-neighbour query
# may answer while every node visit and page read faults.
if grep '"spec":"NEAREST' faults.qlog | grep -q '"outcome":"ok"'; then
  echo "smoke: a NEAREST query answered under always-firing faults" >&2
  grep '"spec":"NEAREST' faults.qlog >&2
  exit 1
fi
grep '"spec":"NEAREST' faults.qlog | grep -q '"outcome":"io_failed"' || {
  echo "smoke: no NEAREST query failed typed under faults" >&2
  cat faults.qlog >&2
  exit 1
}
# Every retry is an event on the operator that retried, so the worst
# queries' rendered profiles show the abandoned attempts.
grep '"event":"simq.serve.slow"' faults-stress.out \
  | grep -q 'retry: attempt 1 abandoned' || {
  echo "smoke: no slow profile of the faulted daemon shows a retry" >&2
  cat faults-stress.out >&2
  exit 1
}

echo "smoke: OK"
