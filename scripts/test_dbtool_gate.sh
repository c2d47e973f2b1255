#!/usr/bin/env bash
# Drives the built `dbtool gate` (the CI trajectory gate) over a synthetic
# result history: pass, metric drift, coverage loss, a gated work counter
# grown past its bound or vanished, a ratio regression with counter
# attribution, a corrupt history line, and malformed flag values (usage,
# exit 2).
#
# Usage: test_dbtool_gate.sh <path/to/dbtool>  (exit 0 = all cases behave)
set -u

DBTOOL="${1:?usage: test_dbtool_gate.sh <path/to/dbtool>}"
TMP="$(mktemp -d)"
trap 'rm -rf "$TMP"' EXIT

fails=0
expect() { # expect <name> <expected-exit> <actual-exit>
  if [ "$2" -ne "$3" ]; then
    echo "FAIL $1: expected exit $2, got $3" >&2
    cat "$TMP/out" >&2
    fails=$((fails + 1))
  else
    echo "ok $1"
  fi
}
expect_text() { # expect_text <name> <fixed string>
  grep -qF -- "$2" "$TMP/out" || {
    echo "FAIL $1: output lacks '$2'" >&2
    cat "$TMP/out" >&2
    fails=$((fails + 1))
  }
}

counters() { # counters <relaxations> <declines>
  printf '"counters": {"incr.stage_relaxations": %s,"incr.full_rebuilds": 0,' "$1"
  printf '"detect.guard.declines": %s,"cost.disk_cache.misses": 0}' "$2"
}

row() { # row <commit> <area> <speedup> <relaxations> <declines>
  printf '{"schema": "t1sfq-result-v1","bench": "demo","circuit": "adder",'
  printf '"config": "t1","config_hash": 42,"commit": "%s","branch": "main",' "$1"
  printf '"build": "release","host": "h/x","unix_time": 1,'
  printf '"metrics": {"area_jj": %s},"time_ms": {"total": 1.0},' "$2"
  printf '"ratios": {"speedup": %s},' "$3"
  counters "$4" "$5"
  printf '}\n'
}

doc() { # doc <area> <speedup> <relaxations> <declines>  -> t1sfq-bench-v1
  printf '{"schema": "t1sfq-bench-v1","bench": "demo","records": ['
  printf '{"circuit": "adder","config": "t1","config_hash": 42,'
  printf '"metrics": {"area_jj": %s},"time_ms": {"total": 1.0},' "$1"
  printf '"ratios": {"speedup": %s},' "$2"
  counters "$3" "$4"
  printf '}]}\n'
}

gate() { # gate <db> <current>
  "$DBTOOL" gate --db "$1" --current "$2" > "$TMP/out" 2>&1
}

# Three-commit history: speedup 3.0, 3.4, 3.2 (median 3.2), relaxations 1000.
{ row c1 100 3.0 1000 110; row c2 100 3.4 1000 120; row c3 100 3.2 1000 116; } \
  > "$TMP/db.jsonl"

# 1. Inside every band (counter +5%, a declines jump is informational) -> pass.
doc 100 3.1 1050 400 > "$TMP/good.json"
gate "$TMP/db.jsonl" "$TMP/good.json"
expect pass 0 $?
expect_text pass "2 counter(s)"

# 2. A counter decrease passes.
doc 100 3.1 10 116 > "$TMP/fewer.json"
gate "$TMP/db.jsonl" "$TMP/fewer.json"
expect counter_decrease 0 $?

# 3. Quality metric drift (exact gate) -> fail.
doc 101 3.2 1000 116 > "$TMP/drift.json"
gate "$TMP/db.jsonl" "$TMP/drift.json"
expect metric_drift 1 $?
expect_text metric_drift "metric area_jj = 101, history 100"

# 4. Coverage loss: a key alive at the latest commit is missing from the run.
{ cat "$TMP/db.jsonl"
  printf '{"schema": "t1sfq-result-v1","bench": "demo","circuit": "mult",'
  printf '"config": "t1","config_hash": 43,"commit": "c3","branch": "main",'
  printf '"build": "release","host": "h/x","unix_time": 1,'
  printf '"metrics": {"area_jj": 9},"time_ms": {},"ratios": {},"counters": {}}\n'
} > "$TMP/wide.jsonl"
gate "$TMP/wide.jsonl" "$TMP/good.json"
expect coverage_loss 1 $?
expect_text coverage_loss "coverage loss"

# 5. A gated work counter past +10% of the latest row -> fail, named.
doc 100 3.2 1200 116 > "$TMP/work.json"
gate "$TMP/db.jsonl" "$TMP/work.json"
expect counter_growth 1 $?
expect_text counter_growth "counter incr.stage_relaxations = 1200, history 1000"

# 5b. A gated counter the latest row carries vanished -> fail, named.
doc 100 3.2 1000 116 | sed 's/"incr.full_rebuilds": 0,//' > "$TMP/unhooked.json"
gate "$TMP/db.jsonl" "$TMP/unhooked.json"
expect counter_vanished 1 $?
expect_text counter_vanished "counter incr.full_rebuilds missing"

# 6. Ratio below max(floor, 0.5 * median) -> fail, with counter attribution.
doc 100 0.9 1000 5000 > "$TMP/slow.json"
gate "$TMP/db.jsonl" "$TMP/slow.json"
expect ratio_regression 1 $?
expect_text ratio_regression "suspect subsystem: detect.guard"
expect_text ratio_regression "detect.guard.declines 116->5000"

# 7. Corrupt history line -> skipped and counted, the gate still passes.
cp "$TMP/db.jsonl" "$TMP/corrupt.jsonl"
printf '{"schema": "t1sfq-result-v1", TRUNCATED\n' >> "$TMP/corrupt.jsonl"
gate "$TMP/corrupt.jsonl" "$TMP/good.json"
expect corrupt_history 0 $?
expect_text corrupt_history "1 corrupt history line(s) skipped"

# 8. Malformed flag values print usage and exit 2 (never abort).
"$DBTOOL" gate --db "$TMP/db.jsonl" --current "$TMP/good.json" --last-k abc \
  > "$TMP/out" 2>&1
expect bad_last_k 2 $?
expect_text bad_last_k "usage: dbtool"
"$DBTOOL" list --db "$TMP/db.jsonl" --top 99999999999999999999999 > "$TMP/out" 2>&1
expect bad_top 2 $?
"$DBTOOL" gate --db "$TMP/db.jsonl" --no-such-flag > "$TMP/out" 2>&1
expect unknown_flag 2 $?
"$DBTOOL" report --db "$TMP/db.jsonl" --last-k -1 > "$TMP/out" 2>&1
expect negative_last_k 2 $?

if [ "$fails" -ne 0 ]; then
  echo "$fails case(s) failed" >&2
  exit 1
fi
echo "all dbtool gate cases behave"
