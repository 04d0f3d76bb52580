#!/usr/bin/env sh
# Serve-mode stress harness: throws every failure class the serve path
# promises to isolate at one `dftimc --serve` batch and asserts the
# fault-isolation contract from tools/dftimc.cpp:
#
#   * a malformed request line, a missing model file and an over-budget
#     analysis each claim exactly their own slot (typed per-slot errors),
#   * every healthy request is still served, with the same numbers a
#     clean run produces,
#   * the summary counts completed / over budget / failed requests and
#     the exit status is nonzero iff any slot failed,
#   * the store directory holds only q*.imcq records (one record kind,
#     no leftover temporaries),
#   * file-level store corruption degrades to recompute-plus-warning —
#     never a wrong answer, never a crash.
#
# Usage: scripts/serve_stress.sh [build-dir]   (build-dir defaults to ./build)
set -eu

repo_root=$(CDPATH= cd -- "$(dirname -- "$0")/.." && pwd)
build_dir=${1:-"$repo_root/build"}
dftimc="$build_dir/dftimc"
[ -x "$dftimc" ] || { echo "serve_stress: $dftimc not built" >&2; exit 2; }

work=$(mktemp -d)
trap 'rm -rf "$work"' EXIT
failures=0

fail() {
  echo "FAIL: $1" >&2
  failures=$((failures + 1))
}

expect_grep() { # pattern file what
  grep -q "$1" "$2" || fail "$3 (pattern '$1' not found in $2)"
}

# ---------------------------------------------------------------- models
# The cardiac assist system (the paper's Fig. 7) as the healthy workload.
cat > "$work/cas.dft" <<'EOF'
toplevel "System";
"System"    or  "CPU_unit" "Motor_unit" "Pump_unit";
"CPU_unit"  wsp "P" "B";
"Trigger"   or  "CS" "SS";
"CPU_fdep"  fdep "Trigger" "P" "B";
"P"  lambda=0.5;
"B"  lambda=0.5 dorm=0.5;
"CS" lambda=0.2;
"SS" lambda=0.2;
"Motor_unit" csp "MA" "MB";
"MP"         pand "MS" "MA";
"Motor_fdep" fdep "MP" "MB";
"MS" lambda=0.01;
"MA" lambda=1.0;
"MB" lambda=1.0;
"Pump_unit" and "Pump_A" "Pump_B";
"Pump_A"    csp "PA" "PS";
"Pump_B"    csp "PB" "PS";
"PA" lambda=1.0;
"PB" lambda=1.0;
"PS" lambda=1.0;
EOF

# The cascaded-PAND explosion family at a size whose full analysis takes
# tens of seconds: the deadline must cut it off long before that.  Same
# shape as dft::corpus::cascadedPand(6, 3) — six dynamic units (an AND
# chain plus a warm spare slot each, distinct rates per level so symmetry
# cannot absorb them) under a right-leaning PAND cascade.
awk 'BEGIN {
  depth = 6; width = 3;
  print "toplevel \"System\";";
  for (k = 0; k < depth; ++k) {
    chain = "";
    for (i = 0; i < width; ++i) {
      printf "\"L_%d_%d\" lambda=%.2f;\n", k, i, 1.0 + 0.25 * k;
      chain = chain " \"L_" k "_" i "\"";
    }
    printf "\"Chain_%d\" and%s;\n", k, chain;
    printf "\"PP_%d\" lambda=%.2f;\n", k, 0.75 + 0.25 * k;
    printf "\"PS_%d\" lambda=0.5 dorm=0.25;\n", k;
    printf "\"Slot_%d\" wsp \"PP_%d\" \"PS_%d\";\n", k, k, k;
    printf "\"U_%d\" or \"Chain_%d\" \"Slot_%d\";\n", k, k, k;
  }
  right = "\"U_" depth - 1 "\"";
  for (k = depth - 2; k >= 0; --k) {
    name = (k == 0) ? "\"System\"" : "\"P" k "\"";
    printf "%s pand \"U_%d\" %s;\n", name, k, right;
    right = name;
  }
}' > "$work/explode.dft"

# ------------------------------------------------- phase 1: fault salvo
# Five slots: two healthy, one missing model, one malformed line, one
# over-budget explosion.  Exactly 2 completed / 1 over budget / 2 failed.
cat > "$work/requests.txt" <<EOF
$work/cas.dft
$work/cas.dft 2.0
$work/no_such_model.dft
$work/cas.dft 1.0 not-a-number
$work/explode.dft
EOF

echo "== phase 1: malformed + missing + over-budget requests =="
rc=0
"$dftimc" --serve --deadline 2 --store "$work/store" \
    < "$work/requests.txt" > "$work/out1.txt" 2>&1 || rc=$?
cat "$work/out1.txt"
[ "$rc" -ne 0 ] || fail "exit status should be nonzero when slots fail"
expect_grep 'error: over budget:' "$work/out1.txt" \
    "over-budget request must report a typed budget error"
expect_grep "cannot open .*no_such_model" "$work/out1.txt" \
    "missing model must fail on its own slot"
expect_grep "expected '<model.dft> \[time\]" "$work/out1.txt" \
    "malformed line must fail on its own slot"
expect_grep 'requests: *2 completed, 1 over budget, 2 failed' \
    "$work/out1.txt" "summary must count 2 completed / 1 over budget / 2 failed"
healthy=$(grep -c '^unreliability' "$work/out1.txt" || true)
[ "$healthy" -eq 2 ] || \
    fail "both healthy requests must still be served (got $healthy)"
# One record kind: module and whole-tree quotients alike publish q*.imcq
# records, and nothing else is left in the directory.
for entry in "$work/store"/* "$work/store"/.[!.]*; do
  [ -e "$entry" ] || continue
  case $(basename -- "$entry") in
    q*.imcq) ;;
    *) fail "store directory holds a non-record file: $entry" ;;
  esac
done

# ------------------------------------- phase 2: corrupted store records
# Truncate every published record to half its size; the warm re-serve
# must recompute the same numbers and surface the damage as warnings.
echo "== phase 2: re-serve over a corrupted store =="
for record in "$work/store"/*.imcq; do
  [ -f "$record" ] || { fail "phase 1 published no store records"; break; }
  size=$(wc -c < "$record")
  truncate -s $((size / 2)) "$record"
done
rc=0
printf '%s\n%s 2.0\n' "$work/cas.dft" "$work/cas.dft" > "$work/healthy.txt"
"$dftimc" --serve --deadline 2 --store "$work/store" \
    < "$work/healthy.txt" > "$work/out2.txt" 2>&1 || rc=$?
cat "$work/out2.txt"
[ "$rc" -eq 0 ] || fail "healthy batch over a corrupt store must succeed"
expect_grep 'warning: quotient store' "$work/out2.txt" \
    "store corruption must surface as warnings"
expect_grep 'requests: *2 completed, 0 over budget, 0 failed' \
    "$work/out2.txt" "corrupt store must not fail any request"
grep '^unreliability' "$work/out1.txt" | sort > "$work/values1.txt"
grep '^unreliability' "$work/out2.txt" | sort > "$work/values2.txt"
cmp -s "$work/values1.txt" "$work/values2.txt" || \
    fail "recomputed-through-corruption values must match the clean run"

# -------------------------------- phase 3: live-state cap, healthy mix
# The explosion tripped by the state cap instead of the clock, while the
# healthy sibling on the same batch completes.
echo "== phase 3: live-state cap =="
rc=0
printf '%s\n%s\n' "$work/explode.dft" "$work/cas.dft" > "$work/capped.txt"
"$dftimc" --serve --deadline 60 --max-live-states 5000 \
    < "$work/capped.txt" > "$work/out3.txt" 2>&1 || rc=$?
cat "$work/out3.txt"
[ "$rc" -ne 0 ] || fail "state-capped batch must exit nonzero"
expect_grep 'error: over budget: .*live states' "$work/out3.txt" \
    "state cap must report the live-state count"
expect_grep 'requests: *1 completed, 1 over budget, 0 failed' \
    "$work/out3.txt" "state cap must claim only the exploding slot"

echo
if [ "$failures" -ne 0 ]; then
  echo "serve_stress: $failures assertion(s) failed" >&2
  exit 1
fi
echo "serve_stress: all assertions passed"
