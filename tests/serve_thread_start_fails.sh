#!/bin/sh
# `dftimc --serve --workers 4` on a system that starts only one thread:
# tests/shim/fail_thread_start.cpp lets the process's first pthread_create
# succeed and fails every later one.  A thread that cannot start must leave
# its work to the threads that run: both requests are served, the summary
# counts them, and the exit status is 0.
#
# Usage: serve_thread_start_fails.sh DFTIMC SHIM
set -u
dftimc=$1
shim=$2
out=$(printf 'corpus:cas\ncorpus:hecs\n' |
  LD_PRELOAD="$shim" \
  ASAN_OPTIONS="${ASAN_OPTIONS:+$ASAN_OPTIONS:}verify_asan_link_order=0" \
  "$dftimc" --serve --workers 4)
status=$?
printf '%s\n' "$out"
[ "$status" -eq 0 ] || { echo "FAIL: dftimc exited with $status" >&2; exit 1; }
served=$(printf '%s\n' "$out" | grep -c '^unreliability')
[ "$served" -eq 2 ] || { echo "FAIL: $served of 2 requests served" >&2; exit 1; }
printf '%s\n' "$out" | grep -q '2 completed, 0 over budget, 0 failed' ||
  { echo "FAIL: summary does not count 2 completed requests" >&2; exit 1; }
