#!/bin/sh
# expect_exit.sh STATUS PATTERN COMMAND [ARG...]
#
# Runs COMMAND and passes iff it exits with STATUS and its combined
# stdout/stderr matches the extended regular expression PATTERN.  ctest's
# PASS_REGULAR_EXPRESSION alone ignores the exit status; this checks both.
set -u
want="$1"
pattern="$2"
shift 2
out=$("$@" 2>&1)
got=$?
printf '%s\n' "$out"
if [ "$got" -ne "$want" ]; then
  echo "expect_exit: exit status $got, expected $want" >&2
  exit 1
fi
if ! printf '%s\n' "$out" | grep -Eq -- "$pattern"; then
  echo "expect_exit: output does not match /$pattern/" >&2
  exit 1
fi
