#!/bin/sh
# Mutant corpus: every test/mutants/*.patch is a small deliberate bug in an
# accounting or recovery path, and the test suite must catch each one.
#
# For each patch, copy the tracked tree (git ls-files, as it stands in the
# working copy) to a temporary directory, apply the patch, check that the
# mutant still compiles (`dune build @check`), and require `dune build
# @runtest` to fail.  The tests stop at their first failure: a mutant
# survives only if every test passes, so the verdict is the same, and a
# mutant that makes one test loop is not kept waiting on it once another
# has failed.  A mutant of the interpreter can make an agent loop forever,
# so the tests run under a 120 s timeout, and a mutant that runs them past
# it counts as caught.  Exits non-zero if a patch no longer
# applies, a mutant does not compile, or a mutant survives the tests.
#
# Usage: test/mutants/run.sh [PATCH...]    (default: every patch here)
set -eu

root=$(git -C "$(dirname "$0")" rev-parse --show-toplevel)
cd "$root"
if [ "$#" -eq 0 ]; then
  set -- test/mutants/*.patch
fi

work=$(mktemp -d)
trap 'rm -rf "$work"' EXIT INT TERM

failed=0
for patch in "$@"; do
  case $patch in /*) ;; *) patch="$root/$patch" ;; esac
  name=$(basename "$patch" .patch)
  dir="$work/$name"
  mkdir -p "$dir"
  git ls-files -z | tar --null -T - -cf - | tar -xf - -C "$dir"
  if ! (cd "$dir" && git apply "$patch"); then
    echo "FAIL $name: patch does not apply"
    failed=1
  elif ! (cd "$dir" && dune build @check >"$work/$name.build.log" 2>&1); then
    echo "FAIL $name: mutant does not build"
    tail -n 20 "$work/$name.build.log"
    failed=1
  elif (cd "$dir" && timeout -k 10 120 dune build --stop-on-first-error @runtest >"$work/$name.test.log" 2>&1); then
    echo "FAIL $name: mutant survived dune build @runtest"
    failed=1
  else
    if [ $? -ge 124 ]; then how="timed out, "; else how=""; fi
    echo "killed $name: $how$(grep -m1 -E '^File |FAIL' "$work/$name.test.log" || true)"
  fi
  rm -rf "$dir"
done
exit "$failed"
