#!/bin/sh
# Re-record the expected output of every Tcl oracle case with real tclsh.
# Usage: test/tcl/record.sh   (set TCLSH to pick the interpreter)
set -eu
dir=$(dirname "$0")
tclsh=${TCLSH:-$(command -v tclsh8.6 || command -v tclsh || true)}
if [ -z "$tclsh" ]; then
  echo "record.sh: tclsh not found; set TCLSH" >&2
  exit 1
fi
echo "recording with $tclsh $(echo 'puts [info patchlevel]' | "$tclsh")"
for case in "$dir"/*.tcl; do
  "$tclsh" "$case" > "${case%.tcl}.expected"
done
