#!/usr/bin/env bash
# Usage: same-on-one-cpu.sh OUT PV5LAB-ARGS...
#
# Runs `pv5lab PV5LAB-ARGS` on every usable CPU writing OUT, then again on
# CPU 0 alone (taskset -c 0) writing OUT with "-one-cpu" before its
# extension, and fails unless both runs exit 0 and the outputs agree: a
# JSON report (OUT ending in .json, written by --out-json) apart from its
# timestamp, a CSV (.csv, written by --out-csv) byte for byte.
set -euo pipefail
out=$1
shift
one_cpu=${out%.*}-one-cpu.${out##*.}
case $out in
  *.json) flag=--out-json ;;
  *.csv) flag=--out-csv ;;
  *) echo "same-on-one-cpu.sh: OUT must end in .json or .csv, got $out" >&2; exit 2 ;;
esac
pv5lab "$@" "$flag" "$out"
taskset -c 0 pv5lab "$@" "$flag" "$one_cpu"
if [ "$flag" = --out-csv ]; then
  cmp "$out" "$one_cpu"
  exit
fi
python - "$out" "$one_cpu" <<'PY'
import json
import sys

docs = [json.load(open(path)) for path in sys.argv[1:]]
for doc in docs:
    del doc["timestamp"]
assert docs[0] == docs[1], "the one-CPU report differs beyond its timestamp"
print("one-CPU and unrestricted reports are equal apart from timestamp")
PY
