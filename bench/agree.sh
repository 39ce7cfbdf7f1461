#!/usr/bin/env bash
# Runs the whole benchmark twice on this commit and compares the two
# sets: it fails unless every end-to-end metric of every workload is
# `ok`, that is, unless the benchmark agrees with itself within its own
# bounds. Arguments go to both runs (for example: --seed 11 --seconds 20).
set -euo pipefail
here="$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)"
out="$(dirname "$here")/.bench_build/agree"
mkdir -p "$out"
for set in a b; do
	bash "$here/run.sh" "$@" -out "$out/$set.json" >"$out/$set.txt"
done
bash "$here/run.sh" -compare "$out/a.json" "$out/b.json"
