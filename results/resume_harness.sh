#!/bin/bash
# Appends any harness sections missing from results/harness_scale0.01.txt.
cd "$(dirname "$0")/.." || exit 1
for f in jts_vs_geos table1 table2 fig4 fig5 fault_tolerance; do
  if ! grep -q "^== $f ==" results/harness_scale0.01.txt; then
    echo "== $f ==" >> results/harness_scale0.01.txt
    ./target/release/$f >> results/harness_scale0.01.txt 2>&1
    echo >> results/harness_scale0.01.txt
  fi
done
echo RESUME_DONE
