#!/usr/bin/env bash
# Console script smoke test: runs each subcommand once through the installed `vcdf`
# entry point, which no test reaches, in the current directory.
#
# It checks that a usage error (a missing or non-UTF-8 input, an input that is a directory,
# or an out-of-range value) leaves it with exit code 2, naming the file where there is
# one, and that a failed computation (a constant column) leaves it with exit code 3 and
# no graph. The generated series scaled by 1e14 must still fit; scaled by 1e200, whose
# squares overflow, it must exit 3 without a graph. An --out that is a regular file
# cannot be written: exit code 3, with an error line and no traceback. With columns 0
# and 1 scaled by 1e150 and 1e-140, lagreg must fit without a RuntimeWarning, and the
# filter, whose fold weights then spread beyond the float range, must exit 3. One cell of
# the last row (only ever a target) set to 1e200 must exit 3 with the range error and no
# RuntimeWarning, for both methods. A config file naming an unknown method exits 2 with
# "unknown discoverer" and no output directory.
#
# Usage, from an empty scratch directory: bash -e path/to/console_smoke.sh
set -e

vcdf generate --setting linear --n 5 --T 300 --realizations 1 --seed 0 --out data
vcdf discover data/series_000.csv --vcdf --truth data/truth_000.json --out run
vcdf evaluate run/series_000.graph.json data/truth_000.json
vcdf bench runtime --n 5 --realizations 1
status=0; vcdf evaluate run/series_000.graph.json missing.json || status=$?
test "$status" -eq 2
printf '\377a,b\n1,2\n' > latin.csv
status=0; vcdf discover latin.csv --out latin 2> err.txt || status=$?
test "$status" -eq 2
grep -F "latin.csv: not UTF-8 text" err.txt
printf '{"method": "pcmci"}\n' > pcmci.json
status=0; vcdf discover data/series_000.csv --config pcmci.json --out pcmci 2> err.txt || status=$?
test "$status" -eq 2
grep -F "unknown discoverer" err.txt
test ! -e pcmci
status=0; vcdf discover data --out dirrun 2> err.txt || status=$?
test "$status" -eq 2
grep -F "series file data" err.txt
test ! -e dirrun
status=0; vcdf generate --setting linear --n 5 --T 300 --density 2 --out bad || status=$?
test "$status" -eq 2
test ! -e bad
awk 'BEGIN { print "a,b"; for (i = 1; i <= 30; i++) print "57418.9," sin(i) }' > c30.csv
status=0; vcdf discover c30.csv --method lagreg --max-lag 1 --out c30 || status=$?
test "$status" -eq 3
test ! -e c30/c30.graph.json
scaled() { awk -F, -v OFS=, -v s="$1" 'NR == 1 { print; next } { for (i = 1; i <= NF; i++) $i = sprintf("%.17g", $i * s); print }' data/series_000.csv; }
scaled 1e14 > x1e14.csv
vcdf discover x1e14.csv --out x1e14
test -e x1e14/x1e14.graph.json
scaled 1e200 > x1e200.csv
status=0; vcdf discover x1e200.csv --out x1e200 || status=$?
test "$status" -eq 3
test ! -e x1e200/x1e200.graph.json
touch blocked
status=0; vcdf discover data/series_000.csv --out blocked 2> err.txt || status=$?
test "$status" -eq 3
grep -F "error: " err.txt
if grep -F Traceback err.txt; then exit 1; fi
awk -F, -v OFS=, 'NR == 1 { print; next } { $1 = sprintf("%.17g", $1 * 1e150); $2 = sprintf("%.17g", $2 * 1e-140); print }' data/series_000.csv > apart.csv
vcdf discover apart.csv --method lagreg --out apart 2> err.txt
test -e apart/apart.graph.json
if grep -F RuntimeWarning err.txt; then exit 1; fi
status=0; vcdf discover apart.csv --vcdf --out apartv 2> err.txt || status=$?
test "$status" -eq 3
grep -F "spread too far to score" err.txt
if grep -F Traceback err.txt; then exit 1; fi
awk -F, -v OFS=, -v last="$(wc -l < data/series_000.csv)" 'NR == last { $3 = "1e200" } { print }' data/series_000.csv > last.csv
for method in lagreg varlingam; do
  status=0; vcdf discover last.csv --method "$method" --out "last_$method" 2> err.txt || status=$?
  test "$status" -eq 3
  grep -F "out of range" err.txt
  if grep -F RuntimeWarning err.txt; then exit 1; fi
  test ! -e "last_$method/last.graph.json"
done
