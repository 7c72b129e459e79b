#!/usr/bin/env bash
# Checks that tuning results are byte-identical to the committed table.
#
#   scripts/check_fingerprints.sh
#
# Builds perfbench (through perfbench/run.py, which compiles the checkout
# it sits in), runs every workload of scripts/fingerprints.txt at its
# seed for a short end-to-end run, and compares the result fingerprint
# perfbench prints on stderr with the table. Exits 1 on any mismatch or
# failed run. Each run lasts one second; perfbench always makes at least
# one tune() call.
set -euo pipefail

root="$(cd "$(dirname "$0")/.." && pwd)"
table="$root/scripts/fingerprints.txt"
status=0

while read -r workload seed expect _; do
    if [[ -z "${workload}" || "${workload}" == \#* ]]; then
        continue
    fi
    if ! err="$(python3 "$root/perfbench/run.py" --workload "$workload" \
                    --seed "$seed" --seconds 1 --trace 0 \
                    2>&1 >/dev/null)"; then
        printf '%s\n' "$err" >&2
        echo "FAIL  $workload seed $seed: perfbench run failed" >&2
        status=1
        continue
    fi
    got="$(printf '%s\n' "$err" |
           sed -n "s/^perfbench: $workload seed $seed fingerprint \([0-9a-f]*\)$/\1/p" |
           sort -u)"
    if [[ "$got" == "$expect" ]]; then
        echo "ok    $workload seed $seed fingerprint $got"
    else
        echo "FAIL  $workload seed $seed fingerprint '${got//$'\n'/ }'," \
             "expected $expect" >&2
        status=1
    fi
done < "$table"

exit "$status"
