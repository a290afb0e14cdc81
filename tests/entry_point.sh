#!/usr/bin/env bash
# The installed `multirank` entry point, end to end: report digests, exit
# codes, a closed stdout pipe and fast-against-naive counts. CI runs it after
# `pip install -e .` as `bash -eo pipefail tests/entry_point.sh` with
# RUNNER_TEMP set; tests/test_cli.py runs it the same way, with a
# `python -m multirank.cli` shim named multirank on PATH.
set -eo pipefail
multirank verify weil --grid small --seed 17 > "$RUNNER_TEMP/weil.json"
echo "836111337b09bb44f59fc6b23a75803143d2992988b47e3a664266ba11d16d7a  $RUNNER_TEMP/weil.json" | sha256sum -c -
# count_NR and fiber_counts skip the last block's system where a point of
# P^1(F_q) shows it invertible; their reports must stay byte for byte
multirank verify scale-charp --grid small --seed 7 > "$RUNNER_TEMP/scale-charp.json"
echo "75b6832bb4853181148900cce2ef827809c838e898917ac9885c9b4c5e7525d7  $RUNNER_TEMP/scale-charp.json" | sha256sum -c -
multirank verify eval-fibers --grid small --seed 3 > "$RUNNER_TEMP/eval-fibers.json"
echo "7fb92159691a30583bad576830bd7e337740e2215e1942ea54b7380c351f1a98  $RUNNER_TEMP/eval-fibers.json" | sha256sum -c -
# a Z tensor past the n^d storage gate is a budget stop (exit 2), never a crash
echo '{"field": "Z", "d": 30, "n": 10, "entries": []}' > "$RUNNER_TEMP/big.json"
code=0
multirank charzero scan --tensor "$RUNNER_TEMP/big.json" || code=$?
test "$code" -eq 2
# JSON reads 1e400 as infinity: an input error (exit 3), never a crash (exit 1)
echo '{"field": "Z", "d": 1e400, "n": 2, "entries": []}' > "$RUNNER_TEMP/inf.json"
code=0
multirank charzero scan --tensor "$RUNNER_TEMP/inf.json" || code=$?
test "$code" -eq 3
# a field past the 2^20 size gate is a budget stop before any primality
# test or p^e: 2^89 - 1 and 3^100000000 each exit 2 at once
for field in '{"p": 618970019642690137449562111}' '{"p": 3, "e": 100000000}'; do
  echo "{\"field\": $field, \"d\": 3, \"n\": 2, \"entries\": []}" > "$RUNNER_TEMP/huge.json"
  code=0
  timeout 20 multirank count --tensor "$RUNNER_TEMP/huge.json" || code=$?
  test "$code" -eq 2
done
# the scan draws its default primes below its own budget: 2^8 at 16 bits
multirank gen random --integer --n 2 --d 3 --seed 5 --out "$RUNNER_TEMP/z.json"
multirank charzero scan --tensor "$RUNNER_TEMP/z.json" --budget-bits 16
# charzero owns the integer lift's bound, zone and exact re-check; the
# lift suite's report and one charzero lift must stay byte for byte
multirank verify lift --grid small --seed 20260810 > "$RUNNER_TEMP/lift.json"
echo "5362fc46df8f4012b7eb0504f931b00ae5073e21bb9b6dcd135d10cc2c7f8b87  $RUNNER_TEMP/lift.json" | sha256sum -c -
multirank charzero lift --tensor "$RUNNER_TEMP/z.json" --L 1000 --sigma 0.4 > "$RUNNER_TEMP/lift-z.json"
echo "20b9f0878ef91aff2b917d9c52c24c9a42bb5a6b4f7c3e49678ff17bec7c0d62  $RUNNER_TEMP/lift-z.json" | sha256sum -c -
# a reader that closes stdout early is exit 141 (128 + SIGPIPE) with no
# traceback, never 1; this report (about 290 KB) is more than a pipe
# holds, so the writer is still writing when head exits
set +o pipefail
multirank charzero lift --tensor "$RUNNER_TEMP/z.json" --L 10000 --sigma 0.4 2> "$RUNNER_TEMP/pipe.err" | head -c 1
test "${PIPESTATUS[0]}" -eq 141
set -o pipefail
test ! -s "$RUNNER_TEMP/pipe.err"
# n = 4 over F_4 with a singular last block: count_SF changes the basis of
# the first slot and takes one characteristic polynomial per line, and
# must agree with the literal enumeration
python3 - "$RUNNER_TEMP/f4n4.json" <<'EOF'
import json, sys
entries = [{"idx": [i, j, k], "val": [x % 2, x // 2 % 2]}
           for i in range(4) for j in range(4) for k in range(4) if not i == k == 3
           for x in [(16 * i + 4 * j + k) ** 2 * 37 % 101]]
json.dump({"field": {"p": 2, "e": 2}, "d": 3, "n": 4, "entries": entries}, open(sys.argv[1], "w"))
EOF
fast=$(multirank count --tensor "$RUNNER_TEMP/f4n4.json" --lmax 1)
naive=$(multirank count --naive --tensor "$RUNNER_TEMP/f4n4.json" --lmax 1)
echo "$fast"
test "$fast" = "$naive"
# diag(2, 3) over F_2 has rank 2 < 3 in every slot: count_SF counts its
# 2-cube core and must print exactly what the literal enumeration prints
multirank gen diagonal --p 2 --n 3 --m 2 --out "$RUNNER_TEMP/diag23.json"
fast=$(multirank count --tensor "$RUNNER_TEMP/diag23.json" --lmax 2)
naive=$(multirank count --naive --tensor "$RUNNER_TEMP/diag23.json" --lmax 2)
echo "$fast"
test "$fast" = "$naive"
# count_SF multiplies the counts of a form's direct summands: the Weil
# restriction of diag(2) over F_4 (two 2-cubes over F_2, 2^16 naive tuples
# at level 2), a direct sum of two random forms over F_3 (3^8 tuples at
# level 1) and diag(1, 2) (+) a random F_2 form with n = 2, whose core of
# side 3 splits into a 1-cube and a 2-cube (4^8 tuples at level 2), must
# print exactly what the literal enumeration prints
multirank gen diagonal --p 2 --e 2 --n 2 --m 2 --out "$RUNNER_TEMP/diag-f4.json"
multirank gen weil-restrict --p 2 --e 1 --tensor "$RUNNER_TEMP/diag-f4.json" --out "$RUNNER_TEMP/weil-f4.json"
multirank gen random --p 3 --n 2 --seed 11 --out "$RUNNER_TEMP/a-f3.json"
multirank gen random --p 3 --n 2 --seed 12 --out "$RUNNER_TEMP/b-f3.json"
multirank gen direct-sum --tensor "$RUNNER_TEMP/a-f3.json" --tensor2 "$RUNNER_TEMP/b-f3.json" --out "$RUNNER_TEMP/sum-f3.json"
multirank gen diagonal --p 2 --n 2 --m 1 --out "$RUNNER_TEMP/diag12.json"
multirank gen random --p 2 --n 2 --seed 1 --out "$RUNNER_TEMP/rand-f2.json"
multirank gen direct-sum --tensor "$RUNNER_TEMP/diag12.json" --tensor2 "$RUNNER_TEMP/rand-f2.json" --out "$RUNNER_TEMP/sum-f2.json"
for case in "weil-f4 2" "sum-f3 1" "sum-f2 2"; do
  set -- $case
  fast=$(multirank count --tensor "$RUNNER_TEMP/$1.json" --lmax "$2")
  naive=$(multirank count --naive --tensor "$RUNNER_TEMP/$1.json" --lmax "$2")
  echo "$fast"
  test "$fast" = "$naive"
done
# count_singular walks lines through e_2 by Frobenius orbits of heads: the
# F_3 cubic x^2 y + 2 y^2 z + x z^2 + x y z is singular only at level 3,
# on one orbit of three points, and its report must stay byte for byte
echo '{"field": {"p": 3}, "d": 3, "n": 3, "monomials": [{"exp": [2, 1, 0], "val": [1]}, {"exp": [0, 2, 1], "val": [2]}, {"exp": [1, 0, 2], "val": [1]}, {"exp": [1, 1, 1], "val": [1]}]}' > "$RUNNER_TEMP/cubic-f3.json"
multirank poly --poly "$RUNNER_TEMP/cubic-f3.json" --lmax 4 > "$RUNNER_TEMP/cubic-f3.out"
echo "429d4fcb6b2a6a224cd02f7f2fbf9779356c4f5fd36262e7ae5afd2c0e581363  $RUNNER_TEMP/cubic-f3.out" | sha256sum -c -
