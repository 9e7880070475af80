#!/bin/sh
# allocguard fails `make check` when a budgeted benchmark costs more
# allocations (or bytes) per certificate than its line in
# scripts/alloc_budgets.txt allows. It runs the budgeted benchmarks
# itself, so a change that loses a pool, arena or intern path fails it.
#
# The corpus benchmarks in the root package run once (-benchtime 1x)
# at their paper-scale default size: BENCH_E2E_SIZE is unset so a
# quick-run override cannot shrink the corpus the budgets were set
# from. The index and ctlog benchmarks run at the default benchtime.
# Per-cert costs are derived from the standard `go test -benchmem`
# output: per-op value ÷ certs per op (certs/s × ns/op / 1e9).
set -eu
BUDGETS=scripts/alloc_budgets.txt
[ -f "$BUDGETS" ] || { echo "allocguard: FAIL: $BUDGETS missing"; exit 1; }
unset BENCH_E2E_SIZE

names=$(sed 's/#.*//' "$BUDGETS" | awk 'NF { print $1 }' | paste -sd'|' -)
bench="^($names)\$"
out=$(mktemp)
trap 'rm -f "$out"' EXIT
go test -run '^$' -bench "$bench" -benchmem -benchtime 1x . >>"$out" 2>&1 \
	|| { cat "$out"; echo "allocguard: FAIL: root benchmarks did not run"; exit 1; }
go test -run '^$' -bench "$bench" -benchmem ./internal/index ./internal/ctlog >>"$out" 2>&1 \
	|| { cat "$out"; echo "allocguard: FAIL: index/ctlog benchmarks did not run"; exit 1; }

python3 - "$out" "$BUDGETS" <<'PYEOF'
import re, sys

out_path, budgets_path = sys.argv[1], sys.argv[2]

# One result line: name[-GOMAXPROCS] iterations (value unit)...
measured = {}
with open(out_path) as f:
    for line in f:
        fields = line.split()
        if len(fields) < 4 or not fields[0].startswith("Benchmark"):
            continue
        name = re.sub(r"-\d+$", "", fields[0])
        metrics = {unit: float(v) for v, unit in zip(fields[2::2], fields[3::2])}
        certs_per_op = metrics.get("certs/s", 0) * metrics.get("ns/op", 0) / 1e9
        if certs_per_op > 0 and "allocs/op" in metrics:
            measured[name] = (metrics["allocs/op"] / certs_per_op,
                              metrics["B/op"] / certs_per_op)

failed = checked = 0
with open(budgets_path) as f:
    for raw in f:
        parts = raw.split("#", 1)[0].split()
        if not parts:
            continue
        name, alloc_budget = parts[0], float(parts[1])
        byte_budget = float(parts[2]) if len(parts) > 2 else None
        if name not in measured:
            print(f"allocguard: FAIL: {name}: not present in the benchmark output (or no certs/s and allocs/op)")
            failed += 1
            continue
        checked += 1
        allocs, bts = measured[name]
        checks = [("allocs/cert", allocs, alloc_budget)]
        if byte_budget is not None:
            checks.append(("bytes/cert", bts, byte_budget))
        for unit, got, budget in checks:
            verdict = "FAIL" if got > budget else "OK"
            sign = ">" if got > budget else "<="
            print(f"allocguard: {verdict}: {name}: {got:.1f} {unit} {sign} budget {budget:g}")
            failed += got > budget

if checked == 0:
    print("allocguard: FAIL: no budgets checked")
    failed += 1
sys.exit(1 if failed else 0)
PYEOF
