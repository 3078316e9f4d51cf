#!/usr/bin/env bash
# Runs the full benchmark command twice, back to back, on the same code and
# compares the two sets: per workload x end-to-end metric both medians,
# their ratio and PASS/FAIL against the metric's bound in BENCHMARK.json;
# and re-checks that the exact counts (layout.*, bench.input_hash) repeat.
#
#   benchmark/repeat.sh            two sets of one run each (seed 1)
#   RUNS=10 benchmark/repeat.sh    two sets of ten runs (seeds 1..10), as the
#                                  driver does; also prints each metric's
#                                  spread (IQR / median) within a set, which
#                                  must stay within the bound as well
#
# Run from anywhere; needs cargo and python3. Exit code 0 iff all PASS.
set -euo pipefail
here="$(cd "$(dirname "$0")" && pwd)"
root="$(dirname "$here")"
runs="${RUNS:-1}"
out="$here/out/repeat"
rm -rf "$out"
mkdir -p "$out"
cd "$root"
cargo build --release --quiet --offline --manifest-path benchmark/Cargo.toml
bench=(cargo run --release --quiet --offline --manifest-path benchmark/Cargo.toml --)

for set in A B; do
  for seed in $(seq 1 "$runs"); do
    echo "== set $set, seed $seed: end-to-end pass" >&2
    "${bench[@]}" --seed "$seed" --trace 0 --json "$out/${set}_e2e_$seed.json" >/dev/null
  done
  echo "== set $set: traced pass (seed 1)" >&2
  "${bench[@]}" --seed 1 --trace 1 --json "$out/${set}_layers.json" >/dev/null
done

python3 - "$root/BENCHMARK.json" "$out" "$runs" <<'PY'
import json, statistics, sys

spec = json.load(open(sys.argv[1]))
out, runs = sys.argv[2], int(sys.argv[3])
ok = True

def load(name):
    return json.load(open(f"{out}/{name}.json"))["workloads"]

def value(workloads, workload, section, metric):
    return workloads[workload][section]["result"]["metrics"][metric]["value"]

print(f"{'workload':<17} {'metric':<24} {'median A':>14} {'median B':>14} {'B/A':>7} "
      f"{'spread A':>9} {'spread B':>9} {'bound':>6}  verdict")
for w in [w["name"] for w in spec["workloads"]]:
    for m in spec["end_to_end"]:
        med, spread = {}, {}
        for s in "AB":
            vals = [value(load(f"{s}_e2e_{seed}"), w, "end_to_end", m["name"])
                    for seed in range(1, runs + 1)]
            med[s] = statistics.median(vals)
            if runs >= 2:
                q = statistics.quantiles(vals, n=4)
                spread[s] = (q[2] - q[0]) / med[s]
            else:
                spread[s] = 0.0
        ratio = med["B"] / med["A"]
        worse = ratio - 1 if m["better"] == "lower" else 1 - ratio
        passed = worse <= m["bound"]
        # setup_s is exempt from the spread rule, not from the median rule.
        if m["name"] != "setup_s":
            passed = passed and max(spread.values()) <= m["bound"]
        ok &= passed
        print(f"{w:<17} {m['name']:<24} {med['A']:>14.4f} {med['B']:>14.4f} {ratio:>7.3f} "
              f"{spread['A']:>9.3f} {spread['B']:>9.3f} {m['bound']:>6}  "
              f"{'PASS' if passed else 'FAIL'}")

a, b = load("A_layers"), load("B_layers")
exact = [m["name"] for m in spec["per_layer"]
         if m["name"].startswith("layout.rebuild_") or m["name"] in
         ("layout.storage_overhead", "bench.input_hash", "bench.threads", "failed_frac")]
for w in a:
    for name in exact:
        va, vb = value(a, w, "per_layer", name), value(b, w, "per_layer", name)
        if va != vb:
            ok = False
            print(f"{w:<17} {name:<40} {va!r} != {vb!r}  FAIL (must repeat exactly)")
print("exact counts repeat" if ok else "", "PASS" if ok else "FAIL")
sys.exit(0 if ok else 1)
PY
