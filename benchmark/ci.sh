#!/usr/bin/env bash
# CI leg for the benchmark (a later PR wires it into .github/workflows/ci.yml):
# the benchmark's unit tests, then `--smoke`: every workload tiny, both
# passes, about 20 s in all. It checks schema and correctness only; smoke
# numbers mean nothing and are compared with nothing.
set -euo pipefail
here="$(cd "$(dirname "$0")" && pwd)"
cd "$(dirname "$here")"
manifest=(--release --quiet --offline --manifest-path benchmark/Cargo.toml)
cargo test "${manifest[@]}"
smoke="$here/out/BENCH_smoke.json"
cargo run "${manifest[@]}" -- --smoke --seconds 1 --json "$smoke" >/dev/null

python3 - BENCHMARK.json "$smoke" <<'PY'
import json, sys

spec, bench = json.load(open(sys.argv[1])), json.load(open(sys.argv[2]))
assert bench["correct"] is True and bench["smoke"] is True, "smoke run not correct"
for w in [w["name"] for w in spec["workloads"]]:
    for section in ("end_to_end", "per_layer"):
        result = bench["workloads"][w][section]["result"]
        assert sorted(result) == ["attempted", "correct", "failed", "metrics"], (w, section)
        assert result["correct"] is True and result["failed"] == 0 and result["attempted"] >= 1, (w, section)
        want = {m["name"]: m["unit"] for m in spec[section]}
        got = {name: m["unit"] for name, m in result["metrics"].items()}
        assert got == want, (w, section, set(got) ^ set(want))
        for name, m in result["metrics"].items():
            assert sorted(m) == ["unit", "value"] and isinstance(m["value"], (int, float)), (w, name)
            if section == "end_to_end":
                assert m["value"] > 0, (w, name, "an end-to-end metric is never 0")
print("benchmark smoke: schema and correctness OK")
PY
