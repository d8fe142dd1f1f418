#!/usr/bin/env python3
"""Smoke test of the benchmark: a tiny run of every workload, untraced and
traced, checking the output contract, the metric names and units against
BENCHMARK.json, and that the correctness oracles ran and can fail.

Run from the repository root:

    python3 perfbench/smoke.py

It builds the benchmark with cargo (into $CARGO_TARGET_DIR, default
.bench_build) and exits non-zero if any check fails.
"""

import json
import os
import pathlib
import subprocess
import sys

ROOT = pathlib.Path(__file__).resolve().parent.parent
TARGET = pathlib.Path(os.environ.get("CARGO_TARGET_DIR", ROOT / ".bench_build"))
if not TARGET.is_absolute():
    TARGET = ROOT / TARGET
BIN = TARGET / "release" / "nrscope-perfbench"
ENV = dict(os.environ, CARGO_TARGET_DIR=str(TARGET))

failures = []


def check(ok, what):
    if not ok:
        failures.append(what)
        print(f"FAIL: {what}", flush=True)


def run(workload, seed, trace):
    args = [str(BIN), "--workload", workload, "--seed", str(seed),
            "--seconds", "0.5", "--trace", str(trace), "--tiny"]
    p = subprocess.run(args, cwd=ROOT, env=ENV, capture_output=True, text=True,
                       timeout=300)
    lines = p.stdout.strip().splitlines()
    return p.returncode, lines, p.stderr


def main():
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    subprocess.run(["cargo", "build", "--release", "--offline", "--quiet",
                    "--manifest-path", str(ROOT / "perfbench" / "Cargo.toml")],
                   cwd=ROOT, env=ENV, check=True)
    tables = {0: bench["end_to_end"], 1: bench["per_layer"]}
    seed = 7
    for w in bench["workloads"]:
        name = w["name"]
        for trace in (0, 1):
            code, lines, err = run(name, seed, trace)
            tag = f"{name} trace={trace}"
            check(code == 0, f"{tag}: exit {code}: {err.strip()[-400:]}")
            if len(lines) < 2:
                check(False, f"{tag}: expected a metadata line and a result line")
                continue
            result = json.loads(lines[-1])
            meta = json.loads(lines[-2])["run"]
            check(sorted(result) == ["attempted", "correct", "failed", "metrics"],
                  f"{tag}: result keys {sorted(result)}")
            check(result["correct"] is True, f"{tag}: not correct")
            check(isinstance(result["attempted"], int) and result["attempted"] >= 1,
                  f"{tag}: attempted {result['attempted']}")
            check(result["failed"] == 0, f"{tag}: failed {result['failed']}")
            want = {m["name"]: m["unit"] for m in tables[trace]}
            got = {k: v["unit"] for k, v in result["metrics"].items()}
            check(got == want, f"{tag}: metrics {got} != BENCHMARK.json {want}")
            for k, v in result["metrics"].items():
                check(isinstance(v["value"], (int, float)), f"{tag}: {k} not a number")
            for key in ("host_nproc", "host_rustc", "seed", "timed_slots",
                        "latency_samples", "setup_samples"):
                check(key in meta, f"{tag}: metadata lacks {key}")
            # The truth oracle compared something, and found nothing false.
            check(meta.get("truth_dcis", 0) > 0 and meta.get("reported_dcis", 0) > 0,
                  f"{tag}: the truth oracle saw no DCIs")
            check(meta.get("dci_false_ratio") == 0, f"{tag}: false DCIs")
            check(meta.get("slot_loss_ratio") == 0, f"{tag}: lost slots")
            if trace:
                # The layer-replay oracle ran on the traced slots.
                traced = meta.get("traced_slots", meta.get("traced_rounds", 0))
                check(traced > 0, f"{tag}: no traced slots")
                for k, v in result["metrics"].items():
                    if k.startswith("decoder.candidates"):
                        check(v["value"] > 0, f"{tag}: the replay scanned no candidates")
        # Same seed again: the determinism oracle compares the DCI sets.
        code, _, err = run(name, seed, 0)
        check(code == 0, f"{name}: second run of seed {seed} failed: {err.strip()[-400:]}")

    # A tampered digest must make the determinism oracle fail the run.
    work = TARGET / "perfbench-work" / "digests"
    stored = sorted(work.glob(f"iq_light-tiny-{seed}-*.digest"),
                    key=lambda p: p.stat().st_mtime, reverse=True)
    check(len(stored) > 0, "no stored digest for iq_light")
    text = stored[0].read_text() if stored else ""
    path = stored[0] if stored else None
    if text:
        idx, value = text.splitlines()[0].split()
        path.write_text(f"{idx} {int(value) ^ 1}\n" + "\n".join(text.splitlines()[1:]) + "\n")
        code, lines, _ = run("iq_light", seed, 0)
        check(code != 0, "a tampered digest did not fail the run")
        check(bool(lines) and json.loads(lines[-1])["correct"] is False,
              "a tampered digest did not mark the run incorrect")
        path.write_text(text)

    if failures:
        print(f"{len(failures)} smoke check(s) failed", file=sys.stderr)
        return 1
    print("smoke: all checks passed")
    return 0


if __name__ == "__main__":
    sys.exit(main())
