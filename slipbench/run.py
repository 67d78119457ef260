#!/usr/bin/env python3
"""Build slipsim's benchmark binary from source and run one workload.

Run from the root of a checkout:

    python3 slipbench/run.py --workload fig05|l1-resident|serve-mixed \\
        --seed N --seconds S --trace 0|1

The binary (slipbench/src, linked against the library in src/) and the
two figure benches whose grids it runs are built with CMake into
.bench_build/slipbench on first use; build output goes to standard
error.  Each run first asks the figure benches for their cells
(print-cells=true) and hands the lists to the binary.

The last line of standard output is one JSON object with the keys
correct, attempted, failed and metrics: the end_to_end metrics of
BENCHMARK.json for --trace 0, the per_layer ones for --trace 1.  A
per-layer metric that slipbench/layers.json marks as not measured on
the workload is reported as 0.  Traced runs also write a span file
under .bench_build/slipbench/out.
"""

import argparse
import json
import os
import re
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD_REL = os.path.join(".bench_build", "slipbench")
OUT_REL = os.path.join(BUILD_REL, "out")
BUILD = os.path.join(ROOT, BUILD_REL)
EXE = os.path.join(BUILD, "slipbench")
NAME_RE = re.compile(r"[A-Za-z0-9_.-]+\Z")
WORKLOADS = ("fig05", "l1-resident", "serve-mixed")
# A run gets 180 s in all; the binary must end well inside that.
RUN_TIMEOUT_S = 170
# Cell lists the binary reads: name -> figure bench and its arguments.
CELL_LISTS = {
    "fig05": ["fig05_slipstream_speedup"],
    "fig05-quick": ["fig05_slipstream_speedup", "--quick"],
    "fig05-quick-moesi": ["fig05_slipstream_speedup", "--quick",
                          "protocol=moesi"],
    "fig01-quick": ["fig01_double_vs_single", "--quick"],
    "fig01-quick-moesi": ["fig01_double_vs_single", "--quick",
                          "protocol=moesi"],
}


def die(msg):
    print(f"slipbench: {msg}", file=sys.stderr)
    sys.exit(1)


def build():
    if not os.path.isfile(os.path.join(ROOT, "src", "CMakeLists.txt")):
        die("no slipsim sources (src/CMakeLists.txt) in this checkout")
    if not os.path.isfile(os.path.join(BUILD, "CMakeCache.txt")):
        subprocess.run(["cmake", "-S", HERE, "-B", BUILD,
                        "-DCMAKE_BUILD_TYPE=Release"],
                       cwd=ROOT, stdout=sys.stderr, check=True)
    subprocess.run(["cmake", "--build", BUILD, "-j", str(os.cpu_count() or 1),
                    "--target", "slipbench"],
                   cwd=ROOT, stdout=sys.stderr, check=True)


def write_cell_lists(cells_dir):
    """Each figure bench's grid as canonical cell lines, one file per
    list in CELL_LISTS."""
    os.makedirs(cells_dir, exist_ok=True)
    for name, (exe, *args) in CELL_LISTS.items():
        run = subprocess.run([os.path.join(BUILD, exe), *args,
                              "print-cells=true"],
                             cwd=ROOT, capture_output=True, text=True,
                             timeout=60)
        lines = [l for l in run.stdout.splitlines() if "workload=" in l]
        if run.returncode != 0 or not lines:
            die(f"{exe} print-cells gave no cells (status "
                f"{run.returncode})")
        with open(os.path.join(cells_dir, name + ".txt"), "w") as f:
            f.write("\n".join(lines) + "\n")


def load_specs():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        bench = json.load(f)
    with open(os.path.join(HERE, "layers.json")) as f:
        layers = json.load(f)["per_layer"]
    names = [m["name"] for m in bench["end_to_end"] + bench["per_layer"]]
    bad = [n for n in names if not NAME_RE.match(n)]
    if bad:
        die(f"metric names outside [A-Za-z0-9_.-]+: {bad}")
    if sorted(layers) != sorted(m["name"] for m in bench["per_layer"]):
        die("slipbench/layers.json and BENCHMARK.json list different "
            "per-layer metrics")
    return bench, layers


def select(result, specs, layers, workload, traced):
    """The required metric set for this mode, checked against what the
    binary measured."""
    measured = result["metrics"]
    out = {}
    for spec in specs:
        name, unit = spec["name"], spec["unit"]
        m = measured.get(name)
        if m is None:
            if traced and workload not in layers[name]["measured_on"]:
                out[name] = {"value": 0, "unit": unit}
                continue
            die(f"{workload} did not report metric {name}")
        if m["unit"] != unit:
            die(f"metric {name} has unit {m['unit']}, expected {unit}")
        out[name] = {"value": m["value"], "unit": unit}
    return out


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", required=True, type=int)
    ap.add_argument("--seconds", required=True, type=float)
    ap.add_argument("--trace", required=True, type=int, choices=(0, 1))
    args = ap.parse_args()
    if args.seed < 0 or args.seconds <= 0:
        die("--seed must be >= 0 and --seconds > 0")

    bench, layers = load_specs()
    build()
    cells_rel = os.path.join(OUT_REL, "cells")
    write_cell_lists(os.path.join(ROOT, cells_rel))
    cmd = [EXE, "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace),
           "--out", OUT_REL, "--cells", cells_rel]
    try:
        run = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE,
                             text=True, timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        die(f"{args.workload} did not finish within {RUN_TIMEOUT_S} s")
    lines = run.stdout.splitlines()
    for line in lines[:-1]:
        print(line)
    if run.returncode != 0 or not lines:
        die(f"slipbench exited with status {run.returncode}")
    result = json.loads(lines[-1])
    traced = args.trace == 1
    specs = bench["per_layer"] if traced else bench["end_to_end"]
    final = {
        "correct": bool(result["correct"]),
        "attempted": int(result["attempted"]),
        "failed": int(result["failed"]),
        "metrics": select(result, specs, layers, args.workload, traced),
    }
    for name, m in final["metrics"].items():
        print(f"# {name:34s} {m['value']:.6g} {m['unit']}")
    print(json.dumps(final, allow_nan=False))


if __name__ == "__main__":
    main()
