#!/usr/bin/env python3
"""Cross-commit byte-identity oracle.

Runs sweep_cli on a fixed set of plans at fixed seeds and small request
counts, hashes each merged JSON with sha256, and compares the digests with
the committed bench/baselines/ORACLE_digests.json. A change that claims to
keep behaviour (a refactor or a cost fix) must leave every digest
untouched: every simulated message, byte, RNG draw and QoS outcome feeds
the sweep JSON, so a single drifted bit changes its hash.

The 1-thread vs N-thread sweep check proves the engine is deterministic
within one commit; this oracle pins the output *across* commits.

The sweep JSON holds doubles computed through libm (lgamma, exp, log),
whose last bit may differ between C library versions, so the digests only
compare between builds of one toolchain. The baseline records the
compiler, C library and CPU architecture it was written with; a build on a
different toolchain reports the digests as not comparable and passes,
unless --require-comparable is given.

Usage:
  oracle_digest.py [--build-dir build] [--require-comparable]
      Check: exit 1 if any digest differs from the baseline. With
      --require-comparable, also exit 1 when the build's toolchain is not
      the baseline's, instead of skipping the check.
  oracle_digest.py --write [--build-dir build]
      Regenerate the baseline. Each plan runs twice; only plans whose
      JSON is byte-identical across both runs are recorded (the others
      are listed under "unstable" and skipped by the check).
  oracle_digest.py --against PARENT_BUILD_DIR [--build-dir build]
      Compare two builds directly, for a change whose digests move on
      purpose: runs both sweep_cli binaries on every plan with the same
      arguments and labels each plan "identical" (byte-equal JSON),
      "bytes-only" (equal once every key starting "bytes" and
      telemetry_bytes/telemetry_digest are masked: only wire sizes moved)
      or "differs". Exit 1 if any plan differs. No baseline is read, so
      the toolchain check does not apply.
"""
import argparse
import glob
import hashlib
import json
import os
import platform
import re
import subprocess
import sys
import tempfile
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BASELINE = os.path.join(ROOT, "bench", "baselines", "ORACLE_digests.json")

# Fixed seeds. Each crash/shard plan runs at its default request count
# except fig4_adaptivity, whose 32-point grid runs at 40, and
# ordering_handlers, which runs at 200 (about 1 s; it pins the FIFO
# ordering's output too). The remaining scenario plans run at 100 requests
# and staleness_model at 2000 Monte-Carlo windows, so every plan sweep_cli
# lists is pinned. The whole check takes about 20 s on two cores, well
# under the two-minute CI budget.
SEED = 1
SEEDS = 2
THREADS = 2
PLANS = [
    ("fig4_adaptivity", 40),
    ("recovery", 300),
    ("chaos_recovery", 80),
    ("gray_failure", 120),
    ("gray_chaos", 80),
    ("shard_scaling", 120),
    ("hot_shard", 120),
    ("ordering_handlers", 200),
    ("failure_injection", 100),
    ("chaos", 100),
    ("ablation_lui", 100),
    ("ablation_request_delay", 100),
    ("baselines", 100),
    ("group_sizing", 100),
    ("heterogeneous", 100),
    ("open_loop", 100),
    ("protocol_overhead", 100),
    ("staleness_model", 2000),
]


def toolchain(build_dir):
    """The compiler (from the CMake build directory), C library and CPU
    architecture the digests depend on."""
    compiler = "unknown"
    for path in sorted(glob.glob(os.path.join(
            build_dir, "CMakeFiles", "*", "CMakeCXXCompiler.cmake"))):
        with open(path) as f:
            fields = dict(re.findall(
                r'set\(CMAKE_CXX_COMPILER_(ID|VERSION) "([^"]*)"\)', f.read()))
        compiler = "%s %s" % (fields.get("ID", "?"), fields.get("VERSION", "?"))
    return {
        "compiler": compiler,
        "libc": " ".join(platform.libc_ver()) or "unknown",
        "machine": platform.machine(),
    }


def sweep_json(sweep_cli, plan, requests, workdir, name=None):
    """Runs one plan and returns the bytes of its merged JSON."""
    out = os.path.join(workdir, (name or plan) + ".json")
    cmd = [sweep_cli, "--plan", plan, "--seed", str(SEED), "--seeds", str(SEEDS),
           "--threads", str(THREADS), "--requests", str(requests),
           "--json-out", out]
    result = subprocess.run(cmd, cwd=workdir, stdout=subprocess.DEVNULL,
                            stderr=subprocess.PIPE, text=True)
    if result.returncode != 0:
        raise RuntimeError("%s failed (exit %d):\n%s" %
                           (" ".join(cmd), result.returncode, result.stderr))
    with open(out, "rb") as f:
        return f.read()


def run_plan(sweep_cli, plan, requests, workdir):
    """Runs one plan and returns the sha256 of its merged JSON."""
    return hashlib.sha256(sweep_json(sweep_cli, plan, requests, workdir)).hexdigest()


def mask_bytes(value):
    """`value` with every byte count replaced by None: the values of keys
    starting "bytes", and of telemetry_bytes and telemetry_digest."""
    if isinstance(value, dict):
        return {k: None if k.startswith("bytes") or k in ("telemetry_bytes", "telemetry_digest")
                else mask_bytes(v) for k, v in value.items()}
    if isinstance(value, list):
        return [mask_bytes(v) for v in value]
    return value


def compare_builds(sweep_cli, parent_cli, workdir):
    differs = 0
    for plan, requests in PLANS:
        start = time.time()
        ours = sweep_json(sweep_cli, plan, requests, workdir)
        theirs = sweep_json(parent_cli, plan, requests, workdir, plan + ".parent")
        if ours == theirs:
            label = "identical"
        elif mask_bytes(json.loads(ours)) == mask_bytes(json.loads(theirs)):
            label = "bytes-only"
        else:
            label = "differs"
            differs += 1
        print("%-22s %-10s (%.1f s)" % (plan, label, time.time() - start))
    if differs:
        print("%d plan(s) differ beyond their byte counts" % differs)
        return 1
    print("no plan differs beyond its byte counts")
    return 0


def write_baseline(sweep_cli, tools, workdir):
    plans = {}
    unstable = []
    for plan, requests in PLANS:
        first = run_plan(sweep_cli, plan, requests, workdir)
        second = run_plan(sweep_cli, plan, requests, workdir)
        if first != second:
            unstable.append(plan)
            print("%-22s unstable across two runs; not recorded" % plan)
            continue
        plans[plan] = {"requests": requests, "sha256": first}
        print("%-22s %s" % (plan, first))
    doc = {
        "seed": SEED,
        "seeds": SEEDS,
        "threads": THREADS,
        "toolchain": tools,
        "plans": plans,
        "unstable": unstable,
    }
    with open(BASELINE, "w") as f:
        json.dump(doc, f, indent=2, sort_keys=True)
        f.write("\n")
    print("wrote %s" % BASELINE)
    return 0


def check_baseline(sweep_cli, tools, workdir, require_comparable):
    with open(BASELINE) as f:
        doc = json.load(f)
    if doc.get("toolchain") != tools:
        print("toolchain differs, digests not comparable; %s\n"
              "  baseline   %s\n  this build %s" %
              ("failed (--require-comparable)" if require_comparable else "skipped",
               doc.get("toolchain"), tools))
        return 1 if require_comparable else 0
    if (doc["seed"], doc["seeds"]) != (SEED, SEEDS):
        print("baseline seeds %s/%s differ from the tool's %s/%s; regenerate "
              "it with --write" % (doc["seed"], doc["seeds"], SEED, SEEDS))
        return 1
    failures = 0
    for plan, entry in sorted(doc["plans"].items()):
        start = time.time()
        digest = run_plan(sweep_cli, plan, entry["requests"], workdir)
        ok = digest == entry["sha256"]
        failures += 0 if ok else 1
        print("%-22s %s %s (%.1f s)" % (plan, "ok  " if ok else "DIFF",
                                        digest, time.time() - start))
        if not ok:
            print("  expected %s" % entry["sha256"])
    for plan in doc.get("unstable", []):
        print("%-22s skipped (unstable when the baseline was written)" % plan)
    if failures:
        print("%d plan(s) drifted from the committed digests" % failures)
        return 1
    print("all %d digests match" % len(doc["plans"]))
    return 0


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--build-dir", default=os.path.join(ROOT, "build"))
    mode = parser.add_mutually_exclusive_group()
    mode.add_argument("--write", action="store_true",
                      help="regenerate the baseline instead of checking it")
    mode.add_argument("--against", metavar="PARENT_BUILD_DIR",
                      help="compare with another build's sweep_cli instead")
    parser.add_argument("--require-comparable", action="store_true",
                        help="fail the check, instead of skipping it, when "
                        "the build's toolchain is not the baseline's")
    args = parser.parse_args()
    clis = [os.path.join(os.path.abspath(d), "bench", "sweep_cli")
            for d in [args.build_dir] + ([args.against] if args.against else [])]
    for cli in clis:
        if not os.access(cli, os.X_OK):
            print("no sweep_cli at %s; build first" % cli)
            return 2
    sweep_cli = clis[0]
    build_dir = os.path.abspath(args.build_dir)
    with tempfile.TemporaryDirectory() as workdir:
        if args.against:
            return compare_builds(sweep_cli, clis[1], workdir)
        if args.write:
            return write_baseline(sweep_cli, toolchain(build_dir), workdir)
        return check_baseline(sweep_cli, toolchain(build_dir), workdir,
                              args.require_comparable)


if __name__ == "__main__":
    sys.exit(main())
