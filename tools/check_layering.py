#!/usr/bin/env python3
"""Layering lint: the protocol stack must not name concrete infrastructure.

Three rules keep the protocol stack substitutable; a fourth keeps pool
wiring in one place:

1. Executors. Everything in src/{net,gcs,replication,client,fault} (and
   src/core, which is executor-free entirely) is written against
   runtime::Executor, so the same code runs under the discrete-event
   simulator and the real-time loop. Including sim/simulator.hpp — or the
   runtime headers that name the concrete implementations — from those
   layers would silently re-couple the stack to one runtime.

2. Telemetry exporters. Protocol layers may depend on the obs *interfaces*
   (obs/metrics.hpp, obs/trace.hpp, obs/snapshot.hpp) to record what
   happened, but never on the concrete sinks/exporters (obs/sinks.hpp,
   obs/export.hpp): the choice of export format (JSONL, Prometheus text,
   Chrome trace) belongs to composition roots, and a protocol file naming
   a sink could smuggle I/O into the deterministic hot path.

3. Transports. Everything above src/net — including src/harness, which
   must stay backend-agnostic so the same Scenario can one day run over
   sockets — is written against net::Transport (net/transport.hpp).
   Including net/loopback.hpp, net/udp_transport.hpp, or net/chaos.hpp
   from those layers would hard-wire the stack to one backend (or one
   fault-injection implementation); concrete transports are constructed
   only in composition roots (examples, tests, benches) or through the
   make_loopback_transport() / make_chaos_transport() factories.

4. Testbed. An in-process replica pool (executor, transport, directory,
   endpoints, replicas, clients) is wired in one place, harness::Testbed.
   examples/ and src/runner/ build their pools through it and may not
   construct a gcs::Endpoint or a replication::ReplicaServer themselves.
   The one exemption is live_cli's --role path (run_multiproc), which
   builds a single node per OS process, not a pool.

Composition roots (src/runner, tests, benches, examples) are allowed to
name all of these; that is where executors, exporters, and transports are
built. src/harness is a composition root for executors and exporters but
not for transports (rule 3).

Exits non-zero listing every offending include.
"""

import pathlib
import re
import sys

REPO = pathlib.Path(__file__).resolve().parent.parent

# Layers that must stay runtime- and exporter-agnostic.
PROTOCOL_DIRS = ["src/net", "src/gcs", "src/replication", "src/client",
                 "src/fault", "src/core", "src/shard"]

# Headers naming a concrete executor.
FORBIDDEN_EXECUTORS = [
    "sim/simulator.hpp",
    "runtime/sim_executor.hpp",
    "runtime/realtime_executor.hpp",
]

# Headers naming a concrete telemetry exporter.
FORBIDDEN_EXPORTERS = [
    "obs/sinks.hpp",
    "obs/export.hpp",
]

FORBIDDEN = {h: "concrete executor" for h in FORBIDDEN_EXECUTORS}
FORBIDDEN.update({h: "concrete telemetry exporter"
                  for h in FORBIDDEN_EXPORTERS})

# Layers that must stay transport-agnostic: everything above src/net,
# including the harness (rule 3). src/net itself implements the backends.
TRANSPORT_AGNOSTIC_DIRS = ["src/gcs", "src/replication", "src/client",
                           "src/fault", "src/core", "src/shard",
                           "src/harness"]

# Headers naming a concrete transport backend. The chaos decorator counts:
# protocol layers and fault schedules reach every fault knob through
# net::FaultInjection on a transport built via make_chaos_transport(), so
# naming ChaosTransport above src/net would couple them to the class
# rather than the interface.
FORBIDDEN_TRANSPORTS = {
    "net/loopback.hpp": "concrete transport backend",
    "net/udp_transport.hpp": "concrete transport backend",
    "net/chaos.hpp": "concrete transport decorator",
}

INCLUDE_RE = re.compile(r'^\s*#\s*include\s*[<"]([^">]+)[">]')

# Rule 4: directories that build pools only through harness::Testbed.
TESTBED_ONLY_DIRS = ["examples", "src/runner"]

# A construction of a gcs::Endpoint or ReplicaServer: make_unique<T>(...),
# a named variable `T name(...)` / `T name{...}`, or a temporary `T(...)`.
# References and pointers (`T&`, `T*`) are not constructions.
CONSTRUCT_RE = re.compile(
    r'\b(gcs::Endpoint|ReplicaServer)\b(?:>\s*[({]|\s+\w+\s*[({]|\s*[({])')

# (file, function) whose body may construct them: live_cli's single-node
# --role path.
TESTBED_EXEMPT = {("examples/live_cli.cpp", "run_multiproc")}


def scan(dirs, forbidden, what):
    violations = []
    for layer in dirs:
        for path in sorted((REPO / layer).rglob("*")):
            if path.suffix not in {".hpp", ".cpp", ".h", ".cc"}:
                continue
            for lineno, line in enumerate(
                    path.read_text(encoding="utf-8").splitlines(), start=1):
                match = INCLUDE_RE.match(line)
                if match and match.group(1) in forbidden:
                    violations.append(
                        f"{path.relative_to(REPO)}:{lineno}: "
                        f"{what} includes {match.group(1)} "
                        f"({forbidden[match.group(1)]})")
    return violations


def exempt_lines(relpath, lines):
    """Line numbers inside a TESTBED_EXEMPT function: from its signature
    at column 0 to the next closing brace at column 0."""
    exempt = set()
    for path, function in TESTBED_EXEMPT:
        if path != relpath:
            continue
        inside = False
        for lineno, line in enumerate(lines, start=1):
            if re.match(r'^\S.*\b%s\(' % function, line):
                inside = True
            if inside:
                exempt.add(lineno)
                if line.startswith("}"):
                    inside = False
    return exempt


def scan_constructions():
    violations = []
    for layer in TESTBED_ONLY_DIRS:
        for path in sorted((REPO / layer).rglob("*")):
            if path.suffix not in {".hpp", ".cpp", ".h", ".cc"}:
                continue
            relpath = str(path.relative_to(REPO))
            lines = path.read_text(encoding="utf-8").splitlines()
            exempt = exempt_lines(relpath, lines)
            for lineno, line in enumerate(lines, start=1):
                match = CONSTRUCT_RE.search(line.split("//")[0])
                if match and lineno not in exempt:
                    violations.append(
                        f"{relpath}:{lineno}: constructs {match.group(1)} "
                        "(build in-process pools through harness::Testbed)")
    return violations


def main() -> int:
    violations = scan(PROTOCOL_DIRS, FORBIDDEN, "protocol layer")
    violations += scan(TRANSPORT_AGNOSTIC_DIRS, FORBIDDEN_TRANSPORTS,
                       "transport-agnostic layer")
    violations += scan_constructions()
    if violations:
        print("layering violations (protocol code must depend only on "
              "runtime/executor.hpp, net/transport.hpp, and the obs "
              "interfaces; pools are wired only by harness::Testbed):",
              file=sys.stderr)
        for v in violations:
            print(f"  {v}", file=sys.stderr)
        return 1
    print(f"layering OK: {len(PROTOCOL_DIRS)} protocol layers depend only "
          "on the Executor interface and obs interfaces; "
          f"{len(TRANSPORT_AGNOSTIC_DIRS)} layers name only net::Transport; "
          f"{len(TESTBED_ONLY_DIRS)} directories build pools only through "
          "harness::Testbed")
    return 0


if __name__ == "__main__":
    sys.exit(main())
