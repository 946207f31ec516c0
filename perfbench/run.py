#!/usr/bin/env python3
"""Build the program from source and run one benchmark workload.

    python3 perfbench/run.py --workload paper --seed 1 --seconds 15 --trace 0
    python3 perfbench/run.py --selftest

Run it from the root of a checkout. The program (src/main/scala) and the
harness (perfbench/src) are compiled with the Scala compiler that ships with
Spark into $CARGO_TARGET_DIR (default .bench_build), once per source digest.
The last line of standard output is one JSON object with the keys correct,
attempted, failed and metrics; see perfbench/README.md.
"""

import argparse
import fnmatch
import hashlib
import json
import os
import re
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
PROGRAM_SRC = ROOT / "src" / "main" / "scala"
HARNESS_SRC = HERE / "src"
RESULT_PREFIX = "RESULT "
RUN_LIMIT_S = 175  # every run must end within 180 s
JVM_HEAP = "3g"
ADD_OPENS = [
    "java.base/java.lang", "java.base/java.lang.invoke", "java.base/java.lang.reflect",
    "java.base/java.io", "java.base/java.net", "java.base/java.nio",
    "java.base/java.util", "java.base/java.util.concurrent",
    "java.base/java.util.concurrent.atomic",
    "java.base/jdk.internal.ref", "java.base/sun.nio.ch", "java.base/sun.nio.cs",
    "java.base/sun.security.action", "java.base/sun.util.calendar",
    "java.security.jgss/sun.security.krb5",
]


def fail(msg, code=2):
    print(f"perfbench: {msg}", file=sys.stderr)
    sys.exit(code)


def build_dir():
    d = Path(os.environ.get("CARGO_TARGET_DIR", ".bench_build"))
    return d if d.is_absolute() else ROOT / d


def spark_jars():
    home = os.environ.get("SPARK_HOME")
    found = sorted((Path(home) / "jars").glob("*.jar")) if home else []
    if not found:
        fail("no Spark jars found; set SPARK_HOME to a Spark 4 installation")
    return found


def duckdb_jar():
    """The DuckDB JDBC jar the build pins, from the local dependency caches."""
    sbt = ROOT / "build.sbt"
    m = re.search(r'"duckdb_jdbc"\s*%\s*"([^"]+)"', sbt.read_text() if sbt.exists() else "")
    name = f"duckdb_jdbc-{m.group(1) if m else '*'}.jar"
    home = Path.home()
    roots = [os.environ.get("COURSIER_CACHE"), home / ".cache" / "coursier", home / ".ivy2", home / ".m2"]
    for r in roots:
        if r and Path(r).is_dir():
            for path, _, files in os.walk(r):
                for f in files:
                    if fnmatch.fnmatch(f, name):
                        return Path(path, f)
    fail(f"{name} not found in the local dependency caches")


def sources():
    if not PROGRAM_SRC.is_dir():
        fail(f"program sources not found at {PROGRAM_SRC}")
    files = sorted(PROGRAM_SRC.rglob("*.scala")) + sorted(HARNESS_SRC.rglob("*.scala"))
    if not files:
        fail("no Scala sources")
    return files


def build(jars):
    """Compile program + harness once per digest of sources and classpath."""
    files = sources()
    h = hashlib.sha256()
    for f in files:
        h.update(str(f.relative_to(ROOT)).encode())
        h.update(f.read_bytes())
    for j in jars:
        h.update(j.name.encode())
    out = build_dir() / f"classes-{h.hexdigest()[:16]}"
    if (out / ".ok").exists():
        return out
    out.mkdir(parents=True, exist_ok=True)
    compiler = [next(j for j in jars if j.name.startswith(p)) for p in
                ("scala-compiler-", "scala-library-", "scala-reflect-")]
    cmd = ["java", "-Xss16m", "-Xmx1g", "-cp", os.pathsep.join(map(str, compiler)),
           "scala.tools.nsc.Main", "-nowarn", "-d", str(out),
           "-classpath", os.pathsep.join(map(str, jars))] + [str(f) for f in files]
    t0 = time.time()
    r = subprocess.run(cmd, stdout=subprocess.PIPE, stderr=subprocess.STDOUT, text=True)
    if r.returncode != 0:
        sys.stderr.write(r.stdout)
        fail("compilation failed")
    (out / ".ok").write_text(f"{time.time() - t0:.1f}s\n")
    print(f"built {out.name} in {time.time() - t0:.1f}s", file=sys.stderr)
    return out


def run_jvm(args, deadline):
    """Run one workload; return (exit code, output lines, result JSON or None)."""
    sources()
    jars = spark_jars() + [duckdb_jar()]
    classes = build(jars)
    tmp = build_dir() / "tmp"
    tmp.mkdir(parents=True, exist_ok=True)
    cmd = (["java", f"-Xms{JVM_HEAP}", f"-Xmx{JVM_HEAP}", "-Xss16m",
            f"-Djava.io.tmpdir={tmp}",
            f"-Dlog4j2.configurationFile={HERE / 'log4j2.properties'}",
            "-Dspark.driver.host=127.0.0.1", "-Dspark.ui.enabled=false"]
           + [f"--add-opens={p}=ALL-UNNAMED" for p in ADD_OPENS]
           + ["-cp", os.pathsep.join(map(str, [classes] + jars)), "perfbench.Main"]
           + args + ["--out-dir", str(build_dir())])
    proc = subprocess.Popen(cmd, stdout=subprocess.PIPE, text=True, cwd=ROOT, start_new_session=True)
    lines, result = [], None
    try:
        remaining = max(5.0, deadline - time.time())
        out, _ = proc.communicate(timeout=remaining)
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, 9)
        proc.wait()
        fail("run exceeded its time limit", 3)
    for line in out.splitlines():
        if line.startswith(RESULT_PREFIX):
            result = line[len(RESULT_PREFIX):]
        else:
            lines.append(line)
    return proc.returncode, lines, result


def main():
    ap = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("--workload", choices=["paper", "oracle", "fuzz"])
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=10)
    ap.add_argument("--trace", choices=["0", "1"], default="0")
    ap.add_argument("--size", choices=["full", "tiny"], default="full")
    ap.add_argument("--master", help="Spark master, e.g. local[1]; default local[min(4, nproc)]")
    ap.add_argument("--selftest", action="store_true", help="smoke-test the benchmark at tiny size")
    a = ap.parse_args()
    if a.selftest:
        sys.exit(selftest())
    if not a.workload:
        ap.error("--workload is required")
    args = ["--workload", a.workload, "--seed", str(a.seed), "--seconds", str(a.seconds),
            "--trace", a.trace, "--size", a.size] + (["--master", a.master] if a.master else [])
    code, lines, result = run_jvm(args, time.time() + RUN_LIMIT_S)
    print("\n".join(lines))
    if code != 0 or result is None:
        fail(f"workload {a.workload} exited with code {code}")
    print(result)


def selftest():
    """Tiny runs of every workload: every metric BENCHMARK.json names is
    printed with its unit, a fuzz seed repeats its schedules and virtual
    digest, and another seed draws other schedules."""
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    problems = []

    def run(workload, seed, trace):
        args = ["--workload", workload, "--seed", str(seed), "--seconds", "1", "--trace", str(trace),
                "--size", "tiny"]
        code, lines, result = run_jvm(args, time.time() + RUN_LIMIT_S)
        if code != 0 or result is None:
            problems.append(f"{workload} seed {seed} trace {trace}: exit {code}")
            return lines, {}
        return lines, json.loads(result)

    def grab(lines, prefix):
        return next((l.split()[2] for l in lines if l.startswith(prefix)), None)

    benchmarked = [x["name"] for x in spec["workloads"]]
    for w in benchmarked + [w for w in ("paper", "oracle", "fuzz") if w not in benchmarked]:
        for trace, key in ((0, "end_to_end"), (1, "per_layer")):
            lines, res = run(w, 1, trace)
            for m in spec[key]:
                got = res.get("metrics", {}).get(m["name"])
                if got is None or got.get("unit") != m["unit"] or not isinstance(got.get("value"), (int, float)):
                    problems.append(f"{w} trace {trace}: metric {m['name']} missing or without unit {m['unit']}")
            # fuzz exists to find defects; the benchmarked workloads must not fail
            if res and (res["attempted"] < 1 or (w in benchmarked and (res["failed"] or not res["correct"]))):
                problems.append(f"{w} trace {trace}: {res['failed']} of {res['attempted']} ops failed")
    a, _ = run("fuzz", 7, 0)
    b, _ = run("fuzz", 7, 0)
    c, _ = run("fuzz", 8, 0)
    for prefix in ("schedule digest", "virtual digest"):
        if grab(a, prefix) is None or grab(a, prefix) != grab(b, prefix):
            problems.append(f"fuzz seed 7 twice: {prefix} {grab(a, prefix)} vs {grab(b, prefix)}")
    if grab(a, "schedule digest") == grab(c, "schedule digest"):
        problems.append("fuzz seeds 7 and 8 drew the same schedules")
    for p in problems:
        print("FAIL " + p)
    print("selftest " + ("failed" if problems else "passed"))
    return 1 if problems else 0


if __name__ == "__main__":
    main()
