#!/usr/bin/env python3
"""A mutation census of the run path: which decisions in `src/iamac_sim` no
check depends on.

    python3 scripts/mutants.py record [--workers N]
    python3 scripts/mutants.py check [--workers N]
    python3 scripts/mutants.py list

Each mutant changes one decision in one module of `MODULES`, by one of two
operator classes:
- a comparison operator swapped with its neighbour (`<` and `<=`, `>` and
  `>=`, `==` and `!=`, `is` and `is not`, `in` and `not in`), one operator of
  a chained comparison at a time;
- the test of an `if`, a `while` or a conditional expression forced to `True`
  and to `False`.

A mutant is killed when the byte-identity subset `tests/test_digest.py`
fails, else when tier-1 (`pytest -x` over the rest) fails, or when either
runs past its timeout. Every run takes a fresh copy of the tree, in which the
mutant is the only change; no byte code is written or read.

A survivor is a guard to delete, a missing test, or an equivalence to write
down. `scripts/mutants.json` lists each by its module, enclosing function,
source text and mutation (and `n`, the text's place among equal ones in that
function), with a `kind` from `KINDS` and a `why`. `record` rewrites it,
keeping the kind and reason of each survivor it already lists; a new survivor
is written as "unclassified", which `tests/test_mutants.py` refuses. `check`
recomputes the survivors and exits 1 if they differ from the file. `list`
prints every mutant and runs none.
"""

import argparse
import ast
import json
import os
import queue
import shutil
import signal
import subprocess
import sys
import tempfile
import threading
import time
from concurrent.futures import ThreadPoolExecutor
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
PACKAGE = Path("src") / "iamac_sim"
SURVIVORS = ROOT / "scripts" / "mutants.json"
MODULES = ("medium", "mac_smac", "mac_iamac", "simulation", "recovery", "metrics",
           "engine", "routing")
KINDS = {
    "equivalent": "no input tells the mutant from the original; the test at most spares work",
    "tie": "the two differ only at an exact float tie or at one instant "
           "(ROADMAP items 14 and 18)",
    "item3": "the two differ only through a known defect that a stage of ROADMAP item 3 fixes",
    "untested": "a valid input tells the two apart, but no check pins it: a test to write",
}
SWAPS = {ast.Lt: ast.LtE, ast.LtE: ast.Lt, ast.Gt: ast.GtE, ast.GtE: ast.Gt,
         ast.Eq: ast.NotEq, ast.NotEq: ast.Eq, ast.Is: ast.IsNot, ast.IsNot: ast.Is,
         ast.In: ast.NotIn, ast.NotIn: ast.In}
OPS = {ast.Lt: "<", ast.LtE: "<=", ast.Gt: ">", ast.GtE: ">=", ast.Eq: "==", ast.NotEq: "!=",
       ast.Is: "is", ast.IsNot: "is not", ast.In: "in", ast.NotIn: "not in"}
DIGEST_TESTS = "tests/test_digest.py"
# the census's own tier-1 check reads the survivors' source text, which a
# mutant changes
OWN_TEST = "tests/test_mutants.py"
PYTEST = [sys.executable, "-m", "pytest", "-x", "-q", "-p", "no:cacheprovider",
          "--hypothesis-seed=0"]
COMMANDS = (("digest", PYTEST + [DIGEST_TESTS]),
            ("tier1", PYTEST + ["--continue-on-collection-errors", "--ignore", DIGEST_TESTS,
                                "--ignore", OWN_TEST]))
MEMORY_LIMIT = 3 << 30          # address space per kill command, in bytes
COPY_IGNORE = shutil.ignore_patterns(".git", "__pycache__", ".hypothesis", ".pytest_cache",
                                     "out")


class _Sites(ast.NodeVisitor):
    """Every mutant of one module, in source order, as `(key, lo, hi,
    replacement)`: the UTF-8 byte span `[lo, hi)` of the source and the text
    that takes its place."""

    def __init__(self, module, source):
        self.module = module
        self.raw = source.encode()
        self.starts = [0]
        for line in self.raw.splitlines(keepends=True):
            self.starts.append(self.starts[-1] + len(line))
        self.scope = []
        self.seen = {}
        self.found = []

    def _add(self, node, mutation, replacement):
        # ast column offsets count UTF-8 bytes
        lo = self.starts[node.lineno - 1] + node.col_offset
        hi = self.starts[node.end_lineno - 1] + node.end_col_offset
        text = self.raw[lo:hi].decode()
        if replacement == text:
            return
        where = ".".join(self.scope) or "<module>"
        base = (where, text, mutation)
        n = self.seen.get(base, 0)
        self.seen[base] = n + 1
        key = {"module": f"{self.module}.py", "where": where, "text": text,
               "mutation": mutation, "n": n}
        self.found.append((key, lo, hi, replacement))

    def _scoped(self, node):
        self.scope.append(node.name)
        self.generic_visit(node)
        self.scope.pop()

    visit_ClassDef = visit_FunctionDef = visit_AsyncFunctionDef = _scoped

    def visit_Compare(self, node):
        for i, op in enumerate(node.ops):
            new = SWAPS.get(type(op))
            if new is None:
                continue
            ops = list(node.ops)
            ops[i] = new()
            swapped = ast.Compare(left=node.left, ops=ops, comparators=node.comparators)
            label = f"`{OPS[type(op)]}` to `{OPS[new]}`"
            if len(node.ops) > 1:
                label += f" (operator {i + 1})"
            self._add(node, label, f"({ast.unparse(swapped)})")
        self.generic_visit(node)

    def _test(self, node, what):
        for value in ("True", "False"):
            self._add(node.test, f"{what} forced {value}", value)
        self.generic_visit(node)

    def visit_If(self, node):
        self._test(node, "if")

    def visit_While(self, node):
        self._test(node, "while")

    def visit_IfExp(self, node):
        self._test(node, "ternary")


def mutants():
    """Every mutant of every module in `MODULES`, as `(key, path, mutate)`:
    `path` is the module's path from the repository root, and `mutate()`
    returns its mutated source."""
    out = []
    for module in MODULES:
        path = PACKAGE / f"{module}.py"
        source = (ROOT / path).read_text()
        sites = _Sites(module, source)
        sites.visit(ast.parse(source))
        for key, lo, hi, replacement in sites.found:
            out.append((key, path, lambda raw=sites.raw, lo=lo, hi=hi, r=replacement:
                        (raw[:lo] + r.encode() + raw[hi:]).decode()))
    return out


def key_id(key):
    return (key["module"], key["where"], key["text"], key["mutation"], key["n"])


def _passes(cmd, cwd, timeout):
    """Whether `cmd` passes in `cwd` within `timeout` seconds."""
    shutil.rmtree(cwd / ".hypothesis", ignore_errors=True)
    env = dict(os.environ, PYTHONPATH=str(cwd / "src"), PYTHONDONTWRITEBYTECODE="1",
               PYTHONHASHSEED="0", OPENBLAS_NUM_THREADS="1", OMP_NUM_THREADS="1")
    # the shell caps the address space: a `preexec_fn` is unsafe in a
    # process with threads
    limited = ["sh", "-c", f'ulimit -v {MEMORY_LIMIT // 1024} && exec "$@"', "sh", *cmd]
    proc = subprocess.Popen(limited, cwd=cwd, env=env, stdout=subprocess.DEVNULL,
                            stderr=subprocess.DEVNULL, start_new_session=True)
    try:
        return proc.wait(timeout) == 0
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.wait()
        return False


def census(workers):
    """`(mutant count, kills per command, survivor keys)`: each mutant runs in
    one of `workers` copies of the tree."""
    todo = mutants()
    jobs = queue.Queue()
    for job in todo:
        jobs.put(job)
    kills = {name: 0 for name, _ in COMMANDS}
    survivors = []
    lock = threading.Lock()
    done = [0]
    started = time.monotonic()
    with tempfile.TemporaryDirectory(prefix="mutants-") as workdir:
        trees = [shutil.copytree(ROOT, Path(workdir) / f"tree-{i}", ignore=COPY_IGNORE)
                 for i in range(workers)]
        # a timeout is three times the unmutated command's time, plus a minute
        timeouts = {}
        for name, cmd in COMMANDS:
            t0 = time.monotonic()
            if not _passes(cmd, trees[0], None):
                sys.exit(f"the unmutated tree fails its {name} command: {' '.join(cmd)}")
            timeouts[name] = 3 * (time.monotonic() - t0) + 60

        def work(tree):
            while True:
                try:
                    key, path, mutate = jobs.get_nowait()
                except queue.Empty:
                    return
                target = tree / path
                original = target.read_text()
                mutated = mutate()
                compile(mutated, str(path), "exec")
                target.write_text(mutated)
                try:
                    killer = next((name for name, cmd in COMMANDS
                                   if not _passes(cmd, tree, timeouts[name])), None)
                finally:
                    target.write_text(original)
                with lock:
                    done[0] += 1
                    if killer is None:
                        survivors.append(key)
                    else:
                        kills[killer] += 1
                    print(f"[{done[0]}/{len(todo)} {time.monotonic() - started:.0f} s] "
                          f"{killer or 'SURVIVED'}: {key['module']} {key['where']} "
                          f"`{key['text']}` {key['mutation']}", flush=True)

        with ThreadPoolExecutor(max_workers=workers) as pool:
            # reading each result raises what a worker raised
            list(pool.map(work, trees))
    order = {key_id(key): i for i, (key, _, _) in enumerate(todo)}
    survivors.sort(key=lambda key: order[key_id(key)])
    return len(todo), kills, survivors


def write(count, kills, survivors, old):
    kept = {key_id(entry): entry for entry in old.get("survivors", [])}
    entries = []
    for key in survivors:
        was = kept.get(key_id(key), {})
        entries.append({**key, "kind": was.get("kind", "unclassified"),
                        "why": was.get("why", "")})
    head = {"modules": list(MODULES), "mutants": count, "killed": kills}
    # one survivor per line, so a re-record diffs survivor by survivor
    lines = [f" {json.dumps(k)}: {json.dumps(v)}," for k, v in head.items()]
    body = ",\n".join(f"  {json.dumps(entry)}" for entry in entries)
    SURVIVORS.write_text("{\n" + "\n".join(lines) + '\n "survivors": [\n' + body + "\n ]\n}\n")


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("command", choices=["record", "check", "list"])
    ap.add_argument("--workers", type=int, default=2)
    args = ap.parse_args(argv)
    if args.workers < 1:
        ap.error("--workers must be >= 1")
    if args.command == "list":
        for key, _, _ in mutants():
            print(f"{key['module']} {key['where']} `{key['text']}` {key['mutation']}")
        return 0
    count, kills, survivors = census(args.workers)
    old = json.loads(SURVIVORS.read_text()) if SURVIVORS.exists() else {}
    print(f"{count} mutants: killed {kills}, {len(survivors)} survive")
    if args.command == "record":
        write(count, kills, survivors, old)
        print(f"recorded {len(survivors)} survivors in {SURVIVORS}")
        return 0
    was = {key_id(entry) for entry in old.get("survivors", [])}
    now = {key_id(key) for key in survivors}
    for ident in sorted(now - was):
        print(f"new survivor: {ident}")
    for ident in sorted(was - now):
        print(f"no longer survives: {ident}")
    moved = (now != was or count != old.get("mutants") or kills != old.get("killed"))
    return 1 if moved else 0


if __name__ == "__main__":
    sys.exit(main())
