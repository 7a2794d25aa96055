"""One cold op in a fresh interpreter: the set-up a user pays on every run.

Usage: python3 bench/cold.py WORKLOAD SEED

Times ``import nilbch``, building the op list and running its first op in
sorted order, so that every seed times the same command (in
``catalog-matrix`` only its matrix seed differs), then prints one JSON
object with ``setup_s`` and the op's argv, exit code and stdout, so the
caller can check the cold output like a warm one.
"""

import time

START = time.perf_counter()

import json  # noqa: E402
import os  # noqa: E402
import sys  # noqa: E402

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
sys.path.insert(0, os.path.join(ROOT, "src"))


def main() -> None:
    import nilbch.cli
    from workloads import build_ops, run_op

    argv = min(build_ops(sys.argv[1], int(sys.argv[2])))
    code, stdout, _ = run_op(nilbch.cli, argv)
    setup_s = time.perf_counter() - START
    print(json.dumps({"setup_s": setup_s, "argv": argv, "code": code, "stdout": stdout}))


if __name__ == "__main__":
    main()
