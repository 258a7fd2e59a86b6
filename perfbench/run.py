"""Entry point of the robbins benchmark.  Run it from the root of a checkout:

    python3 perfbench/run.py --workload table-levelset --seed 42 --seconds 30 --trace 0
    python3 perfbench/run.py --workload all --seed 42 --seconds 30
    python3 perfbench/run.py --reproduce

The package is imported from the checkout's own src/ and from nowhere else;
without it the benchmark exits with an error and prints no result.  See
perfbench/README.md for the workloads and metrics.
"""

import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
SRC = HERE.parent / "src"


def load_program():
    """Put the checkout's src/ and this directory on sys.path and import
    robbins from there; exit with an error when it is missing."""
    package = SRC / "robbins"
    if not (package / "__init__.py").is_file():
        sys.exit(f"error: no package at {package}: run from the root of a checkout "
                 "of the repository")
    for path in (str(HERE), str(SRC)):
        if path not in sys.path:
            sys.path.insert(0, path)
    import robbins
    if Path(robbins.__file__).resolve().parent != package.resolve():
        sys.exit(f"error: robbins was imported from {robbins.__file__}, not {package}")


def main(argv=None) -> int:
    load_program()
    import bench
    return bench.main(argv)


if __name__ == "__main__":
    sys.exit(main())
