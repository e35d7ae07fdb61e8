"""Fresh-interpreter probes started by run.py.

    probe.py setup WORKLOAD SEED WORKDIR   import and finish one warm-up target
    probe.py import                        print the ms a fresh `import qforge.cli` takes
    probe.py trace-cli SPANS -- ARGS...    run `qforge ARGS` with every layer traced

Only the standard library is imported before the part being measured.
"""

import os
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))


def setup(workload: str, seed: int, workdir: Path) -> None:
    if workload == "cli_pipeline":
        import qforge.cli

        import workloads

        target = next(t for t in workloads.make_rounds(workload, seed)[0] if "family" in t)
        workdir.mkdir(parents=True, exist_ok=True)
        os.chdir(workdir)
        for _, args in workloads.pipeline_steps(target):
            qforge.cli.cli.main(args, prog_name="qforge", standalone_mode=False)
        return
    import qforge  # noqa: F401

    import workloads

    target = workloads.make_rounds(workload, seed, targets=1)[0][0]
    op = workloads.run_mixed if workload == "mixed_targets" else workloads.run_chain
    op(target)


def main(argv: list[str]) -> int:
    mode = argv[0]
    if mode == "import":
        t0 = time.perf_counter()
        import qforge.cli  # noqa: F401

        print(f"{(time.perf_counter() - t0) * 1e3!r}")
    elif mode == "setup":
        setup(argv[1], int(argv[2]), Path(argv[3]))
    elif mode == "trace-cli":
        import tracer

        tracer.run_traced_cli(argv[1], argv[3:])
    else:
        print(f"unknown probe mode {mode!r}", file=sys.stderr)
        return 2
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
