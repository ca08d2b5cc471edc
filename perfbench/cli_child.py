"""Run one gitcurves command the way `python -m gitcurves.cli` does, timing it from inside.

    PYTHONPATH=src python3 perfbench/cli_child.py classify --in fixtures/bridge-length-1.json --json

Standard output and the exit code are the command's own.  The last line of
standard error is a JSON object: `import_ms` (a fresh `import gitcurves.cli`),
`command_ms` (`main()`), and for `paper-check` also `paperchecks_ms` (the
`run_paper_check` call bound in the cli module) and `items`.
"""

import json
import sys
import time


def main() -> int:
    t0 = time.perf_counter()
    import gitcurves.cli as cli

    timings = {"import_ms": (time.perf_counter() - t0) * 1e3}
    run_paper_check = cli.run_paper_check

    def timed_paper_check(*args, **kwargs):
        start = time.perf_counter()
        manifest = run_paper_check(*args, **kwargs)
        timings["paperchecks_ms"] = (time.perf_counter() - start) * 1e3
        timings["items"] = len(manifest["items"])
        return manifest

    cli.run_paper_check = timed_paper_check
    start = time.perf_counter()
    code = cli.main(sys.argv[1:])
    timings["command_ms"] = (time.perf_counter() - start) * 1e3
    sys.stdout.flush()
    print(json.dumps(timings), file=sys.stderr)
    return code


if __name__ == "__main__":
    raise SystemExit(main())
