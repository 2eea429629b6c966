"""CLI: sanitize an application script or run the seeded-bug corpus.

Usage::

    python -m repro.sanitizer examples/quickstart.py   # sanitize a script
    python -m repro.sanitizer quickstart               # resolve by example name
    python -m repro.sanitizer --corpus                 # full negative corpus
    python -m repro.sanitizer --corpus stale-simdmask  # one case
    python -m repro.sanitizer --list                   # what can be run

The script form works ``compute-sanitizer``-style: a process-wide
:class:`~repro.sanitizer.SanitizerSession` is activated, the unmodified
script runs under ``runpy``, and every kernel launch it performs is
sanitized in report mode.  Exit status is 0 when every report is clean
(corpus: when every planted bug is caught), 1 otherwise.
"""

from __future__ import annotations

import argparse
import contextlib
import io
import json
import os
import runpy
import sys


def _resolve_script(target: str) -> str:
    """Accept a path, or a bare example name like ``quickstart``."""
    if os.path.exists(target):
        return target
    root = os.path.dirname(os.path.dirname(os.path.dirname(os.path.dirname(
        os.path.abspath(__file__)))))
    for candidate in (
        os.path.join(root, "examples", target),
        os.path.join(root, "examples", target + ".py"),
    ):
        if os.path.exists(candidate):
            return candidate
    raise SystemExit(f"error: no such script or example: {target!r}")


def _run_script(path: str, as_json: bool, quiet: bool, workers=None) -> int:
    from repro import sanitizer

    if workers:
        from repro.exec import ParallelExecutor, set_default_executor

        set_default_executor(ParallelExecutor(workers=workers))
    sess = sanitizer.activate(label=os.path.basename(path))
    try:
        stdout = io.StringIO() if quiet else sys.stdout
        with contextlib.redirect_stdout(stdout):
            runpy.run_path(path, run_name="__main__")
    finally:
        sanitizer.deactivate()
        if workers:
            from repro.exec import set_default_executor

            set_default_executor(None)
    if as_json:
        print(json.dumps(sess.to_dict(), indent=2, sort_keys=True))
    else:
        print(sess.text())
    return 0 if sess.clean else 1


def _run_corpus(name, as_json: bool, workers=None) -> int:
    from repro.sanitizer import corpus

    if name:
        try:
            cases = [corpus.by_name(name)]
        except KeyError as exc:
            raise SystemExit(f"error: {exc.args[0]}")
    else:
        cases = corpus.CASES
    results = [case.run(workers=workers) for case in cases]
    if as_json:
        print(json.dumps(
            [{"name": r.name, "caught": r.caught,
              "expect": list(r.expect), "got": r.got} for r in results],
            indent=2, sort_keys=True))
    else:
        for r in results:
            print(r.describe())
        caught = sum(r.caught for r in results)
        print(f"corpus: {caught}/{len(results)} planted bug(s) caught")
    return 0 if all(r.caught for r in results) else 1


def _list_targets() -> int:
    from repro.sanitizer import corpus

    root = os.path.dirname(os.path.dirname(os.path.dirname(os.path.dirname(
        os.path.abspath(__file__)))))
    exdir = os.path.join(root, "examples")
    print("examples (run with: python -m repro.sanitizer <name>):")
    if os.path.isdir(exdir):
        for fn in sorted(os.listdir(exdir)):
            if fn.endswith(".py"):
                print(f"  {fn[:-3]}")
    print("corpus cases (run with: python -m repro.sanitizer --corpus <name>):")
    for case in corpus.CASES:
        print(f"  {case.name:26s} {case.description}")
    return 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="python -m repro.sanitizer",
        description="GPU correctness sanitizer for repro applications",
    )
    parser.add_argument("target", nargs="?",
                        help="script path or example name to sanitize")
    parser.add_argument("--corpus", nargs="?", const="", metavar="CASE",
                        default=None,
                        help="run the seeded-bug corpus (optionally one case)")
    parser.add_argument("--list", action="store_true",
                        help="list runnable examples and corpus cases")
    parser.add_argument("--json", action="store_true",
                        help="emit the report as JSON")
    parser.add_argument("--quiet", action="store_true",
                        help="suppress the target script's own stdout")
    parser.add_argument("--workers", type=int, default=None, metavar="N",
                        help="run launches through the parallel block "
                             "executor with N workers (DPOR schedule "
                             "exploration stays sequential)")
    args = parser.parse_args(argv)

    if args.list:
        return _list_targets()
    if args.corpus is not None:
        return _run_corpus(args.corpus or None, args.json, workers=args.workers)
    if not args.target:
        parser.error("give a script/example to sanitize, --corpus, or --list")
    return _run_script(_resolve_script(args.target), args.json, args.quiet,
                       workers=args.workers)


if __name__ == "__main__":
    sys.exit(main())
