"""``python -m repro.fuzz`` — seeded campaigns, replay, minimize.

Every failure is a one-line deterministic repro::

    python -m repro.fuzz campaign --count 1000 --seed 2023
    python -m repro.fuzz replay --seed 2042          # re-run one program
    python -m repro.fuzz replay --plan repro.json    # re-run a saved plan
    python -m repro.fuzz minimize --plan repro.json  # shrink a failure

``campaign`` exits nonzero on any mismatch; with ``--artifacts DIR`` it
writes ``campaign.json`` (exploration statistics + failing seeds) and,
per failure, ``repro-<seed>.json`` — the *minimized* plan plus the
mismatch list — which CI uploads on failure.  ``--smoke`` trims the leg
matrix to the two engines serial-only for the per-PR slice.
"""

from __future__ import annotations

import argparse
import json
import os
import sys

from repro.fuzz.generate import (
    CAMPAIGN_SEED,
    plan_from_dict,
    plan_from_seed,
)
from repro.fuzz.harness import default_legs, run_campaign, run_program
from repro.fuzz.minimize import minimize, shrink_summary


def _result_payload(result) -> dict:
    return {
        "seed": result.plan.seed,
        "plan": result.plan.to_dict(),
        "mismatches": [m.describe() for m in result.mismatches],
        "legs": [leg.leg for leg in result.legs],
    }


def _minimized_payload(result, smoke: bool) -> dict:
    legs = default_legs(smoke=smoke)

    def failing(p):
        return not run_program(p, legs=legs).ok

    payload = _result_payload(result)
    try:
        small = minimize(result.plan, failing)
        payload["minimized_plan"] = small.to_dict()
        payload["shrink"] = shrink_summary(result.plan, small)
    except ValueError:
        # Flaky under re-run: report the original plan untouched.
        payload["minimized_plan"] = None
        payload["shrink"] = "failure did not reproduce under minimization"
    return payload


def cmd_campaign(argv) -> int:
    ap = argparse.ArgumentParser(prog="repro.fuzz campaign")
    ap.add_argument("--count", type=int, default=100,
                    help="programs to run (seeds seed..seed+count-1)")
    ap.add_argument("--seed", type=int, default=CAMPAIGN_SEED,
                    help=f"first seed (default {CAMPAIGN_SEED}, the "
                         "documented campaign seed)")
    ap.add_argument("--smoke", action="store_true",
                    help="engine-only serial legs (per-PR CI slice)")
    ap.add_argument("--max-seconds", type=float, default=None,
                    help="wall-clock budget for the campaign")
    ap.add_argument("--stop-on-failure", action="store_true")
    ap.add_argument("--artifacts", default=None,
                    help="directory for campaign.json + repro-<seed>.json")
    ap.add_argument("--progress-every", type=int, default=100)
    args = ap.parse_args(argv)

    def progress(i, result):
        if (i + 1) % args.progress_every == 0 or not result.ok:
            status = "ok" if result.ok else "FAIL"
            print(f"[{i + 1}/{args.count}] seed {result.plan.seed}: {status}",
                  flush=True)

    campaign = run_campaign(
        args.count, args.seed, smoke=args.smoke,
        max_seconds=args.max_seconds, stop_on_failure=args.stop_on_failure,
        progress=progress,
    )
    print(campaign.describe())
    for failure in campaign.failures:
        print(f"  replay: python -m repro.fuzz replay --seed "
              f"{failure.plan.seed}" + (" --smoke" if args.smoke else ""))
        for m in failure.mismatches[:8]:
            print(f"    {m.describe()}")

    if args.artifacts:
        os.makedirs(args.artifacts, exist_ok=True)
        summary = {
            "seed": args.seed,
            "count": args.count,
            "programs": campaign.programs,
            "ok": campaign.ok,
            "wall_seconds": campaign.wall_seconds,
            "stop_reason": campaign.stop_reason,
            "failing_seeds": [f.plan.seed for f in campaign.failures],
        }
        with open(os.path.join(args.artifacts, "campaign.json"), "w") as fh:
            json.dump(summary, fh, indent=2, sort_keys=True)
        for failure in campaign.failures:
            payload = _minimized_payload(failure, args.smoke)
            path = os.path.join(
                args.artifacts, f"repro-{failure.plan.seed}.json")
            with open(path, "w") as fh:
                json.dump(payload, fh, indent=2, sort_keys=True)
            print(f"  minimized repro written: {path}")
    return 0 if campaign.ok else 1


def _load_plan(args):
    if args.plan:
        with open(args.plan) as fh:
            data = json.load(fh)
        return plan_from_dict(data.get("minimized_plan") or data.get("plan") or data)
    if args.seed is None:
        raise SystemExit("pass --seed or --plan")
    return plan_from_seed(args.seed)


def cmd_replay(argv) -> int:
    ap = argparse.ArgumentParser(prog="repro.fuzz replay")
    ap.add_argument("--seed", type=int, default=None)
    ap.add_argument("--plan", default=None, help="plan/repro JSON file")
    ap.add_argument("--smoke", action="store_true")
    args = ap.parse_args(argv)
    plan = _load_plan(args)
    print(plan.describe())
    result = run_program(plan, legs=default_legs(smoke=args.smoke))
    if result.ok:
        print(f"PASS across {len(result.legs)} leg(s)")
        return 0
    print(f"FAIL: {len(result.mismatches)} mismatch(es)")
    for m in result.mismatches:
        print(f"  {m.describe()}")
    return 1


def cmd_minimize(argv) -> int:
    ap = argparse.ArgumentParser(prog="repro.fuzz minimize")
    ap.add_argument("--seed", type=int, default=None)
    ap.add_argument("--plan", default=None)
    ap.add_argument("--smoke", action="store_true")
    ap.add_argument("--out", default=None, help="write minimized plan JSON")
    args = ap.parse_args(argv)
    plan = _load_plan(args)
    legs = default_legs(smoke=args.smoke)

    def failing(p):
        return not run_program(p, legs=legs).ok

    if not failing(plan):
        print("plan passes the matrix; nothing to minimize")
        return 0
    small = minimize(plan, failing)
    print(shrink_summary(plan, small))
    print("minimized:", small.describe())
    if args.out:
        with open(args.out, "w") as fh:
            json.dump({"plan": small.to_dict()}, fh, indent=2, sort_keys=True)
        print("written:", args.out)
    return 1  # the input was a real failure


def main(argv=None) -> int:
    argv = list(sys.argv[1:] if argv is None else argv)
    commands = {"campaign": cmd_campaign, "replay": cmd_replay,
                "minimize": cmd_minimize}
    if not argv or argv[0] not in commands:
        print(__doc__)
        return 2
    return commands[argv[0]](argv[1:])


if __name__ == "__main__":
    raise SystemExit(main())
