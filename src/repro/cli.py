"""Command-line interface.

::

    python -m repro list                         # available experiments
    python -m repro run fig5 --scale 0.5         # run one, print the figure
    python -m repro run all --jobs 4             # the whole evaluation, parallel
    python -m repro run fig5 --trace out.json    # ... with a Perfetto trace
    python -m repro platform my_platform.json    # simulate a config file
    python -m repro sweep my_sweep.json --jobs 4 # design-space sweep file
    python -m repro dse my_dse.json --jobs 4     # Pareto search over a space
    python -m repro trace fig5                   # lifecycle trace + hop table
    python -m repro stats fig6 --json out.json   # flat metric dump
    python -m repro stats fig5 --energy          # + per-component energy
    python -m repro stats my_platform.json --energy  # config files work too
    python -m repro protocols                    # bus-protocol registry table
    python -m repro protocols --plan axi apb     # derived bridge conversion plan
    python -m repro bench                        # kernel perf -> BENCH_kernel.json
    python -m repro check fig5 --strict          # run under invariant monitors
    python -m repro check my_platform.json --diff # + fast-vs-reference diff

Each experiment prints the paper-style report and the outcome of its shape
checks; the process exits non-zero if any claim fails, so the CLI is
usable in CI.  ``trace``/``stats`` (and the ``--trace`` flag) run the
experiment under an observability capture — see ``docs/OBSERVABILITY.md``.
``--jobs``/``sweep`` fan independent configurations out across worker
processes with on-disk result caching — see ``docs/PERFORMANCE.md``.
"""

from __future__ import annotations

import argparse
import os
import sys
from typing import Callable, Dict, List, Optional, Tuple

from . import experiments
from .analysis import format_table

#: name -> (description, runner(scale) -> (data, report_text, failures))
Registry = Dict[str, Tuple[str, Callable]]


def _wrap(module, suffix: str = "", sizing=None):
    """Registry runner for ``module``'s ``run/report/check<suffix>``.

    ``sizing`` is ``(keyword, floor, per_unit_scale)`` for the studies
    sized by a count rather than by ``traffic_scale``.
    """
    def runner(scale: float, jobs: Optional[int] = None):
        if sizing is None:
            size = {"traffic_scale": scale}
        else:
            keyword, floor, per_scale = sizing
            size = {keyword: max(floor, int(per_scale * scale))}
        data = getattr(module, "run" + suffix)(jobs=jobs, **size)
        return (data, getattr(module, "report" + suffix)(data),
                getattr(module, "check" + suffix)(data))
    return runner


def registry() -> Registry:
    return {
        "s411": ("Section 4.1.1 — many-to-many single layer",
                 _wrap(experiments.single_layer, "_many_to_many",
                       ("transactions", 8, 50))),
        "s412": ("Section 4.1.2 — many-to-one single layer",
                 _wrap(experiments.single_layer, "_many_to_one",
                       ("transactions", 8, 60))),
        "fig3": ("Fig. 3 — platform instances, on-chip memory",
                 _wrap(experiments.fig3_platform_instances)),
        "fig4": ("Fig. 4 — distributed vs centralized vs memory speed",
                 _wrap(experiments.fig4_memory_speed)),
        "fig5": ("Fig. 5 — platform instances with LMI + DDR",
                 _wrap(experiments.fig5_lmi_platforms)),
        "fig6": ("Fig. 6 — LMI bus-interface statistics",
                 _wrap(experiments.fig6_lmi_statistics)),
        "ablations": ("Section 6 — guideline ablations",
                      _wrap(experiments.ablations)),
        "arbitration": ("Extension — arbitration policy study",
                        _wrap(experiments.arbitration_study,
                              sizing=("transactions", 8, 40))),
        "segmentation": ("Extension — path segmentation (guideline 5)",
                         _wrap(experiments.path_segmentation,
                               sizing=("transactions", 8, 20))),
        "io_qos": ("Extension — display QoS under DMA contention "
                   "(guideline 4)",
                   _wrap(experiments.io_qos, sizing=("lines", 10, 40))),
        "crossbar_dse": ("Extension — application-specific crossbar "
                         "choice via Pareto search",
                         _wrap(experiments.crossbar_dse)),
    }


def cmd_list(_args) -> int:
    rows = [[name, description] for name, (description, __)
            in registry().items()]
    print(format_table(["experiment", "reproduces"], rows))
    return 0


def cmd_run(args) -> int:
    table = registry()
    names = list(table) if args.experiment == "all" else [args.experiment]
    unknown = [n for n in names if n not in table]
    if unknown:
        print(f"unknown experiment(s): {unknown}; try 'list'",
              file=sys.stderr)
        return 2
    if getattr(args, "trace", None) and (args.jobs or 0) > 1:
        print("note: --trace captures only in-process simulators; "
              "running serially", file=sys.stderr)
    session = _start_capture(args)
    status = 0
    # finally: even when a runner raises, the ambient capture hook must
    # be uninstalled (it is process-wide) and the trace file written.
    try:
        for name in names:
            description, runner = table[name]
            print(f"\n### {name}: {description}\n")
            __, report, failures = runner(args.scale, args.jobs)
            print(report)
            if failures:
                status = 1
                print("\nFAILED shape claims:")
                for failure in failures:
                    print(f"  - {failure}")
            else:
                print("\nall shape claims hold")
    finally:
        _finish_capture(args, session)
    return status


def cmd_platform(args) -> int:
    from .platforms.loader import load_config
    from .sweep import Run

    config = load_config(args.config)
    if args.mode:
        config = config.scaled(resolution=args.mode)
    session = _start_capture(args)
    # finally: a failing run must still uninstall the process-wide
    # capture hook and write the trace collected so far.
    try:
        max_ps = int(args.max_us * 1_000_000)
        if args.checkpoint_every:
            from .snapshot import run_with_checkpoints

            result, saved = run_with_checkpoints(
                config, every_ps=int(args.checkpoint_every * 1_000_000),
                out_dir=args.checkpoint_dir, max_ps=max_ps)
            for path in saved:
                print(f"checkpoint: {path}")
        else:
            result = Run(config, max_ps).finish().result
    finally:
        _finish_capture(args, session)
    print(f"platform:        {config.label()}")
    print(f"resolution:      {config.resolution}")
    print(f"execution time:  {result.execution_time_ps / 1_000_000:.3f} us")
    print(f"transactions:    {result.transactions}")
    print(f"bytes:           {result.bytes_transferred}")
    print(f"throughput:      {result.throughput_bytes_per_ns:.3f} B/ns")
    if result.energy_total_pj:
        print(f"energy:          {result.energy_total_pj:.1f} pJ "
              f"({result.pj_per_byte:.3f} pJ/B)")
    for key, value in sorted(result.extra.items()):
        print(f"{key + ':':<17}{value:.2f}")
    if args.csv:
        from .analysis import results_to_csv

        results_to_csv(args.csv, [result])
        print(f"\nwrote {args.csv}")
    return 0


def _start_capture(args):
    """Enter an observability capture when ``--trace PATH`` was given."""
    if not getattr(args, "trace", None):
        return None
    from .obs import capture

    manager = capture()
    return manager, manager.__enter__()


def _finish_capture(args, session) -> None:
    """Close the capture and write the Perfetto trace file."""
    if session is None:
        return
    manager, cap = session
    manager.__exit__(None, None, None)
    span_count = cap.write_trace(args.trace)
    print(f"\nwrote {span_count} spans "
          f"({len(cap.completed())} completed transactions) to {args.trace}")


def cmd_trace(args) -> int:
    table = registry()
    if args.experiment not in table:
        print(f"unknown experiment {args.experiment!r}; try 'list'",
              file=sys.stderr)
        return 2
    from .obs import capture

    description, runner = table[args.experiment]
    print(f"### {args.experiment}: {description} (tracing)\n")
    with capture() as cap:
        runner(args.scale)
    out = args.out or f"trace_{args.experiment}.json"
    span_count = cap.write_trace(out)
    completed = len(cap.completed())
    print(f"captured {len(cap.transactions())} transactions "
          f"({completed} completed) across {len(cap.recorders)} simulator(s)")
    print(f"wrote {span_count} spans to {out} "
          f"(load in ui.perfetto.dev or chrome://tracing)\n")
    print(cap.format_summary())
    return 0


def _energy_report(cap) -> str:
    """Aggregate energy breakdown across a capture's accountants.

    Per-component rows are the conserving ledger (they sum to the total);
    the initiator view only covers requester-attributable charges, so it
    is reported without shares.  ``pJ/byte`` divides by the completed
    payload bytes — zero-traffic runs report 0.0 rather than dividing.
    """
    components: Dict[str, float] = {}
    initiators: Dict[str, float] = {}
    total_pj = 0.0
    for accountant in cap.accountants:
        if accountant is None:
            continue
        total_pj += accountant.total_pj
        for name, pj in accountant.component_pj().items():
            components[name] = components.get(name, 0.0) + pj
        for name, pj in accountant.initiator_pj().items():
            initiators[name] = initiators.get(name, 0.0) + pj
    total_bytes = sum(txn.beats * txn.beat_bytes for txn in cap.completed())
    lines = ["### energy breakdown\n"]
    comp_rows = [[name, f"{pj:.1f}",
                  f"{100 * pj / total_pj:.1f}%" if total_pj else "-"]
                 for name, pj in sorted(components.items(),
                                        key=lambda kv: -kv[1])]
    lines.append(format_table(["component", "pJ", "share"], comp_rows))
    if initiators:
        init_rows = [[name, f"{pj:.1f}"]
                     for name, pj in sorted(initiators.items(),
                                            key=lambda kv: -kv[1])]
        lines.append("")
        lines.append(format_table(["initiator", "pJ"], init_rows))
    pj_per_byte = total_pj / total_bytes if total_bytes else 0.0
    lines.append(f"\ntotal energy:  {total_pj:.1f} pJ")
    lines.append(f"payload bytes: {total_bytes}")
    lines.append(f"pJ per byte:   {pj_per_byte:.3f}")
    return "\n".join(lines)


def cmd_stats(args) -> int:
    """Metric dump for an experiment name or a platform config JSON."""
    from .obs import capture, metrics_csv, metrics_json, metrics_text

    table = registry()
    if args.target in table:
        description, runner = table[args.target]
        title = f"{args.target}: {description}"
        with capture(energy=args.energy) as cap:
            runner(args.scale)
    else:
        from .platforms.loader import ConfigError, load_config
        from .sweep import Run

        try:
            config = load_config(args.target)
        except (OSError, ConfigError) as exc:
            print(f"error: {args.target!r} is neither an experiment "
                  f"(try 'list') nor a readable platform config: {exc}",
                  file=sys.stderr)
            return 2
        title = config.label()
        with capture(energy=args.energy) as cap:
            Run(config, int(args.max_us * 1_000_000)).finish()
    rows = cap.metrics_snapshot()
    sim_time = max((sim.now for sim in cap.simulators), default=0)
    if args.json:
        with open(args.json, "w", encoding="utf-8") as handle:
            handle.write(metrics_json(rows, sim_time_ps=sim_time,
                                      experiment=args.target))
        print(f"wrote {len(rows)} metric rows to {args.json}")
    if args.csv:
        with open(args.csv, "w", encoding="utf-8") as handle:
            handle.write(metrics_csv(rows))
        print(f"wrote {len(rows)} metric rows to {args.csv}")
    if not args.json and not args.csv:
        print(f"### {title} — {len(rows)} metric rows\n")
        print(metrics_text(rows, prefix=args.prefix))
    if args.energy:
        print()
        print(_energy_report(cap))
    return 0


def cmd_sweep(args) -> int:
    import dataclasses

    from .sweep import load_sweep, sweep

    spec = load_sweep(args.spec)
    jobs = args.jobs if args.jobs is not None else spec.jobs
    # A directory, or None = the default on-disk cache.
    cache = False if args.no_cache else args.cache_dir
    outcomes = sweep(spec.configs, max_ps=spec.max_ps, jobs=jobs,
                     cache=cache, timeout_s=args.timeout)
    results = [dataclasses.replace(outcome.result, label=label)
               for label, outcome in zip(spec.labels, outcomes)]
    # Energy columns appear when any point carried an enabled energy
    # block; points are then comparable by energy-delay product.
    energy_on = any(result.energy_total_pj for result in results)
    rows = []
    for label, outcome, result in zip(spec.labels, outcomes, results):
        row = [label, result.execution_time_ns, result.transactions,
               result.throughput_bytes_per_ns]
        if energy_on:
            row += [f"{result.energy_total_pj:.0f}",
                    f"{result.energy_delay_product:.3e}"]
        row.append("hit" if outcome.cached else "run")
        rows.append(row)
    headers = (["point", "exec (ns)", "transactions", "B/ns"]
               + (["energy (pJ)", "EDP (pJ*ns)"] if energy_on else [])
               + ["cache"])
    print(format_table(headers, rows))
    hits = sum(1 for outcome in outcomes if outcome.cached)
    print(f"\n{len(outcomes)} point(s), {hits} served from cache, "
          f"jobs={jobs or 1}")
    if energy_on:
        best = min(results, key=lambda r: r.energy_delay_product)
        print(f"best energy-delay product: {best.label} "
              f"({best.energy_delay_product:.3e} pJ*ns)")
    if args.csv:
        from .analysis import results_to_csv

        results_to_csv(args.csv, results)
        print(f"wrote {args.csv}")
    return 0


def cmd_dse(args) -> int:
    """Search a declarative design space and print its Pareto front.

    The spec file names the base platform, the axes (topology, protocol,
    arbitration, FIFO depths, LMI lookahead, dotted config paths), the
    objectives and the optimizer knobs — see docs/DSE.md.  The returned
    front is re-checked by an independent verifier before anything is
    printed; a verification failure exits non-zero.
    """
    from .dse import explore, front_csv, front_json, front_table, load_dse

    spec = load_dse(args.spec)
    overrides = {"jobs": args.jobs, "seed": args.seed,
                 "screen": args.screen}
    if args.no_cache:
        overrides["cache"] = False
    try:
        outcome = explore(spec, **overrides)
    except RuntimeError as exc:  # incl. a front that failed its own audit
        print(f"error: {exc}", file=sys.stderr)
        return 1
    print(f"### dse {args.spec} — {outcome.mode} search over "
          f"{outcome.space_size} assignments\n")
    print(front_table(outcome))
    screens = len(outcome.pruned)
    print(f"\n{len(outcome.front)} front member(s) from "
          f"{len(outcome.evaluated)} accurate evaluation(s)"
          + (f"; {screens} candidate(s) pruned from loosely-timed "
             f"screening alone" if screens else "")
          + f"; objectives: {', '.join(outcome.objectives)}")
    print("front verified non-dominated by the independent checker")
    if args.json:
        with open(args.json, "w", encoding="utf-8") as handle:
            handle.write(front_json(outcome))
        print(f"wrote {args.json}")
    if args.csv:
        with open(args.csv, "w", encoding="utf-8") as handle:
            handle.write(front_csv(outcome))
        print(f"wrote {args.csv}")
    return 0


def cmd_check(args) -> int:
    """Run a target under the full invariant-monitor suite.

    The target is an experiment name (``repro check fig5``), a platform
    config JSON or a sweep spec JSON (every point is checked serially).
    ``--diff`` additionally runs config targets through the differential
    harness, comparing the fast-path and reference kernels bit for bit.
    """
    from .check import CheckedRun, checked, format_report

    table = registry()
    violations = []
    mismatches: List[str] = []
    if args.target in table:
        if args.diff:
            print("note: --diff applies to config targets; running the "
                  "experiment under monitors only", file=sys.stderr)
        description, runner = table[args.target]
        print(f"### check {args.target}: {description}\n")
        # Serial on purpose: monitors attach to in-process simulators, and
        # the sweep engine already refuses to fan out or serve cache hits
        # while a construction hook is installed.
        with checked() as session:
            runner(args.scale, 1)
        violations = session.finalize()
        print(f"checked {len(session.checkers)} simulator(s)")
    else:
        from .platforms.loader import ConfigError
        from .sweep import Run, load_target

        try:
            spec = load_target(args.target, int(args.max_us * 1_000_000))
        except ConfigError as exc:
            print(f"error: {args.target!r} is neither an experiment (try "
                  f"'list') nor a valid platform or sweep file: {exc}",
                  file=sys.stderr)
            return 2
        max_ps = spec.max_ps
        for label, config in zip(spec.labels, spec.configs):
            if args.diff:
                outcome = CheckedRun(config, max_ps=max_ps)
                violations.extend(outcome.violations)
                mismatches.extend(f"{label}: {m}"
                                  for m in outcome.mismatches)
                print(f"checked {label}: {outcome.fast_events} events, "
                      f"fast vs reference "
                      f"{'identical' if not outcome.mismatches else 'DIVERGED'}")
            else:
                with checked() as session:
                    done = Run(config, max_ps).finish()
                violations.extend(session.finalize())
                print(f"checked {label}: {done.events} events")
    print()
    if mismatches:
        print("fast path diverged from the reference kernel:")
        for mismatch in mismatches:
            print(f"  {mismatch}")
    print(format_report(violations, limit=args.limit))
    if args.strict and (violations or mismatches):
        return 1
    return 0


def cmd_snapshot(args) -> int:
    """Checkpoint/resume operations and golden-corpus maintenance.

    ``repro snapshot --refresh-golden``       regenerate tests/golden/
    ``repro snapshot --verify-golden``        replay the committed corpus
    ``repro snapshot --summary``              list the committed corpus
    ``repro snapshot take cfg.json [...]``    checkpoint a config mid-run
    ``repro snapshot resume file.ckpt.json``  resume + verify bit-identity
    """
    from .snapshot import (
        corpus_summary,
        load_checkpoint,
        refresh_golden,
        resume_checkpoint,
        save_checkpoint,
        take_checkpoint,
        verify_golden,
    )

    if args.refresh_golden:
        written = refresh_golden(names=args.only or None)
        for path in written:
            print(f"wrote {path}")
        print(f"{len(written)} golden checkpoint(s) refreshed")
        return 0
    if args.verify_golden:
        failures = verify_golden()
        if failures:
            print(f"{len(failures)} golden replay failure(s):")
            for failure in failures:
                print(f"  - {failure}")
            return 1
        print("golden corpus replayed bit-identically")
        return 0
    if args.summary:
        print(corpus_summary())
        return 0
    if args.action and not args.target:
        print(f"error: snapshot {args.action} needs a target file",
              file=sys.stderr)
        return 2
    if args.action == "take":
        from .platforms.loader import load_config

        config = load_config(args.target)
        at_ps = int(args.at_us * 1_000_000) if args.at_us else None
        outcome = take_checkpoint(config, at_ps=at_ps,
                                  fraction=args.fraction,
                                  max_ps=int(args.max_us * 1_000_000))
        path = save_checkpoint(outcome.checkpoint, args.out)
        print(f"checkpoint at {outcome.checkpoint.at_ps}ps "
              f"({outcome.checkpoint.events} events) -> {path}")
        print(f"run finished at {outcome.final_time_ps}ps "
              f"({outcome.final_events} events)")
        return 0
    if args.action == "resume":
        checkpoint = load_checkpoint(args.target)
        outcome = resume_checkpoint(checkpoint)
        print(outcome.format())
        return 0 if outcome.ok else 1
    print("nothing to do: pass take/resume or a --*-golden/--summary flag "
          "(see repro snapshot --help)", file=sys.stderr)
    return 2


def cmd_protocols(args) -> int:
    """Inspect the protocol registry and the derived bridge matrix.

    ``repro protocols``                 registry table
    ``repro protocols --matrix``        every derived conversion plan
    ``repro protocols --plan SRC DST``  one pairing's plan (validated)
    """
    from .bridge.matrix import bridge_matrix, conversion_plan
    from .interconnect.protocols import PROTOCOLS

    if args.plan:
        print(conversion_plan(*args.plan).describe())
        return 0
    if args.matrix:
        matrix = bridge_matrix()
        for key in sorted(matrix):
            print(matrix[key].describe())
        print(f"\n{len(matrix)} derived pairings")
        return 0
    rows = []
    for name in sorted(PROTOCOLS):
        spec = PROTOCOLS[name]
        caps = [flag for flag, on in (
            ("split", spec.split), ("posted", spec.posted_writes),
            ("pipelined", spec.pipelined),
            ("interleave", spec.response_interleave)) if on]
        if spec.max_burst_beats == 1:
            caps.append("single-beat")
        rows.append([name, spec.title, spec.family, spec.engine,
                     spec.platform_key or "-",
                     ",".join(caps) or "-"])
    print(format_table(
        ["protocol", "title", "family", "engine", "platform", "semantics"],
        rows))
    print(f"\n{len(rows)} registered protocols "
          "(see docs/PROTOCOLS.md to add one)")
    return 0


def _service_endpoint(url: str) -> Tuple[str, int]:
    """Split ``--url http://host:port`` into a client endpoint."""
    from urllib.parse import urlsplit

    split = urlsplit(url if "//" in url else f"http://{url}")
    return split.hostname or "127.0.0.1", split.port or 8458


def _service_client(url: str):
    """The client for ``--url http://host:port`` or ``--url unix:PATH``."""
    from .service import ServiceClient, SocketClient

    if url.startswith("unix:"):
        return SocketClient(url[len("unix:"):])
    return ServiceClient(*_service_endpoint(url))


def cmd_serve(args) -> int:
    """Run the simulation job service in the foreground.

    Accepts config/sweep submissions over HTTP (and optionally a local
    socket), shards them across the worker fleet, dedupes through the
    shared sweep cache and streams progress back — see docs/SERVICE.md.
    """
    import asyncio

    from .service import ServiceConfig, ServiceServer

    # A directory, or None = the default on-disk sweep cache.
    cache = False if args.no_cache else args.cache_dir
    server = ServiceServer(ServiceConfig(
        host=args.host, port=args.port, socket_path=args.socket,
        fleet=args.workers, quota_units=args.quota,
        slice_ps=int(args.slice_us * 1_000_000),
        use_processes=args.processes, cache=cache))

    async def _main() -> None:
        await server.start()
        print(f"repro service listening on "
              f"http://{args.host}:{server.port} "
              f"({args.workers} worker(s), quota {args.quota} "
              f"unit(s)/tenant)")
        if args.socket:
            print(f"also listening on unix:{args.socket}")
        await server.run_forever()

    try:
        asyncio.run(_main())
    except KeyboardInterrupt:
        print("\nservice stopped")
    return 0


def cmd_submit(args) -> int:
    """Submit a config/sweep file to a running service."""
    from .platforms.loader import ConfigError, read_document
    from .service import ServiceError
    from .sweep import is_sweep_document

    try:
        document = read_document(args.spec, "submission")
    except ConfigError as exc:
        print(f"error: not a readable JSON file: {exc}", file=sys.stderr)
        return 2
    submission = {"sweep" if is_sweep_document(document) else "config":
                  document}
    submission["tenant"] = args.tenant
    submission["priority"] = args.priority
    if args.max_us is not None:
        submission["max_us"] = args.max_us
    if args.trace:
        submission["trace"] = True
    if args.preemptible:
        submission["preemptible"] = True
    if args.checkpoint_at_us is not None:
        submission["checkpoint_at_us"] = args.checkpoint_at_us

    client = _service_client(args.url)
    try:
        job = client.submit(submission)
        print(f"submitted {job['id']} "
              f"({job['progress']['units']} unit(s), "
              f"priority {job['priority']}, tenant {job['tenant']})")
        if not args.wait:
            return 0
        outcome = client.result(job["id"], wait=True, timeout=args.timeout)
    except ServiceError as exc:
        print(f"error [{exc.kind}]: {exc}", file=sys.stderr)
        return 1
    except OSError as exc:
        print(f"error: cannot reach the service at {args.url}: {exc}",
              file=sys.stderr)
        return 1
    return _print_job_results(outcome)


def _print_job_results(outcome: Dict) -> int:
    rows = []
    for row in outcome["results"]:
        result = row.get("result") or {}
        exec_ns = result.get("execution_time_ps", 0) / 1000
        rows.append([row["label"], row["state"],
                     row.get("cached") or "run",
                     row.get("preemptions", 0),
                     f"{exec_ns:.1f}", result.get("transactions", "-")])
    print(format_table(
        ["unit", "state", "source", "preempts", "exec (ns)", "txns"], rows))
    print(f"\njob {outcome['id']}: {outcome['state']}")
    if outcome.get("error"):
        print(f"error: {outcome['error']}", file=sys.stderr)
    return 0 if outcome["state"] == "done" else 1


def cmd_jobs(args) -> int:
    """Inspect a running service: jobs, results, events, workers."""
    from .service import ServiceError

    client = _service_client(args.url)
    try:
        if args.drain:
            worker = client.drain(args.drain)
            print(f"{worker['name']}: {worker['state']}")
            return 0
        if args.undrain:
            worker = client.undrain(args.undrain)
            print(f"{worker['name']}: {worker['state']}")
            return 0
        if args.workers:
            rows = [[w["name"], w["state"], w["completed"], w["preempted"]]
                    for w in client.workers()]
            print(format_table(
                ["worker", "state", "completed", "preempted"], rows))
            return 0
        if args.job is None:
            rows = [[j["id"], j["tenant"], j["priority"], j["state"],
                     f"{j['progress']['done']}/{j['progress']['units']}"]
                    for j in client.jobs(args.tenant)]
            print(format_table(
                ["job", "tenant", "priority", "state", "done"], rows))
            return 0
        if args.events:
            for event in client.events(args.job, since=args.since):
                detail = {key: value for key, value in event.items()
                          if key not in ("seq", "event", "job")}
                print(f"{event['seq']:>5}  {event['event']:<16} {detail}")
            return 0
        if args.result:
            outcome = client.result(args.job, wait=args.wait,
                                    timeout=args.timeout)
            return _print_job_results(outcome)
        view = client.job(args.job)
        print(f"job {view['id']}: tenant={view['tenant']} "
              f"priority={view['priority']} state={view['state']} "
              f"done={view['progress']['done']}/{view['progress']['units']}")
        for unit in view["units"]:
            print(f"  [{unit['index']}] {unit['label']}: {unit['state']}"
                  + (f" (worker {unit['worker']})" if unit["worker"] else "")
                  + (f" preempted x{unit['preemptions']}"
                     if unit["preemptions"] else ""))
        return 0
    except ServiceError as exc:
        print(f"error [{exc.kind}]: {exc}", file=sys.stderr)
        return 1
    except OSError as exc:
        print(f"error: cannot reach the service at {args.url}: {exc}",
              file=sys.stderr)
        return 1


def cmd_bench(args) -> int:
    from . import bench

    names = args.scenario or None
    try:
        results = bench.run_benchmarks(names=names, repeats=args.repeats,
                                       scale=args.bench_scale,
                                       resolution=args.mode)
    except KeyError as exc:
        print(exc.args[0], file=sys.stderr)
        return 2
    print(bench.format_results(results))
    bench.write_results(args.output, results)
    print(f"\nwrote {args.output}")
    return 0


def positive_float(text: str) -> float:
    """argparse ``type`` of every duration and scale flag."""
    value = float(text)
    if not 0 < value < float("inf"):
        raise argparse.ArgumentTypeError(f"{text!r} is not a positive number")
    return value


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro",
        description="Memory-centric MPSoC virtual platform (DATE 2007 "
                    "reproduction)")
    sub = parser.add_subparsers(dest="command", required=True)

    sub.add_parser("list", help="list available experiments") \
       .set_defaults(func=cmd_list)

    run_parser = sub.add_parser("run", help="run an experiment (or 'all')")
    run_parser.add_argument("experiment")
    run_parser.add_argument("--scale", type=positive_float, default=1.0,
                            help="traffic scale factor (default 1.0)")
    run_parser.add_argument("--trace", metavar="PATH",
                            help="capture transaction lifecycles and write "
                                 "a Perfetto trace_event JSON file")
    run_parser.add_argument("--jobs", type=int, default=None, metavar="N",
                            help="worker processes for multi-config "
                                 "experiments (default $REPRO_JOBS or 1)")
    run_parser.set_defaults(func=cmd_run)

    plat_parser = sub.add_parser("platform",
                                 help="simulate a JSON platform config")
    plat_parser.add_argument("config")
    plat_parser.add_argument("--max-us", type=positive_float, default=20_000.0,
                             help="simulation bound in microseconds")
    plat_parser.add_argument("--mode", choices=("ca", "lt"), default=None,
                             help="simulation resolution: cycle-accurate or "
                                  "loosely-timed fast-forward (overrides the "
                                  "config's 'resolution'; see docs/FAST_SIM.md)")
    plat_parser.add_argument("--csv", help="write the result row to CSV")
    plat_parser.add_argument("--trace", metavar="PATH",
                             help="capture transaction lifecycles and write "
                                  "a Perfetto trace_event JSON file")
    plat_parser.add_argument("--checkpoint-every", type=positive_float,
                             default=None,
                             metavar="US",
                             help="save a resumable checkpoint every US "
                                  "microseconds of simulated time")
    plat_parser.add_argument("--checkpoint-dir", default="checkpoints",
                             metavar="DIR",
                             help="directory for --checkpoint-every files "
                                  "(default ./checkpoints)")
    plat_parser.set_defaults(func=cmd_platform)

    sweep_parser = sub.add_parser(
        "sweep", help="run a design-space sweep file across worker "
                      "processes with result caching")
    sweep_parser.add_argument("spec", help="sweep JSON (base/points/grid; "
                                           "see docs/PERFORMANCE.md)")
    sweep_parser.add_argument("--jobs", type=int, default=None, metavar="N",
                              help="worker processes (default: the file's "
                                   "'jobs', else $REPRO_JOBS, else 1)")
    sweep_parser.add_argument("--timeout", type=float, default=None,
                              metavar="S",
                              help="per-job wall-clock timeout in seconds")
    sweep_parser.add_argument("--csv", metavar="PATH",
                              help="write one result row per point to CSV")
    sweep_parser.add_argument("--no-cache", action="store_true",
                              help="re-simulate every point, bypassing the "
                                   "on-disk result cache")
    sweep_parser.add_argument("--cache-dir", metavar="DIR",
                              help="cache directory (default "
                                   "$REPRO_SWEEP_CACHE or "
                                   "~/.cache/repro/sweeps)")
    sweep_parser.set_defaults(func=cmd_sweep)

    dse_parser = sub.add_parser(
        "dse", help="search a declarative design space and print the "
                    "verified Pareto front")
    dse_parser.add_argument("spec", help="DSE JSON (base/axes/objectives/"
                                         "optimizer; see docs/DSE.md)")
    dse_parser.add_argument("--jobs", type=int, default=None, metavar="N",
                            help="worker processes per evaluation batch "
                                 "(default: the file's optimizer.jobs, "
                                 "else $REPRO_JOBS, else 1)")
    dse_parser.add_argument("--seed", type=int, default=None,
                            help="search seed (default: the file's "
                                 "optimizer.seed, else 1)")
    dse_parser.add_argument("--screen", choices=("auto", "lt", "off"),
                            default=None,
                            help="loosely-timed candidate screening: auto "
                                 "(evolutionary mode only), lt (always) or "
                                 "off (see docs/DSE.md)")
    dse_parser.add_argument("--json", metavar="PATH",
                            help="write the front + search provenance as "
                                 "JSON")
    dse_parser.add_argument("--csv", metavar="PATH",
                            help="write the front's objective rows as CSV")
    dse_parser.add_argument("--no-cache", action="store_true",
                            help="re-simulate every candidate, bypassing "
                                 "the sweep result cache")
    dse_parser.set_defaults(func=cmd_dse)

    trace_parser = sub.add_parser(
        "trace", help="run an experiment under lifecycle tracing and "
                      "report per-hop latencies")
    trace_parser.add_argument("experiment")
    trace_parser.add_argument("--scale", type=positive_float, default=1.0,
                              help="traffic scale factor (default 1.0)")
    trace_parser.add_argument("--out", metavar="PATH",
                              help="trace file (default "
                                   "trace_<experiment>.json)")
    trace_parser.set_defaults(func=cmd_trace)

    stats_parser = sub.add_parser(
        "stats", help="run an experiment (or a platform config JSON) and "
                      "dump the flat metric registry")
    stats_parser.add_argument("target",
                              help="experiment name or platform config JSON")
    stats_parser.add_argument("--scale", type=positive_float, default=1.0,
                              help="traffic scale factor for experiment "
                                   "targets (default 1.0)")
    stats_parser.add_argument("--max-us", type=positive_float,
                              default=20_000.0,
                              help="simulation bound for config targets, "
                                   "in microseconds")
    stats_parser.add_argument("--energy", action="store_true",
                              help="attach the energy accountant and print "
                                   "the per-component / per-initiator "
                                   "breakdown (see docs/OBSERVABILITY.md)")
    stats_parser.add_argument("--json", metavar="PATH",
                              help="write metrics as JSON")
    stats_parser.add_argument("--csv", metavar="PATH",
                              help="write metrics as CSV")
    stats_parser.add_argument("--prefix", default="",
                              help="restrict terminal output to one "
                                   "metric subtree")
    stats_parser.set_defaults(func=cmd_stats)

    check_parser = sub.add_parser(
        "check", help="run a target under the protocol/timing invariant "
                      "monitors and report violations")
    check_parser.add_argument("target",
                              help="experiment name, platform config JSON "
                                   "or sweep spec JSON")
    check_parser.add_argument("--strict", action="store_true",
                              help="exit non-zero on any violation or "
                                   "fast-vs-reference divergence")
    check_parser.add_argument("--diff", action="store_true",
                              help="also run config targets on both kernel "
                                   "paths and compare bit for bit")
    check_parser.add_argument("--scale", type=positive_float, default=1.0,
                              help="traffic scale for experiment targets "
                                   "(default 1.0)")
    check_parser.add_argument("--max-us", type=positive_float,
                              default=20_000.0,
                              help="simulation bound for config targets, "
                                   "in microseconds")
    check_parser.add_argument("--limit", type=int, default=50, metavar="N",
                              help="violations to print before truncating "
                                   "(default 50)")
    check_parser.set_defaults(func=cmd_check)

    snap_parser = sub.add_parser(
        "snapshot", help="take/resume checkpoints and maintain the golden "
                         "regression corpus")
    snap_parser.add_argument("action", nargs="?", choices=["take", "resume"],
                             help="take: checkpoint a platform config "
                                  "mid-run; resume: replay a .ckpt.json "
                                  "and verify bit-identity")
    snap_parser.add_argument("target", nargs="?",
                             help="platform config JSON (take) or "
                                  "checkpoint file (resume)")
    snap_parser.add_argument("--refresh-golden", action="store_true",
                             help="regenerate the committed corpus under "
                                  "tests/golden/ (or $REPRO_GOLDEN_DIR)")
    snap_parser.add_argument("--only", action="append", metavar="NAME",
                             help="with --refresh-golden: refresh only this "
                                  "entry (repeatable)")
    snap_parser.add_argument("--verify-golden", action="store_true",
                             help="replay every committed golden checkpoint "
                                  "and verify bit-identity")
    snap_parser.add_argument("--summary", action="store_true",
                             help="list the committed golden corpus")
    snap_parser.add_argument("--at-us", type=float, default=None,
                             help="checkpoint instant in microseconds "
                                  "(default: --fraction of the run)")
    snap_parser.add_argument("--fraction", type=float, default=0.5,
                             help="checkpoint at this fraction of the run's "
                                  "execution time (default 0.5)")
    snap_parser.add_argument("--max-us", type=positive_float, default=20_000.0,
                             help="simulation bound in microseconds")
    snap_parser.add_argument("--out", default="checkpoints", metavar="PATH",
                             help="checkpoint file or directory for 'take' "
                                  "(default ./checkpoints)")
    snap_parser.set_defaults(func=cmd_snapshot)

    proto_parser = sub.add_parser(
        "protocols", help="show the bus-protocol registry and the derived "
                          "bridge matrix")
    proto_parser.add_argument("--matrix", action="store_true",
                              help="print every derived source->dest "
                                   "conversion plan")
    proto_parser.add_argument("--plan", nargs=2, metavar=("SRC", "DST"),
                              help="print the derived plan for one pairing "
                                   "(validated against the registry)")
    proto_parser.set_defaults(func=cmd_protocols)

    bench_parser = sub.add_parser(
        "bench", help="run the kernel performance scenarios and write "
                      "BENCH_kernel.json")
    bench_parser.add_argument("--scenario", action="append",
                              help="scenario to run (repeatable; default all)")
    bench_parser.add_argument("--repeats", type=int, default=5,
                              help="timed repetitions per scenario "
                                   "(best-of; default 5)")
    bench_parser.add_argument("--bench-scale", type=float, default=1.0,
                              help="workload scale factor (default 1.0; "
                                   "smoke tiers use < 1)")
    bench_parser.add_argument("--mode", choices=("ca", "lt"), default="ca",
                              help="simulation resolution the scenarios run "
                                   "at (default: ca; see docs/FAST_SIM.md)")
    bench_parser.add_argument("--output", default="BENCH_kernel.json",
                              help="result file (default BENCH_kernel.json)")
    bench_parser.set_defaults(func=cmd_bench)

    serve_parser = sub.add_parser(
        "serve", help="run the simulation job service (docs/SERVICE.md)")
    serve_parser.add_argument("--host", default="127.0.0.1",
                              help="bind address (default 127.0.0.1)")
    serve_parser.add_argument("--port", type=int, default=8458,
                              help="HTTP port (default 8458; 0 = ephemeral)")
    serve_parser.add_argument("--socket", default=None, metavar="PATH",
                              help="also serve the same endpoints on this "
                                   "Unix socket (clients: --url unix:PATH)")
    serve_parser.add_argument("--workers", type=int, default=2,
                              help="worker fleet size (default 2)")
    serve_parser.add_argument("--quota", type=int, default=64,
                              help="per-tenant in-flight unit quota "
                                   "(default 64)")
    serve_parser.add_argument("--slice-us", type=positive_float, default=1.0,
                              help="preemption slice for preemptible jobs, "
                                   "in simulated us (default 1.0)")
    serve_parser.add_argument("--processes", action="store_true",
                              help="offload plain units to a process pool "
                                   "(the sweep executor)")
    serve_parser.add_argument("--cache-dir", default=None, metavar="DIR",
                              help="shared sweep-cache directory (default "
                                   "$REPRO_SWEEP_CACHE or "
                                   "~/.cache/repro/sweeps)")
    serve_parser.add_argument("--no-cache", action="store_true",
                              help="disable the shared result cache")
    serve_parser.set_defaults(func=cmd_serve)

    submit_parser = sub.add_parser(
        "submit", help="submit a platform config or sweep file to a "
                       "running service")
    submit_parser.add_argument("spec",
                               help="platform config or sweep JSON file")
    submit_parser.add_argument("--url", default="http://127.0.0.1:8458",
                               help="service endpoint: http://HOST:PORT or "
                                    "unix:PATH (default "
                                    "http://127.0.0.1:8458)")
    submit_parser.add_argument("--tenant", default="cli",
                               help="tenant the job is accounted to "
                                    "(default 'cli')")
    submit_parser.add_argument("--priority", default="normal",
                               choices=("interactive", "normal", "batch"),
                               help="priority lane (default normal)")
    submit_parser.add_argument("--max-us", type=positive_float, default=None,
                               help="simulated-time bound per unit")
    submit_parser.add_argument("--trace", action="store_true",
                               help="capture a Perfetto trace "
                                    "(GET /jobs/<id>/trace)")
    submit_parser.add_argument("--preemptible", action="store_true",
                               help="allow drain-time checkpointing")
    submit_parser.add_argument("--checkpoint-at-us", type=float, default=None,
                               help="force one preemption at this simulated "
                                    "instant (implies --preemptible)")
    submit_parser.add_argument("--wait", action="store_true",
                               help="block until the job finishes and print "
                                    "its results")
    submit_parser.add_argument("--timeout", type=float, default=600.0,
                               help="--wait timeout in seconds (default 600)")
    submit_parser.set_defaults(func=cmd_submit)

    jobs_parser = sub.add_parser(
        "jobs", help="inspect a running service: jobs, results, events, "
                     "workers")
    jobs_parser.add_argument("job", nargs="?", default=None,
                             help="job id to inspect (default: list jobs)")
    jobs_parser.add_argument("--url", default="http://127.0.0.1:8458",
                             help="service endpoint: http://HOST:PORT or "
                                  "unix:PATH (default "
                                  "http://127.0.0.1:8458)")
    jobs_parser.add_argument("--tenant", default=None,
                             help="filter the job list by tenant")
    jobs_parser.add_argument("--result", action="store_true",
                             help="print the job's per-unit results")
    jobs_parser.add_argument("--wait", action="store_true",
                             help="with --result: block until terminal")
    jobs_parser.add_argument("--timeout", type=float, default=600.0,
                             help="--wait timeout in seconds (default 600)")
    jobs_parser.add_argument("--events", action="store_true",
                             help="print the job's event log")
    jobs_parser.add_argument("--since", type=int, default=0,
                             help="with --events: only events after this "
                                  "sequence number")
    jobs_parser.add_argument("--workers", action="store_true",
                             help="show the worker fleet instead of jobs")
    jobs_parser.add_argument("--drain", default=None, metavar="WORKER",
                             help="drain a worker (preempts its "
                                  "preemptible unit)")
    jobs_parser.add_argument("--undrain", default=None, metavar="WORKER",
                             help="return a drained worker to service")
    jobs_parser.set_defaults(func=cmd_jobs)
    return parser


def main(argv: Optional[List[str]] = None) -> int:
    from .platforms import RunIncomplete
    from .platforms.loader import ConfigError
    from .snapshot import SnapshotError
    from .sweep import SweepError

    args = build_parser().parse_args(argv)
    # One policy: a bad input file is usage, an incomplete run a failure.
    try:
        return args.func(args)
    except ConfigError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except (SweepError, SnapshotError, RunIncomplete) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except BrokenPipeError:
        # Reports are routinely piped into head/less; a closed pipe is
        # not an error. Detach stdout so interpreter shutdown does not
        # raise a second time flushing it.
        devnull = os.open(os.devnull, os.O_WRONLY)
        os.dup2(devnull, sys.stdout.fileno())
        return 0


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
