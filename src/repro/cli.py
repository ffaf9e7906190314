"""Command-line interface.

::

    python -m repro list                         # available experiments
    python -m repro run fig5 --scale 0.5         # run one, print the figure
    python -m repro run all --jobs 4             # the whole evaluation, parallel
    python -m repro run fig5 --trace out.json    # ... + Perfetto trace, hop table
    python -m repro platform my_platform.json    # simulate a config file
    python -m repro sweep my_sweep.json --jobs 4 # design-space sweep file
    python -m repro sweep my_platform.json       # ... or a one-point sweep
    python -m repro dse my_dse.json --jobs 4     # Pareto search over a space
    python -m repro stats fig6 --json out.json   # flat metric dump
    python -m repro stats fig5 --energy          # + per-component energy
    python -m repro stats my_sweep.json --energy # platform/sweep files too
    python -m repro protocols                    # bus-protocol registry table
    python -m repro protocols --plan axi apb     # derived bridge conversion plan
    python -m repro check fig5 --strict          # run under invariant monitors
    python -m repro check my_platform.json --diff # + fast-vs-reference diff

Each experiment prints the paper-style report and the outcome of its shape
checks; the process exits non-zero if any claim fails, so the CLI is
usable in CI.  ``stats`` and ``check`` take the same targets: an
experiment, a platform file or a sweep file (:func:`_target`).
``stats`` (and the ``--trace`` flag) run under an observability
capture — see ``docs/OBSERVABILITY.md``.
``--jobs``/``sweep`` fan independent configurations out across worker
processes with on-disk result caching — see ``docs/PERFORMANCE.md``.
"""

from __future__ import annotations

import argparse
import os
import sys
from contextlib import contextmanager
from typing import Callable, Dict, Iterator, List, Optional, Tuple

from . import experiments
from .obs.export import format_table

#: name -> (description, runner(scale) -> (data, report_text, failures))
Registry = Dict[str, Tuple[str, Callable]]


def _wrap(run: Callable, report: Callable, check: Callable, sizing=None):
    """Registry runner: ``run`` an experiment, then ``report`` and
    ``check`` its data.

    ``sizing`` is ``(keyword, floor, per_unit_scale)`` for the studies
    sized by a count rather than by ``traffic_scale``.
    """
    def runner(scale: float, jobs: Optional[int] = None):
        if sizing is None:
            size = {"traffic_scale": scale}
        else:
            keyword, floor, per_scale = sizing
            size = {keyword: max(floor, int(per_scale * scale))}
        data = run(jobs=jobs, **size)
        return data, report(data), check(data)
    return runner


def registry() -> Registry:
    single = experiments.single_layer

    def study(module, sizing=None):
        return _wrap(module.run, module.report, module.check, sizing)

    return {
        "s411": ("Section 4.1.1 — many-to-many single layer",
                 _wrap(single.run_many_to_many, single.report_many_to_many,
                       single.check_many_to_many, ("transactions", 8, 50))),
        "s412": ("Section 4.1.2 — many-to-one single layer",
                 _wrap(single.run_many_to_one, single.report_many_to_one,
                       single.check_many_to_one, ("transactions", 8, 60))),
        "fig3": ("Fig. 3 — platform instances, on-chip memory",
                 study(experiments.fig3_platform_instances)),
        "fig4": ("Fig. 4 — distributed vs centralized vs memory speed",
                 study(experiments.fig4_memory_speed)),
        "fig5": ("Fig. 5 — platform instances with LMI + DDR",
                 study(experiments.fig5_lmi_platforms)),
        "fig6": ("Fig. 6 — LMI bus-interface statistics",
                 study(experiments.fig6_lmi_statistics)),
        "ablations": ("Section 6 — guideline ablations",
                      study(experiments.ablations)),
        "arbitration": ("Extension — arbitration policy study",
                        study(experiments.arbitration_study,
                              ("transactions", 8, 40))),
        "segmentation": ("Extension — path segmentation (guideline 5)",
                         study(experiments.path_segmentation,
                               ("transactions", 8, 20))),
        "io_qos": ("Extension — display QoS under DMA contention "
                   "(guideline 4)",
                   study(experiments.io_qos, ("lines", 10, 40))),
        "crossbar_dse": ("Extension — application-specific crossbar "
                         "choice via Pareto search",
                         study(experiments.crossbar_dse)),
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
    if args.trace and (args.jobs or 1) > 1:
        print("note: --trace captures only in-process simulators; "
              "running serially", file=sys.stderr)
    status = 0
    with _traced(args):
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
    return status


def cmd_platform(args) -> int:
    from .platforms.loader import load_config
    from .sweep import Run

    config = load_config(args.config)
    if args.mode:
        config = config.scaled(resolution=args.mode)
    max_ps = int(args.max_us * 1_000_000)
    with _traced(args):
        if args.checkpoint_every:
            from .snapshot import run_with_checkpoints

            result, saved = run_with_checkpoints(
                config, every_ps=int(args.checkpoint_every * 1_000_000),
                out_dir=args.checkpoint_dir, max_ps=max_ps)
            for path in saved:
                print(f"checkpoint: {path}")
        else:
            result = Run(config, max_ps).finish().result
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
        from .obs.export import results_to_csv

        results_to_csv(args.csv, [result])
        print(f"\nwrote {args.csv}")
    return 0


@contextmanager
def _traced(args) -> Iterator[None]:
    """Capture the body under ``--trace PATH``, write its Perfetto file and
    print the per-hop latency table, also when the body raises (the
    capture's process-wide hook still comes off on the way out)."""
    if not args.trace:
        yield
        return
    from .obs import capture

    with capture() as cap:
        try:
            yield
        finally:
            span_count = cap.write_trace(args.trace)
            print(f"\nwrote {span_count} spans ({len(cap.completed())} "
                  f"completed transactions) to {args.trace}\n")
            print(cap.format_summary())


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


def _target(args, name: str):
    """Resolve a ``stats`` / ``check`` target to ``(title, points)``.

    A point is ``(label, config, max_ps, run)``; ``run()`` simulates it
    under whatever observer the caller entered.  An experiment is one
    point without a config, run serially so that the observer sees every
    simulator it builds.  A platform or sweep file is one point per
    configuration, and ``run()`` returns its finished ``CachedRun``.
    """
    table = registry()
    if name in table:
        description, runner = table[name]
        return f"{name}: {description}", [
            (name, None, None, lambda: runner(args.scale, 1))]
    from .platforms.loader import ConfigError
    from .sweep import Run, load_target

    try:
        spec = load_target(name, int(args.max_us * 1_000_000))
    except ConfigError as exc:
        raise ConfigError(f"{name!r} is neither an experiment (try "
                          f"'list') nor a valid platform or sweep file: "
                          f"{exc}") from exc
    title = spec.labels[0] if len(spec.labels) == 1 else name
    return title, [(label, config, spec.max_ps,
                    lambda config=config: Run(config, spec.max_ps).finish())
                   for label, config in zip(spec.labels, spec.configs)]


def cmd_stats(args) -> int:
    """Metric dump for an experiment, a platform file or a sweep file."""
    from .obs import capture, metrics_csv, metrics_json, metrics_text

    title, points = _target(args, args.target)
    with capture(energy=args.energy) as cap:
        for *__, run in points:
            run()
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

    from .sweep import DEFAULT_MAX_PS, load_target, sweep

    spec = load_target(args.spec, DEFAULT_MAX_PS)
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
        from .obs.export import results_to_csv

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

    title, points = _target(args, args.target)
    violations = []
    mismatches: List[str] = []
    for label, config, max_ps, run in points:
        if config is None:
            if args.diff:
                print("note: --diff applies to config targets; running the "
                      "experiment under monitors only", file=sys.stderr)
            print(f"### check {title}\n")
        elif args.diff:
            outcome = CheckedRun(config, max_ps=max_ps)
            violations.extend(outcome.violations)
            mismatches.extend(f"{label}: {m}" for m in outcome.mismatches)
            print(f"checked {label}: {outcome.fast_events} events, "
                  f"fast vs reference "
                  f"{'identical' if not outcome.mismatches else 'DIVERGED'}")
            continue
        with checked() as session:
            done = run()
        violations.extend(session.finalize())
        print(f"checked {len(session.checkers)} simulator(s)" if config is None
              else f"checked {label}: {done.events} events")
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
        at_ps = None if args.at_us is None else int(args.at_us * 1_000_000)
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
                     spec.platform_key,
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

    from .platforms.loader import ConfigError

    try:
        split = urlsplit(url if "//" in url else f"http://{url}")
        return split.hostname or "127.0.0.1", split.port or 8458
    except ValueError as exc:
        raise ConfigError(f"--url {url!r}: {exc}") from None


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


def positive_float(text: str) -> float:
    """argparse ``type`` of every duration and scale flag; a microsecond
    flag is converted to picoseconds, so that count must stay finite."""
    value = float(text)
    if not 0 < value * 1_000_000 < float("inf"):
        raise argparse.ArgumentTypeError(f"{text!r} is not a positive number")
    return value


def positive_int(text: str) -> int:
    """argparse ``type`` of every count flag (jobs, workers, quotas)."""
    value = int(text)
    if value < 1:
        raise argparse.ArgumentTypeError(f"{text!r} is not a positive integer")
    return value


def fraction(text: str) -> float:
    """argparse ``type`` of ``--fraction``: strictly between 0 and 1."""
    value = float(text)
    if not 0 < value < 1:
        raise argparse.ArgumentTypeError(f"{text!r} is not between 0 and 1")
    return value


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro",
        description="Memory-centric MPSoC virtual platform (DATE 2007 "
                    "reproduction)")
    sub = parser.add_subparsers(dest="command", required=True)

    def command(name: str, func: Callable, text: str, *parents):
        """One subcommand; each parent contributes its shared flags."""
        command_parser = sub.add_parser(name, help=text, parents=parents)
        command_parser.set_defaults(func=func)
        return command_parser

    # Parent parsers: every flag two commands share is defined once here.
    scale = argparse.ArgumentParser(add_help=False)
    scale.add_argument("--scale", type=positive_float, default=1.0,
                       help="traffic scale factor for experiments "
                            "(default 1.0)")
    max_us = argparse.ArgumentParser(add_help=False)
    max_us.add_argument("--max-us", type=positive_float, default=20_000.0,
                        help="simulation bound per configuration, in "
                             "microseconds (default 20000)")
    trace = argparse.ArgumentParser(add_help=False)
    trace.add_argument("--trace", metavar="PATH",
                       help="capture transaction lifecycles, write a "
                            "Perfetto trace_event JSON file and print "
                            "per-hop latencies")
    jobs = argparse.ArgumentParser(add_help=False)
    jobs.add_argument("--jobs", type=positive_int, default=None, metavar="N",
                      help="worker processes (default: the spec file's own "
                           "setting, else $REPRO_JOBS, else 1)")
    cache = argparse.ArgumentParser(add_help=False)
    cache.add_argument("--no-cache", action="store_true",
                       help="re-simulate everything, bypassing the shared "
                            "on-disk result cache")
    cache.add_argument("--cache-dir", metavar="DIR",
                       help="cache directory (default $REPRO_SWEEP_CACHE or "
                            "~/.cache/repro/sweeps)")
    service = argparse.ArgumentParser(add_help=False)
    service.add_argument("--url", default="http://127.0.0.1:8458",
                         help="service endpoint: http://HOST:PORT or "
                              "unix:PATH (default http://127.0.0.1:8458)")
    service.add_argument("--timeout", type=positive_float, default=600.0,
                         help="--wait timeout in seconds (default 600)")

    # ``p`` is the subcommand being built.
    command("list", cmd_list, "list available experiments")

    p = command("run", cmd_run, "run an experiment (or 'all')",
                scale, trace, jobs)
    p.add_argument("experiment")

    p = command("platform", cmd_platform, "simulate a JSON platform config",
                max_us, trace)
    p.add_argument("config")
    p.add_argument("--mode", choices=("ca", "lt"), default=None,
                   help="simulation resolution: cycle-accurate or "
                        "loosely-timed fast-forward (overrides the "
                        "config's 'resolution'; see docs/FAST_SIM.md)")
    p.add_argument("--csv", help="write the result row to CSV")
    p.add_argument("--checkpoint-every", type=positive_float, default=None,
                   metavar="US", help="save a resumable checkpoint every US "
                                      "microseconds of simulated time")
    p.add_argument("--checkpoint-dir", default="checkpoints", metavar="DIR",
                   help="directory for --checkpoint-every files "
                        "(default ./checkpoints)")

    p = command("sweep", cmd_sweep, "run a design-space sweep file across "
                "worker processes with result caching", jobs, cache)
    p.add_argument("spec", help="sweep JSON (base/points/grid; see "
                                "docs/PERFORMANCE.md) or a platform JSON "
                                "(one point)")
    p.add_argument("--timeout", type=positive_float, default=None,
                   metavar="S", help="per-job wall-clock timeout in seconds")
    p.add_argument("--csv", metavar="PATH",
                   help="write one result row per point to CSV")

    p = command("dse", cmd_dse, "search a declarative design space and "
                "print the verified Pareto front", jobs)
    p.add_argument("spec", help="DSE JSON (base/axes/objectives/optimizer; "
                                "see docs/DSE.md)")
    p.add_argument("--seed", type=int, default=None,
                   help="search seed (default: the file's optimizer.seed, "
                        "else 1)")
    p.add_argument("--screen", choices=("auto", "lt", "off"), default=None,
                   help="loosely-timed candidate screening: auto "
                        "(evolutionary mode only), lt (always) or off "
                        "(see docs/DSE.md)")
    p.add_argument("--json", metavar="PATH",
                   help="write the front + search provenance as JSON")
    p.add_argument("--csv", metavar="PATH",
                   help="write the front's objective rows as CSV")
    p.add_argument("--no-cache", action="store_true",
                   help="re-simulate every candidate, bypassing the sweep "
                        "result cache")

    p = command("stats", cmd_stats, "run an experiment, a platform config "
                "JSON or a sweep file and dump the flat metric registry",
                scale, max_us)
    p.add_argument("target", help="experiment name, platform config JSON or "
                                  "sweep spec JSON")
    p.add_argument("--energy", action="store_true",
                   help="attach the energy accountant and print the "
                        "per-component / per-initiator breakdown (see "
                        "docs/OBSERVABILITY.md)")
    p.add_argument("--json", metavar="PATH", help="write metrics as JSON")
    p.add_argument("--csv", metavar="PATH", help="write metrics as CSV")
    p.add_argument("--prefix", default="",
                   help="restrict terminal output to one metric subtree")

    p = command("check", cmd_check, "run a target under the protocol/timing "
                "invariant monitors and report violations", scale, max_us)
    p.add_argument("target", help="experiment name, platform config JSON or "
                                  "sweep spec JSON")
    p.add_argument("--strict", action="store_true",
                   help="exit non-zero on any violation or "
                        "fast-vs-reference divergence")
    p.add_argument("--diff", action="store_true",
                   help="also run config targets on both kernel paths and "
                        "compare bit for bit")
    p.add_argument("--limit", type=int, default=50, metavar="N",
                   help="violations to print before truncating (default 50)")

    p = command("snapshot", cmd_snapshot, "take/resume checkpoints and "
                "maintain the golden regression corpus", max_us)
    p.add_argument("action", nargs="?", choices=["take", "resume"],
                   help="take: checkpoint a platform config mid-run; "
                        "resume: replay a .ckpt.json and verify "
                        "bit-identity")
    p.add_argument("target", nargs="?",
                   help="platform config JSON (take) or checkpoint file "
                        "(resume)")
    p.add_argument("--refresh-golden", action="store_true",
                   help="regenerate the committed corpus under "
                        "tests/golden/ (or $REPRO_GOLDEN_DIR)")
    p.add_argument("--only", action="append", metavar="NAME",
                   help="with --refresh-golden: refresh only this entry "
                        "(repeatable)")
    p.add_argument("--verify-golden", action="store_true",
                   help="replay every committed golden checkpoint and "
                        "verify bit-identity")
    p.add_argument("--summary", action="store_true",
                   help="list the committed golden corpus")
    p.add_argument("--at-us", type=positive_float, default=None,
                   help="checkpoint instant in microseconds (default: "
                        "--fraction of the run)")
    p.add_argument("--fraction", type=fraction, default=0.5,
                   help="checkpoint at this fraction of the run's "
                        "execution time (default 0.5)")
    p.add_argument("--out", default="checkpoints", metavar="PATH",
                   help="checkpoint file or directory for 'take' "
                        "(default ./checkpoints)")

    p = command("protocols", cmd_protocols, "show the bus-protocol registry "
                "and the derived bridge matrix")
    p.add_argument("--matrix", action="store_true",
                   help="print every derived source->dest conversion plan")
    p.add_argument("--plan", nargs=2, metavar=("SRC", "DST"),
                   help="print the derived plan for one pairing (validated "
                        "against the registry)")

    p = command("serve", cmd_serve, "run the simulation job service "
                "(docs/SERVICE.md)", cache)
    p.add_argument("--host", default="127.0.0.1",
                   help="bind address (default 127.0.0.1)")
    p.add_argument("--port", type=int, default=8458,
                   help="HTTP port (default 8458; 0 = ephemeral)")
    p.add_argument("--socket", default=None, metavar="PATH",
                   help="also serve the same endpoints on this Unix socket "
                        "(clients: --url unix:PATH)")
    p.add_argument("--workers", type=positive_int, default=2,
                   help="worker fleet size (default 2)")
    p.add_argument("--quota", type=positive_int, default=64,
                   help="per-tenant in-flight unit quota (default 64)")
    p.add_argument("--slice-us", type=positive_float, default=1.0,
                   help="preemption slice for preemptible jobs, in "
                        "simulated us (default 1.0)")
    p.add_argument("--processes", action="store_true",
                   help="offload plain units to a process pool (the sweep "
                        "executor)")

    p = command("submit", cmd_submit, "submit a platform config or sweep "
                "file to a running service", service)
    p.add_argument("spec", help="platform config or sweep JSON file")
    p.add_argument("--tenant", default="cli",
                   help="tenant the job is accounted to (default 'cli')")
    p.add_argument("--priority", default="normal",
                   choices=("interactive", "normal", "batch"),
                   help="priority lane (default normal)")
    p.add_argument("--max-us", type=positive_float, default=None,
                   help="simulated-time bound per unit")
    p.add_argument("--trace", action="store_true",
                   help="capture a Perfetto trace (GET /jobs/<id>/trace)")
    p.add_argument("--preemptible", action="store_true",
                   help="allow drain-time checkpointing")
    p.add_argument("--checkpoint-at-us", type=positive_float, default=None,
                   help="force one preemption at this simulated instant "
                        "(implies --preemptible)")
    p.add_argument("--wait", action="store_true",
                   help="block until the job finishes and print its results")

    p = command("jobs", cmd_jobs, "inspect a running service: jobs, "
                "results, events, workers", service)
    p.add_argument("job", nargs="?", default=None,
                   help="job id to inspect (default: list jobs)")
    p.add_argument("--tenant", default=None,
                   help="filter the job list by tenant")
    p.add_argument("--result", action="store_true",
                   help="print the job's per-unit results")
    p.add_argument("--wait", action="store_true",
                   help="with --result: block until terminal")
    p.add_argument("--events", action="store_true",
                   help="print the job's event log")
    p.add_argument("--since", type=int, default=0,
                   help="with --events: only events after this sequence "
                        "number")
    p.add_argument("--workers", action="store_true",
                   help="show the worker fleet instead of jobs")
    p.add_argument("--drain", default=None, metavar="WORKER",
                   help="drain a worker (preempts its preemptible unit)")
    p.add_argument("--undrain", default=None, metavar="WORKER",
                   help="return a drained worker to service")
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
        overrun = exc if isinstance(exc, RunIncomplete) else exc.__cause__
        if isinstance(overrun, RunIncomplete) and overrun.diagnosis:
            print(overrun.diagnosis, file=sys.stderr)
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
