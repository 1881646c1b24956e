"""Every knob earns its place — a check, not an audit.

A knob is a value someone can set: an option of ``repro serve`` or
``repro cluster serve``, a field of a serving-tier config object, or a
keyword of the durable store's or the in-process backend's
constructors.  A knob stays for one of
four reasons:

* ``deployment`` — where to listen, what to serve, where to write;
* ``mode`` — it picks a different program (a document source,
  ``--writable``, ``--standby``);
* ``paper`` — an index input the paper defines (``k``, the weighting
  scheme, the parsing threshold);
* the file outside ``tests/`` and ``examples/`` that sets it — a smoke,
  the ledger, a source caller — found by its spelling there: the quoted
  option, or ``field=``.

A field an option feeds names that option.  A field holding another
config in scope is a part, not a value; the part's fields are the
knobs.  Everything else is a module constant: each other value of a
knob nothing sets is a configuration no workload runs.

A knob also refuses, as a usage error naming it, a value the code
cannot serve.
"""

import argparse
import dataclasses
import inspect
import pathlib

import pytest

from repro.cli import build_parser
from repro.cluster.service import ClusterConfig
from repro.cluster.standby import StandbyConfig
from repro.cluster.supervisor import SupervisorConfig
from repro.errors import ReproError
from repro.server.service import ServerConfig
from repro.server.state import ServingState
from repro.store.durable import DurableIndexStore
from repro.store.sealing import CheckpointPolicy

ROOT = pathlib.Path(__file__).resolve().parent.parent
CLI = ROOT / "src" / "repro" / "cli"
CLASSES = {"deployment", "mode", "paper"}
COMMANDS = ("serve", "cluster serve")
CONFIGS = (
    ServerConfig,
    ClusterConfig,
    SupervisorConfig,
    StandbyConfig,
    CheckpointPolicy,
)
CONSTRUCTORS = (
    DurableIndexStore.initialize,
    DurableIndexStore.open,
    ServingState.for_manager,
    ServingState.for_store,
    ServingState.for_model,
    ServingState.open,
)

REASONS = {
    "serve source": "mode",
    "serve --factors": "paper",
    "serve --scheme": "paper",
    "serve --min-doc-freq": "paper",
    "serve --max-batch": "benchmarks/server_smoke.py",
    "serve --data-dir": "deployment",
    "serve --checkpoint-every": "benchmarks/store_crash_smoke.py",
    "serve --tenant": "deployment",
    "cluster serve --data-dir": "deployment",
    "cluster serve --tenants": "deployment",
    "cluster serve --workers": "ledger/workloads.py",
    "cluster serve --replication": "benchmarks/cluster_smoke.py",
    "cluster serve --heartbeat-interval": "benchmarks/cluster_smoke.py",
    "cluster serve --restart-backoff": "benchmarks/cluster_smoke.py",
    "cluster serve --restart-backoff-cap": "benchmarks/cluster_smoke.py",
    "cluster serve --writable": "mode",
    "cluster serve --seal-every": "ledger/workloads.py",
    "cluster serve --seal-interval": "ledger/workloads.py",
    "cluster serve --standby": "mode",
    "cluster serve --standby-poll": "benchmarks/cluster_smoke.py",
    "cluster serve --promotion-log": "deployment",
    # Declared once for both commands (cli.serving.add_serving_options),
    # each feeding one field: one caller justifies it on both.
    "serve --host": "deployment",
    "cluster serve --host": "deployment",
    "serve --port": "deployment",
    "cluster serve --port": "deployment",
    "serve --slow-ms": "benchmarks/cluster_smoke.py",
    "cluster serve --slow-ms": "benchmarks/cluster_smoke.py",
    "serve --slowlog": "deployment",
    "cluster serve --slowlog": "deployment",
    "serve --max-resident": "benchmarks/cluster_smoke.py",
    "cluster serve --max-resident": "benchmarks/cluster_smoke.py",
    "serve --queue-depth": "benchmarks/server_smoke.py",
    "cluster serve --queue-depth": "benchmarks/server_smoke.py",
    "ServerConfig.queue_depth": "serve --queue-depth",
    "ServerConfig.slow_ms": "serve --slow-ms",
    "ServerConfig.slowlog_path": "deployment",
    "ClusterConfig.workers": "cluster serve --workers",
    "ClusterConfig.replication": "cluster serve --replication",
    "SupervisorConfig.heartbeat_interval": "cluster serve --heartbeat-interval",
    "SupervisorConfig.backoff_base": "cluster serve --restart-backoff",
    "SupervisorConfig.backoff_cap": "cluster serve --restart-backoff-cap",
    "StandbyConfig.poll_seconds": "cluster serve --standby-poll",
    "StandbyConfig.promotion_log": "deployment",
    "CheckpointPolicy.every_records": "serve --checkpoint-every",
    "CheckpointPolicy.every_seconds": "cluster serve --seal-interval",
    "CheckpointPolicy.on_consolidate": "src/repro/cli/cluster.py",
    "ServingState.for_manager(ann)": "src/repro/cli/serving.py",
    "ServingState.for_manager(max_batch)": "serve --max-batch",
    "ServingState.for_store(max_batch)": "serve --max-batch",
    "ServingState.for_model(ann)": "ledger/layers.py",
    "ServingState.for_model(max_batch)": "serve --max-batch",
    "ServingState.open(max_batch)": "serve --max-batch",
}


def _home(obj) -> pathlib.Path:
    return pathlib.Path(inspect.getsourcefile(obj)).resolve()


def options(parser, home, commands=COMMANDS):
    """``"command --option" -> (quoted option, declaring file)``."""
    found = {}

    def walk(parser, path):
        for action in parser._actions:
            if isinstance(action, argparse._SubParsersAction):
                for name, sub in action.choices.items():
                    walk(sub, path + (name,))
            elif " ".join(path) in commands and not isinstance(
                action, argparse._HelpAction
            ):
                name = (action.option_strings or [action.dest])[-1]
                found[f"{' '.join(path)} {name}"] = (f'"{name}"', home)

    walk(parser, ())
    return found


def fields(configs):
    """``"Config.field" -> ("field=", declaring file)``, parts skipped."""
    names = {config.__name__ for config in configs}
    return {
        f"{config.__name__}.{f.name}": (f"{f.name}=", _home(config))
        for config in configs
        for f in dataclasses.fields(config)
        if not any(name in str(f.type) for name in names)
    }


def keywords(functions):
    """``"Class.method(keyword)" -> ("keyword=", declaring file)``."""
    return {
        f"{fn.__qualname__}({p.name})": (f"{p.name}=", _home(fn))
        for fn in functions
        for p in inspect.signature(fn).parameters.values()
        if p.kind is p.KEYWORD_ONLY
    }


def _sets(root, name, needle, home) -> bool:
    """Whether the file ``name`` — outside ``tests/`` and ``examples/``,
    not the knob's own declaration — contains ``needle``."""
    path = root / name
    return (
        path.is_file()
        and path.resolve() != home
        and pathlib.PurePath(name).parts[0] not in ("tests", "examples")
        and needle in path.read_text(encoding="utf-8")
    )


def unjustified(knobs, reasons, root):
    """One line per knob without a reason that holds, and per reason
    left for a knob that is gone — each naming the knob."""
    found = []
    for knob, (needle, home) in sorted(knobs.items()):
        why = reasons.get(knob)
        if why in knobs:  # a field an option feeds: the option's reason
            needle, home = knobs[why]
            why = reasons.get(why)
        if why is None:
            found.append(f"{knob}: no reason to stay — make it a constant")
        elif why not in CLASSES and not _sets(root, why, needle, home):
            found.append(f"{knob}: {why} does not set it")
    found += [
        f"{knob}: gone — drop its reason"
        for knob in sorted(set(reasons) - set(knobs))
    ]
    return found


def test_every_serving_knob_earns_its_place():
    knobs = {
        **options(build_parser(), CLI / "serving.py", ("serve",)),
        **options(build_parser(), CLI / "cluster.py", ("cluster serve",)),
        **fields(CONFIGS),
        **keywords(CONSTRUCTORS),
    }
    problems = unjustified(knobs, REASONS, ROOT)
    assert not problems, "\n".join(problems)


def test_an_unjustified_knob_is_named(tmp_path):
    """The rule on a toy: ``--used`` and the field it feeds are set by a
    smoke; ``--spare`` only by a test and ``Toy.spare`` by nobody, and a
    reason outlived its knob."""
    (tmp_path / "tests").mkdir()
    (tmp_path / "tests" / "test_toy.py").write_text('run("--spare", "2")\n')
    (tmp_path / "smoke.py").write_text('run("--used", "2")\n')
    parser = argparse.ArgumentParser()
    serve = parser.add_subparsers().add_parser("serve")
    serve.add_argument("--used")
    serve.add_argument("--spare")

    @dataclasses.dataclass
    class Toy:
        used: int = 1
        spare: int = 2

    knobs = {**options(parser, tmp_path / "cli.py"), **fields([Toy])}
    reasons = {
        "serve --used": "smoke.py",
        "serve --spare": "tests/test_toy.py",
        "Toy.used": "serve --used",
        "serve --gone": "deployment",
    }
    assert unjustified(knobs, reasons, tmp_path) == [
        "Toy.spare: no reason to stay — make it a constant",
        "serve --spare: tests/test_toy.py does not set it",
        "serve --gone: gone — drop its reason",
    ]


@pytest.mark.parametrize(
    "argv, option",
    [
        (["serve", "docs.txt", "--max-batch", "0"], "--max-batch"),
        (["serve", "docs.txt", "--queue-depth", "0"], "--queue-depth"),
        (["cluster", "serve", "--queue-depth", "-3"], "--queue-depth"),
        (["serve", "--data-dir", "d", "--checkpoint-every", "-1"],
         "--checkpoint-every"),
        (["cluster", "serve", "--heartbeat-interval", "0"],
         "--heartbeat-interval"),
        (["cluster", "serve", "--standby-poll", "0"], "--standby-poll"),
        (["cluster", "serve", "--seal-every", "-1"], "--seal-every"),
        (["cluster", "serve", "--seal-interval", "-1"], "--seal-interval"),
    ],
)
def test_an_out_of_range_value_is_a_usage_error(argv, option, capsys):
    """Each of these once reached the program: the in-process scheduler
    and ``AdmissionController`` raised a traceback, ``-1`` records sealed an
    idle store on every tick, and a 0 s heartbeat (or standby poll)
    evicted healthy workers (or spun a CPU)."""
    with pytest.raises(SystemExit) as excinfo:
        build_parser().parse_args(argv)
    assert excinfo.value.code == 2
    err = capsys.readouterr().err
    assert f"argument {option}: must be" in err, err


def test_zero_still_disables_and_a_non_number_reads_as_before(capsys):
    args = build_parser().parse_args(
        ["cluster", "serve", "--seal-every", "0", "--seal-interval", "0"]
    )
    assert (args.seal_every, args.seal_interval) == (0, 0.0)
    args = build_parser().parse_args(["serve", "--checkpoint-every", "0"])
    assert args.checkpoint_every == 0
    with pytest.raises(SystemExit):
        build_parser().parse_args(["serve", "--max-batch", "x"])
    assert "invalid int value: 'x'" in capsys.readouterr().err


@pytest.mark.parametrize(
    "kwargs", [{"every_records": 0}, {"every_records": -1},
               {"every_seconds": 0.0}, {"every_seconds": -2.0}],
)
def test_a_seal_trigger_is_off_as_none_not_as_a_number(kwargs):
    with pytest.raises(ReproError):
        CheckpointPolicy(**kwargs)
