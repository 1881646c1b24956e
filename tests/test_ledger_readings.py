"""The perf ledger's live readings name what the program still emits.

``ledger/workloads.py::_observe_metrics`` reads counters and histograms
off ``/metrics`` and ``seals_total`` off the ``/healthz`` writer block,
each through ``.get(name, 0)``: a name renamed in ``src/`` would read 0
and fail nothing.  This test reads the ledger's source (it neither
imports nor edits it) and asserts that every name read there is still
emitted by ``src/`` — a metric as the first argument of a registry
``inc`` / ``observe`` / ``set_gauge`` call, a health or snapshot key as
a dict key.
"""

import ast
import pathlib

ROOT = pathlib.Path(__file__).resolve().parents[1]
EMITTERS = {"inc", "observe", "set_gauge"}


def _first_string_arg(node: ast.AST) -> str | None:
    """The leading literal text of a call's first argument (an
    f-string's literal head counts), or None."""
    if not (isinstance(node, ast.Call) and node.args):
        return None
    arg = node.args[0]
    if isinstance(arg, ast.JoinedStr) and arg.values:
        arg = arg.values[0]
    if isinstance(arg, ast.Constant) and isinstance(arg.value, str):
        return arg.value
    return None


def ledger_reads() -> tuple[set[str], set[str]]:
    """The names ``_observe_metrics`` reads with ``.get``, and the
    prefixes it sums with ``.startswith``."""
    tree = ast.parse((ROOT / "ledger" / "workloads.py").read_text())
    observe = next(
        node for node in ast.walk(tree)
        if isinstance(node, ast.FunctionDef)
        and node.name == "_observe_metrics"
    )
    gets, prefixes = set(), set()
    for node in ast.walk(observe):
        name = _first_string_arg(node)
        if name is None or not isinstance(node.func, ast.Attribute):
            continue
        if node.func.attr == "get":
            gets.add(name)
        elif node.func.attr == "startswith":
            prefixes.add(name)
    return gets, prefixes


def src_emits() -> tuple[set[str], set[str]]:
    """Metric names ``src/`` emits (an f-string name by its literal
    head), and the string keys of its dict displays."""
    metrics, keys = set(), set()
    for path in (ROOT / "src").rglob("*.py"):
        for node in ast.walk(ast.parse(path.read_text())):
            name = _first_string_arg(node)
            if (
                name is not None
                and isinstance(node.func, ast.Attribute)
                and node.func.attr in EMITTERS
            ):
                metrics.add(name)
            elif isinstance(node, ast.Dict):
                keys.update(
                    key.value for key in node.keys
                    if isinstance(key, ast.Constant)
                    and isinstance(key.value, str)
                )
    return metrics, keys


def test_every_metric_the_ledger_reads_is_still_emitted():
    gets, prefixes = ledger_reads()
    # What the reading covered when this test was written: a parse that
    # finds less has stopped seeing the ledger's reads.
    assert {
        "server.queue_wait_seconds", "server.batch_size",
        "server.batches_total", "seals_total",
        "cluster.bump_broadcasts_total", "cluster.hedges_total",
        "cluster.failovers_total", "cluster.partial_responses",
    } <= gets
    assert prefixes == {"server.rejected_"}
    metrics, keys = src_emits()
    assert sorted(gets - metrics - keys) == []
    assert sorted(
        prefix for prefix in prefixes
        if not any(name.startswith(prefix) for name in metrics)
    ) == []
