"""The CLI's option surface, pinned.

Every ``(subcommand, option, default)`` triple ``build_parser()``
declares, as a literal captured before ``serve`` and ``cluster serve``
shared one option helper.  A refactor of the parser must leave this set
exactly as it is: no option added, removed, renamed or re-defaulted.
"""

import argparse
import dataclasses

from repro.cli import build_parser
from repro.cluster.service import ClusterConfig
from repro.cluster.standby import StandbyConfig
from repro.cluster.supervisor import SupervisorConfig
from repro.server.service import ServerConfig
from repro.store.sealing import CheckpointPolicy

EXPECTED = {
    ('', '--no-obs', 'False'),
    ('', '--obs-state', 'None'),
    ('add', 'database', 'None'),
    ('add', 'source', 'None'),
    ('cluster serve', '--data-dir', 'None'),
    ('cluster serve', '--heartbeat-interval', '1.0'),
    ('cluster serve', '--host', "'127.0.0.1'"),
    ('cluster serve', '--max-resident', 'None'),
    ('cluster serve', '--port', '8080'),
    ('cluster serve', '--promotion-log', 'None'),
    ('cluster serve', '--queue-depth', '256'),
    ('cluster serve', '--replication', '1'),
    ('cluster serve', '--restart-backoff', '0.5'),
    ('cluster serve', '--restart-backoff-cap', '10.0'),
    ('cluster serve', '--seal-every', '64'),
    ('cluster serve', '--seal-interval', '15.0'),
    ('cluster serve', '--slow-ms', '500.0'),
    ('cluster serve', '--slowlog', 'None'),
    ('cluster serve', '--standby', 'False'),
    ('cluster serve', '--standby-poll', '0.5'),
    ('cluster serve', '--tenants', 'None'),
    ('cluster serve', '--workers', '4'),
    ('cluster serve', '--writable', 'False'),
    ('cluster status', '--host', "'127.0.0.1'"),
    ('cluster status', '--json', 'False'),
    ('cluster status', '--port', '8080'),
    ('cluster worker', '--data-dir', 'None'),
    ('cluster worker', '--host', "'127.0.0.1'"),
    ('cluster worker', '--plan', 'None'),
    ('cluster worker', '--port', '0'),
    ('cluster worker', '--replica', '0'),
    ('cluster worker', '--shard', 'None'),
    ('cluster worker', '--tenant', 'None'),
    ('index', '--factors', '100'),
    ('index', '--min-doc-freq', '1'),
    ('index', '--scheme', "'log_entropy'"),
    ('index', '--svd-method', "'auto'"),
    ('index', 'output', 'None'),
    ('index', 'source', 'None'),
    ('info', 'database', 'None'),
    ('query', '--threshold', 'None'),
    ('query', '--top', '10'),
    ('query', 'database', 'None'),
    ('query', 'text', 'None'),
    ('serve', '--checkpoint-every', '64'),
    ('serve', '--data-dir', 'None'),
    ('serve', '--factors', '50'),
    ('serve', '--host', "'127.0.0.1'"),
    ('serve', '--max-batch', '32'),
    ('serve', '--max-resident', 'None'),
    ('serve', '--min-doc-freq', '1'),
    ('serve', '--port', '8080'),
    ('serve', '--queue-depth', '256'),
    ('serve', '--scheme', "'log_entropy'"),
    ('serve', '--slow-ms', '500.0'),
    ('serve', '--slowlog', 'None'),
    ('serve', '--tenant', 'None'),
    ('serve', 'source', 'None'),
    ('stats', '--data-dir', 'None'),
    ('stats', '--json', 'False'),
    ('stats', '--reset', 'False'),
    ('stats', '--slowlog', 'None'),
    ('stats', '--spans', '20'),
    ('store', '--json', 'False'),
    ('store', 'action', 'None'),
    ('store', 'data_dir', 'None'),
    ('tenants list', '--host', "'127.0.0.1'"),
    ('tenants list', '--json', 'False'),
    ('tenants list', '--port', '8080'),
    ('tenants status', '--host', "'127.0.0.1'"),
    ('tenants status', '--json', 'False'),
    ('tenants status', '--port', '8080'),
    ('terms', '--top', '10'),
    ('terms', 'database', 'None'),
    ('terms', 'term', 'None'),
}


def _triples(parser: argparse.ArgumentParser, path=()) -> set:
    found = set()
    for action in parser._actions:
        if isinstance(action, argparse._SubParsersAction):
            for name, sub in action.choices.items():
                found |= _triples(sub, path + (name,))
        elif not isinstance(action, argparse._HelpAction):
            name = action.option_strings[-1] if action.option_strings else action.dest
            found.add((" ".join(path), name, repr(action.default)))
    return found


def test_option_surface_is_unchanged():
    got = _triples(build_parser())
    assert got - EXPECTED == set(), "options added or re-defaulted"
    assert EXPECTED - got == set(), "options removed or re-defaulted"


def test_config_objects_gained_no_field():
    ceiling = {
        ServerConfig: 3,
        ClusterConfig: 5,
        SupervisorConfig: 3,
        CheckpointPolicy: 3,
        StandbyConfig: 3,
    }
    for config, fields in ceiling.items():
        assert len(dataclasses.fields(config)) <= fields, config.__name__


def test_no_tunable_is_declared_twice():
    """The front end's and the fleet's configs restate no field of the
    part configs a fleet carries (supervisor, writer, standby), so no
    tunable and no default exists twice."""
    parts = (SupervisorConfig, CheckpointPolicy, StandbyConfig)
    holders = {"supervisor", "writer", "standby"}
    part_fields = {f.name for part in parts for f in dataclasses.fields(part)}
    seen: set[str] = set()
    for config in (ServerConfig, ClusterConfig):
        own = {f.name for f in dataclasses.fields(config)} - holders
        assert not own & (part_fields | seen), (config.__name__, own)
        seen |= own
