"""The transport seam: phases run on any Transport, backends stay behind it.

Four layers of protection:

1. **Dispatch contract** — every backend (and the loopback fake) calls
   handlers and overhear listeners as ``callback(node_id, packet)`` with
   the receiving node, so one callable serves every node; the phases
   register exactly one bound method per kind.
2. **Loopback unit tests** — every protocol phase (tree flood, cluster
   formation, share exchange, report/verdict) executes against the
   in-memory :class:`~tests.net.loopback.LoopbackTransport` fake.
3. **Import isolation** — a subprocess proves the phase modules plus the
   fake load without ``repro.sim.kernel`` or ``repro.net.stack`` ever
   entering ``sys.modules``.
4. **Import contract** — a source scan asserts no phase module imports
   the DES backend directly; only the seam (``repro.net.transport``) and
   the protocol orchestrator may name it.
"""

from __future__ import annotations

import inspect
import json
import pathlib
import re
import subprocess
import sys

import numpy as np
import pytest

from repro.aggregation.functions import FixedPointCodec, make_aggregate
from repro.aggregation.tree import build_aggregation_tree
from repro.core.clustering import ClusterFormation
from repro.core.config import IcpdaConfig
from repro.core.field import DEFAULT_FIELD
from repro.core.integrity import ReportAndVerdictPhase
from repro.core.intracluster import IntraClusterExchange
from repro.crypto.keys import PairwiseKeyScheme
from repro.crypto.linksec import LinkSecurity
from repro.errors import SimulationError
from repro.net.transport import Transport, create_transport
from tests.net.loopback import FakeSim, LoopbackTransport, grid_topology, line_topology

REPO_SRC = pathlib.Path(__file__).resolve().parents[2] / "src"

#: Every transport the seam contract is checked on.
SEAM_KINDS = ("des", "fluid", "fluid-bulk", "loopback")


def _seam_transport(kind, deployment):
    """A fresh transport of ``kind`` over ``deployment``."""
    if kind == "loopback":
        return LoopbackTransport(dict(enumerate(deployment.links.rows)))
    from repro.sim.kernel import Simulator

    return create_transport(kind, Simulator(seed=1), deployment)


def _busy_sender(stack, peers=3):
    """A node with at least ``peers`` radio neighbors."""
    return next(n for n in stack.node_ids() if len(stack.neighbors(n)) >= peers)


# -- the fake satisfies the seam ------------------------------------------------


def test_loopback_satisfies_transport_protocol():
    fake = LoopbackTransport(line_topology(6))
    assert isinstance(fake, Transport)


def test_real_backends_satisfy_transport_protocol(small_deployment):
    from repro.sim.kernel import Simulator

    for kind in ("des", "fluid", "fluid-bulk"):
        stack = create_transport(kind, Simulator(seed=1), small_deployment)
        assert isinstance(stack, Transport), kind


def test_every_backend_registers_the_same_telemetry(small_deployment):
    """``medium``/``counters``/``energy`` snapshot the same keys on every
    backend, so fluid runs write channel, byte and energy metrics into
    trace manifests too; ``mac`` is DES-only. The loopback fake registers
    the same namespaces (its lossless channel spends no energy)."""
    keys = {}
    for kind in SEAM_KINDS:
        stack = _seam_transport(kind, small_deployment)
        src = next(iter(stack.node_ids()))
        stack.broadcast(src, "ping")
        stack.sim.run()
        snapshot = stack.sim.metrics.snapshot()
        assert snapshot["counters.messages"] == 1, kind
        assert snapshot["medium.transmissions"] == 1, kind
        assert (snapshot["energy.total_j"] > 0.0) == (kind != "loopback"), kind
        assert ("mac" in stack.sim.metrics) == (kind == "des")
        keys[kind] = {
            key
            for key in snapshot
            if key.split(".")[0] in ("medium", "counters", "energy")
        }
    assert keys["des"] == keys["fluid"] == keys["fluid-bulk"] == keys["loopback"]
    assert {key.split(".")[0] for key in keys["des"]} == {
        "medium",
        "counters",
        "energy",
    }


@pytest.mark.parametrize("kind", SEAM_KINDS)
def test_broadcast_handler_receives_each_receivers_id(small_deployment, kind):
    """One handler registered on several nodes learns, per call, which
    node received the broadcast."""
    stack = _seam_transport(kind, small_deployment)
    src = _busy_sender(stack)
    listening = set(stack.neighbors(src)[:3])
    calls = []
    handler = lambda node, packet: calls.append((node, packet.src))  # noqa: E731
    for node in listening:
        stack.register_handler(node, "ping", handler)
    for _ in range(5):
        stack.broadcast(src, "ping")
    stack.sim.run()
    assert {node for node, _ in calls} == listening
    assert all(sender == src for _, sender in calls)


@pytest.mark.parametrize("kind", SEAM_KINDS)
def test_unicast_handler_receives_dst(small_deployment, kind):
    stack = _seam_transport(kind, small_deployment)
    src = _busy_sender(stack)
    dst, other = stack.neighbors(src)[:2]
    calls = []
    handler = lambda node, packet: calls.append(node)  # noqa: E731
    stack.register_handler(dst, "ping", handler)
    stack.register_handler(other, "ping", handler)
    for _ in range(5):
        stack.send(src, dst, "ping")
    stack.sim.run()
    assert calls and set(calls) == {dst}


@pytest.mark.parametrize("kind", SEAM_KINDS)
def test_overhear_listener_receives_the_overhearing_node(small_deployment, kind):
    stack = _seam_transport(kind, small_deployment)
    src = _busy_sender(stack)
    dst, *overhearers = stack.neighbors(src)[:3]
    calls = []
    listener = lambda node, packet: calls.append((node, packet.dst))  # noqa: E731
    for node in overhearers:
        stack.register_overhear(node, listener, kinds=("ping",))
    for _ in range(5):
        stack.send(src, dst, "ping")
    stack.sim.run()
    assert {node for node, _ in calls} == set(overhearers)
    assert all(addressed == dst for _, addressed in calls)


@pytest.mark.parametrize("kind", SEAM_KINDS)
def test_send_many_checks_its_columns_alike(small_deployment, kind):
    """Every backend rejects an undersized frame with ``ValueError`` (as
    ``Packet`` does) and ragged columns with ``SimulationError``, before
    sending any row; numpy columns reach the handler as plain ints."""
    stack = _seam_transport(kind, small_deployment)
    src = _busy_sender(stack)
    dst, other = stack.neighbors(src)[:2]
    with pytest.raises(ValueError, match="below header size 16"):
        stack.send_many("ping", [src, src], [dst, other], [20, 3])
    with pytest.raises(SimulationError):
        stack.send_many("ping", [src, other], [dst], [20, 20])
    stack.flush()
    stack.sim.run()
    assert stack.counters.total_messages == 0
    calls = []
    stack.register_handler(dst, "ping", lambda node, packet: calls.append(packet))
    stack.send_many("ping", np.array([src]), np.array([dst]), np.array([20]))
    stack.flush()
    stack.sim.run()
    assert stack.counters.total_messages == 1
    assert [(type(p.src), type(p.dst), type(p.size_bytes)) for p in calls] == [
        (int, int, int)
    ]


@pytest.mark.parametrize("kind", ("des", "fluid"))
def test_batched_round_writes_strict_trace_jsonl(tmp_path, kind):
    """A batched round replays its frames through a per-frame backend as
    array columns; its ``--trace-out`` lines stay strict JSON, with the
    replayed kinds in them and no ``repr`` fallback for numpy scalars."""
    from repro.experiments.cli import main

    def reject(token):
        raise AssertionError(f"non-strict JSON token {token!r}")

    def leaves(value):
        if isinstance(value, dict):
            return [leaf for item in value.values() for leaf in leaves(item)]
        if isinstance(value, list):
            return [leaf for item in value for leaf in leaves(item)]
        return [value]

    traces = tmp_path / "traces"
    argv = ["run", "F3", "--quick", "--transport", kind, "--engine", "batched"]
    argv += ["--out", str(tmp_path / "out"), "--trace-out", str(traces)]
    assert main(argv) == 0
    records = [
        json.loads(line, parse_constant=reject)
        for path in sorted((traces / "F3").glob("cell-*.jsonl"))
        for line in path.read_text().splitlines()
    ]
    assert {"tree.join", "cluster.closed"} <= {r["category"] for r in records}
    sent = {r["fields"]["kind"] for r in records if r["category"] == "medium.tx"}
    assert kind == "fluid" or {"census", "share", "fvalue"} <= sent
    values = [leaf for r in records for leaf in leaves(r["fields"])]
    assert not [v for v in values if isinstance(v, str) and v.startswith("np.")]


def test_phases_register_one_plain_callable_per_kind():
    """After setup and one round, every (phase, kind) is served by one
    shared callable — a bound method, never a per-node closure."""
    from repro.experiments.common import run_icpda_round

    _, protocol = run_icpda_round(150, seed=1, transport="fluid")
    stack = protocol.stack
    by_kind = {}
    for table in stack._handlers.values():
        for kind, handler in table.items():
            by_kind.setdefault(("handler", kind), set()).add(handler)
    for kind, by_node in stack._kind_overhear.items():
        for listeners in by_node.values():
            by_kind.setdefault(("overhear", kind), set()).update(listeners)
    for listeners in stack._wild_overhear.values():
        by_kind.setdefault(("overhear", None), set()).update(listeners)
    assert ("handler", "share") in by_kind and ("overhear", "report") in by_kind
    for key, callables in by_kind.items():
        assert len(callables) == 1, (key, len(callables))
        (callable_,) = callables
        assert inspect.ismethod(callable_) or callable_.__closure__ is None, key


def test_loopback_overhears_before_handler():
    fake = LoopbackTransport(line_topology(4, reach=1))
    order = []
    fake.register_overhear(
        1, lambda _node, p: order.append("overhear"), kinds=("ping",)
    )
    fake.register_handler(1, "ping", lambda _node, p: order.append("handler"))
    fake.send(0, 1, "ping", {"x": 1})
    fake.sim.run()
    assert order == ["overhear", "handler"]


def test_loopback_dead_sender_is_silent():
    fake = LoopbackTransport(line_topology(4, reach=1))
    heard = []
    fake.register_handler(1, "ping", lambda _node, p: heard.append(p))
    fake.fail_node(0)
    fake.send(0, 1, "ping")
    fake.sim.run()
    assert heard == []
    assert fake.counters.total_messages == 0
    assert fake.is_failed(0) and not fake.is_failed(1)


# -- every phase runs against the fake ------------------------------------------


def test_tree_flood_on_loopback_reaches_every_node():
    fake = LoopbackTransport(grid_topology(5))
    tree = build_aggregation_tree(fake)
    assert set(tree.parents) == set(fake.node_ids())
    assert tree.parents[0] is None and tree.depths[0] == 0
    for node, parent in tree.parents.items():
        if parent is not None:
            assert node in fake.neighbors(parent)
            assert tree.depths[node] == tree.depths[parent] + 1


def test_cluster_formation_on_loopback_forms_bs_cluster():
    fake = LoopbackTransport(grid_topology(5))
    tree = build_aggregation_tree(fake)
    clustering = ClusterFormation(fake, tree, IcpdaConfig(), round_id=0).run()
    assert 0 in clustering.clusters  # the BS always self-elects
    for head, cluster in clustering.clusters.items():
        for member in cluster.members:
            assert member == head or member in fake.neighbors(head)


def test_full_round_on_loopback_accepts_and_sums():
    """Phases II-IV chained on the fake: the paper pipeline end to end
    with no simulator, no MAC, no medium."""
    fake = LoopbackTransport(grid_topology(6))
    cfg = IcpdaConfig()
    tree = build_aggregation_tree(fake)
    clustering = ClusterFormation(fake, tree, cfg, round_id=0).run()

    readings = {i: 10.0 + (i % 7) for i in fake.node_ids() if i != 0}
    aggregate = make_aggregate("sum", FixedPointCodec(scale=cfg.fixed_point_scale))
    exchange = IntraClusterExchange(
        fake,
        clustering,
        cfg,
        LinkSecurity(PairwiseKeyScheme()),
        aggregate,
        readings,
        DEFAULT_FIELD,
        participating_heads=None,
        round_id=0,
    ).run()
    assert exchange.completed_clusters

    report = ReportAndVerdictPhase(
        fake, tree, clustering, exchange, cfg, aggregate, round_id=0
    )
    true_value = aggregate.true_value(list(readings.values()))
    result = report.run(true_value, total_sensors=len(readings))
    assert result.verdict.accepted
    # Lossless channel: whoever participated is summed exactly.
    assert result.contributors > 0
    assert result.value <= true_value + 1e-6
    assert result.accuracy == pytest.approx(result.value / true_value, abs=1e-9)


def test_loopback_rounds_are_deterministic():
    def one_round(seed):
        fake = LoopbackTransport(grid_topology(5), sim=FakeSim(seed=seed))
        cfg = IcpdaConfig()
        tree = build_aggregation_tree(fake)
        clustering = ClusterFormation(fake, tree, cfg, round_id=0).run()
        return (
            tuple(sorted(clustering.clusters)),
            fake.counters.total_bytes,
            fake.delivered,
        )

    assert one_round(3) == one_round(3)
    assert one_round(3) != one_round(4)


# -- import isolation / import contract -----------------------------------------

#: Modules that must be loadable (and runnable, per the tests above)
#: without either concrete network backend.
_PHASE_MODULES = (
    "repro.aggregation.tree",
    "repro.aggregation.tag",
    "repro.aggregation.slicing",
    "repro.core.arq",
    "repro.core.clustering",
    "repro.core.intracluster",
    "repro.core.integrity",
    "repro.net.transport",
    "tests.net.loopback",
)


def test_phases_import_without_simulator_or_des_backend():
    """Subprocess check: importing every phase module plus the loopback
    fake must not drag in the event kernel or the DES stack."""
    code = (
        "import importlib, sys\n"
        + "".join(f"importlib.import_module({mod!r})\n" for mod in _PHASE_MODULES)
        + "forbidden = [m for m in ('repro.sim.kernel', 'repro.net.stack',"
        " 'repro.net.mac', 'repro.net.medium') if m in sys.modules]\n"
        "assert not forbidden, f'phases pulled in {forbidden}'\n"
    )
    repo_root = str(REPO_SRC.parent)
    proc = subprocess.run(
        [sys.executable, "-c", code],
        capture_output=True,
        text=True,
        cwd=repo_root,
        env={"PYTHONPATH": f"{REPO_SRC}:{repo_root}", "PATH": "/usr/bin:/bin"},
    )
    assert proc.returncode == 0, proc.stderr


def test_no_phase_module_imports_des_stack_directly():
    """Source-level contract: inside ``core/`` and ``aggregation/`` the
    DES backend may only be named via the seam's lazy factory."""
    pattern = re.compile(r"^\s*(from|import)\s+repro\.net\.(stack|mac|medium)\b")
    offenders = []
    for package in ("core", "aggregation"):
        for path in sorted((REPO_SRC / "repro" / package).glob("*.py")):
            for lineno, line in enumerate(path.read_text().splitlines(), 1):
                if pattern.match(line):
                    offenders.append(f"{path.name}:{lineno}: {line.strip()}")
    assert not offenders, "phase modules must import the seam, not the DES stack:\n" + "\n".join(offenders)


@pytest.mark.parametrize("backend", ["NetworkStack", "FluidTransport", "BulkFluidTransport"])
def test_backends_define_registration_in_their_own_class_body(backend):
    """``perfbench/tracing.py`` wraps ``register_handler`` and
    ``register_overhear`` found in ``vars(cls)`` of each backend, so the
    callbacks they register book their time to ``proto.handler``. A
    method inherited from a shared base would not be in ``vars`` and
    would drop handler time out of that layer without an error."""
    from repro.net.fluid import BulkFluidTransport, FluidTransport
    from repro.net.stack import NetworkStack

    cls = {
        "NetworkStack": NetworkStack,
        "FluidTransport": FluidTransport,
        "BulkFluidTransport": BulkFluidTransport,
    }[backend]
    assert "register_handler" in vars(cls)
    assert "register_overhear" in vars(cls)
