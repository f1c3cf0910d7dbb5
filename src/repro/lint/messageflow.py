"""Cross-file message-flow analysis (RPL010/RPL011).

The runtime's rendezvous protocol is stringly typed: a ``send`` whose
``method`` names neither a real entry method nor a mailbox someone
``when``-waits on is silently buffered forever; a ``when`` whose mailbox
nobody ever fills deadlocks the chare.  Both only surface at runtime (if
at all — a dropped deposit may just skew the schedule).  This module
matches **producers** against **consumers** over the whole linted tree:

producers (checked by RPL010)
    ``self.send(idx, "m", ...)``, ``array.send(sender, idx, "m", ...)``,
    ``self.gpu_send(idx, "m", ...)``, ``array.broadcast("m")``,
    ``array.inject(idx, "m")``, channel ``send``/``recv`` (explicit
    ``mailbox=`` or the ``ch_send``/``ch_recv`` defaults on receivers
    traced to ``channel_to``), and literal ``EntryMessage(method="m")``
    constructions.

consumers
    ``self.when("m", ...)`` sites, plus every method defined on a
    chare-like class (a send to a real entry method is always consumable).

Names on the engine's mailbox allowlist (runtime-internal deposits wired
up dynamically, e.g. ``_reduction_result`` from the reduction manager and
``_gm_post`` installed by ``install_gm_post``) are exempt from both rules.
"""

from __future__ import annotations

import ast
from dataclasses import dataclass, field
from typing import Iterable, Optional

from .rules import Finding

__all__ = ["FlowModel", "collect_flow", "resolve_messageflow"]


@dataclass(frozen=True)
class _Site:
    name: str
    line: int
    col: int


@dataclass
class FlowModel:
    """Producers/consumers harvested from one file."""

    consumers: list[_Site] = field(default_factory=list)
    producers: list[_Site] = field(default_factory=list)


def _literal_pos(call: ast.Call, index: int) -> Optional[str]:
    if index < len(call.args):
        arg = call.args[index]
        if isinstance(arg, ast.Constant) and isinstance(arg.value, str):
            return arg.value
    return None


def _literal_kw(call: ast.Call, name: str) -> Optional[str]:
    for kw in call.keywords:
        if kw.arg == name and isinstance(kw.value, ast.Constant) \
                and isinstance(kw.value.value, str):
            return kw.value.value
    return None


def _collect_channel_receivers(tree: ast.Module) -> tuple[set, set]:
    """Names / ``self.<attr>`` slots assigned from ``channel_to(...)``."""

    def is_channel_expr(value) -> bool:
        if isinstance(value, ast.IfExp):
            return is_channel_expr(value.body) or is_channel_expr(value.orelse)
        return (isinstance(value, ast.Call)
                and isinstance(value.func, ast.Attribute)
                and value.func.attr == "channel_to")

    names: set[str] = set()
    attrs: set[str] = set()
    for node in ast.walk(tree):
        if not isinstance(node, ast.Assign) or not is_channel_expr(node.value):
            continue
        for target in node.targets:
            if isinstance(target, ast.Name):
                names.add(target.id)
            elif (isinstance(target, ast.Attribute)
                  and isinstance(target.value, ast.Name)
                  and target.value.id == "self"):
                attrs.add(target.attr)
    return names, attrs


def collect_flow(tree: ast.Module) -> FlowModel:
    flow = FlowModel()
    channel_names, channel_attrs = _collect_channel_receivers(tree)

    def receiver_is_channel(expr) -> bool:
        if isinstance(expr, ast.Name):
            return expr.id in channel_names
        if isinstance(expr, ast.Attribute) and isinstance(expr.value, ast.Name) \
                and expr.value.id == "self":
            return expr.attr in channel_attrs
        if isinstance(expr, ast.Call) and isinstance(expr.func, ast.Attribute):
            return expr.func.attr == "channel_to"
        return False

    def site(name: str, node) -> _Site:
        return _Site(name, node.lineno, node.col_offset)

    for node in ast.walk(tree):
        if not isinstance(node, ast.Call):
            continue
        func = node.func
        if isinstance(func, ast.Name):
            if func.id == "EntryMessage":
                name = _literal_kw(node, "method")
                if name:
                    flow.producers.append(site(name, node))
            continue
        if not isinstance(func, ast.Attribute):
            continue
        attr = func.attr
        if attr == "when":
            name = _literal_pos(node, 0) or _literal_kw(node, "method")
            if name:
                flow.consumers.append(site(name, node))
        elif attr == "send":
            name = (_literal_kw(node, "mailbox") or _literal_kw(node, "method")
                    or _literal_pos(node, 1) or _literal_pos(node, 2))
            if name:
                flow.producers.append(site(name, node))
            elif receiver_is_channel(func.value):
                flow.producers.append(site("ch_send", node))
        elif attr == "recv":
            name = _literal_kw(node, "mailbox")
            if name:
                flow.producers.append(site(name, node))
            elif receiver_is_channel(func.value):
                flow.producers.append(site("ch_recv", node))
        elif attr == "gpu_send":
            name = _literal_kw(node, "method") or _literal_pos(node, 1)
            if name:
                flow.producers.append(site(name, node))
        elif attr == "broadcast":
            name = _literal_kw(node, "method") or _literal_pos(node, 0)
            if name:
                flow.producers.append(site(name, node))
        elif attr == "inject":
            name = _literal_kw(node, "method") or _literal_pos(node, 1)
            if name:
                flow.producers.append(site(name, node))
    return flow


def resolve_messageflow(flows: dict[str, FlowModel], entry_defs: set,
                        allowlist: Iterable[str]) -> list[Finding]:
    """Match producers to consumers across every linted file."""
    allow = set(allowlist)
    when_names = {c.name for path, f in flows.items() for c in f.consumers}
    produced = {p.name for path, f in flows.items() for p in f.producers}

    findings: list[Finding] = []
    consumable = when_names | entry_defs | allow
    for path, flow in flows.items():
        for producer in flow.producers:
            if producer.name not in consumable:
                findings.append(Finding(
                    path, producer.line, producer.col, "RPL010",
                    f"deposit to {producer.name!r} is never consumed: no "
                    f"entry method of that name and no when({producer.name!r}) "
                    f"anywhere — dropped work or deadlock"))
        for consumer in flow.consumers:
            if consumer.name not in produced and consumer.name not in allow:
                findings.append(Finding(
                    path, consumer.line, consumer.col, "RPL011",
                    f"when({consumer.name!r}) has no statically-visible "
                    f"sender — likely deadlock"))
    return findings
