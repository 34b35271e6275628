"""Static circuit analyses.

The main one is combinational-cycle detection: the paper notes (section
2.2.2) that the compiler emits *a warning if a dynamic deadlock is
possible*.  A synchronous deadlock can only arise from a cycle through
combinational nets (gates, expression and action nets); registers break
cycles.  Some cycles are harmless (they stabilize for every input — the
constructive programs of section 5.2), so a cycle is a warning, not an
error; actual deadlocks are detected at run time by the scheduler.

Both the cycle check and the evaluation plans of
:mod:`repro.compiler.plan` rest on one analysis, *levelization*
(:func:`levelize`): a topological sort of the augmented graph — boolean
fanin edges *and* the EXPR/ACTION data-dependency edges together — with
a longest-path level per net.  Statically acyclic regions need no
fixpoint iteration at all: they can be evaluated as straight-line code,
one net per statement, in level order (sorted-equation evaluation in the
sense of Gaffé/Ressouche/Roy's modular Esterel compilation).  The sort
is one linear Kahn pass; Tarjan's strongly connected components run only
when that pass leaves nets it cannot order, i.e. on cyclic circuits.
"""

from __future__ import annotations

from typing import List, Optional

from repro.compiler.netlist import INPUT, REG, Circuit, Net


def combinational_edges(circuit: Circuit) -> List[List[int]]:
    """Fanout lists, indexed by net id: edges source → consumer through
    combinational nets, each consumer listed once per fanin or data
    dependency it has on the source, consumers in id order."""
    fanout: List[List[int]] = [[] for _ in circuit.nets]
    for net in circuit.nets:
        if net.kind == REG or net.kind == INPUT:
            continue  # outputs known at reaction start; no incoming edges
        i = net.id
        for source, _neg in net.inputs:
            fanout[source].append(i)
        for dep in net.deps:
            fanout[dep].append(i)
    return fanout


def strongly_connected_components(
    circuit: Circuit, edges: Optional[List[List[int]]] = None
) -> List[List[int]]:
    """Iterative Tarjan over the combinational graph (``edges``, when
    given, is its :func:`combinational_edges` lists), roots in id order.
    Components come out sinks first, members in stack-pop order."""
    if edges is None:
        edges = combinational_edges(circuit)
    index_of: List[int] = [-1] * len(edges)
    low: List[int] = [0] * len(edges)
    on_stack = bytearray(len(edges))
    stack: List[int] = []
    sccs: List[List[int]] = []
    counter = 0

    for root in range(len(edges)):
        if index_of[root] >= 0:
            continue
        work = [(root, iter(edges[root]))]
        index_of[root] = low[root] = counter
        counter += 1
        stack.append(root)
        on_stack[root] = 1
        while work:
            node, it = work[-1]
            advanced = False
            for succ in it:
                if index_of[succ] < 0:
                    index_of[succ] = low[succ] = counter
                    counter += 1
                    stack.append(succ)
                    on_stack[succ] = 1
                    work.append((succ, iter(edges[succ])))
                    advanced = True
                    break
                if on_stack[succ] and index_of[succ] < low[node]:
                    low[node] = index_of[succ]
            if advanced:
                continue
            work.pop()
            if work:
                parent = work[-1][0]
                if low[node] < low[parent]:
                    low[parent] = low[node]
            if low[node] == index_of[node]:
                component: List[int] = []
                while True:
                    member = stack.pop()
                    on_stack[member] = 0
                    component.append(member)
                    if member == node:
                        break
                sccs.append(component)
    return sccs


class Levelization:
    """The augmented graph in evaluation order.

    ``levels``
        per-net longest-path depth; all members of a cyclic component
        share their component's level.  Registers, inputs and source
        gates sit at level 0.
    ``cyclic``
        the components that are *not* straight-line evaluable (strongly
        connected components of size > 1, plus self-loops), sources
        before the components that read them.  Members are in Tarjan's
        stack-pop order, the order the cycle warnings list them in.
    ``depth``
        the number of levels.
    """

    __slots__ = ("levels", "cyclic")

    def __init__(self, levels: List[int], cyclic: List[List[int]]):
        self.levels = levels
        self.cyclic = cyclic

    def __setstate__(self, state) -> None:
        # Pickled slots arrive as ``(None, {slot: value})``; payloads from
        # older releases also carry an ``order`` slot, no longer kept.
        if isinstance(state, tuple):
            state = state[1]
        self.levels = state["levels"]
        self.cyclic = state["cyclic"]

    @property
    def depth(self) -> int:
        return 1 + max(self.levels) if self.levels else 0


def levelize(
    circuit: Circuit, edges: Optional[List[List[int]]] = None
) -> Levelization:
    """Sort the augmented circuit topologically with longest-path levels
    (a proof of static acyclicity when ``.cyclic`` is empty).  ``edges``
    is the circuit's :func:`combinational_edges` lists, built here if
    omitted.

    One Kahn pass, frontier by frontier: a net joins frontier *k + 1*
    when the last of its fanins is removed with frontier *k*, so the
    frontier index is its longest-path level.  What the pass cannot
    remove — the *residue* — is every net on a cycle or downstream of
    one; only then does Tarjan run, to condense the circuit and level
    the residue's components on top of the nets Kahn already placed.
    """
    if edges is None:
        edges = combinational_edges(circuit)
    pending = [0] * len(edges)
    for consumers in edges:
        for v in consumers:
            pending[v] += 1
    levels = [0] * len(edges)
    frontier = [i for i, count in enumerate(pending) if not count]
    placed = 0
    level = 0
    while frontier:
        placed += len(frontier)
        ready: List[int] = []
        for u in frontier:
            levels[u] = level
            for v in edges[u]:
                count = pending[v] - 1
                pending[v] = count
                if not count:
                    ready.append(v)
        frontier = ready
        level += 1
    if placed == len(edges):
        return Levelization(levels, [])
    return _level_components(circuit, edges, levels)


def _level_components(
    circuit: Circuit, edges: List[List[int]], levels: List[int]
) -> Levelization:
    """Condense the circuit into its strongly connected components and
    level them sources first, each one above every component it reads.
    Kahn's levels are already final outside the residue; pushing them
    along the edges again only lifts the residue's components."""
    components = strongly_connected_components(circuit, edges)
    comp_of = [0] * len(edges)
    for index, component in enumerate(components):
        for i in component:
            comp_of[i] = index
    cyclic: List[List[int]] = []
    for index in range(len(components) - 1, -1, -1):
        component = components[index]
        level = max(levels[i] for i in component)
        for i in component:
            levels[i] = level
            for v in edges[i]:
                if comp_of[v] != index and levels[v] <= level:
                    levels[v] = level + 1
        if len(component) > 1 or component[0] in edges[component[0]]:
            cyclic.append(component)
    return Levelization(levels, cyclic)


def find_cycles(circuit: Circuit) -> List[List[Net]]:
    """Return combinational cycles (SCCs of size > 1, or self-loops),
    sinks first, as Tarjan finds them."""
    return [
        [circuit.nets[i] for i in component]
        for component in reversed(levelize(circuit).cyclic)
    ]


def cycle_warnings(circuit: Circuit) -> List[str]:
    """Human-readable warnings, one per potential causality cycle."""
    warnings = []
    for cycle in find_cycles(circuit):
        members = ", ".join(net.describe() for net in cycle[:6])
        suffix = ", ..." if len(cycle) > 6 else ""
        warnings.append(
            f"possible causality cycle through {len(cycle)} nets: {members}{suffix}"
        )
    return warnings
