"""The successive compactor (Sec. 2.3).

"In contrast to general compaction approaches, the compaction is done
successively by involving only one new object in each step.  Thus, only outer
edges of the main object have to be kept in the data structure and no general
edge graph must be created."

One :meth:`Compactor.compact` call:

1. computes all active pair constraints between the moving object and the
   main structure (rule spacing, same-potential skipping, no_overlap);
2. while the binding constraint involves a *variable* edge, shrinks that edge
   just far enough to hand the binding role to the next constraint, rebuilding
   dependent geometry (contact arrays etc.) — Fig. 5b;
3. translates the object by the final travel and merges it into the main
   structure;
4. auto-connects same-potential geometry separated along the compaction axis
   by stretching the nearer rect across the gap — Fig. 5a.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, Iterable, List, Optional, Sequence, Tuple

from ..db import LayoutObject
from ..geometry import Axis, Direction, Rect
from ..obs import get_logger, get_tracer
from ..obs.provenance import get_recorder
from .index import bridge_blocked, frontier_groups
from .separation import PairConstraint, gather_constraints_grouped

#: Hard cap on variable-edge iterations per compaction step.
MAX_SHRINK_ROUNDS = 64

log = get_logger("compact")


@dataclass
class CompactionResult:
    """Outcome record of one compaction step."""

    travel: int
    direction: Direction
    shrunk_edges: int = 0
    connected: int = 0
    merged_rects: List[Rect] = field(default_factory=list)


class Compactor:
    """Successive compactor bound to nothing but a flag set.

    ``variable_edges`` switches the Fig. 5b optimization; ``auto_connect``
    switches the Fig. 5a same-potential connection.  Both default on,
    matching the paper.

    The hot scans (outer-edge frontier pruning, candidate gathering,
    auto-connect resident lookup, bridge blocking) read the main object's
    rect store through :mod:`repro.compact.index`.
    :class:`repro.verify.reference.ScanCompactor` is the same compactor
    with from-scratch scans; the differential harness races the two.
    """

    def __init__(
        self,
        variable_edges: bool = True,
        auto_connect: bool = True,
    ) -> None:
        self.variable_edges = variable_edges
        self.auto_connect = auto_connect
        #: Lifetime count of :meth:`compact` invocations.  The search-tree
        #: order optimizer is specified as "one compaction per child of each
        #: distinct partial layout it searches"; tests and benchmarks
        #: assert against this counter.
        self.calls = 0

    # ------------------------------------------------------------------
    def compact(
        self,
        main: LayoutObject,
        obj: LayoutObject,
        direction: Direction,
        ignore_layers: Iterable[str] = (),
    ) -> CompactionResult:
        """Compact *obj* against *main* along *direction* and merge it.

        *obj* is translated in place (so the caller's handle shows the final
        position) and its geometry is copied into *main*.  Layers named in
        *ignore_layers* are "not relevant during this compaction step"; their
        same-potential geometry is connected automatically afterwards.
        """
        if main.tech is not obj.tech:
            raise ValueError("cannot compact objects from different technologies")
        self.calls += 1
        tracer = get_tracer()
        with tracer.span(
            "compact.step", obj=obj.name, into=main.name, direction=direction.name
        ):
            result = self._compact_step(main, obj, direction, ignore_layers)
        recorder = get_recorder()
        if recorder.enabled:
            step = recorder.next_step()
            for rect in result.merged_rects:
                prov = rect.prov
                if prov is not None and prov.step is None:
                    rect.prov = prov.with_step(step)
            if recorder.capture_stages:
                recorder.record_stage(
                    main,
                    f"step {step}: {obj.name} → {main.name} {direction.name}",
                    travel=result.travel,
                    shrunk_edges=result.shrunk_edges,
                    connected=result.connected,
                )
        tracer.count("compact.steps")
        tracer.count("compact.merged_rects", len(result.merged_rects))
        tracer.count("compact.relaxed_edges", result.shrunk_edges)
        tracer.count("compact.auto_connects", result.connected)
        if log.isEnabledFor(10):  # logging.DEBUG
            log.debug(
                "step %d: %s -> %s %s travel=%d shrunk=%d connected=%d",
                self.calls, obj.name, main.name, direction.name,
                result.travel, result.shrunk_edges, result.connected,
            )
        return result

    def _compact_step(
        self,
        main: LayoutObject,
        obj: LayoutObject,
        direction: Direction,
        ignore_layers: Iterable[str],
    ) -> CompactionResult:
        result = CompactionResult(travel=0, direction=direction)

        if main.is_empty():
            # First object: simply copied into the data structure (Sec. 2.5).
            result.merged_rects = main.merge(obj)
            return result

        with get_tracer().span("compact.solve", direction=direction.name):
            travel, shrunk = self._resolve_travel(
                main, obj, direction, ignore_layers
            )
        result.travel = travel
        result.shrunk_edges = shrunk

        obj.translate(direction.dx * travel, direction.dy * travel)
        result.merged_rects = main.merge(obj)

        if self.auto_connect:
            result.connected = self._auto_connect(main, result.merged_rects, direction)
        return result

    # ------------------------------------------------------------------
    # travel computation with variable-edge shrinking
    # ------------------------------------------------------------------
    def _resolve_travel(
        self,
        main: LayoutObject,
        obj: LayoutObject,
        direction: Direction,
        ignore_layers: Iterable[str],
    ) -> Tuple[int, int]:
        """Final travel after exhausting variable-edge moves."""
        ignore = tuple(ignore_layers)
        tracer = get_tracer()
        shrunk = 0
        last_travel: Optional[int] = None
        for _ in range(MAX_SHRINK_ROUNDS if self.variable_edges else 1):
            tracer.count("compact.shrink_rounds")
            constraints = self._constraints(main, obj, direction, ignore)
            if not constraints:
                # Relaxation may have deactivated the final constraint; the
                # bounding-box fallback must never regress below the travel
                # the constrained state already permitted.
                fallback = self._fallback_travel(main, obj, direction)
                if last_travel is not None:
                    fallback = max(fallback, last_travel)
                return fallback, shrunk
            travel = min(c.max_travel for c in constraints)
            last_travel = travel
            if not self.variable_edges:
                return travel, shrunk

            binding = [c for c in constraints if c.max_travel == travel]
            loose = [c for c in constraints if c.max_travel > travel]
            target = min((c.max_travel for c in loose), default=None)
            # If any binding constraint involves only fixed edges, no amount
            # of shrinking elsewhere can increase the travel: stop here.
            if any(
                not self._constraint_relaxable(direction, c) for c in binding
            ):
                return travel, shrunk
            moved = False
            for constraint in binding:
                if self._relax_constraint(main, obj, direction, constraint, travel, target):
                    moved = True
                    shrunk += 1
            if not moved:
                return travel, shrunk
        constraints = self._constraints(main, obj, direction, ignore)
        if not constraints:
            return self._fallback_travel(main, obj, direction), shrunk
        return min(c.max_travel for c in constraints), shrunk

    def _constraints(
        self,
        main: LayoutObject,
        obj: LayoutObject,
        direction: Direction,
        ignore: Tuple[str, ...],
    ) -> List[PairConstraint]:
        moving = obj.nonempty_rects
        tracer = get_tracer()
        store = main.store()
        arrival_nets = frozenset(
            rect.net for rect in moving if rect.net is not None
        )
        groups = frontier_groups(store, direction, arrival_nets)
        survivors = sum(len(rects) for _, rects in groups)
        tracer.count("compact.frontier_dropped", store.nonempty - survivors)
        groups = self._prune_window(
            main.tech, moving, groups, direction, ignore, tracer
        )
        constraints = gather_constraints_grouped(
            main.tech, moving, groups, direction, ignore
        )
        tracer.count("compact.constraints", len(constraints))
        return constraints

    @staticmethod
    def _prune_window(
        tech,
        moving: Sequence[Rect],
        groups: List[Tuple[str, List[Rect]]],
        direction: Direction,
        ignore: Tuple[str, ...],
        tracer,
    ) -> List[Tuple[str, List[Rect]]]:
        """Drop frontier rects the arriving object cannot reach sideways.

        A pair only constrains motion when the perpendicular spans, grown by
        the pair's spacing, overlap.  With ``[lo, hi]`` the union of the
        moving rects' perpendicular spans and ``S`` the largest spacing any
        moving layer carries against the fixed layer, a fixed rect whose span
        fails ``lo - S < r2 and r1 - S < hi`` fails the overlap test for
        every moving rect (each span sits inside ``[lo, hi]``, each spacing
        is at most ``S``), so dropping it cannot change any constraint —
        and surviving rects keep their frontier order, preserving the naive
        loop's pair ordering exactly.
        """
        perp = direction.axis.other
        lo = hi = None
        moving_layers = set()
        for rect in moving:
            if rect.layer in ignore or rect.is_empty:
                continue
            m1, m2 = rect.span(perp)
            if lo is None or m1 < lo:
                lo = m1
            if hi is None or m2 > hi:
                hi = m2
            moving_layers.add(rect.layer)
        if lo is None:
            tracer.count(
                "compact.index_window_dropped",
                sum(len(rects) for _, rects in groups),
            )
            return []
        dropped = 0
        pruned: List[Tuple[str, List[Rect]]] = []
        horizontal = perp is Axis.HORIZONTAL
        table = tech.table
        for flayer, frects in groups:
            if flayer in ignore:
                continue  # gather skips the whole group anyway
            margin = None
            for mlayer in moving_layers:
                rule, _, conducting, _, _ = table[(mlayer, flayer)]
                if rule is None and not conducting:
                    continue
                spacing = rule or 0
                if margin is None or spacing > margin:
                    margin = spacing
            if margin is None:
                # No moving layer can constrain against this fixed layer.
                dropped += len(frects)
                continue
            wlo = lo - margin
            whi = hi + margin
            if horizontal:
                keep = [r for r in frects if wlo < r.x2 and r.x1 < whi]
            else:
                keep = [r for r in frects if wlo < r.y2 and r.y1 < whi]
            dropped += len(frects) - len(keep)
            if keep:
                pruned.append((flayer, keep))
        tracer.count("compact.index_window_dropped", dropped)
        return pruned

    def _fallback_travel(
        self, main: LayoutObject, obj: LayoutObject, direction: Direction
    ) -> int:
        """With no active constraint, abut the bounding boxes flush."""
        main_box = main.bbox()
        obj_box = obj.bbox()
        if main_box is None or obj_box is None:
            return 0
        sign = 1 if direction.is_positive else -1
        lead = obj_box.edge_coord(direction)
        face = main_box.edge_coord(direction.opposite)
        return (face - lead) * sign

    def _constraint_relaxable(
        self, direction: Direction, constraint: PairConstraint
    ) -> bool:
        """True when some variable edge could weaken this constraint."""
        perp = direction.axis.other
        a1, a2 = constraint.moving.span(perp)
        b1, b2 = constraint.fixed.span(perp)
        if a2 <= b1 or b2 <= a1:  # corner conflict: perpendicular edges
            neg_dir, pos_dir = direction.perpendiculars
            if a2 <= b1:
                return (
                    constraint.fixed.edge_variable(neg_dir)
                    or constraint.moving.edge_variable(pos_dir)
                )
            return (
                constraint.fixed.edge_variable(pos_dir)
                or constraint.moving.edge_variable(neg_dir)
            )
        return (
            constraint.fixed.edge_variable(direction.opposite)
            or constraint.moving.edge_variable(direction)
        )

    def _relax_constraint(
        self,
        main: LayoutObject,
        obj: LayoutObject,
        direction: Direction,
        constraint: PairConstraint,
        travel: int,
        target: Optional[int],
    ) -> bool:
        """Try to shrink a variable edge of the binding pair.

        Two geometric situations arise:

        * the rects genuinely face each other across the compaction axis —
          shrink a facing edge just far enough that the pair's travel reaches
          the next-binding constraint's travel (*target*);
        * the rects only conflict through the corner-spacing margin (their
          perpendicular spans do not overlap) — shrink a perpendicular edge
          until the perpendicular gap reaches the required spacing, which
          deactivates the constraint entirely.

        Returns True when an edge actually moved.
        """
        perp = direction.axis.other
        a1, a2 = constraint.moving.span(perp)
        b1, b2 = constraint.fixed.span(perp)
        if a2 <= b1 or b2 <= a1:
            return self._relax_corner(main, obj, direction, constraint)
        return self._relax_facing(main, obj, direction, constraint, travel, target)

    def _relax_facing(
        self,
        main: LayoutObject,
        obj: LayoutObject,
        direction: Direction,
        constraint: PairConstraint,
        travel: int,
        target: Optional[int],
    ) -> bool:
        """Shrink a facing edge along the compaction axis (Fig. 5b)."""
        sign = 1 if direction.is_positive else -1
        fixed_edge_dir = direction.opposite  # main-side edge faces the arrival
        moving_edge_dir = direction  # object-side leading edge

        # Shrink as little as possible: just enough to stop being binding.
        if target is not None:
            delta = target - travel
            if delta <= 0:
                delta = 1
        else:
            delta = None  # move to the limit

        fixed, moving = constraint.fixed, constraint.moving
        if fixed.edge_variable(fixed_edge_dir):
            face = fixed.edge_coord(fixed_edge_dir)
            goal = (
                main.shrink_limit(fixed, fixed_edge_dir)
                if delta is None
                else face + sign * delta
            )
            achieved = main.move_edge(fixed, fixed_edge_dir, goal)
            if achieved != face:
                return True
        if moving.edge_variable(moving_edge_dir):
            lead = moving.edge_coord(moving_edge_dir)
            goal = (
                obj.shrink_limit(moving, moving_edge_dir)
                if delta is None
                else lead - sign * delta
            )
            achieved = obj.move_edge(moving, moving_edge_dir, goal)
            return achieved != lead
        return False

    def _relax_corner(
        self,
        main: LayoutObject,
        obj: LayoutObject,
        direction: Direction,
        constraint: PairConstraint,
    ) -> bool:
        """Open the perpendicular gap of a corner-only conflict.

        The pair only constrains motion because their perpendicular spans,
        grown by the spacing, overlap; widening the true perpendicular gap to
        the spacing removes the constraint without costing any travel.
        """
        perp = direction.axis.other
        spacing = constraint.spacing
        moving, fixed = constraint.moving, constraint.fixed
        a1, a2 = moving.span(perp)
        b1, b2 = fixed.span(perp)
        neg_dir, pos_dir = direction.perpendiculars

        candidates = []  # (owner, rect, edge direction, goal coordinate)
        if a2 <= b1:  # moving sits on the low side of fixed
            candidates.append((main, fixed, neg_dir, a2 + spacing))
            candidates.append((obj, moving, pos_dir, b1 - spacing))
        else:  # b2 <= a1: moving sits on the high side
            candidates.append((main, fixed, pos_dir, a1 - spacing))
            candidates.append((obj, moving, neg_dir, b2 + spacing))

        for owner, rect, edge_dir, goal in candidates:
            if not rect.edge_variable(edge_dir):
                continue
            before = rect.edge_coord(edge_dir)
            achieved = owner.move_edge(rect, edge_dir, goal)
            if achieved != before:
                return True
        return False

    # ------------------------------------------------------------------
    # same-potential auto-connection (Fig. 5a)
    # ------------------------------------------------------------------
    def _auto_connect(
        self, main: LayoutObject, new_rects: Sequence[Rect], direction: Direction
    ) -> int:
        """Stretch same-net, same-layer rects across axis gaps to connect.

        "The geometries of these layers are connected automatically after the
        compaction if they are on the same potential."  The stretch is only
        applied when the bridging strip does not cross foreign geometry on
        the same layer (which would create a short).
        """
        residents = self._residents(main, new_rects)
        connected = 0
        perp = direction.axis.other
        sign = 1 if direction.is_positive else -1

        for arrival in new_rects:
            if arrival.net is None or arrival.is_empty:
                continue
            for resident in residents.get((arrival.net, arrival.layer), ()):
                # Stretching moves the resident's whole edge, so the landing
                # must cover the resident's full perpendicular span —
                # otherwise the stretch would spill past the arrival.
                a1, a2 = arrival.span(perp)
                r1, r2 = resident.span(perp)
                if not (a1 <= r1 and r2 <= a2):
                    continue
                # Gap along the axis between the resident's facing edge and
                # the arrival's leading edge: the arrival travelled along
                # *direction* and stopped short of the resident, so the
                # separation is positive when face lies beyond lead in the
                # direction of travel.
                face = resident.edge_coord(direction.opposite)
                lead = arrival.edge_coord(direction)
                gap = (face - lead) * sign
                if gap <= 0:
                    continue  # already touching or overlapping
                bridge = self._bridge_rect(arrival, resident, direction)
                if bridge is None:
                    continue
                if self._bridge_blocked(main, bridge, arrival.net):
                    continue
                main.move_stretch(resident, direction.opposite, lead)
                if resident.prov is not None and arrival.prov is not None:
                    resident.prov = resident.prov.derived(
                        "auto_connect", arrival.prov
                    )
                connected += 1
        return connected

    def _bridge_rect(
        self, arrival: Rect, resident: Rect, direction: Direction
    ) -> Optional[Rect]:
        """The strip the stretched resident would newly occupy.

        The resident's whole edge moves, so the strip spans the resident's
        full perpendicular extent.
        """
        perp = direction.axis.other
        lo, hi = resident.span(perp)
        if lo >= hi:
            return None
        face = resident.edge_coord(direction.opposite)
        lead = arrival.edge_coord(direction)
        coords = sorted((face, lead))
        if direction.axis is direction.axis.HORIZONTAL:
            return Rect(coords[0], lo, coords[1], hi, resident.layer, resident.net)
        return Rect(lo, coords[0], hi, coords[1], resident.layer, resident.net)

    def _residents(
        self, main: LayoutObject, new_rects: Sequence[Rect]
    ) -> Dict[Tuple[str, str], List[Rect]]:
        """(net, layer) -> non-empty residents of *main* the arrivals may join.

        Only same-net same-layer pairs can connect, so the arrival loop
        skips everything else.  The store already keeps those buckets;
        fetch (and filter, before the loop) only the keys arrivals ask for.
        """
        new_ids = set(map(id, new_rects))
        store = main.store()
        rects, live = store.rects, store.live
        residents: Dict[Tuple[str, str], List[Rect]] = {}
        for rect in new_rects:
            if rect.net is None or rect.is_empty:
                continue
            key = (rect.net, rect.layer)
            if key not in residents:
                residents[key] = [
                    rects[seq]
                    for seq in store.net_seqs.get(key, ())
                    if live[seq] and id(rects[seq]) not in new_ids
                ]
        return residents

    def _bridge_blocked(self, main: LayoutObject, bridge: Rect, net: str) -> bool:
        """True when stretching across *bridge* would violate a rule.

        Answered by :func:`repro.compact.index.bridge_blocked`: same-layer
        spacing (shorts), cross-layer spacing, and EXTEND relationships — a
        poly bridge must never cross diffusion (it would create a
        transistor).
        """
        return bridge_blocked(main.store(), main.tech, bridge, net)
