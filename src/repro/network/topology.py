"""Network topologies for the Accelerator Fabric.

The paper evaluates a point-to-point 3D torus built from an intra-package
local ring (L NPUs per package) and inter-package vertical/horizontal rings
(V rows x H columns of packages); the notation ``LxVxH`` names the shape.
Several alternative fabrics are provided for the cross-topology planner
sweeps and the switch-offload comparison discussed in Section IV-B:

* :class:`RingTopology` — a single flat ring;
* :class:`SwitchTopology` — all endpoints behind one logical switch
  (an NVSwitch-class group);
* :class:`FullyConnected` — dedicated point-to-point links between every
  endpoint pair;
* :class:`Torus2D` — a VxH torus of single-NPU packages (a degenerate
  :class:`Torus3D` with L = 1).

:func:`topology_from_spec` parses the string notation used by job specs
(``"torus:4x4x4"``, ``"ring:16"``, ...) into topology instances, and every
topology exposes :meth:`Topology.cache_key` so the collective planner can
cache plans by value even when two different topology classes share a node
count.
"""

from __future__ import annotations

import abc
import re
from dataclasses import dataclass
from typing import Hashable, List, Sequence, Tuple

from repro.errors import TopologyError

Coordinate = Tuple[int, int, int]

#: Torus dimension names in XYZ routing order (local, vertical, horizontal).
TORUS_DIMENSIONS: Tuple[str, str, str] = ("local", "vertical", "horizontal")


class Topology(abc.ABC):
    """Abstract network topology: a node count and the dimensions that carry traffic."""

    @property
    @abc.abstractmethod
    def num_nodes(self) -> int:
        """Number of NPU endpoints in the fabric."""

    @property
    def name(self) -> str:
        """Short human-readable identifier (used in plans, errors, reports)."""
        return f"{type(self).__name__.lower()}-{self.num_nodes}"

    def cache_key(self) -> Hashable:
        """Value identity used to cache collective plans.

        Two topology instances that are interchangeable for planning purposes
        must return equal keys; topologies of different classes that merely
        share a node count must not.  The default key includes the class name
        and the node count, which is sufficient for topologies whose behaviour
        is fully determined by their size.
        """
        return (type(self).__name__.lower(), self.num_nodes)

    @abc.abstractmethod
    def active_dimensions(self) -> List[str]:
        """Dimension names that carry traffic, in deterministic order."""

    def nodes(self) -> range:
        """Iterable of all node ids (``0 .. num_nodes - 1``)."""
        return range(self.num_nodes)

    def validate_node(self, node: int) -> None:
        """Raise :class:`TopologyError` unless ``node`` is a valid node id."""
        if not 0 <= node < self.num_nodes:
            raise TopologyError(
                f"node {node} out of range for topology with {self.num_nodes} nodes"
            )


@dataclass(frozen=True)
class RingTopology(Topology):
    """A single ring of ``size`` nodes."""

    size: int
    dimension: str = "local"

    def __post_init__(self) -> None:
        if self.size < 2:
            raise TopologyError(f"a ring needs at least 2 nodes, got {self.size}")

    @property
    def num_nodes(self) -> int:
        """Number of endpoints on the ring."""
        return self.size

    @property
    def name(self) -> str:
        """``ring-<size>`` identifier."""
        return f"ring-{self.size}"

    def cache_key(self) -> Tuple:
        """Plans depend on size and the dimension label."""
        return ("ring", self.size, self.dimension)

    def active_dimensions(self) -> List[str]:
        """A ring carries all traffic on its single dimension."""
        return [self.dimension]


@dataclass(frozen=True)
class SingleHopTopology(Topology):
    """Shared structure of fabrics where every endpoint pair is one hop apart.

    Subclasses set ``_kind`` (the cache-key/name tag) and a ``dimension``
    default; a switch group and a fully-connected fabric differ only in the
    physical link class their dimension maps to.
    """

    size: int
    dimension: str = "switch"

    #: Cache-key/name tag; subclasses override.
    _kind = "single_hop"

    def __post_init__(self) -> None:
        if self.size < 2:
            raise TopologyError(
                f"a {self._kind} fabric needs at least 2 endpoints, got {self.size}"
            )

    @property
    def num_nodes(self) -> int:
        """Number of endpoints in the fabric."""
        return self.size

    def cache_key(self) -> Tuple:
        """Plans depend on the fabric kind, size and dimension label."""
        return (self._kind, self.size, self.dimension)

    def active_dimensions(self) -> List[str]:
        """All traffic rides the fabric's single dimension."""
        return [self.dimension]


@dataclass(frozen=True)
class SwitchTopology(SingleHopTopology):
    """All endpoints hang off one logical switch (e.g. an NVSwitch group)."""

    dimension: str = "switch"
    _kind = "switch"

    @property
    def name(self) -> str:
        """``switch-<size>`` identifier."""
        return f"switch-{self.size}"


@dataclass(frozen=True)
class FullyConnected(SingleHopTopology):
    """Dedicated point-to-point links between every pair of endpoints.

    Unlike :class:`SwitchTopology` — which funnels all traffic through one
    shared switch fabric provisioned with intra-package-class ports — a
    fully-connected topology gives each endpoint pair its own
    inter-package-class link, so single-hop algorithms (direct all-to-all,
    halving-doubling, trees) never forward traffic through intermediate
    nodes.  The per-NPU aggregate bandwidth is still modelled as one
    dimension pipe (``direct``) by the symmetric fabric.
    """

    dimension: str = "direct"
    _kind = "fully_connected"

    @property
    def name(self) -> str:
        """``fc-<size>`` identifier."""
        return f"fc-{self.size}"


class Torus3D(Topology):
    """The paper's ``LxVxH`` 3D torus of NPUs.

    Node ids are linearised as ``id = l + L * (v + V * h)``.  Each node has a
    position on three rings:

    * the **local** ring connects the L NPUs in a package,
    * the **vertical** ring connects packages within a column (V packages),
    * the **horizontal** ring connects packages within a row (H packages).

    Dimensions of size 1 simply have no ring (and carry no traffic).
    """

    def __init__(self, local: int, vertical: int, horizontal: int) -> None:
        for name, size in (("local", local), ("vertical", vertical), ("horizontal", horizontal)):
            if size < 1:
                raise TopologyError(f"{name} dimension must be >= 1, got {size}")
        if local * vertical * horizontal < 2:
            raise TopologyError("a torus needs at least 2 NPUs")
        self.local = local
        self.vertical = vertical
        self.horizontal = horizontal

    # ------------------------------------------------------------------
    # Shape helpers
    # ------------------------------------------------------------------
    @property
    def shape(self) -> Coordinate:
        """The ``(L, V, H)`` dimension sizes."""
        return (self.local, self.vertical, self.horizontal)

    @property
    def num_nodes(self) -> int:
        """Total NPU count (``L * V * H``)."""
        return self.local * self.vertical * self.horizontal

    @property
    def name(self) -> str:
        """The paper's ``LxVxH`` shape notation."""
        return f"{self.local}x{self.vertical}x{self.horizontal}"

    def cache_key(self) -> Tuple:
        """Torus plans depend only on the shape.

        :class:`Torus2D` deliberately shares this key family: a ``VxH`` 2D
        torus behaves identically to the degenerate ``1xVxH`` 3D torus, so
        their plans may be cached interchangeably.
        """
        return ("torus", self.local, self.vertical, self.horizontal)

    def dimension_size(self, dim: str) -> int:
        """Ring size of dimension ``dim`` ('local' | 'vertical' | 'horizontal')."""
        sizes = {
            "local": self.local,
            "vertical": self.vertical,
            "horizontal": self.horizontal,
        }
        if dim not in sizes:
            raise TopologyError(f"unknown torus dimension {dim!r}")
        return sizes[dim]

    def active_dimensions(self) -> List[str]:
        """Dimensions with more than one node (those that carry traffic)."""
        return [d for d in TORUS_DIMENSIONS if self.dimension_size(d) > 1]

    # ------------------------------------------------------------------
    # Coordinates
    # ------------------------------------------------------------------
    def coordinates(self, node: int) -> Coordinate:
        """Map a node id to its ``(l, v, h)`` coordinate."""
        self.validate_node(node)
        l = node % self.local
        rest = node // self.local
        v = rest % self.vertical
        h = rest // self.vertical
        return (l, v, h)

    def ring_position(self, node: int, dim: str) -> int:
        """Index of ``node`` within its ring of dimension ``dim``."""
        l, v, h = self.coordinates(node)
        return {"local": l, "vertical": v, "horizontal": h}[dim]

    # ------------------------------------------------------------------
    # Topology protocol
    # ------------------------------------------------------------------
    def __repr__(self) -> str:  # pragma: no cover - debugging helper
        return f"Torus3D({self.name}, nodes={self.num_nodes})"


class Torus2D(Torus3D):
    """A ``VxH`` torus of single-NPU packages.

    Behaviourally a degenerate :class:`Torus3D` with ``local=1`` (no
    intra-package ring), kept as its own class so sweeps can name it
    directly; it shares the torus plan cache with the equivalent ``1xVxH``
    3D shape.
    """

    def __init__(self, vertical: int, horizontal: int) -> None:
        super().__init__(1, vertical, horizontal)

    @property
    def name(self) -> str:
        """``VxH`` shape notation (the implicit local dimension is omitted)."""
        return f"{self.vertical}x{self.horizontal}"

    def __repr__(self) -> str:  # pragma: no cover - debugging helper
        return f"Torus2D({self.name}, nodes={self.num_nodes})"


def torus_from_shape(shape: Sequence[int]) -> Torus3D:
    """Build a :class:`Torus3D` from an ``(L, V, H)`` shape tuple."""
    if len(shape) != 3:
        raise TopologyError(f"torus shape must have 3 dimensions, got {shape!r}")
    return Torus3D(int(shape[0]), int(shape[1]), int(shape[2]))


#: Spec-string kinds accepted by :func:`topology_from_spec`, each with the
#: form of its ``x``-separated dimensions and the class they build.
_SPEC_KINDS = {
    "torus": ("LxVxH", Torus3D),
    "torus2d": ("VxH", Torus2D),
    "ring": ("N", RingTopology),
    "switch": ("N", SwitchTopology),
    "fc": ("N", FullyConnected),
}
TOPOLOGY_KINDS = tuple(_SPEC_KINDS)
#: A dimension: a positive decimal integer without leading zeros.
_DIMENSION = re.compile(r"[1-9][0-9]*")


def topology_from_spec(spec: str) -> Topology:
    """Parse a ``"<kind>:<dims>"`` topology spec into a :class:`Topology`.

    ========== ========================= =========================
    Spec       Meaning                   Example
    ========== ========================= =========================
    torus      ``LxVxH`` 3D torus        ``torus:4x4x4``
    torus2d    ``VxH`` 2D torus          ``torus2d:8x8``
    ring       flat ring of N NPUs       ``ring:16``
    switch     N NPUs on one switch      ``switch:64``
    fc         N fully-connected NPUs    ``fc:16``
    ========== ========================= =========================

    A fabric has exactly one spelling -- a lowercase kind, no spaces, no
    leading zeros -- so one fabric is one job spec hash and one cache key.
    A torus with ``L = 1`` is the 2D torus and is spelled ``torus2d:VxH``.
    """
    kind, colon, dims = spec.partition(":") if isinstance(spec, str) else ("", "", "")
    if not colon or kind not in _SPEC_KINDS:
        raise TopologyError(
            f"invalid topology spec {spec!r}; expected '<kind>:<dims>' with "
            f"kind in {TOPOLOGY_KINDS}"
        )
    form, build = _SPEC_KINDS[kind]
    parts = dims.split("x")
    if len(parts) != len(form.split("x")) or not all(map(_DIMENSION.fullmatch, parts)):
        raise TopologyError(
            f"invalid topology spec {spec!r}: {kind!r} takes {form!r} as positive "
            f"integers without leading zeros, got {dims!r}"
        )
    if kind == "torus" and parts[0] == "1":
        raise TopologyError(
            f"invalid topology spec {spec!r}: a torus with L = 1 is the 2D torus; "
            f"spell it 'torus2d:{parts[1]}x{parts[2]}'"
        )
    return build(*map(int, parts))
