"""Atlas snapshots: versioned save / load of a source's two atlases.

Revtr 2.0's offline budget goes into the per-source traceroute atlas
(Q1) and RR atlas (Q2).  A snapshot writes both to a compact gzip-JSON
file, stamped with the topology fingerprint so that it can never
warm-start a different simulated Internet; ``repro atlas build --out``
writes one and ``repro atlas load --path`` reads it back.  The loader
loads a file as written or refuses it with :class:`SnapshotError`: a
field of a shape :func:`save_snapshot` never writes is not coerced.
"""

from __future__ import annotations

import gzip
import json
import math
from typing import Callable, Dict, Optional, Tuple

from repro.core.atlas import TracerouteAtlas
from repro.core.rr_atlas import RRAtlas
from repro.net.packet import TracerouteResult

#: On-disk snapshot format tag and version.  Bump the version on any
#: incompatible change to the document layout; loaders reject other
#: versions outright rather than guessing.
SNAPSHOT_FORMAT = "revtr-atlas-snapshot"
SNAPSHOT_VERSION = 1


class SnapshotError(Exception):
    """A snapshot could not be read or parsed."""


class SnapshotMismatch(SnapshotError):
    """A readable snapshot is not compatible with this simulation."""


def _topology_descriptor(internet) -> Dict[str, object]:
    return {
        "fingerprint": internet.topology_fingerprint(),
        "seed": internet.config.seed,
        "routers": len(internet.routers),
        "hosts": len(internet.hosts),
    }


def save_snapshot(
    path: str,
    atlas: TracerouteAtlas,
    rr_atlas: Optional[RRAtlas],
    internet,
) -> None:
    """Serialise both atlases to a versioned gzip-JSON snapshot.

    The snapshot embeds the topology fingerprint (config + seed
    digest) and the routing generation at save time; loading validates
    the fingerprint so stale snapshots can never leak traces from a
    different simulated Internet into an experiment.
    """
    doc = {
        "format": SNAPSHOT_FORMAT,
        "version": SNAPSHOT_VERSION,
        "topology": _topology_descriptor(internet),
        "routing_generation": internet.routing_generation,
        "atlas": {
            "source": atlas.source,
            "max_size": atlas.max_size,
            "staleness": atlas.staleness,
            "traceroutes": [
                {
                    "src": trace.src,
                    "hops": trace.hops,
                    "reached": trace.reached,
                    "flow_id": trace.flow_id,
                    "timestamp": trace.timestamp,
                    "generation": atlas.generation_of(trace.src),
                }
                for trace in atlas.traceroutes.values()
            ],
            "useful": sorted(atlas._useful),
        },
        "rr_atlas": None
        if rr_atlas is None
        else {
            # only what lookup would answer: a round trip must not
            # revive an alias into a pruned or re-measured traceroute
            "mapping": [
                [addr, vp, index]
                for addr, (vp, index) in rr_atlas._mapping.items()
                if rr_atlas._live_trace(vp, index) is not None
            ],
            "probes_sent": rr_atlas.probes_sent,
            "probes_deduped": rr_atlas.probes_deduped,
        },
    }
    payload = json.dumps(doc, separators=(",", ":")).encode()
    # mtime=0 and an empty embedded filename keep byte-identical
    # snapshots byte-identical on disk regardless of when or where
    # they were written.
    with open(path, "wb") as raw:
        with gzip.GzipFile(
            filename="", fileobj=raw, mode="wb", mtime=0
        ) as fh:
            fh.write(payload)


def _is_int(value: object) -> bool:
    """An int as JSON writes one: ``true`` is not ``1``."""
    return isinstance(value, int) and not isinstance(value, bool)


_COUNT = "a non-negative int"
_FINITE = "a finite number"
_ROW = "[alias, vp, index >= 0]"

#: The shape of every value :func:`save_snapshot` writes, by kind.
_KINDS: Dict[str, Callable[[object], bool]] = {
    "a string": lambda v: isinstance(v, str),
    "a bool": lambda v: isinstance(v, bool),
    # `json.loads` reads NaN and Infinity; a staleness of NaN would
    # make the atlas never stale.
    _FINITE: lambda v: _is_int(v) or (
        isinstance(v, float) and math.isfinite(v)
    ),
    "an int": _is_int,
    "an int or null": lambda v: v is None or _is_int(v),
    "a positive int": lambda v: _is_int(v) and v > 0,
    _COUNT: lambda v: _is_int(v) and v >= 0,
    "a list": lambda v: isinstance(v, list),
    "null or a string": lambda v: v is None or isinstance(v, str),
    _ROW: lambda v: (
        isinstance(v, list)
        and len(v) == 3
        and isinstance(v[0], str)
        and isinstance(v[1], str)
        and _is_int(v[2])
        and v[2] >= 0
    ),
}


def _want(value, kind: str, name: str):
    """*value* if it has the shape of *kind*; otherwise a
    ``ValueError`` naming the field."""
    if not _KINDS[kind](value):
        raise ValueError(f"{name} is not {kind}: {value!r}")
    return value


def load_snapshot(
    path: str,
    internet,
) -> Tuple[TracerouteAtlas, Optional[RRAtlas]]:
    """Load a snapshot saved by :func:`save_snapshot`.

    Raises :class:`SnapshotError` on unreadable/corrupt files and
    :class:`SnapshotMismatch` when the snapshot's format, version, or
    topology fingerprint does not match *internet*.
    """
    try:
        with gzip.open(path, "rb") as fh:
            doc = json.loads(fh.read().decode())
    except (OSError, EOFError, ValueError) as exc:
        raise SnapshotError(
            f"cannot read snapshot {path}: {exc}"
        ) from exc
    if (
        not isinstance(doc, dict)
        or doc.get("format") != SNAPSHOT_FORMAT
    ):
        raise SnapshotError(f"{path} is not a {SNAPSHOT_FORMAT} file")
    version = doc.get("version")
    if not _is_int(version) or version != SNAPSHOT_VERSION:
        raise SnapshotMismatch(
            f"snapshot version {version!r} != "
            f"supported {SNAPSHOT_VERSION}"
        )
    topology = doc.get("topology", {})
    if not isinstance(topology, dict):
        raise SnapshotError(
            f"snapshot {path} is malformed: 'topology' is not an object"
        )
    fingerprint = internet.topology_fingerprint()
    saved = topology.get("fingerprint")
    if saved != fingerprint:
        raise SnapshotMismatch(
            f"snapshot topology {saved} does not match this "
            f"simulation ({fingerprint}); rebuild instead of "
            "replaying traces from a different Internet"
        )

    try:
        spec = doc["atlas"]
        source = _want(spec["source"], "a string", "'source'")
        atlas = TracerouteAtlas(
            source,
            max_size=_want(spec["max_size"], "a positive int", "'max_size'"),
            staleness=_want(spec["staleness"], _FINITE, "'staleness'"),
        )
        for entry in _want(spec["traceroutes"], "a list", "'traceroutes'"):
            src = _want(entry["src"], "a string", "a traceroute's 'src'")
            of = f"of traceroute {src!r}"
            hops = _want(entry["hops"], "a list", f"'hops' {of}")
            for hop in hops:
                _want(hop, "null or a string", f"a hop {of}")
            trace = TracerouteResult(
                src=src,
                dst=source,
                hops=hops,
                reached=_want(entry["reached"], "a bool", f"'reached' {of}"),
                flow_id=_want(entry["flow_id"], "an int", f"'flow_id' {of}"),
                timestamp=_want(
                    entry["timestamp"], _FINITE, f"'timestamp' {of}"
                ),
            )
            generation = _want(
                entry.get("generation"), "an int or null", f"'generation' {of}"
            )
            atlas.add(trace, generation=generation)
        for vp in _want(spec.get("useful", []), "a list", "'useful'"):
            if _want(vp, "a string", "'useful'") not in atlas.traceroutes:
                raise ValueError(f"'useful' names {vp!r}, not a traceroute")
            atlas.mark_useful(vp)

        rr_atlas: Optional[RRAtlas] = None
        rr_spec = doc.get("rr_atlas")
        if rr_spec is not None:
            rr_atlas = RRAtlas(atlas)
            for row in _want(rr_spec["mapping"], "a list", "'mapping'"):
                addr, vp, index = _want(row, _ROW, "a 'mapping' row")
                rr_atlas._mapping[addr] = (vp, index)
                if vp in atlas.traceroutes:
                    rr_atlas._registered[vp] = atlas.traceroutes[vp].hops
            for name in ("probes_sent", "probes_deduped"):
                count = _want(rr_spec.get(name, 0), _COUNT, f"{name!r}")
                setattr(rr_atlas, name, count)
    except (KeyError, TypeError, ValueError) as exc:
        # the header matched but the body is not what save_snapshot
        # writes: a missing key, or a value of the wrong shape
        raise SnapshotError(
            f"snapshot {path} is malformed: {exc!r}"
        ) from exc
    return atlas, rr_atlas
