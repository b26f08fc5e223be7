"""The run file (``trace.jsonl``) and its Chrome-trace view.

* **JSONL** (``trace.jsonl``, schema 2) — what one recorded run *is*:
  a meta header (the run's meta and the wire snapshot's totals), one
  JSON object per mark/event/message sample, then one object per row of
  the :class:`~repro.obs.wire.WireAccountant` snapshot.  Lossless:
  :func:`read_jsonl` gives back the :class:`~repro.obs.recorder.SpanRecorder`
  and a snapshot equal to the one written, and every ``python -m
  repro.obs`` analysis (:mod:`repro.obs.__main__`) reads this file.
* **Chrome trace** (``trace_chrome.json``) — the Trace Event Format
  consumed by ``chrome://tracing`` and Perfetto, derived from the
  recording.  Each replica is a process; block-lifecycle phases become
  complete (``"X"``) duration events on a per-height track, epoch events
  become instants (``"i"``).  A *view*: derived spans, lossy by design.

Timestamps in Chrome traces are **microseconds**; the recorder's are
simulation seconds.
"""

from __future__ import annotations

import json
from typing import Any, Dict, Iterable, List, Optional, Tuple

from .analyze import PHASE_NAMES, assemble_lifecycles
from .recorder import (
    BLOCK_MILESTONES,
    MARK_COMMIT,
    MARK_PROPOSE,
    MsgSample,
    ObsEvent,
    SpanRecorder,
)

JSONL_SCHEMA = 2

#: Chrome-trace event names this exporter may produce, the validator's
#: reference vocabulary.
CHROME_SPAN_NAMES = frozenset(PHASE_NAMES)


def _us(t: float) -> float:
    return t * 1e6


# ---------------------------------------------------------------------------
# Chrome trace
# ---------------------------------------------------------------------------


def to_chrome_trace(
    recorder: SpanRecorder, meta: Optional[Dict[str, Any]] = None
) -> Dict[str, Any]:
    """Render a recording as a Trace Event Format document.

    Per replica (pid) and block, consecutive clamped milestones become
    ``"X"`` phase spans on the block's height track (tid); epoch-level
    events become ``"i"`` instants on tid 0.
    """
    events: List[Dict[str, Any]] = []
    pids = set()

    lifecycles = assemble_lifecycles(recorder.events)
    for life in lifecycles.values():
        for node in sorted(life.marks):
            milestones = life.milestones_at(node)
            if MARK_PROPOSE not in milestones:
                continue
            pids.add(node)
            clamped = milestones[MARK_PROPOSE]
            commit_t = milestones.get(MARK_COMMIT)
            tid = life.height if life.height is not None else 0
            for milestone, phase in zip(BLOCK_MILESTONES[1:], PHASE_NAMES):
                if milestone not in milestones:
                    continue
                t = max(milestones[milestone], clamped)
                if commit_t is not None and t > commit_t:
                    t = max(commit_t, clamped)  # late certificate: cap at commit
                events.append(
                    {
                        "name": phase,
                        "cat": "block",
                        "ph": "X",
                        "pid": node,
                        "tid": tid,
                        "ts": _us(clamped),
                        "dur": _us(t - clamped),
                        "args": {
                            "block": life.hex[:16],
                            "height": life.height,
                            "epoch": life.epoch,
                        },
                    }
                )
                clamped = t

    for event in recorder.events:
        if event.block is not None:
            continue
        pids.add(event.node)
        events.append(
            {
                "name": event.kind,
                "cat": "epoch",
                "ph": "i",
                "s": "p",
                "pid": event.node,
                "tid": 0,
                "ts": _us(event.time),
                "args": dict(event.attrs),
            }
        )

    for pid in sorted(pids):
        events.append(
            {
                "name": "process_name",
                "ph": "M",
                "pid": pid,
                "tid": 0,
                "ts": 0,
                "args": {"name": f"replica {pid}"},
            }
        )

    events.sort(key=lambda e: (e["ph"] != "M", e["ts"], e["pid"], e["tid"]))
    return {
        "displayTimeUnit": "ms",
        "otherData": dict(meta or {}),
        "traceEvents": events,
    }


def validate_chrome_trace(doc: Dict[str, Any]) -> List[str]:
    """Structural validation; returns a list of problems (empty = valid)."""
    problems: List[str] = []
    if not isinstance(doc, dict) or "traceEvents" not in doc:
        return ["document has no traceEvents array"]
    events = doc["traceEvents"]
    if not isinstance(events, list):
        return ["traceEvents is not a list"]
    for i, event in enumerate(events):
        where = f"traceEvents[{i}]"
        if not isinstance(event, dict):
            problems.append(f"{where}: not an object")
            continue
        ph = event.get("ph")
        if ph not in ("X", "i", "M"):
            problems.append(f"{where}: unknown phase type {ph!r}")
            continue
        for key in ("name", "pid", "tid", "ts"):
            if key not in event:
                problems.append(f"{where}: missing {key!r}")
        if not isinstance(event.get("ts"), (int, float)) or event.get("ts", 0) < 0:
            problems.append(f"{where}: ts must be a non-negative number")
        if ph == "X":
            dur = event.get("dur")
            if not isinstance(dur, (int, float)) or dur < 0:
                problems.append(f"{where}: X event needs non-negative dur")
            if event.get("name") not in CHROME_SPAN_NAMES:
                problems.append(f"{where}: unknown span name {event.get('name')!r}")
            block = event.get("args", {}).get("block")
            if not isinstance(block, str) or not _is_hex(block):
                problems.append(f"{where}: span lacks a hex block id")
        if len(problems) >= 20:
            problems.append("... (truncated)")
            break
    return problems


def _is_hex(s: str) -> bool:
    try:
        bytes.fromhex(s)
        return True
    except ValueError:
        return False


# ---------------------------------------------------------------------------
# JSONL: the run file
# ---------------------------------------------------------------------------

#: Wire-snapshot axes in file order: (snapshot key, record name of a row).
WIRE_RECORDS: Tuple[Tuple[str, str], ...] = (
    ("links", "link"),
    ("classes", "class"),
    ("phases", "phase"),
    ("size_classes", "size_class"),
    ("senders", "sender"),
    ("receivers", "receiver"),
    ("heights", "height"),
    ("epochs", "epoch"),
    ("queues", "queue"),
)

#: Header keys the file format owns; every other header key is run meta.
_HEADER_KEYS = ("record", "schema", "events", "messages", "wire")

_NUMBER = (int, float)
_TYPE_NAMES = {_NUMBER: "a number", int: "an integer", str: "a string", dict: "an object"}


def _jsonable_attrs(attrs: Dict[str, Any]) -> Dict[str, Any]:
    return {
        k: (v.hex() if isinstance(v, (bytes, bytearray)) else v) for k, v in attrs.items()
    }


def jsonl_records(recorder: SpanRecorder, wire: Dict[str, Any]) -> Iterable[Dict[str, Any]]:
    """The run file as an iterable of records: the meta header, every
    event and message sample, then every row of the wire snapshot."""
    axes = {key for key, _ in WIRE_RECORDS}
    yield {
        **_jsonable_attrs(wire["meta"]),
        "record": "meta",
        "schema": JSONL_SCHEMA,
        "events": len(recorder.events),
        "messages": len(recorder.messages),
        "wire": {k: v for k, v in wire.items() if k not in axes and k != "meta"},
    }
    for event in recorder.events:
        record: Dict[str, Any] = {
            "record": "event",
            "t": event.time,
            "kind": event.kind,
            "node": event.node,
        }
        if event.block is not None:
            record["block"] = event.block.hex()
        if event.attrs:
            record["attrs"] = _jsonable_attrs(event.attrs)
        yield record
    for sample in recorder.messages:
        yield {
            "record": "msg",
            "t": sample.time,
            "src": sample.src,
            "dst": sample.dst,
            "cls": sample.cls,
            "size": sample.size,
            "latency": sample.latency,
        }
    for key, name in WIRE_RECORDS:
        for row in wire[key]:
            yield {"record": name, **row}


def write_jsonl(path: str, recorder: SpanRecorder, wire: Dict[str, Any]) -> None:
    """Write one run: ``recorder``'s events and messages and the wire
    snapshot ``wire``, whose ``meta`` becomes the file's meta header."""
    with open(path, "w", encoding="utf-8") as fh:
        for record in jsonl_records(recorder, wire):
            fh.write(json.dumps(record, sort_keys=True) + "\n")


def _field(record: Dict[str, Any], key: str, want: Any, where: str) -> Any:
    """``record[key]``, which must be of type ``want`` (bools are not numbers)."""
    if key not in record:
        raise ValueError(f"{where}: missing field {key!r}")
    value = record[key]
    if isinstance(value, bool) or not isinstance(value, want):
        raise ValueError(f"{where}: field {key!r} is {value!r}, not {_TYPE_NAMES[want]}")
    return value


def _header(record: Dict[str, Any], where: str) -> Dict[str, Any]:
    if record.get("record") != "meta":
        raise ValueError(f"{where}: first record must be the meta header")
    if record.get("schema") != JSONL_SCHEMA:
        raise ValueError(f"{where}: unsupported schema {record.get('schema')!r}")
    _field(record, "events", int, where)
    _field(record, "messages", int, where)
    wire = _field(record, "wire", dict, where)
    _field(wire, "small_threshold", int, where)
    _field(wire, "leader_egress_share", _NUMBER, where)
    totals = _field(wire, "totals", dict, where)
    for key in totals:
        _field(totals, key, int, where)
    return record


def _event(record: Dict[str, Any], where: str) -> ObsEvent:
    block = record.get("block")
    if block is not None:
        _field(record, "block", str, where)
        try:
            block = bytes.fromhex(block)
        except ValueError:
            raise ValueError(f"{where}: field 'block' is {block!r}, not hex") from None
    return ObsEvent(
        time=float(_field(record, "t", _NUMBER, where)),
        kind=_field(record, "kind", str, where),
        node=_field(record, "node", int, where),
        block=block,
        attrs=dict(_field(record, "attrs", dict, where)) if "attrs" in record else {},
    )


def _msg(record: Dict[str, Any], where: str) -> MsgSample:
    return MsgSample(
        time=float(_field(record, "t", _NUMBER, where)),
        src=_field(record, "src", int, where),
        dst=_field(record, "dst", int, where),
        cls=_field(record, "cls", str, where),
        size=_field(record, "size", int, where),
        latency=float(_field(record, "latency", _NUMBER, where)),
    )


def _wire_row(record: Dict[str, Any], where: str) -> Dict[str, Any]:
    row = {k: v for k, v in record.items() if k != "record"}
    for key in row:
        if key in ("class", "phase", "size_class"):
            _field(row, key, str, where)
        else:
            _field(row, key, dict if key == "hist" else _NUMBER, where)
    return row


def read_jsonl(path: str) -> Tuple[Dict[str, Any], SpanRecorder, Dict[str, Any]]:
    """Load a run file back into (meta, recorder, wire snapshot).

    Raises ``ValueError`` naming ``path:line`` on any line that is not a
    JSON object or holds an ill-typed field, and on a header whose counts
    disagree with the body — the CLI's ``validate`` command surfaces these
    as validation failures.
    """
    recorder = SpanRecorder()
    header: Optional[Dict[str, Any]] = None
    rows: Dict[str, List[Dict[str, Any]]] = {key: [] for key, _ in WIRE_RECORDS}
    axis_of = {name: key for key, name in WIRE_RECORDS}
    with open(path, "r", encoding="utf-8") as fh:
        for lineno, line in enumerate(fh, 1):
            line = line.strip()
            if not line:
                continue
            where = f"{path}:{lineno}"
            try:
                record = json.loads(line)
            except json.JSONDecodeError as exc:
                raise ValueError(f"{where}: not JSON ({exc})") from exc
            if not isinstance(record, dict):
                raise ValueError(f"{where}: not a JSON object")
            kind = record.get("record")
            if header is None:
                header = _header(record, where)
            elif kind == "event":
                recorder.events.append(_event(record, where))
            elif kind == "msg":
                recorder.messages.append(_msg(record, where))
            elif kind in axis_of:
                rows[axis_of[kind]].append(_wire_row(record, where))
            else:
                raise ValueError(f"{where}: unknown record type {kind!r}")
    if header is None:
        raise ValueError(f"{path}: empty file")
    for key, found in (("events", recorder.events), ("messages", recorder.messages)):
        if header[key] != len(found):
            raise ValueError(f"{path}: header declares {header[key]} {key}, found {len(found)}")
    meta = {k: v for k, v in header.items() if k not in _HEADER_KEYS}
    return meta, recorder, {**header["wire"], "meta": dict(meta), **rows}


def write_chrome_trace(
    path: str, recorder: SpanRecorder, meta: Optional[Dict[str, Any]] = None
) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(to_chrome_trace(recorder, meta), fh)
