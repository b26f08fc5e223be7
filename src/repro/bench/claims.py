"""The paper's claims as data: each declared once, next to its experiment.

A :class:`Claim` is the paper's sentence, the :class:`Check` s that read
it off an experiment's output (each one number and the bound it is held
to), and the verdict those checks are declared to give.  EXPERIMENTS.md
renders every claim with the numbers its checks read, and
``python -m repro.bench`` exits 1 when a declared verdict does not hold.
"""

from __future__ import annotations

import math
import operator
from dataclasses import dataclass
from typing import Any, Callable, Dict, List, Sequence, Tuple

from .common import ExperimentOutput

REPRODUCED = "reproduced"
PARTLY = "partly reproduced"
NOT_REPRODUCED = "not reproduced"
NOT_TESTED = "not tested"

_OPS: Dict[str, Callable[[Any, Any], bool]] = {
    "<": operator.lt,
    "<=": operator.le,
    ">": operator.gt,
    ">=": operator.ge,
    "==": operator.eq,
    "()": lambda value, bound: bound[0] < value < bound[1],
    "[]": lambda value, bound: bound[0] <= value <= bound[1],
}
_SHOWN = {"<=": "≤", ">=": "≥", "==": "="}

#: "Comparable latency" to partial synchrony: AlterBFT's p50 within this
#: factor of the baseline's.  At Δ = 5 ms the 2Δ commit wait alone is
#: 10 ms, so a baseline that commits in under 5 ms is out of reach.
COMPARABLE_X = 2.0
COMPARABLE = f"Comparable means AlterBFT's p50 within {COMPARABLE_X:g}× of the baseline's."

Reader = Callable[[ExperimentOutput], Any]


def number(value: Any) -> str:
    """A value as EXPERIMENTS.md shows it: three significant digits."""
    if isinstance(value, float):
        return f"{value:.3g}" if abs(value) < 100 else f"{value:.0f}"
    return str(value)


@dataclass(frozen=True)
class Check:
    """One number read off an output, and the bound it is held to.

    ``op`` is a comparison (``<``, ``<=``, ``>``, ``>=``, ``==``) or an
    interval, open ``()`` or closed ``[]``, with ``bound = (lo, hi)``.
    ``misses`` declares that the number falls outside its bound: the
    shortfall the claim's verdict reports.
    """

    what: str
    read: Reader
    op: str
    bound: Any
    misses: bool = False

    def bound_text(self) -> str:
        if self.op in ("()", "[]"):
            lo, hi = (number(b) for b in self.bound)
            return f"in {self.op[0]}{lo}, {hi}{self.op[1]}"
        return f"{_SHOWN.get(self.op, self.op)} {number(self.bound)}"

    def read_on(self, output: ExperimentOutput) -> Tuple[Any, bool]:
        """(the number, whether it meets the bound); unreadable misses."""
        try:
            value = self.read(output)
            return value, bool(_OPS[self.op](value, self.bound))
        except (IndexError, KeyError, TypeError, ValueError, ZeroDivisionError) as exc:
            return f"unreadable ({type(exc).__name__}: {exc})", False


def verdict_of(met: Sequence[bool]) -> str:
    if not met:
        return NOT_TESTED
    if all(met):
        return REPRODUCED
    return PARTLY if any(met) else NOT_REPRODUCED


@dataclass(frozen=True)
class Claim:
    """A paper sentence, its checks, and the verdict they are declared to
    give; ``reading`` says how the sentence is read, where its words
    need a definition or its numbers an explanation."""

    paper: str
    verdict: str
    checks: Tuple[Check, ...] = ()
    reading: str = ""

    def __post_init__(self) -> None:
        declared = verdict_of([not check.misses for check in self.checks])
        if declared != self.verdict:
            raise ValueError(f"{self.paper!r}: checks declare {declared!r}, not {self.verdict!r}")

    def holds(self, output: ExperimentOutput) -> bool:
        """Whether every check meets or misses its bound as declared."""
        return all(c.read_on(output)[1] != c.misses for c in self.checks)


def failures(output: ExperimentOutput) -> List[Claim]:
    """The output's claims whose declared verdict does not hold."""
    return [claim for claim in output.claims if not claim.holds(output)]


# -- Readers: what a check reads off an output ----------------------------------


def headline(key: str) -> Reader:
    return lambda output: output.headline[key]


def matching(rows: Sequence[Dict[str, Any]], **where: Any) -> List[Dict[str, Any]]:
    """The rows whose columns equal ``where`` (an absent column is None)."""
    return [r for r in rows if all(r.get(k) == v for k, v in where.items())]


def most(key: str, **where: Any) -> Reader:
    """The largest ``key`` over the rows matching ``where``."""
    return lambda output: max(float(r[key]) for r in matching(output.rows, **where))


def least(key: str, **where: Any) -> Reader:
    """The smallest ``key`` over the rows matching ``where``."""
    return lambda output: min(float(r[key]) for r in matching(output.rows, **where))


def cell(key: str, **where: Any) -> Reader:
    """``key`` of the first row matching ``where``."""
    return lambda output: matching(output.rows, **where)[0][key]


def over(num: Reader, den: Reader) -> Reader:
    """``num / den`` of two readers: infinite when only ``den`` is 0, NaN
    (which meets no bound) when both are."""

    def read(output: ExperimentOutput) -> float:
        n, d = float(num(output)), float(den(output))
        return n / d if d else (math.inf if n > 0 else math.nan)

    return read


def descents(key: str, by: str, **where: Any) -> Reader:
    """How often ``key`` falls from one row to the next, rows sorted by
    ``by``: 0 when ``key`` never decreases as ``by`` grows."""

    def read(output: ExperimentOutput) -> int:
        ordered = sorted(matching(output.rows, **where), key=lambda r: float(r[by]))
        values = [float(r[key]) for r in ordered]
        return sum(1 for a, b in zip(values, values[1:]) if b < a)

    return read


def failing(key: str) -> Reader:
    """How many rows read false in ``key``."""
    return lambda output: sum(1 for row in output.rows if not row[key])


#: The check every experiment that runs a protocol carries.
SAFE = Check("unsafe runs", failing("safety_ok"), "==", 0)
