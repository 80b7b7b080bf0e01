"""Ensemble parameter sets, code sizes and rates for coupled codes.

The design rate of the terminated coupled repeat-accumulate ensemble and
of the coupled LDPC baseline is k/n of code_size, an exact rational, so
that size bookkeeping stays integer-exact; the smoothed-ensemble rate of
either family is a float.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import ClassVar

import numpy as np


class ParameterError(ValueError):
    """Raised for ensemble parameters that violate a validity constraint."""


def _require(cond: bool, msg: str) -> None:
    if not cond:
        raise ParameterError(msg)


def is_int(x) -> bool:
    """An integer, not a bool; JSON true and false load as bool, a subclass of int."""
    return isinstance(x, int) and not isinstance(x, bool)


class _Chain:
    """Chain geometry shared by both families.

    Variable positions run over span = 2L+1 slots and every variable at
    position i places one edge in each check position i..i+width-1, so
    there are 2L+width check positions of checks_per_pos checks each.
    """

    L: int
    M: int
    w: int | None

    def _check_chain(self, width_name: str, combine_name: str) -> None:
        """The L, M and w checks, and the rule that combine divides width*M."""
        _require(is_int(self.L) and self.L >= 0, f"L must be an integer >= 0, got {self.L!r}")
        _require(is_int(self.M) and self.M >= 1, f"M must be an integer >= 1, got {self.M!r}")
        _require(
            (self.width * self.M) % self.combine == 0,
            f"{combine_name}={self.combine} must divide {width_name}*M={self.width * self.M}"
            " for an integer check count per position",
        )
        if self.w is not None:
            _require(is_int(self.w) and self.w >= 1, f"w must be an integer >= 1, got {self.w!r}")

    @property
    def rate(self) -> float:
        """The rate of this view: smoothed_rate with a window w, design_rate without."""
        return float(smoothed_rate(self) if self.w is not None else design_rate(self))

    @property
    def span(self) -> int:
        return 2 * self.L + 1

    @property
    def n_chk_pos(self) -> int:
        return 2 * self.L + self.width

    @property
    def checks_per_pos(self) -> int:
        return self.width * self.M // self.combine

    def sources_per_check_pos(self) -> np.ndarray:
        """Number of variable positions whose window reaches each check position."""
        j = np.arange(self.n_chk_pos)
        return np.minimum(self.span - 1, j) - np.maximum(0, j - self.width + 1) + 1


@dataclass(frozen=True)
class ScRaParams(_Chain):
    """Coupled repeat-accumulate ensemble parameters.

    q: repetition factor (each message bit is copied q times), q >= 2.
    a: combiner factor (message edges absorbed per check), a >= 1.
    L: one-sided coupling length; positions run over 2L+1 slots.
    M: message bits per position.  a must divide q*M so each check
       position holds an integer number (q/a)*M of checks.
    w: smoothing window for the randomized ensemble, or None for the
       structured (protograph) ensemble.
    """

    family: ClassVar[str] = "ra"

    q: int
    a: int
    L: int
    M: int = 1
    w: int | None = None

    @property
    def width(self) -> int:
        return self.q

    @property
    def combine(self) -> int:
        return self.a

    def __post_init__(self) -> None:
        _require(is_int(self.q) and self.q >= 2, f"q must be an integer >= 2, got {self.q!r}")
        _require(is_int(self.a) and self.a >= 1, f"a must be an integer >= 1, got {self.a!r}")
        self._check_chain("q", "a")


@dataclass(frozen=True)
class ScLdpcParams(_Chain):
    """Coupled regular LDPC baseline parameters.

    dl: variable degree, dl >= 2.   dr: check degree, dr >= dl.
    L: one-sided coupling length.   M: bit nodes per position; dr must
    divide dl*M.  w: smoothing window or None for the structured ensemble.
    The rate of the view (see _Chain.rate) must be positive: dr near dl
    at small L (dl == dr at any L) leaves neither a code nor a threshold.
    """

    family: ClassVar[str] = "ldpc"

    dl: int
    dr: int
    L: int
    M: int = 1
    w: int | None = None

    @property
    def width(self) -> int:
        return self.dl

    @property
    def combine(self) -> int:
        return self.dr

    def __post_init__(self) -> None:
        _require(is_int(self.dl) and self.dl >= 2, f"dl must be an integer >= 2, got {self.dl!r}")
        _require(is_int(self.dr) and self.dr >= self.dl, f"dr must be an integer >= dl, got {self.dr!r}")
        self._check_chain("dl", "dr")
        r = self.rate
        window = "" if self.w is None else f" w={self.w}"
        _require(r > 0, f"ldpc ensemble dl={self.dl} dr={self.dr} L={self.L}{window} has rate {r:.6g}, not positive")


# family name -> parameter class
FAMILY_PARAMS = {cls.family: cls for cls in (ScRaParams, ScLdpcParams)}


def smoothed_rate(p: ScRaParams | ScLdpcParams) -> float:
    """Design rate of the smoothed coupled ensemble with window w, either family.

    Less the expected boundary checks with no edge, 2L+w check positions hold
    c = (q/a or dl/dr)(2L + w - 2 sum_{i=1..w-1} (i/w)^(a or dr)) checks per
    unit of M, so the rate is span/(span + c) for RA, each check bringing its
    parity bit, and (span - c)/span for LDPC, Lemma 3 of Kudekar, Richardson
    and Urbanke (arXiv:1001.1826).  At w=1 it is a/(a+q), or 1 - dl/dr.
    """
    if p.w is None:
        raise ParameterError("smoothed_rate applies to the smoothed ensemble; w must be set")
    empty = 2 * sum((i / p.w) ** p.combine for i in range(1, p.w))
    c = (p.width / p.combine) * (2 * p.L + p.w - empty)
    return p.span / (p.span + c) if p.family == "ra" else (p.span - c) / p.span


def code_size(p: ScRaParams | ScLdpcParams) -> tuple[int, int]:
    """(k, n) of an instance with these parameters.

    k = n - checks in both families.  For the RA family that counts the
    systematic message bits, since there is one parity bit per check; for
    the LDPC baseline it is the nominal dimension at full check rank.
    """
    m = p.n_chk_pos * p.checks_per_pos
    n = p.span * p.M + (m if p.family == "ra" else 0)
    return n - m, n


def design_rate(p: ScRaParams | ScLdpcParams) -> Fraction:
    """Design rate k/n of the terminated structured ensemble, exact.

    From code_size this is (2L+1)a / ((2L+1)a + (2L+q)q) for the RA
    family, tending to a/(a+q) as L grows, and 1 - (dl/dr)(2L+dl)/(2L+1)
    for the LDPC baseline; the extra check positions past the message span
    carry the termination overhead.
    """
    if p.w is not None:
        raise ParameterError("design_rate applies to the structured ensemble; w must be None")
    return Fraction(*code_size(p))


def density_matched_q(dl: int, rate: Fraction | float | int | str) -> int:
    """Repetition factor q giving a q=a RA ensemble the same edge density
    as a degree-dl LDPC code of the given rate: q = (dl-2)/rate + 2.

    The rate is taken exactly (strings like "1/2" are accepted); a
    non-integral result raises ParameterError.
    """
    _require(is_int(dl) and dl >= 2, f"dl must be an integer >= 2, got {dl!r}")
    r = Fraction(rate)
    _require(r > 0, f"rate must be positive, got {rate!r}")
    q = Fraction(dl - 2, 1) / r + 2
    if q.denominator != 1:
        raise ParameterError(f"density matching of dl={dl} at rate {r} gives non-integral q={q}")
    return int(q)
