"""Symbolic descriptions of Cartan-projection images up to bounded distance.

A MuShape records where mu(H) sits inside the chamber, as growth envelopes of
|rho(h)| against |h|:

  full_chamber          mu(H) fills A+            (H is a CDS)
  curve  s, logpow      rho(h) ~ |h|^s (log|h|)^logpow along all of H
  band   s_lo..s_hi     pinched between |h|^{s_lo} (log)^{log_lo}
                        and |h|^{s_hi} (log)^{log_hi}
  ray    k              a ray with perpendicular drift (log|r|)^k

Exponents are exact Fractions; None means symbolic (inherited from results
quoted for SO(2,n) and not reproduced here, or the unspecified ray power k).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction
from typing import Optional

from .scalars import format_rational, parse_rational


def _fr(v):
    if v is None:
        return None
    return v if isinstance(v, Fraction) else Fraction(v)


@dataclass(frozen=True)
class MuShape:
    kind: str  # "full_chamber" | "curve" | "band" | "ray"
    s_lo: Optional[Fraction] = None
    s_hi: Optional[Fraction] = None
    log_lo: Fraction = Fraction(0)
    log_hi: Fraction = Fraction(0)
    k: Optional[Fraction] = None
    provenance: str = field(default="", compare=False)

    @staticmethod
    def full_chamber(provenance=""):
        return MuShape("full_chamber", s_lo=Fraction(1), s_hi=Fraction(2),
                       provenance=provenance)

    @staticmethod
    def curve(s, logpow=0, provenance=""):
        s = _fr(s)
        return MuShape("curve", s_lo=s, s_hi=s, log_lo=_fr(logpow) or Fraction(0),
                       log_hi=_fr(logpow) or Fraction(0), provenance=provenance)

    @staticmethod
    def band(s_lo, s_hi, log_lo=0, log_hi=0, provenance=""):
        return MuShape("band", s_lo=_fr(s_lo), s_hi=_fr(s_hi),
                       log_lo=_fr(log_lo) or Fraction(0),
                       log_hi=_fr(log_hi) or Fraction(0), provenance=provenance)

    @staticmethod
    def ray(k=None, provenance=""):
        return MuShape("ray", k=_fr(k) if k is not None else None,
                       provenance=provenance)

    def on_a_line(self, provenance) -> "MuShape":
        """The shape when H is a line, or a torus line times one: a band
        |h|..|h|^s with numeric s is the curve |h|^s there, noted
        `provenance`; any other shape is as it is."""
        if self.kind == "band" and self.s_lo == 1 and not self.symbolic:
            return MuShape.curve(self.s_hi, provenance=provenance)
        return self

    @property
    def symbolic(self) -> bool:
        if self.kind == "ray":
            return self.k is None
        return self.s_lo is None or self.s_hi is None

    def upper_touches_square(self) -> bool:
        """True when the upper envelope is exactly |h|^2 (no log deficit)."""
        return (self.kind in ("band", "curve", "full_chamber")
                and self.s_hi == 2 and self.log_hi == 0)

    def lower_touches_linear(self) -> bool:
        return (self.kind in ("band", "curve", "full_chamber")
                and self.s_lo == 1 and self.log_lo == 0)

    def to_json(self) -> dict:
        def enc(v):
            return None if v is None else format_rational(v)
        if self.kind == "full_chamber":
            return {"kind": "full_chamber"}
        if self.kind == "ray":
            return {"kind": "ray", "k": enc(self.k)}
        if self.kind == "curve":
            return {"kind": "curve", "s": enc(self.s_lo), "logpow": enc(self.log_lo)}
        return {"kind": "band", "s_lo": enc(self.s_lo), "s_hi": enc(self.s_hi),
                "log_lo": enc(self.log_lo), "log_hi": enc(self.log_hi)}

    @staticmethod
    def from_json(d: dict) -> "MuShape":
        def dec(v):
            return None if v is None else parse_rational(v)
        kind = d["kind"]
        if kind == "full_chamber":
            return MuShape.full_chamber()
        if kind == "ray":
            return MuShape.ray(dec(d.get("k")))
        if kind == "curve":
            return MuShape.curve(dec(d["s"]), dec(d.get("logpow")) or 0)
        return MuShape.band(dec(d["s_lo"]), dec(d["s_hi"]),
                            dec(d.get("log_lo")) or 0, dec(d.get("log_hi")) or 0)

    def __str__(self):
        j = self.to_json()
        kind = j.pop("kind")
        inner = ", ".join(f"{k}={v}" for k, v in j.items() if v not in (None, "0"))
        return f"{kind}({inner})" if inner else kind
