"""Signed log-space arithmetic for exponentially weighted sums.

Quantities like e^{t f} integrals overflow doubles for large deformation
parameters, so weighted accumulations are carried as (sign, log|value|)
pairs; zero is represented by log = -inf. Accumulation order is fixed
(index order within each sign class), keeping results deterministic.
"""

from __future__ import annotations

import numpy as np

NEG_INF = -np.inf


def logabs(values: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Split an ordinary array into (sign, log|value|)."""
    values = np.asarray(values, dtype=float)
    sign = np.sign(values)
    with np.errstate(divide="ignore"):
        logs = np.where(sign == 0.0, NEG_INF, np.log(np.abs(values)))
    return sign, logs


def logsumexp_signed(signs: np.ndarray, logs: np.ndarray) -> tuple[float, float]:
    """Signed log-sum-exp: returns (sign, log|sum of s_i e^{l_i}|)."""
    signs = np.asarray(signs, dtype=float)
    logs = np.asarray(logs, dtype=float)
    pos = logs[signs > 0]
    neg = logs[signs < 0]
    lp = _logsum(pos)
    ln = _logsum(neg)
    if lp == NEG_INF and ln == NEG_INF:
        return 0.0, NEG_INF
    if lp > ln:
        if ln == NEG_INF:
            return 1.0, lp
        return 1.0, lp + float(np.log1p(-np.exp(ln - lp)))
    if ln > lp:
        if lp == NEG_INF:
            return -1.0, ln
        return -1.0, ln + float(np.log1p(-np.exp(lp - ln)))
    return 0.0, NEG_INF


def _logsum(logs: np.ndarray) -> float:
    """log(sum e^{l_i}) accumulated in index order."""
    if len(logs) == 0:
        return NEG_INF
    m = float(np.max(logs))
    if m == NEG_INF:
        return NEG_INF
    return m + float(np.log(np.sum(np.exp(logs - m))))


class LogValue:
    """A scalar in signed log representation."""

    __slots__ = ("sign", "log")

    def __init__(self, sign: float, log: float):
        self.sign = 0.0 if log == NEG_INF else float(np.sign(sign))
        self.log = NEG_INF if self.sign == 0.0 else float(log)

    @classmethod
    def from_float(cls, x: float) -> "LogValue":
        if x == 0.0:
            return cls(0.0, NEG_INF)
        return cls(np.sign(x), np.log(abs(x)))

    def to_float(self) -> float:
        if self.sign == 0.0:
            return 0.0
        if self.log > 700.0:
            return self.sign * np.inf
        return float(self.sign * np.exp(self.log))

    def scaled(self, log_factor: float, sign_factor: float = 1.0) -> "LogValue":
        if self.sign == 0.0:
            return LogValue(0.0, NEG_INF)
        return LogValue(self.sign * sign_factor, self.log + log_factor)

    def __add__(self, other: "LogValue") -> "LogValue":
        s, l = logsumexp_signed(np.array([self.sign, other.sign]),
                                np.array([self.log, other.log]))
        return LogValue(s, l)

    def __repr__(self):
        return f"LogValue(sign={self.sign:+.0f}, log={self.log:.6g})"


class LogVector:
    """A vector in signed log representation (sign array + log array)."""

    __slots__ = ("sign", "log")

    def __init__(self, sign: np.ndarray, log: np.ndarray):
        self.sign = np.asarray(sign, dtype=float)
        self.log = np.asarray(log, dtype=float)
        dead = ~np.isfinite(self.log) | (self.sign == 0.0)
        self.sign = np.where(dead, 0.0, self.sign)
        self.log = np.where(dead, NEG_INF, self.log)

    @classmethod
    def from_values(cls, values: np.ndarray) -> "LogVector":
        return cls(*logabs(values))

    def __len__(self) -> int:
        return len(self.log)

    def norm_log(self) -> float:
        """log of the Euclidean norm."""
        return 0.5 * _logsum(2.0 * self.log)

    def normalized(self) -> "LogVector":
        return LogVector(self.sign, self.log - self.norm_log())

    def scaled(self, log_factor: float, sign_factor: float = 1.0) -> "LogVector":
        return LogVector(self.sign * sign_factor, self.log + log_factor)

    def dot(self, other: "LogVector") -> LogValue:
        s, l = logsumexp_signed(self.sign * other.sign, self.log + other.log)
        return LogValue(s, l)

    def to_values(self) -> np.ndarray:
        out = np.zeros(len(self.log))
        ok = self.sign != 0.0
        out[ok] = self.sign[ok] * np.exp(np.minimum(self.log[ok], 700.0))
        return out
