"""msr-safe / powercap-sysfs façade.

On Theta, users reach RAPL through the ``msr-safe`` kernel module
(paper §VI-A, ref [40]), typically via the powercap sysfs tree. This
module provides an in-memory filesystem with the same *shape*, so code
written against sysfs paths (and the PoLiMER layer's low-level reader)
exercises a realistic interface:

* ``intel-rapl:<node>/constraint_0_power_limit_uw`` — long-term cap (µW,
  read/write)
* ``intel-rapl:<node>/constraint_1_power_limit_uw`` — short-term cap
* ``intel-rapl:<node>/energy_uj`` — monotone energy counter (µJ, read)
* ``intel-rapl:<node>/constraint_0_time_window_us`` — 1 s on Theta
* ``intel-rapl:<node>/constraint_1_time_window_us`` — 9766 µs on Theta

Writes are translated into :meth:`RaplDomainArray.request_caps` calls;
energy reads pull from a caller-provided accumulator so the façade
stays consistent with whatever execution model is running on top.
"""

from __future__ import annotations

from typing import Callable

from repro.power.rapl import RaplDomainArray

__all__ = ["MsrSafeFs"]

#: RAPL window lengths on Theta (paper §VII-A).
LONG_WINDOW_US = 1_000_000
SHORT_WINDOW_US = 9766


class MsrSafeFs:
    """sysfs-like RAPL file tree backed by a :class:`RaplDomainArray`.

    Parameters
    ----------
    domain:
        The power domain array holding per-node caps.
    energy_uj:
        Callable ``energy_uj(node_index) -> int`` giving the cumulative
        energy counter; defaults to a constant 0 for tests that only
        exercise the cap path.
    clock:
        Callable returning the current virtual time, needed because cap
        writes carry an actuation timestamp.
    """

    def __init__(
        self,
        domain: RaplDomainArray,
        energy_uj: Callable[[int], int] | None = None,
        clock: Callable[[], float] = lambda: 0.0,
    ) -> None:
        self.domain = domain
        self._energy_uj = energy_uj if energy_uj is not None else (lambda i: 0)
        self._clock = clock

    # ------------------------------------------------------------------
    def _parse(self, path: str) -> tuple[int, str]:
        path = path.strip("/")
        parts = path.split("/")
        if len(parts) != 2 or not parts[0].startswith("intel-rapl:"):
            raise FileNotFoundError(path)
        try:
            node = int(parts[0].split(":", 1)[1])
        except ValueError:
            raise FileNotFoundError(path) from None
        if not 0 <= node < self.domain.n_nodes:
            raise FileNotFoundError(f"{path}: no such node")
        return node, parts[1]

    def read(self, path: str) -> int:
        """Read an integer attribute, sysfs-style."""
        node, attr = self._parse(path)
        if attr == "energy_uj":
            return int(self._energy_uj(node))
        if attr in ("constraint_0_power_limit_uw", "constraint_1_power_limit_uw"):
            return int(self.domain.requested_caps[node] * 1e6)
        if attr == "constraint_0_time_window_us":
            return LONG_WINDOW_US
        if attr == "constraint_1_time_window_us":
            return SHORT_WINDOW_US
        if attr == "name":
            return 0  # sysfs exposes "package-0"; integer façade returns 0
        raise FileNotFoundError(path)

    def write(self, path: str, value: int) -> None:
        """Write a cap in µW to one node's constraint file."""
        node, attr = self._parse(path)
        if attr not in (
            "constraint_0_power_limit_uw",
            "constraint_1_power_limit_uw",
        ):
            raise PermissionError(f"{path} is read-only")
        if value <= 0:
            raise ValueError("cap must be positive")
        caps = self.domain.requested_caps.copy()
        caps[node] = value / 1e6
        self.domain.request_caps(caps, now=self._clock())

    def listdir(self) -> list[str]:
        """Node directories, mirroring /sys/class/powercap layout."""
        return [f"intel-rapl:{i}" for i in range(self.domain.n_nodes)]
