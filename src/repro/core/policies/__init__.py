"""LRC scheduling policies evaluated in the paper.

* :class:`NoLrcPolicy` — never schedule leakage removal (the "No-LRC" baseline
  of Figures 1(c) and 2(c)).
* :class:`AlwaysLrcPolicy` — the state-of-the-art static policy that schedules
  LRCs for (almost) every data qubit every other round.
* :class:`OptimalLrcPolicy` — the idealized oracle that schedules an LRC for a
  data qubit as soon as it actually leaks (upper bound).
* :class:`EraserPolicy` — the paper's contribution: syndrome-driven
  speculation (LSB) plus dynamic insertion (DLI).
* :class:`EraserMPolicy` — ERASER enhanced with multi-level readout.
"""

from repro.core.policies.base import LrcPolicy, PairMasks
from repro.core.policies.no_lrc import NoLrcPolicy
from repro.core.policies.always_lrc import AlwaysLrcPolicy
from repro.core.policies.optimal import OptimalLrcPolicy
from repro.core.policies.eraser import EraserMPolicy, EraserPolicy

_POLICY_REGISTRY = {
    "no-lrc": NoLrcPolicy,
    "always-lrc": AlwaysLrcPolicy,
    "optimal": OptimalLrcPolicy,
    "eraser": EraserPolicy,
    "eraser+m": EraserMPolicy,
}


def make_policy(name: str, **kwargs) -> LrcPolicy:
    """Instantiate a policy by its canonical name.

    Accepted names: ``no-lrc``, ``always-lrc``, ``optimal``, ``eraser``,
    ``eraser+m`` (case-insensitive; underscores and spaces are tolerated).
    """
    key = name.strip().lower().replace("_", "-").replace(" ", "-")
    aliases = {
        "none": "no-lrc",
        "nolrc": "no-lrc",
        "always": "always-lrc",
        "alwayslrc": "always-lrc",
        "always-lrcs": "always-lrc",
        "ideal": "optimal",
        "idealized": "optimal",
        "eraserm": "eraser+m",
        "eraser-m": "eraser+m",
    }
    key = aliases.get(key, key)
    if key not in _POLICY_REGISTRY:
        raise ValueError(
            f"unknown policy {name!r}; choose from {sorted(_POLICY_REGISTRY)}"
        )
    return _POLICY_REGISTRY[key](**kwargs)


__all__ = [
    "LrcPolicy",
    "PairMasks",
    "NoLrcPolicy",
    "AlwaysLrcPolicy",
    "OptimalLrcPolicy",
    "EraserPolicy",
    "EraserMPolicy",
    "make_policy",
]
