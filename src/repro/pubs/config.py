"""PUBS configuration (the paper's Table II parameters).

Defaults are the paper's chosen operating point: 6 priority entries with the
stall dispatch policy, 6-bit resetting confidence counters, set-associative
tables with XOR-folded tags (S=8 / S=4), and LLC-MPKI-driven mode switching.
The table geometry (256 sets x 4 ways for both ``brslice_tab`` and
``conf_tab``) lands the total hardware cost at ~3.9 KB, matching the paper's
4.0 KB Table III budget.
"""

from __future__ import annotations

from dataclasses import dataclass, replace


@dataclass(frozen=True)
class PubsConfig:
    """All knobs of the PUBS scheme."""

    enabled: bool = True
    #: Number of IQ entries reserved at the head for unconfident-slice
    #: instructions (Fig. 10's sweep; optimum 6).
    priority_entries: int = 6
    #: Stall dispatch when no priority entry is free (True, the paper's
    #: default) vs. spill to a normal entry (False).
    stall_policy: bool = True
    #: Fig. 11's "blind" model: treat every branch as unconfident and every
    #: brslice hit as unconfident-slice membership; eliminates conf_tab.
    blind: bool = False

    # conf_tab geometry (Sec. IV).
    conf_counter_bits: int = 6
    conf_sets: int = 256
    conf_assoc: int = 4
    conf_fold_width: int = 4

    # brslice_tab geometry (Sec. IV).
    brslice_sets: int = 256
    brslice_assoc: int = 4
    brslice_fold_width: int = 8

    #: Instruction-word width used for tag extraction and costing.
    word_width: int = 62

    # Mode switching (Sec. III-B3).
    mode_switch_enabled: bool = True
    #: PUBS stays enabled while observed LLC MPKI is below this threshold.
    #: The paper calls the threshold "predetermined" without a number; it
    #: must sit well above Fig. 9's 1.0-MPKI memory-intensity *classifier*
    #: (blue-dot programs still show PUBS gains there) but below the
    #: mcf/soplex regime where MLP dominates.  10 MPKI separates the two.
    mode_switch_threshold_mpki: float = 10.0
    #: Observation window, in committed instructions.  Short enough that
    #: even reduced-length simulations see several decision points.
    mode_switch_interval: int = 2048

    def __post_init__(self) -> None:
        if self.priority_entries < 0:
            raise ValueError("priority_entries must be non-negative")
        if self.enabled and self.stall_policy and not self.priority_entries:
            raise ValueError(
                "a zero-entry priority partition can never dispatch an "
                "unconfident instruction under the stall policy; use "
                "at least one entry or the non-stall policy")
        if self.conf_counter_bits < 1:
            raise ValueError("conf_counter_bits must be at least 1")
        for n, v in (
            ("conf_sets", self.conf_sets),
            ("brslice_sets", self.brslice_sets),
        ):
            if v < 1 or v & (v - 1):
                raise ValueError(f"{n} must be a power of two")
        for n, v in (
            ("conf_assoc", self.conf_assoc),
            ("brslice_assoc", self.brslice_assoc),
            ("conf_fold_width", self.conf_fold_width),
            ("brslice_fold_width", self.brslice_fold_width),
            ("mode_switch_interval", self.mode_switch_interval),
        ):
            if v < 1:
                raise ValueError(f"{n} must be positive")

    def with_overrides(self, **kwargs) -> "PubsConfig":
        """A copy with the given fields replaced (sweep helper)."""
        return replace(self, **kwargs)

    @staticmethod
    def disabled() -> "PubsConfig":
        """The base processor: no PUBS."""
        return PubsConfig(enabled=False)
