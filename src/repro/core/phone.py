"""Per-phone state.

Each phone mirrors the paper's phone submodel (§4.1): an identity, a
contact list, susceptibility, the receiving side (consent state), and the
sending side (infection status, message budget, pacing bookkeeping).
Behaviour — when sends happen, how targets are picked — lives in
:mod:`repro.core.virus` and :mod:`repro.core.model`; this module is the
state those drivers act on, with the legal state transitions enforced
here.
"""

from __future__ import annotations

import enum
from typing import Optional, Tuple

from ..des.events import Event
from .user import ConsentState


class PhoneState(enum.Enum):
    """Infection status of a phone."""

    #: Never infected; may or may not be susceptible.
    UNINFECTED = "uninfected"
    #: Infected and (unless quarantined) propagating.
    INFECTED = "infected"
    #: Patched before infection: cannot be infected.
    IMMUNE = "immune"


class PhoneStateError(RuntimeError):
    """Raised on an illegal phone state transition."""


class Phone:
    """State of one phone in the population."""

    __slots__ = (
        "phone_id",
        "susceptible",
        "contacts",
        "state",
        "consent",
        "infection_time",
        "total_messages_sent",
        "sent_in_period",
        "period_start",
        "outgoing_blocked",
        "propagation_stopped",
        "last_send_time",
        "pending_send",
        "pending_reboot",
        "next_contact_index",
    )

    def __init__(self, phone_id: int, susceptible: bool, contacts: Tuple[int, ...]) -> None:
        self.phone_id = phone_id
        self.susceptible = susceptible
        self.contacts = contacts
        self.state = PhoneState.UNINFECTED
        self.consent = ConsentState()
        self.infection_time: Optional[float] = None
        # Sending-side bookkeeping (meaningful once infected).
        self.total_messages_sent = 0
        self.sent_in_period = 0
        self.period_start = 0.0
        #: Provider blocked all outgoing MMS (blacklist response).
        self.outgoing_blocked = False
        #: Patch installed after infection: virus can no longer propagate.
        self.propagation_stopped = False
        self.last_send_time: Optional[float] = None
        #: Handle of the next scheduled send event (cancellable).
        self.pending_send: Optional[Event] = None
        #: Handle of the next scheduled reboot event (cancellable).
        self.pending_reboot: Optional[Event] = None
        #: Round-robin cursor into the contact list (contact targeting).
        self.next_contact_index = 0

    # -- state queries -------------------------------------------------------

    @property
    def infected(self) -> bool:
        """True once the phone has been infected (even if quarantined)."""
        return self.state is PhoneState.INFECTED

    @property
    def can_become_infected(self) -> bool:
        """True if an accepted attachment would infect this phone now."""
        return self.susceptible and self.state is PhoneState.UNINFECTED

    @property
    def actively_spreading(self) -> bool:
        """True if the phone is infected and able to send messages."""
        return (
            self.state is PhoneState.INFECTED
            and not self.outgoing_blocked
            and not self.propagation_stopped
        )

    # -- transitions --------------------------------------------------------

    def infect(self, time: float) -> None:
        """Transition to INFECTED at ``time``."""
        if self.state is PhoneState.IMMUNE:
            raise PhoneStateError(f"phone {self.phone_id} is immune; cannot infect")
        if self.state is PhoneState.INFECTED:
            raise PhoneStateError(f"phone {self.phone_id} is already infected")
        if not self.susceptible:
            raise PhoneStateError(f"phone {self.phone_id} is not susceptible")
        self.state = PhoneState.INFECTED
        self.infection_time = time
        self.period_start = time
        self.sent_in_period = 0

    def apply_patch(self) -> bool:
        """Install the immunization patch.

        Returns ``True`` if the patch changed anything: an uninfected phone
        becomes immune; an infected phone stops propagating.  Patching an
        already-immune or already-quarantined phone is a no-op.
        """
        if self.state is PhoneState.UNINFECTED:
            self.state = PhoneState.IMMUNE
            self.cancel_pending_send()
            return True
        if self.state is PhoneState.INFECTED and not self.propagation_stopped:
            self.propagation_stopped = True
            self.cancel_pending_send()
            return True
        return False

    def block_outgoing(self) -> bool:
        """Provider-side block of all outgoing MMS (blacklist response)."""
        if self.outgoing_blocked:
            return False
        self.outgoing_blocked = True
        self.cancel_pending_send()
        return True

    def reboot(self, time: float) -> None:
        """Reboot: resets the per-period message budget (Virus 1 semantics)."""
        self.sent_in_period = 0
        self.period_start = time

    def start_new_period(self, time: float) -> None:
        """Begin a new fixed limit window (Virus 2 semantics)."""
        self.sent_in_period = 0
        self.period_start = time

    def record_send(self, time: float, budget_units: int = 1) -> None:
        """Account for one outgoing message consuming ``budget_units``."""
        self.total_messages_sent += 1
        self.sent_in_period += budget_units
        self.last_send_time = time

    def cancel_pending_send(self) -> None:
        """Cancel any scheduled future send event."""
        if self.pending_send is not None:
            self.pending_send.cancel()
            self.pending_send = None

    def cancel_pending_reboot(self) -> None:
        """Cancel any scheduled future reboot event."""
        if self.pending_reboot is not None:
            self.pending_reboot.cancel()
            self.pending_reboot = None

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"Phone(id={self.phone_id}, state={self.state.value}, "
            f"susceptible={self.susceptible}, contacts={len(self.contacts)})"
        )


__all__ = ["Phone", "PhoneState", "PhoneStateError"]
