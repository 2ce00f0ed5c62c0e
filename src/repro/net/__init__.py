"""Wireless network substrate on top of the event kernel.

Models the parts of a WSN radio stack that the paper's evaluation depends
on:

* **shared medium with collisions** — two overlapping transmissions
  audible at a receiver corrupt each other there
  (:mod:`repro.net.medium`), so losses grow with contention/density;
* **overhearing** — every node in range of a transmission can observe it
  promiscuously, the physical basis of iCPDA's peer-monitoring integrity
  layer (:meth:`repro.net.stack.NetworkStack.register_overhear`);
* **CSMA with random backoff** (:mod:`repro.net.mac`);
* **byte-level accounting** of every frame (:mod:`repro.net.packet`),
  feeding the communication-overhead experiments;
* **energy accounting** per node (:mod:`repro.net.energy`).

Protocol phases must not import these backends directly — they code
against the :class:`~repro.net.transport.Transport` seam, and this
package resolves its exports lazily (PEP 562) so importing the seam does
not pull in the DES machinery.
"""

from importlib import import_module

#: Public name -> defining module, resolved on first attribute access.
_EXPORTS = {
    "EnergyModel": "repro.net.energy",
    "EnergyReport": "repro.net.energy",
    "CsmaMac": "repro.net.mac",
    "MacParams": "repro.net.mac",
    "WirelessMedium": "repro.net.medium",
    "BROADCAST": "repro.net.packet",
    "HEADER_BYTES": "repro.net.packet",
    "Packet": "repro.net.packet",
    "payload_size": "repro.net.packet",
    "RadioParams": "repro.net.radio",
    "NetworkStack": "repro.net.stack",
    "FluidTransport": "repro.net.fluid",
    "Transport": "repro.net.transport",
    "create_transport": "repro.net.transport",
    "TRANSPORT_KINDS": "repro.net.transport",
}

__all__ = sorted(_EXPORTS)


def __getattr__(name: str):
    module = _EXPORTS.get(name)
    if module is None:
        raise AttributeError(f"module 'repro.net' has no attribute {name!r}")
    value = getattr(import_module(module), name)
    globals()[name] = value
    return value


def __dir__():
    return sorted(set(globals()) | set(_EXPORTS))
