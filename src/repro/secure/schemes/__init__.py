"""OTP buffer-management schemes.

Four managed schemes from the paper plus the unsecured baseline:

* ``private`` — per-(direction, peer) pad tables, perfectly synced counters
* ``shared``  — one shared send counter; receivers predict only back-to-back
* ``cached``  — LRU pool of pad entries over stream keys
* ``dynamic`` — the paper's contribution: EWMA-repartitioned Private
"""

from repro.secure.schemes.base import OtpScheme
from repro.secure.schemes.private import PrivateScheme
from repro.secure.schemes.shared import SharedScheme
from repro.secure.schemes.cached import CachedScheme
from repro.secure.schemes.dynamic import DynamicScheme
from repro.secure.schemes.ideal import IdealScheme


def build_scheme(name, node, peers, security):
    """Instantiate the named scheme for one processor.

    ``unsecure`` returns None: the transport skips all security processing.
    """
    builders = {
        "private": PrivateScheme,
        "shared": SharedScheme,
        "cached": CachedScheme,
        "dynamic": DynamicScheme,
        "ideal": IdealScheme,
    }
    if name == "unsecure":
        return None
    try:
        cls = builders[name]
    except KeyError:
        raise ValueError(
            f"unknown scheme {name!r}; expected one of {sorted(builders)} or 'unsecure'"
        ) from None
    return cls(node, peers, security)


__all__ = [
    "OtpScheme",
    "PrivateScheme",
    "SharedScheme",
    "CachedScheme",
    "DynamicScheme",
    "IdealScheme",
    "build_scheme",
]
