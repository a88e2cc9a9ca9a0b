"""Synthetic "Alexa top 500" server population for the legacy-
interoperability experiment (§5.1).

The paper fetched the root document of the top-500 sites through an mbTLS
proxy with a modified curl and reported:

    500 sites -> 385 support HTTPS -> 308 succeeded; failures:
    19 invalid/expired certificates, 40 without AES256-GCM,
    13 SOCKS-redirect handling bugs, 5 unknown.

We regenerate the same breakdown over a synthetic population whose defect
mix matches those counts. Defects are modelled where they actually bite:
expired certs fail validation, missing cipher suites fail negotiation (the
prototype, like ours by default, offers only AES-256-GCM), redirects point
the client at hosts the proxy harness does not follow, and a handful of
servers are simply broken.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum

from repro.crypto.drbg import HmacDrbg
from repro.tls.ciphersuites import (
    TLS_ECDHE_RSA_WITH_AES_128_GCM_SHA256,
    TLS_ECDHE_RSA_WITH_AES_256_GCM_SHA384,
)

__all__ = ["ServerDefect", "SyntheticServer", "generate_alexa_population", "PAPER_COUNTS"]

PAPER_COUNTS = {
    "total": 500,
    "https": 385,
    "success": 308,
    "bad_certificate": 19,
    "no_common_cipher": 40,
    "redirect": 13,
    "unknown": 5,
}


class ServerDefect(Enum):
    NONE = "none"
    NO_HTTPS = "no_https"
    EXPIRED_CERT = "expired_cert"
    NO_AES256 = "no_aes256"
    REDIRECT = "redirect"
    BROKEN = "broken"


@dataclass(frozen=True)
class SyntheticServer:
    """One synthetic popular site."""

    rank: int
    hostname: str
    defect: ServerDefect

    @property
    def cipher_suites(self) -> tuple[int, ...]:
        if self.defect == ServerDefect.NO_AES256:
            # Modern enough for the web, but not for an AES-256-GCM-only client.
            return (TLS_ECDHE_RSA_WITH_AES_128_GCM_SHA256.code,)
        return (
            TLS_ECDHE_RSA_WITH_AES_256_GCM_SHA384.code,
            TLS_ECDHE_RSA_WITH_AES_128_GCM_SHA256.code,
        )

    @property
    def supports_https(self) -> bool:
        return self.defect != ServerDefect.NO_HTTPS


def generate_alexa_population(rng: HmacDrbg) -> list[SyntheticServer]:
    """500 servers with the paper's exact defect counts, shuffled by rank."""
    defects: list[ServerDefect] = (
        [ServerDefect.NO_HTTPS] * (PAPER_COUNTS["total"] - PAPER_COUNTS["https"])
        + [ServerDefect.EXPIRED_CERT] * PAPER_COUNTS["bad_certificate"]
        + [ServerDefect.NO_AES256] * PAPER_COUNTS["no_common_cipher"]
        + [ServerDefect.REDIRECT] * PAPER_COUNTS["redirect"]
        + [ServerDefect.BROKEN] * PAPER_COUNTS["unknown"]
        + [ServerDefect.NONE] * PAPER_COUNTS["success"]
    )
    # Fisher-Yates with the deterministic DRBG.
    for index in range(len(defects) - 1, 0, -1):
        other = rng.randint_range(0, index)
        defects[index], defects[other] = defects[other], defects[index]
    return [
        SyntheticServer(rank=rank + 1, hostname=f"site{rank + 1:03d}.example",
                        defect=defect)
        for rank, defect in enumerate(defects)
    ]
