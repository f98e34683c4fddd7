"""The verifier: issues authenticated, fresh attestation requests.

The verifier is the powerful side of the asymmetry (Section 3.1), so its
own computation is not cycle-accounted; what matters for the paper is
what its messages *cost the prover*.  It still does real cryptography --
tags are genuine MACs/signatures over the wire bytes, so the simulated
adversary can only forge what a real adversary could.
"""

from __future__ import annotations

from dataclasses import dataclass

from ..crypto.hmac import constant_time_compare, hmac_sha1
from ..crypto.rng import DeterministicRng
from ..errors import VerificationFailed
from ..obs.telemetry import NULL_TELEMETRY, Telemetry
from .authenticator import RequestAuthenticator
from .freshness import FreshnessPolicy, VerifierFreshnessState
from .messages import AttestationRequest, AttestationResponse

__all__ = ["Verifier", "VerificationResult"]


@dataclass
class VerificationResult:
    """Outcome of checking one attestation response."""

    authentic: bool
    state_known_good: bool | None
    detail: str

    @property
    def trusted(self) -> bool:
        """The verifier's final verdict on the prover."""
        return self.authentic and self.state_known_good is not False


class Verifier:
    """Issues ``attreq`` messages and validates responses.

    Parameters
    ----------
    key:
        The shared ``K_Attest`` (used for response validation and, with
        symmetric schemes, request tagging).
    authenticator:
        Request authentication scheme (verifier side -- for ECDSA this is
        the signer).
    policy:
        Freshness policy (verifier half).
    clock_ticks:
        Callable returning current time in prover clock ticks, for
        timestamp stamping (the synchronised-clocks assumption).
    seed:
        Seed of the challenge/nonce randomness.
    """

    def __init__(self, key: bytes, authenticator: RequestAuthenticator,
                 policy: FreshnessPolicy, *, clock_ticks=None,
                 challenge_size: int = 16, seed: str = "verifier-0",
                 telemetry: Telemetry | None = None):
        self.key = bytes(key)
        self.authenticator = authenticator
        self.policy = policy
        self.challenge_size = challenge_size
        self.telemetry = telemetry if telemetry is not None else NULL_TELEMETRY
        rng = DeterministicRng(seed)
        self.freshness_state = VerifierFreshnessState(
            rng=rng.substream("nonces"), clock_ticks=clock_ticks)
        self._challenge_rng = rng.substream("challenges")
        self.requests_issued = 0
        self.responses_validated = 0
        self.timeouts = 0
        #: Known-good state digests (populated from a golden device).
        self.reference_measurements: set[bytes] = set()

    # ------------------------------------------------------------------

    def make_request(self) -> AttestationRequest:
        """Build the next authenticated attestation request."""
        fields = self.policy.stamp(self.freshness_state)
        request = AttestationRequest(
            challenge=self._challenge_rng.bytes(self.challenge_size),
            auth_scheme=self.authenticator.scheme,
            **fields)
        tag = self.authenticator.tag(request.signed_payload())
        self.requests_issued += 1
        self.telemetry.count("verifier.requests_issued")
        return request.with_tag(tag)

    def record_timeout(self) -> None:
        """Account one request that went unanswered within its deadline.

        Called by :meth:`repro.core.protocol.Session.attest_resilient`
        for every attempt that reports ``no-response`` -- the one retry
        loop, which retried sweeps and the attestation monitor both run
        through -- so verifier-side give-ups show up next to the issue/
        validate counters.
        """
        self.timeouts += 1
        self.telemetry.count("verifier.timeouts")

    def learn_reference(self, measurement: bytes) -> None:
        """Record a known-good state digest (deployment-time step)."""
        self.reference_measurements.add(bytes(measurement))

    def revoke_reference(self, measurement: bytes) -> bool:
        """Stop accepting a previously-good state digest.

        The fleet-level half of anti-rollback: after a firmware update
        the *device* refuses older versions
        (:class:`~repro.services.codeupdate.UpdateManager`), and the
        verifier revokes the pre-update reference so a device that
        somehow still runs (or was rolled back to) the old image attests
        as untrusted.  Returns whether the digest was known.
        """
        try:
            self.reference_measurements.remove(bytes(measurement))
            return True
        except KeyError:
            return False

    def rotate_reference(self, old: bytes, new: bytes) -> None:
        """Atomically replace one reference with another (update flow)."""
        self.revoke_reference(old)
        self.learn_reference(new)

    def check_response(self, request: AttestationRequest,
                       response: AttestationResponse) -> VerificationResult:
        """Validate a response against the request that elicited it.

        Authenticity: the response tag must verify under ``K_Attest`` and
        the challenge must match.  State: if reference measurements are
        known, the reported digest must be among them; otherwise state
        goodness is reported as ``None`` (unknown).
        """
        self.responses_validated += 1
        result = self._check_response(request, response)
        self.telemetry.count("verifier.responses_validated")
        self.telemetry.count("verifier.verdicts",
                             trusted="yes" if result.trusted else "no")
        return result

    def _check_response(self, request: AttestationRequest,
                        response: AttestationResponse) -> VerificationResult:
        if response.challenge != request.challenge:
            return VerificationResult(False, None, "challenge-mismatch")
        expected = hmac_sha1(self.key, response.tagged_payload())
        if not constant_time_compare(expected, response.tag):
            return VerificationResult(False, None, "bad-response-tag")
        if not self.reference_measurements:
            return VerificationResult(True, None, "authentic; state unknown")
        known = response.measurement in self.reference_measurements
        detail = "authentic; state known-good" if known else \
            "authentic; state NOT in reference set"
        return VerificationResult(True, known, detail)

    def require_trusted(self, request: AttestationRequest,
                        response: AttestationResponse) -> None:
        """Raise :class:`VerificationFailed` unless the response passes."""
        result = self.check_response(request, response)
        if not result.trusted:
            raise VerificationFailed(result.detail)
