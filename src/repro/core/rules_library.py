"""Stable rule ids of the shipped detection policy.

The rules themselves are data: the ``scidive-core.rules`` pack that
ships inside :mod:`repro.rulespec` (see
:func:`repro.rulespec.shipped_pack`).  This module only names their ids
so tests, benchmarks and examples can refer to them:

==============  ============================================================
``BYE-001``     BYE attack — "No RTP traffic should be seen after a SIP BYE
                from a particular user agent" (cross-protocol + stateful)
``HIJACK-001``  Call Hijacking — no RTP from the old endpoint after a
                re-INVITE moved the party's media (cross-protocol + stateful)
``FAKEIM-001``  Fake Instant Messaging — source IP of an IM differs from the
                sender's recent IP within the mobility window
``RTP-001``     RTP attack — sequence jump beyond the threshold (paper: 100)
``RTP-002``     RTP attack — media from an IP that no SDP negotiated
``RTP-003``     RTP attack — datagram on a media port that is not valid RTP
``DOS-001``     REGISTER DoS — repeated unauthenticated REGISTERs ignoring
                401 challenges (stateful)
``PWD-001``     Password guessing — repeated failed digests with *different*
                challenge responses (stateful)
``FRAUD-001``   Billing fraud — conjunction of malformed SIP, an accounting
                transaction without a matching call setup, and rogue media
                (cross-protocol ×3)
``RTCP-001``    RTP still flowing after the SSRC's RTCP BYE — forged goodbye
``SSRC-001``    SSRC impersonation — a second source producing an owned SSRC
``H323-001``    The BYE-attack rule on H.323: RTP after RELEASE COMPLETE
==============  ============================================================
"""

RULE_BYE_ATTACK = "BYE-001"
RULE_CALL_HIJACK = "HIJACK-001"
RULE_FAKE_IM = "FAKEIM-001"
RULE_RTP_SEQ = "RTP-001"
RULE_RTP_SOURCE = "RTP-002"
RULE_RTP_MALFORMED = "RTP-003"
RULE_REGISTER_DOS = "DOS-001"
RULE_PASSWORD_GUESS = "PWD-001"
RULE_BILLING_FRAUD = "FRAUD-001"
RULE_RTCP_BYE_ORPHAN = "RTCP-001"
RULE_SSRC_COLLISION = "SSRC-001"
RULE_H323_RELEASE = "H323-001"
