"""qkdsim: a desk-scale simulator for two-way QKD protocols (ping-pong,
LM05) and one-way references (BB84 and a message/control asymmetric
variant) under man-in-the-middle and ancilla attacks, with the matching
information-theoretic curves and privacy-amplification toolkit."""

from .adversary import (
    AncillaInteraction,
    AttackKind,
    AttackSpec,
    BasisPolicy,
    EveAccuracy,
    EveState,
    eve_accuracy,
    intervene_backward,
    intervene_forward,
    xi_from_fidelities,
)
from .channel import (
    ChannelSpec,
    LinkBudget,
    leg_transmittance,
    legs_for,
    path_transmittance,
    transmit,
    transmit_bell,
)
from .infotheory import (
    MutualInfoCurve,
    binary_entropy,
    build_curve,
    critical_disturbance,
    eve_info_mitm,
    key_rate_rpa,
    mutual_info_ab,
    mutual_info_ae,
)
from .kinds import ProtocolKind
from .postproc import (
    MAX_HASH_INPUT_BITS,
    NO_PRIVACY_REASON,
    HashSpec,
    choose_output_length,
    ec_verify,
    privacy_amplify,
    random_hash_spec,
    universal_hash,
)
from .protocol import (
    BB84_ABORT_THRESHOLD,
    Announcement,
    DisturbanceEstimate,
    RoundColumns,
    RoundMode,
    RoundRecord,
    SessionConfig,
    Transcript,
    abort_decision,
    estimate_disturbance,
    run_session,
    sift,
    transcript_csv,
    write_transcript_csv,
)
from .qstate import (
    Basis,
    BellLabel,
    CanonState,
    Encoding,
    apply_encoding,
    measure,
    prepare,
)

__version__ = "0.1.0"
