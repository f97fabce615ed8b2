"""Three-party survey lifecycle over the simulated ledger.

Parties: the authority (data consumer) funds the survey and aggregates
results; the system operator (broker) screens respondents and escrows the
second key secret; operators (data providers) submit locally randomized,
encrypted responses.

Honest lifecycle: configure -> commit -> filter -> deliver -> deposit ->
reveal -> pay out -> decrypt and aggregate. The deposit can only be
claimed by revealing s2 on the ledger, and the authority can only derive
the session key from that same reveal, which is what makes the exchange
fair.

The survey configuration file is line-based text, hashed as exact bytes
(verification never re-serializes parsed content). Tokens are
percent-encoded so labels may contain arbitrary characters.
"""

from __future__ import annotations

import enum
import itertools
from dataclasses import dataclass, field
from typing import Iterable, Iterator, Mapping, Sequence
from urllib.parse import quote, unquote

import numpy as np

from . import ledger as ledger_mod
from .envelope import (
    CIPHER_NONCE_LEN,
    Ciphertext,
    Digest,
    Nonce,
    PreSharedKey,
    Secret,
    decode_bit_matrix,
    decrypt_population,
    derive_session_key,
    digest,
    encode_bit_matrix,
    encode_bit_vector,
    encrypt_population,
    hmac_derive,
    sha256,
)
from .ldp import (
    FrequencyEstimate,
    PrivacyParams,
    QuerySpec,
    accumulate_counts,
    check_text,
    estimate_frequencies,
    randomize_batch,
)
from .ledger import Address, ContractPhase, LedgerError, SurveyContract

CONFIG_HEADER = "survey-config/1"
DEADLINE = 1 << 32


class ProtocolError(Exception):
    """A party refused to proceed, or an impossible state was reached."""

    def __init__(self, message: str, trace: list[str] | None = None):
        super().__init__(message)
        self.trace = trace or []  # rendered lines


class ConfigIntegrityError(ProtocolError):
    """Retrieved configuration bytes do not hash to the on-ledger digest."""


class InsufficientEligibleError(ProtocolError):
    """Fewer eligible committed operators than required responses."""


@dataclass(frozen=True)
class FilterCriteria:
    """Conjunctive attribute predicates; an empty list accepts everyone."""

    predicates: tuple[tuple[str, tuple[str, ...]], ...]

    def __init__(self, predicates: Iterable[tuple[str, Sequence[str]]] = ()):
        normalized: dict[str, tuple[str, ...]] = {}
        for attr, values in predicates:
            if not isinstance(attr, str):
                raise ValueError(f"criteria attribute names must be strings, got {attr!r}")
            if not isinstance(values, (list, tuple)) or not all(isinstance(v, str) for v in values):
                raise ValueError(f"criteria for {attr!r} must be a list of strings")
            if "" in values:  # it would render like no value at all
                raise ValueError(f"criteria for {attr!r} must not allow the empty string")
            for text in (attr, *values):
                check_text(f"criteria for {attr!r}:", text)
            if attr in normalized:
                raise ValueError("criteria attribute names must be distinct")
            normalized[attr] = tuple(sorted(set(values)))
        object.__setattr__(self, "predicates", tuple(normalized.items()))

    @classmethod
    def empty(cls) -> "FilterCriteria":
        return cls(())


@dataclass(frozen=True)
class SurveyConfiguration:
    query: QuerySpec
    criteria: FilterCriteria
    required_responses: int
    fee: int
    privacy: PrivacyParams

    def __post_init__(self):
        if self.required_responses < 1:
            raise ValueError("required response count must be at least 1")
        if self.fee < 0:
            raise ValueError("fee must be non-negative")
        for term, value in (("required response count", self.required_responses), ("fee", self.fee)):
            if value >= 1 << 64:  # the ledger records both as u64
                raise ValueError(f"{term} must be below 2**64")


@dataclass(slots=True)
class OperatorProfile:
    """A data provider as the system operator knows it.

    true_choice exists for simulation: it is what the operator would
    answer; it never leaves the operator un-randomized.
    """

    operator_id: str
    addresses: tuple[Address, ...]
    attributes: Mapping[str, str] = field(default_factory=dict)
    true_choice: int = 0

    def __post_init__(self):
        if not self.addresses:
            raise ValueError("operator needs at least one address")
        if len(self.addresses) > 1 and len(set(self.addresses)) != len(self.addresses):
            raise ValueError("operator addresses must be distinct")

    @property
    def active_address(self) -> Address:
        """The address this operator commits and is paid under."""
        return self.addresses[0]


@dataclass(frozen=True)
class FilterVector:
    """Eligibility bits aligned with the sorted commitment index."""

    bits: tuple[int, ...]

    @property
    def popcount(self) -> int:
        return sum(self.bits)


@dataclass(frozen=True)
class DeliveryMessage:
    """An eligible operator's (sorted index, ciphertext) submission."""

    index: int
    ciphertext: Ciphertext


class DeliveryVerdict(enum.Enum):
    ACCEPTED = "accepted"
    HASH_MISMATCH = "hash_mismatch"
    INELIGIBLE = "ineligible"
    DUPLICATE = "duplicate"
    OUT_OF_RANGE = "out_of_range"


@dataclass
class AggregationOutcome:
    decrypted_vectors: np.ndarray  # (opened deliveries, n) uint8, ascending delivery index
    estimate: FrequencyEstimate
    failed_indices: tuple[int, ...]  # accepted deliveries that did not decrypt or decode


class ArtifactStore:
    """Stand-in for the pre-agreed publication URL: uri -> exact bytes."""

    def __init__(self):
        self._items: dict[str, bytes] = {}

    def put(self, uri: str, data: bytes) -> None:
        self._items[uri] = bytes(data)

    def get(self, uri: str) -> bytes:
        if uri not in self._items:
            raise KeyError(f"no artifact published at {uri}")
        return self._items[uri]


def filter_uri(contract: SurveyContract) -> str:
    return f"survey://{contract.contract_id.hex}/filter"


# ---------------------------------------------------------------------------
# survey configuration file


def render_config_file(config: SurveyConfiguration) -> bytes:
    """Canonical text form; identical configurations give identical bytes."""
    lines = [CONFIG_HEADER, f"choices {config.query.n}"]
    for i, label in enumerate(config.query.choices):
        lines.append(f"choice {i} {quote(label, safe='')}")
    lines.append(f"criteria {len(config.criteria.predicates)}")
    for attr, values in config.criteria.predicates:
        joined = ",".join(quote(v, safe="") for v in values)
        lines.append(f"require {quote(attr, safe='')} {joined}")
    lines.append(f"required-responses {config.required_responses}")
    lines.append(f"fee {config.fee}")
    lines.append(f"flip-probability {config.privacy.f!r}")
    return ("\n".join(lines) + "\n").encode("utf-8")


def parse_config_file(data: bytes) -> SurveyConfiguration:
    """Strict inverse of render_config_file: accepts exactly the bytes it renders.

    Fields are read by position; the final re-render rejects any other
    spelling (`+5`, `05`, `5_0`, `0.50`, `%63`), so equal surveys have equal digests.
    """
    lines = iter(data.decode("utf-8").split("\n")[1:])

    def field() -> str:
        return next(lines).partition(" ")[2]

    try:
        labels = [unquote(field().partition(" ")[2]) for _ in range(int(field()))]
        predicates = []
        for _ in range(int(field())):
            attr, _, values = field().partition(" ")
            predicates.append((unquote(attr), [unquote(v) for v in values.split(",")] if values else []))
        config = SurveyConfiguration(
            query=QuerySpec(labels),
            criteria=FilterCriteria(predicates),
            required_responses=int(field()),
            fee=int(field()),
            privacy=PrivacyParams(float(field())),
        )
    except StopIteration as exc:
        raise ValueError("configuration file truncated") from exc
    if render_config_file(config) != data:
        raise ValueError("configuration file is not in canonical form")
    return config


# ---------------------------------------------------------------------------
# parties


def random_address(rng: np.random.Generator) -> Address:
    return Address(rng.bytes(ledger_mod.ADDRESS_LEN))


class Authority:
    """Data consumer: verifies deliveries, deposits, decrypts after reveal."""

    def __init__(self, address: Address, config: SurveyConfiguration):
        self.address = address
        self.config = config
        self.accepted: dict[int, Ciphertext] = {}


class SystemOperator:
    """Broker: screens operators, escrows s2, distributes compensation."""

    def __init__(self, address: Address, rng: np.random.Generator):
        self.address = address
        self._rng = rng
        self.registry: dict[str, OperatorProfile] = {}
        self._survey_keys: dict[str, tuple[PreSharedKey, Secret]] = {}

    def register_operator(self, profile: OperatorProfile) -> None:
        self.registry[profile.operator_id] = profile

    def issue_psk(self, contract: SurveyContract, operator_id: str) -> PreSharedKey:
        if operator_id not in self.registry:
            raise ProtocolError(f"operator {operator_id} is not registered")
        psk, _ = self._survey_keys[contract.contract_id.hex]
        return psk

    def secret_for(self, contract: SurveyContract) -> Secret:
        return self._survey_keys[contract.contract_id.hex][1]


class Operator:
    """One data provider, stepped through the one-operator calls; run_survey holds a population as profiles."""

    def __init__(self, profile: OperatorProfile, rng: np.random.Generator):
        self.profile = profile
        self._rng = rng
        self.ciphertext: Ciphertext | None = None


# ---------------------------------------------------------------------------
# lifecycle operations


def setup_survey(
    authority: Authority, sysop: SystemOperator, config: SurveyConfiguration, *, store: ArtifactStore
) -> tuple[SurveyContract, tuple[str, ...]]:
    """Create the on-ledger contract and stage key material; returns it and the registered operator ids.

    The contract records s1 in the clear but only the hash of s2; s2 stays
    with the system operator until the deposit is in escrow.
    """
    file_bytes = render_config_file(config)
    config_digest = digest(file_bytes)
    uri = f"survey://{config_digest.hex}/config"
    store.put(uri, file_bytes)

    psk = PreSharedKey(sysop._rng.bytes(32))
    n1 = Nonce(sysop._rng.bytes(16))
    n2 = Nonce(sysop._rng.bytes(16))
    s1 = hmac_derive(psk, n1)
    s2 = hmac_derive(psk, n2)
    contract = SurveyContract(
        uri,
        config_digest,
        config.required_responses,
        config.fee,
        n1,
        n2,
        s1,
        digest(s2.value),
        DEADLINE,
        authority=authority.address,
        sysop=sysop.address,
    )
    sysop._survey_keys[contract.contract_id.hex] = (psk, s2)
    return contract, tuple(sorted(sysop.registry))


def evaluate_criteria(profile: OperatorProfile, criteria: FilterCriteria) -> bool:
    """True iff every predicate's attribute is present with an allowed value."""
    for attr, allowed in criteria.predicates:
        if profile.attributes.get(attr) not in allowed:
            return False
    return True


def commit_population(
    profiles: Sequence[OperatorProfile], contract: SurveyContract, config_bytes: bytes, expected_digest: Digest,
    psk: PreSharedKey, n1: Nonce, n2: Nonce, rng: np.random.Generator, own_rng: np.random.Generator,
) -> tuple[list[Ciphertext], list[Digest]]:
    """Operators, in arrival order, each verify the configuration, encrypt and commit: (ciphertexts, commitments).

    Each operator first checks the configuration bytes against the on-ledger digest. They share
    the report generator `rng` and the own generator `own_rng`. Each is drawn
    from once, with the bytes of one draw per operator (see simulate): report i
    is row i of one (N, n) draw, nonce i bytes [12i, 12i + 12) of one own draw.
    A survey has one psk, so all encrypt under one session key: the configuration
    is parsed and s1, s2 and sk derived once for the population, and its
    plaintexts are sealed in one `encrypt_population` call. Their commitments then reach the
    ledger in one `commit_responses` call, which commits them in order: a refused one raises,
    and those before it stay committed.
    """
    if len(profiles) > 1 and own_rng is rng:
        raise ValueError("the own generator doubles as the report generator for more than one operator")
    expected = expected_digest.value
    for _ in profiles:
        if sha256(config_bytes) != expected:
            raise ConfigIntegrityError(
                "configuration bytes do not match the on-ledger digest; refusing to participate"
            )
    ciphertexts = []
    if profiles:  # verified bytes: draw for the whole population, before anyone commits
        config = parse_config_file(config_bytes)
        sk = derive_session_key(hmac_derive(psk, n1), hmac_derive(psk, n2))
        choices = [profile.true_choice for profile in profiles]
        plaintexts = encode_bit_matrix(randomize_batch(choices, config.query.n, config.privacy, rng))
        ciphertexts = encrypt_population(sk, plaintexts, own_rng.bytes(CIPHER_NONCE_LEN * len(profiles)))
    commitments = [digest(c.serialize()) for c in ciphertexts]
    ledger_mod.commit_responses(contract, [profile.active_address for profile in profiles], commitments)
    return ciphertexts, commitments


def operator_prepare_and_commit(
    operator: Operator,
    contract: SurveyContract,
    config_bytes: bytes,
    expected_digest: Digest,
    psk: PreSharedKey,
    n1: Nonce,
    n2: Nonce,
    rng: np.random.Generator,
) -> tuple[Ciphertext, Digest]:
    """Verify the configuration, randomize, encrypt, and commit on-ledger: the population of one.

    Draws the report from `rng`, then the cipher nonce from the operator's own
    generator, which may be `rng` itself. The operator holds its ciphertext once the ledger took it.
    """
    (operator.ciphertext,), (commitment,) = commit_population(
        [operator.profile], contract, config_bytes, expected_digest, psk, n1, n2, rng, operator._rng
    )
    return operator.ciphertext, commitment


def build_and_finalize_filter(
    sysop: SystemOperator,
    contract: SurveyContract,
    profiles_by_arrival: Sequence[OperatorProfile],
    criteria: FilterCriteria,
    *,
    store: ArtifactStore,
) -> FilterVector:
    """Screen commitments in arrival order and freeze the filter.

    ProtocolError names the first profile that did not commit at its arrival position.
    Eligibility is granted first come first served until the required
    response count is reached; later operators stay at 0 even if they meet
    the criteria. Bit positions follow the sorted commitment index.
    """
    arrival = contract.commitments.arrival_order()
    if len(profiles_by_arrival) != len(arrival):
        raise ProtocolError(
            f"profile list ({len(profiles_by_arrival)}) does not cover commitments ({len(arrival)})"
        )
    for address, profile in zip(arrival, profiles_by_arrival):
        if profile.active_address.value != address.value:
            raise ProtocolError(f"profile {profile.operator_id} does not match arrival {address}")
    marked: list[Address] = []
    for address, profile in zip(arrival, profiles_by_arrival):
        if len(marked) == contract.required_responses:
            break
        if evaluate_criteria(profile, criteria):
            marked.append(address)
    if len(marked) < contract.required_responses:
        raise InsufficientEligibleError(
            f"only {len(marked)} eligible commitments, need {contract.required_responses}"
        )
    bits = [0] * len(arrival)
    for index in contract.commitments.indices_of(marked):
        bits[index] = 1
    filter_vector = FilterVector(tuple(bits))
    filter_bytes = encode_bit_vector(filter_vector.bits)
    ledger_mod.finalize_filter(contract, digest(filter_bytes))
    store.put(filter_uri(contract), filter_bytes)
    return filter_vector


def deliver_population(
    profiles: Sequence[OperatorProfile], ciphertexts: Sequence[Ciphertext | None],
    filter_vector: FilterVector, commitments: ledger_mod.CommitmentIndex,
) -> tuple[list[int], list[Ciphertext]]:
    """Each operator whose filter bit is set sends its index and prepared ciphertext (or None): a loop of
    `operator_deliver`, so the first operator that cannot deliver raises. Returns what was sent, in order."""
    bits, size = filter_vector.bits, len(filter_vector.bits)
    addresses = [profile.active_address for profile in profiles]
    indices, sent = [], []
    for address, index, ciphertext in zip(addresses, commitments.indices_of(addresses), ciphertexts, strict=True):
        if index is None:
            raise ProtocolError(f"operator address {address} absent from commitment index")
        if index >= size:
            raise ProtocolError(f"filter of {size} bits holds no bit for index {index}")
        if bits[index] != 1:
            continue
        if ciphertext is None:
            raise ProtocolError("operator has no prepared ciphertext to deliver")
        indices.append(index)
        sent.append(ciphertext)
    return indices, sent


def operator_deliver(
    operator: Operator, filter_vector: FilterVector, commitments: ledger_mod.CommitmentIndex
) -> DeliveryMessage | None:
    """Send (index, ciphertext) if this operator's filter bit is set."""
    indices, sent = deliver_population([operator.profile], [operator.ciphertext], filter_vector, commitments)
    return DeliveryMessage(indices[0], sent[0]) if indices else None


def verify_deliveries(
    authority: Authority, indices: Sequence[int], ciphertexts: Sequence[Ciphertext],
    commitments: ledger_mod.CommitmentIndex, filter_vector: FilterVector,
) -> list[DeliveryVerdict]:
    """Check each delivery's eligibility and on-ledger commitment before accepting it: a loop of
    `authority_verify_delivery`, with the same verdicts in order and the same deliveries accepted."""
    count, bits, accepted = len(commitments), filter_vector.bits, authority.accepted
    expected = commitments.digests_sorted()
    verdicts = []
    for index, ciphertext in zip(indices, ciphertexts, strict=True):
        if type(index) is not int or not 0 <= index < count:  # a bool is an int, yet no index
            verdicts.append(DeliveryVerdict.OUT_OF_RANGE)
        elif index >= len(bits) or bits[index] != 1:
            verdicts.append(DeliveryVerdict.INELIGIBLE)
        elif not isinstance(ciphertext, Ciphertext) or sha256(ciphertext.serialize()) != expected[index].value:
            verdicts.append(DeliveryVerdict.HASH_MISMATCH)
        elif index in accepted:
            verdicts.append(DeliveryVerdict.DUPLICATE)
        else:
            accepted[index] = ciphertext
            verdicts.append(DeliveryVerdict.ACCEPTED)
    return verdicts


def authority_verify_delivery(
    authority: Authority,
    msg: DeliveryMessage,
    commitments: ledger_mod.CommitmentIndex,
    filter_vector: FilterVector,
) -> DeliveryVerdict:
    """Check eligibility and the on-ledger commitment before accepting."""
    return verify_deliveries(authority, (msg.index,), (msg.ciphertext,), commitments, filter_vector)[0]


def authority_deposit_and_await_reveal(authority: Authority, contract: SurveyContract) -> None:
    """Escrow the fee once exactly the required deliveries are in hand."""
    if len(authority.accepted) != contract.required_responses:
        raise ProtocolError(
            f"refusing to deposit: {len(authority.accepted)} of "
            f"{contract.required_responses} deliveries accepted"
        )
    ledger_mod.deposit(contract, authority.address, contract.fee)


def sysop_reveal_secret(sysop: SystemOperator, contract: SurveyContract) -> None:
    ledger_mod.reveal_secret(contract, sysop.secret_for(contract))


def sysop_payout(sysop: SystemOperator, contract: SurveyContract, filter_vector: FilterVector) -> dict[Address, int]:
    """Equal shares to every filter-eligible operator, chosen by the contract; remainder retained."""
    return ledger_mod.payout(contract, filter_vector.bits)


def settle_and_decrypt(
    authority: Authority,
    contract: SurveyContract,
    accepted: Mapping[int, Ciphertext],
) -> AggregationOutcome:
    """Reconstruct the session key from the reveal and aggregate the deliveries that open.

    Each delivery is authenticated on its own, all in one `decrypt_population` call, then all
    decode in one pass. The fee is paid by now, so one that fails to decrypt or decode is only
    listed in failed_indices; ProtocolError means that none opened.
    """
    if contract.phase not in (ContractPhase.REVEALED, ContractPhase.SETTLED):
        raise ProtocolError(
            f"cannot decrypt in phase {contract.phase.name}: second secret not on ledger"
        )
    if len(accepted) != contract.required_responses:
        raise ProtocolError(
            f"have {len(accepted)} deliveries, need exactly {contract.required_responses}"
        )
    assert contract.revealed_s2 is not None
    sk = derive_session_key(contract.s1, contract.revealed_s2)
    indices = sorted(accepted)
    plaintexts, unopened = decrypt_population(sk, [accepted[index] for index in indices])
    vectors, undecodable = decode_bit_matrix(plaintexts, authority.config.query.n)
    if not len(vectors):
        raise ProtocolError(f"none of the {len(accepted)} deliveries decrypted and decoded")
    failed = {indices[position] for position in unopened}
    if undecodable:  # positions among the opened deliveries
        opened = [index for index in indices if index not in failed]
        failed |= {opened[position] for position in undecodable}
    estimate = estimate_frequencies(accumulate_counts(vectors), authority.config.privacy)
    return AggregationOutcome(vectors, estimate, tuple(sorted(failed)))


# ---------------------------------------------------------------------------
# orchestration


class SurveyTrace(Sequence[str]):
    """A survey's trace lines, rendered on first read.

    An entry holds the values of one step, or of one per-operator phase (commit, verify-delivery,
    pay-operator) as columns: operator ids, commitment digests, indices, verdicts, addresses,
    amounts. Each row of an entry's columns is one line: the party and action padded to 9 and
    22 columns, then the entry's template formatted with the row's values.
    """

    def __init__(self):
        self._entries: list[tuple[str, str, str, tuple[Sequence, ...]]] = []
        self._lines: list[str] | None = None

    def record(self, party: str, action: str, template: str, *columns: Sequence) -> None:
        """Lines for each row of the equal-length `columns`, which must not change afterwards."""
        self._entries.append((party, action, template, columns))
        self._lines = None

    def step(self, party: str, action: str, detail: str) -> None:
        """One line whose detail is text already."""
        self.record(party, action, "{}", (detail,))

    def _rendered(self) -> list[str]:
        if self._lines is None:
            self._lines = [
                (f"{party:<9} {action:<22} " + template.format(*row)).rstrip()
                for party, action, template, columns in self._entries
                for row in zip(*columns)
            ]
        return self._lines

    def __getitem__(self, index):
        return self._rendered()[index]

    def __len__(self) -> int:
        return len(self._rendered())

    def __iter__(self) -> Iterator[str]:
        return iter(self._rendered())


@dataclass
class SurveyOutcome:
    contract: SurveyContract
    filter_vector: FilterVector
    aggregation: AggregationOutcome
    trace: Sequence[str]  # a SurveyTrace: the text is made on first read


def run_survey(
    config: SurveyConfiguration,
    profiles: Sequence[OperatorProfile],
    *,
    operator_rngs: Sequence[np.random.Generator],
    infra_rng: np.random.Generator,
) -> SurveyOutcome:
    """Drive one honest survey end to end, deterministically.

    Parties act in a fixed order; operators commit and deliver in profile
    order, which is therefore the arrival order. operator_rngs[i] randomizes
    operator i; entries may repeat, a shared generator being consumed in
    arrival order, and each run of consecutive operators sharing one commits
    as one population (commit_population). Cipher nonces come from
    infra_rng after setup, so no entry may be infra_rng. The population is its profiles and
    their ciphertexts, and each later phase takes it in one call; delivery still ends at the
    first rejection. Raises ProtocolError (with the trace attached) if the survey cannot complete.
    """
    if len(operator_rngs) != len(profiles):
        raise ValueError("need exactly one random stream per operator profile")
    if any(rng is infra_rng for rng in operator_rngs):
        raise ValueError("operator_rngs must not include infra_rng, which draws the cipher nonces")
    trace = SurveyTrace()
    store = ArtifactStore()
    authority = Authority(random_address(infra_rng), config)
    sysop = SystemOperator(random_address(infra_rng), infra_rng)
    for profile in profiles:
        sysop.register_operator(profile)

    try:
        contract, _ = setup_survey(authority, sysop, config, store=store)
        trace.step("sysop", "create-contract", f"id={contract.contract_id.hex[:16]} nr={config.required_responses} fee={config.fee}")
        trace.step("sysop", "distribute-psk", f"recipients={len(sysop.registry)}")

        config_bytes = store.get(contract.config_uri)
        ciphertexts: list[Ciphertext] = []
        try:
            for _, run in itertools.groupby(operator_rngs, key=id):
                start = len(ciphertexts)
                population = profiles[start : start + len(list(run))]
                psk = sysop.issue_psk(contract, population[0].operator_id)
                ciphertexts += commit_population(
                    population, contract, config_bytes, contract.config_digest, psk,
                    contract.n1, contract.n2, operator_rngs[start], infra_rng,
                )[0]
        finally:  # a line per operator that committed, in arrival order, also when a later one failed
            commitments = contract.commitments.arrival_digests()
            operator_ids = tuple(profile.operator_id for profile in profiles[: len(commitments)])
            trace.record("operator", "commit", "{} commitment={.hex:.16}", operator_ids, commitments)

        filter_vector = build_and_finalize_filter(
            sysop, contract, profiles, config.criteria, store=store
        )
        trace.step("sysop", "finalize-filter", f"eligible={filter_vector.popcount} of {len(filter_vector.bits)}")

        indices, sent = deliver_population(profiles, ciphertexts, filter_vector, contract.commitments)
        verdicts = verify_deliveries(authority, indices, sent, contract.commitments, filter_vector)
        # operators deliver in turn, so the first rejection ends delivery
        end = next((i + 1 for i, verdict in enumerate(verdicts) if verdict != DeliveryVerdict.ACCEPTED), len(verdicts))
        trace.record("authority", "verify-delivery", "index={} verdict={.value}", indices[:end], verdicts[:end])
        if end and verdicts[end - 1] != DeliveryVerdict.ACCEPTED:
            raise ProtocolError(f"honest delivery at index {indices[end - 1]} rejected: {verdicts[end - 1].value}")

        authority_deposit_and_await_reveal(authority, contract)
        trace.step("authority", "deposit", f"amount={contract.fee}")
        sysop_reveal_secret(sysop, contract)
        trace.step("sysop", "reveal-secret", f"h_s2={contract.h_s2.hex[:16]}")
        payouts = sysop_payout(sysop, contract, filter_vector)  # ascending address order
        trace.record("sysop", "pay-operator", "{} amount={}", tuple(payouts), tuple(payouts.values()))
        aggregation = settle_and_decrypt(authority, contract, authority.accepted)
        trace.step("authority", "decrypt-aggregate", f"responses={len(aggregation.decrypted_vectors)}")
    except (LedgerError, ProtocolError) as exc:
        if isinstance(exc, ProtocolError):
            exc.trace = exc.trace or list(trace)
            raise
        raise ProtocolError(str(exc), list(trace)) from exc

    return SurveyOutcome(contract, filter_vector, aggregation, trace)
