"""Three-party survey lifecycle over the simulated ledger.

Parties: the authority (data consumer) funds the survey and aggregates
results; the system operator (broker) screens respondents and escrows the
second key secret; operators (data providers) submit locally randomized,
encrypted responses.

Honest lifecycle: configure -> commit -> filter -> deliver -> deposit ->
reveal -> pay out -> decrypt and aggregate. The deposit can only be
claimed by revealing s2 on the ledger, and the authority can only derive
the session key from that same reveal, which is what makes the exchange
fair. A survey's operators travel as one `Population`, only its columns, which
each batch phase takes in one call; each one-operator call is the one-row
call of its phase. An `OperatorProfile` and a `Population` are each checked
once, when they are made. A commitment stays the raw SHA-256 of its
ciphertext from commit to verification.

This module holds the parties and the phases. The survey's terms and its
configuration file live in `ldp`, and are imported here under their names.
"""

from __future__ import annotations

import enum
import itertools
from dataclasses import dataclass, field
from typing import Callable, Iterable, Iterator, Mapping, Sequence

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
from .ldp import (CONFIG_HEADER, FilterCriteria, FrequencyEstimate, SurveyConfiguration, accumulate_counts,
                  estimate_frequencies, parse_config_file, randomize_batch, render_config_file)
from .ledger import ADDRESS_LEN, Address, ContractPhase, LedgerError, SurveyContract

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


@dataclass(frozen=True, slots=True)
class OperatorProfile:
    """A data provider as the system operator knows it, checked once, when it is made.

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
        if not all(isinstance(address, Address) for address in self.addresses):
            raise ValueError(f"operator addresses must be Address values, got {self.addresses!r}")
        if len(self.addresses) > 1 and len(set(self.addresses)) != len(self.addresses):
            raise ValueError("operator addresses must be distinct")
        if isinstance(self.true_choice, bool) or not isinstance(self.true_choice, (int, np.integer)):
            raise ValueError(f"true_choice must be an int, got {self.true_choice!r}")

    @property
    def active_address(self) -> Address:
        """The address this operator commits and is paid under."""
        return self.addresses[0]


@dataclass(eq=False)
class Population:
    """Operators as columns, in arrival order, checked once, when made: every column has a row per operator id."""

    operator_ids: Sequence[str]
    addresses: bytes  # the active addresses, one block of ADDRESS_LEN bytes per operator
    true_choices: np.ndarray  # int64
    attributes: Mapping[str, Sequence[str | None]]  # a column per attribute name, None where a profile lacks it

    @classmethod
    def of(cls, profiles: Population | Iterable[OperatorProfile]) -> Population:
        """`profiles` itself if it is a Population, else the columns of the profiles, which are read once."""
        if isinstance(profiles, Population):
            return profiles
        profiles = tuple(profiles)
        names = dict.fromkeys(name for profile in profiles for name in profile.attributes)
        return cls(
            [profile.operator_id for profile in profiles],
            b"".join([profile.active_address.value for profile in profiles]),
            np.array([profile.true_choice for profile in profiles], np.int64),
            {name: [profile.attributes.get(name) for profile in profiles] for name in names},
        )

    def __post_init__(self):
        if isinstance(self.operator_ids, str):  # each of its characters would be an id
            raise ValueError("operator_ids must be a sequence of ids, not one str")
        count, choices = len(self.operator_ids), self.true_choices
        if not isinstance(self.addresses, bytes) or len(self.addresses) != count * ADDRESS_LEN:
            raise ValueError(f"addresses must be one bytes block of {count} x {ADDRESS_LEN} bytes")
        if not isinstance(choices, np.ndarray) or choices.dtype != np.int64 or choices.shape != (count,):
            raise ValueError(f"true_choices must be a 1-D int64 array of length {count}")
        for name, column in self.attributes.items():
            if isinstance(column, str):  # each of its characters would be a value
                raise ValueError(f"attribute column {name!r} must be a sequence of values, not one str")
            if len(column) != count:
                raise ValueError(f"attribute column {name!r} must have length {count}, got {len(column)}")

    def __len__(self) -> int:
        return len(self.operator_ids)


@dataclass(frozen=True)
class FilterVector:
    """Eligibility bits aligned with the sorted commitment index, kept as a tuple (another sequence becomes one)."""

    bits: tuple[int, ...]

    def __post_init__(self):
        object.__setattr__(self, "bits", tuple(self.bits))  # a tuple is its own tuple

    @property
    def popcount(self) -> int:
        return self.bits.count(1)


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
# parties


def random_address(rng: np.random.Generator) -> Address:
    return Address(rng.bytes(ADDRESS_LEN))


class Authority:
    """Data consumer: verifies deliveries, deposits, decrypts after reveal."""

    def __init__(self, address: Address, config: SurveyConfiguration):
        self.address = address
        self.config = config
        self.accepted: dict[int, Ciphertext] = {}


class SystemOperator:
    """Broker: screens operators, escrows s2, distributes compensation. Its registry is the registered operator ids."""

    def __init__(self, address: Address, rng: np.random.Generator):
        self.address = address
        self._rng = rng
        self.registry: set[str] = set()
        self._survey_keys: dict[str, tuple[PreSharedKey, Secret]] = {}

    def register_operator(self, profile: OperatorProfile) -> None:
        self.registry.add(profile.operator_id)

    def issue_psk(self, contract: SurveyContract, operator_id: str) -> PreSharedKey:
        if operator_id not in self.registry:
            raise ProtocolError(f"operator {operator_id} is not registered")
        psk, _ = self._survey_keys[contract.contract_id.hex]
        return psk

    def secret_for(self, contract: SurveyContract) -> Secret:
        return self._survey_keys[contract.contract_id.hex][1]


class Operator:
    """One data provider, stepped through the one-operator calls; run_survey holds its operators as a Population."""

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


def commit_population(
    population: Population, contract: SurveyContract, config_bytes: bytes,
    expected_digest: Digest, psk: PreSharedKey, n1: Nonce, n2: Nonce, report_rngs: Sequence[np.random.Generator],
    own_rng: np.random.Generator,
) -> tuple[list[Ciphertext], list[bytes]]:
    """Operators, in arrival order, each verify the configuration, encrypt and commit: (ciphertexts, raw commitments).

    Each operator first checks the configuration bytes against the on-ledger digest. Operator i draws its
    report from report_rngs[i]; entries may repeat, and each run of consecutive operators that share a
    generator is drawn from it once, in arrival order: one (count, n) draw, a row per operator. The cipher
    nonces are one draw from the own generator, nonce i bytes [12i, 12i + 12) of it (see simulate). A survey
    has one psk, so all encrypt under one session key: the configuration is parsed and s1, s2 and sk derived
    once, and the plaintexts are sealed in one `encrypt_population` call. Their raw SHA-256 commitments then
    reach the ledger with the raw addresses in one `commit_responses` call, which commits them in order: a
    refused one raises, and those before it stay committed.
    """
    if len(report_rngs) != len(population):
        raise ValueError("need exactly one random stream per operator profile")
    if len(population) > 1 and any(rng is own_rng for rng in report_rngs):
        raise ValueError("the own generator doubles as the report generator for more than one operator")
    expected = expected_digest.value
    for _ in range(len(population)):
        if sha256(config_bytes) != expected:
            raise ConfigIntegrityError(
                "configuration bytes do not match the on-ledger digest; refusing to participate"
            )
    ciphertexts = []
    if len(population):  # verified bytes: draw for the whole population, before anyone commits
        config = parse_config_file(config_bytes)
        sk = derive_session_key(hmac_derive(psk, n1), hmac_derive(psk, n2))
        runs = [list(run) for _, run in itertools.groupby(report_rngs, key=id)]
        rows = np.split(population.true_choices, np.cumsum([len(run) for run in runs])[:-1])
        reports = np.concatenate([randomize_batch(c, config.query.n, config.privacy, run[0]) for c, run in zip(rows, runs)])
        ciphertexts = encrypt_population(sk, encode_bit_matrix(reports), own_rng.bytes(CIPHER_NONCE_LEN * len(population)))
    commitments = list(map(sha256, ciphertexts))
    ledger_mod.commit_responses(contract, np.frombuffer(population.addresses, f"V{ADDRESS_LEN}").tolist(), commitments)
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
        Population.of([operator.profile]), contract, config_bytes, expected_digest, psk, n1, n2, [rng], operator._rng
    )
    return operator.ciphertext, Digest(commitment)


def build_and_finalize_filter(
    sysop: SystemOperator,
    contract: SurveyContract,
    profiles_by_arrival: Population | Iterable[OperatorProfile],
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
    population, index = Population.of(profiles_by_arrival), contract.commitments
    if len(population) != len(index):
        raise ProtocolError(
            f"profile list ({len(population)}) does not cover commitments ({len(index)})"
        )
    arrival = index.arrival_bytes()
    if population.addresses != arrival:  # name the first row that differs
        row = int(np.argmax(np.frombuffer(population.addresses, np.uint8) != np.frombuffer(arrival, np.uint8))) // ADDRESS_LEN
        address = Address(arrival[row * ADDRESS_LEN : (row + 1) * ADDRESS_LEN])
        raise ProtocolError(f"profile {population.operator_ids[row]} does not match arrival {address}")
    eligible = np.ones(len(population), bool)
    for attr, allowed in criteria.predicates:  # a missing attribute is None, never allowed
        column = population.attributes.get(attr, [None] * len(population))
        eligible &= np.fromiter(map(frozenset(allowed).__contains__, column), bool, len(population))
    marked = np.flatnonzero(eligible)[: contract.required_responses]
    if len(marked) < contract.required_responses:
        raise InsufficientEligibleError(
            f"only {len(marked)} eligible commitments, need {contract.required_responses}"
        )
    bits = np.zeros(len(population), np.uint8)
    bits[index.ranks_of(arrival)[marked]] = 1
    filter_bytes = encode_bit_vector(bits)
    ledger_mod.finalize_filter(contract, digest(filter_bytes))
    store.put(filter_uri(contract), filter_bytes)
    return FilterVector(bits.tolist())


def deliver_population(
    population: Population, ciphertexts: Sequence[Ciphertext | None],
    filter_vector: FilterVector, commitments: ledger_mod.CommitmentIndex,
) -> tuple[list[int], list[Ciphertext]]:
    """The loop of operator_deliver: each operator whose filter bit is set sends its index (an int) and ciphertext, in
    order; the first that cannot (no commitment, no bit at its index, or no ciphertext) raises. Returns what was sent."""
    ranks, bits = commitments.ranks_of(population.addresses).tolist(), filter_vector.bits
    if len(ciphertexts) != len(ranks):
        raise ValueError(f"deliver needs one ciphertext per operator, got {len(ciphertexts)} for {len(ranks)}")
    indices, sent = [], []
    for row, (rank, ciphertext) in enumerate(zip(ranks, ciphertexts)):
        if rank < 0:
            address = population.addresses[row * ADDRESS_LEN : (row + 1) * ADDRESS_LEN]
            raise ProtocolError(f"operator address 0x{address.hex()} absent from commitment index")
        if rank >= len(bits):
            raise ProtocolError(f"filter of {len(bits)} bits holds no bit for index {rank}")
        if bits[rank] == 1:
            if ciphertext is None:
                raise ProtocolError("operator has no prepared ciphertext to deliver")
            indices.append(rank)
            sent.append(ciphertext)
    return indices, sent


def operator_deliver(
    operator: Operator, filter_vector: FilterVector, commitments: ledger_mod.CommitmentIndex
) -> DeliveryMessage | None:
    """Send (index, ciphertext) if this operator's filter bit is set."""
    indices, sent = deliver_population(Population.of([operator.profile]), [operator.ciphertext], filter_vector, commitments)
    return DeliveryMessage(indices[0], sent[0]) if indices else None


def verify_deliveries(
    authority: Authority, indices: Sequence[int], ciphertexts: Sequence[Ciphertext],
    commitments: ledger_mod.CommitmentIndex, filter_vector: FilterVector,
) -> list[DeliveryVerdict]:
    """Check each delivery's eligibility and on-ledger commitment before accepting it, in order: a delivery is
    accepted once, when its ciphertext hashes to the raw commitment at its filter index."""
    count, bits, accepted = len(commitments), filter_vector.bits, authority.accepted
    expected = commitments.sorted_commitments()
    verdicts = []
    for index, ciphertext in zip(indices, ciphertexts, strict=True):
        if type(index) is not int or not 0 <= index < count:  # a bool is an int, yet no index
            verdicts.append(DeliveryVerdict.OUT_OF_RANGE)
        elif index >= len(bits) or bits[index] != 1:
            verdicts.append(DeliveryVerdict.INELIGIBLE)
        elif not isinstance(ciphertext, Ciphertext) or sha256(ciphertext) != expected[index]:
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


def sysop_payout(sysop: SystemOperator, contract: SurveyContract, filter_vector: FilterVector) -> dict[bytes, int]:
    """Equal shares to every filter-eligible operator, chosen by the contract; remainder retained."""
    return ledger_mod.payout(contract, filter_vector.bits)


def settle_and_decrypt(
    authority: Authority,
    contract: SurveyContract,
    accepted: Mapping[int, Ciphertext],
) -> AggregationOutcome:
    """Reconstruct the session key from the reveal and aggregate the deliveries that open.

    In ascending index order, the deliveries open in one `decrypt_population` call, a slot each, and the slots
    decode in one pass. The fee is paid by now, so a slot that does not open or decode only names its index in
    failed_indices; ProtocolError means that none opened, or a key is no int.
    """
    if contract.phase not in (ContractPhase.REVEALED, ContractPhase.SETTLED):
        raise ProtocolError(
            f"cannot decrypt in phase {contract.phase.name}: second secret not on ledger"
        )
    if len(accepted) != contract.required_responses:
        raise ProtocolError(
            f"have {len(accepted)} deliveries, need exactly {contract.required_responses}"
        )
    if set(map(type, accepted)) - {int}:  # a bool is an int, yet no index
        raise ProtocolError(f"accepted delivery key {next(k for k in accepted if type(k) is not int)!r} is not an int index")
    assert contract.revealed_s2 is not None
    sk = derive_session_key(contract.s1, contract.revealed_s2)
    indices = sorted(accepted)
    vectors, failed = decode_bit_matrix(decrypt_population(sk, [accepted[i] for i in indices]), authority.config.query.n)
    if not len(vectors):
        raise ProtocolError(f"none of the {len(accepted)} deliveries decrypted and decoded")
    estimate = estimate_frequencies(accumulate_counts(vectors), authority.config.privacy)
    return AggregationOutcome(vectors, estimate, tuple(indices[position] for position in failed))


# ---------------------------------------------------------------------------
# orchestration


class SurveyTrace(Sequence[str]):
    """A survey's trace lines, rendered on first read.

    An entry holds the values of one step, or of one per-operator phase (commit, verify-delivery,
    pay-operator) as columns: operator ids, raw commitments, indices, verdicts, addresses,
    amounts. Each row of an entry's columns is one line: the party and action padded to 9 and
    22 columns, then the entry's `detail` called with the row's values.
    """

    def __init__(self):
        self._entries: list[tuple[str, str, Callable[..., str], tuple[Sequence, ...]]] = []
        self._lines: list[str] | None = None

    def record(self, party: str, action: str, detail: Callable[..., str], *columns: Sequence) -> None:
        """Lines for each row of the equal-length `columns`, which must not change afterwards."""
        self._entries.append((party, action, detail, columns))
        self._lines = None

    def step(self, party: str, action: str, detail: str) -> None:
        """One line whose detail is text already."""
        self.record(party, action, str, (detail,))

    def _rendered(self) -> list[str]:
        if self._lines is None:
            self._lines = [
                (f"{party:<9} {action:<22} " + detail(*row)).rstrip()
                for party, action, detail, columns in self._entries
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
    profiles: Population | Iterable[OperatorProfile],
    *,
    operator_rngs: Sequence[np.random.Generator],
    infra_rng: np.random.Generator,
) -> SurveyOutcome:
    """Drive one honest survey end to end, deterministically.

    Parties act in a fixed order; operators commit and deliver in profile
    order, which is therefore the arrival order. operator_rngs[i] randomizes operator i (see
    commit_population); cipher nonces come from infra_rng after setup, so no entry may be infra_rng.
    The profiles become one Population, whose operators all get the psk without registering and commit
    in one call; each later phase takes it in one call, and delivery still ends at the first rejection.
    Raises ProtocolError (with the trace attached) if the survey cannot complete.
    """
    population = Population.of(profiles)
    if any(rng is infra_rng for rng in operator_rngs):
        raise ValueError("operator_rngs must not include infra_rng, which draws the cipher nonces")
    trace = SurveyTrace()
    store = ArtifactStore()
    authority = Authority(random_address(infra_rng), config)
    sysop = SystemOperator(random_address(infra_rng), infra_rng)

    try:
        contract, _ = setup_survey(authority, sysop, config, store=store)
        trace.step("sysop", "create-contract", f"id={contract.contract_id.hex[:16]} nr={config.required_responses} fee={config.fee}")
        trace.step("sysop", "distribute-psk", f"recipients={len(set(population.operator_ids))}")

        config_bytes = store.get(contract.config_uri)
        psk, _ = sysop._survey_keys[contract.contract_id.hex]  # every operator of the population gets the psk
        try:
            ciphertexts, _ = commit_population(
                population, contract, config_bytes, contract.config_digest, psk,
                contract.n1, contract.n2, operator_rngs, infra_rng,
            )
        finally:  # a line per operator that committed, in arrival order, also when a later one failed
            commitments = contract.commitments.commitments()
            operator_ids = population.operator_ids[: len(commitments)]
            trace.record("operator", "commit", lambda i, c: f"{i} commitment={c[:8].hex()}", operator_ids, commitments)

        filter_vector = build_and_finalize_filter(
            sysop, contract, population, config.criteria, store=store
        )
        trace.step("sysop", "finalize-filter", f"eligible={filter_vector.popcount} of {len(filter_vector.bits)}")

        indices, sent = deliver_population(population, ciphertexts, filter_vector, contract.commitments)
        verdicts = verify_deliveries(authority, indices, sent, contract.commitments, filter_vector)
        # operators deliver in turn, so the first rejection ends delivery
        end = next((i + 1 for i, verdict in enumerate(verdicts) if verdict != DeliveryVerdict.ACCEPTED), len(verdicts))
        trace.record("authority", "verify-delivery", "index={} verdict={.value}".format, indices[:end], verdicts[:end])
        if end and verdicts[end - 1] != DeliveryVerdict.ACCEPTED:
            raise ProtocolError(f"honest delivery at index {indices[end - 1]} rejected: {verdicts[end - 1].value}")

        authority_deposit_and_await_reveal(authority, contract)
        trace.step("authority", "deposit", f"amount={contract.fee}")
        sysop_reveal_secret(sysop, contract)
        trace.step("sysop", "reveal-secret", f"h_s2={contract.h_s2.hex[:16]}")
        payouts = sysop_payout(sysop, contract, filter_vector)  # raw addresses, in ascending order
        trace.record("sysop", "pay-operator", lambda a, s: f"0x{a.hex()} amount={s}", tuple(payouts),
                     tuple(payouts.values()))
        aggregation = settle_and_decrypt(authority, contract, authority.accepted)
        trace.step("authority", "decrypt-aggregate", f"responses={len(aggregation.decrypted_vectors)}")
    except (LedgerError, ProtocolError) as exc:
        if isinstance(exc, ProtocolError):
            exc.trace = exc.trace or list(trace)
            raise
        raise ProtocolError(str(exc), list(trace)) from exc

    return SurveyOutcome(contract, filter_vector, aggregation, trace)
