import dataclasses
import hashlib
import random

import pytest

from hypothesis import given
from hypothesis import strategies as st

from oracles import best_driver, decrypt_request, reference_distance, reference_match
from ridecrypt.codec import BlockParams, decompose, encode_signed, recompose
from ridecrypt.crypto import (
    encode_message,
    issue_system_keys,
    prf_f,
    prf_h,
    session_codebook,
    session_memo,
    xor_bytes,
)
from ridecrypt import protocol
from ridecrypt.errors import CapacityError, PrfCollisionError, ProtocolFault
from ridecrypt.harness import _session_matches
from ridecrypt.protocol import (
    DriverEntry,
    DriverResponse,
    RideContext,
    RiderBlockGroup,
    RiderEntry,
    RiderRequest,
    ServiceProvider,
    driver_encrypt,
    rider_encrypt,
    sp_compute_distance,
    sp_match_block,
)
from ridecrypt.roadnet import rne_distance

KEYS = issue_system_keys(2024)


def make_ctx(block_bits=2, num_blocks=2, dim=2, zone=11, slot=5):
    return RideContext(zone, slot, BlockParams(block_bits, num_blocks), dim)


def match_all(request, response):
    return ServiceProvider(request.context).match_response(request, response)


def select_driver(request, responses):
    return ServiceProvider(request.context).select_driver(request, responses)


def random_vector(rng, ctx):
    return tuple(rng.randrange(ctx.params.capacity) for _ in range(ctx.dim))


class TestRiderEncrypt:
    def test_entry_and_group_counts(self):
        ctx = make_ctx(block_bits=2, num_blocks=3, dim=4)
        request = rider_encrypt((5, 0, 63, 17), KEYS, ctx, random.Random(1))
        assert len(request.groups) == ctx.dim * ctx.params.num_blocks
        assert {(g.coord, g.block_index) for g in request.groups} == {
            (i, j) for i in range(4) for j in range(3)
        }
        for group in request.groups:
            assert len(group.entries) == ctx.params.base

    def test_minimal_parameters_payload_set(self):
        # One coordinate, one 1-bit block, value 1: candidate payloads are
        # (0-1)*1 and (1-1)*1.
        ctx = make_ctx(block_bits=1, num_blocks=1, dim=1)
        request = rider_encrypt((1,), KEYS, ctx, random.Random(7))
        group = request.groups[0]
        entry_for = {}
        for q in (0, 1):
            message = encode_message(q, 0, 0, ctx.zone_id, ctx.time_slot)
            token = prf_f(prf_h(KEYS.match_key, message), group.nonce)
            pad = prf_f(prf_h(KEYS.mask_key, message), group.nonce)[:8]
            hits = [e for e in group.entries if e.c1 == token]
            assert len(hits) == 1
            entry_for[q] = xor_bytes(hits[0].c2, pad)
        assert entry_for[0] == encode_signed(-1)
        assert entry_for[1] == encode_signed(0)

    def test_reference_decryption_recovers_location(self):
        rng = random.Random(3)
        for _ in range(10):
            ctx = make_ctx(block_bits=2, num_blocks=4, dim=3)
            location = random_vector(rng, ctx)
            request = rider_encrypt(location, KEYS, ctx, rng)
            blocks = decrypt_request(request, KEYS)
            for i, coordinate in enumerate(location):
                expected = decompose(coordinate, ctx.params)
                assert tuple(blocks[(i, j)] for j in range(4)) == expected

    def test_groups_in_label_order_and_pinned(self):
        # Only the order within a group is random. The digest was taken,
        # label-sorted, when groups were shuffled as well: that shuffle was
        # the rng's last draw, so deleting it moved no nonce.
        ctx = make_ctx(block_bits=2, num_blocks=3, dim=4)
        request = rider_encrypt((5, 0, 63, 17), KEYS, ctx, random.Random(1))
        labels = [(g.coord, g.block_index) for g in request.groups]
        assert labels == [(i, j) for i in range(4) for j in range(3)]
        digest = hashlib.sha256()
        for group in request.groups:
            digest.update(bytes([group.coord, group.block_index]) + group.nonce)
            for c1, c2 in group.entries:
                digest.update(c1 + c2)
        assert digest.hexdigest() == (
            "87385677b0aab7cd82985afa22e25ea1f45b04ebf3276ecf9819a6d30d9fedf5"
        )

    def test_fresh_nonce_per_group(self):
        ctx = make_ctx(block_bits=2, num_blocks=3, dim=4)
        request = rider_encrypt((1, 2, 3, 4), KEYS, ctx, random.Random(5))
        nonces = [g.nonce for g in request.groups]
        assert len(set(nonces)) == len(nonces)

    def test_capacity_violation(self):
        ctx = make_ctx(block_bits=2, num_blocks=2)  # capacity 16
        with pytest.raises(CapacityError):
            rider_encrypt((16, 0), KEYS, ctx, random.Random(1))

    def test_dimension_mismatch(self):
        with pytest.raises(ValueError):
            rider_encrypt((1, 2, 3), KEYS, make_ctx(dim=2), random.Random(1))


class TestDriverEncrypt:
    def test_direct_formula(self):
        ctx = make_ctx(block_bits=1, num_blocks=1, dim=1, zone=9, slot=4)
        response = driver_encrypt(0, (1,), KEYS, ctx)
        entry = response.entries[0]
        assert entry.c1 == prf_h(KEYS.match_key, encode_message(1, 0, 0, 9, 4))
        assert entry.c2 == prf_h(KEYS.mask_key, encode_message(1, 0, 0, 9, 4))

    def test_one_entry_per_position(self):
        ctx = make_ctx(block_bits=2, num_blocks=3, dim=4)
        response = driver_encrypt(5, (1, 2, 3, 4), KEYS, ctx)
        assert len(response.entries) == 12
        assert {(e.coord, e.block_index) for e in response.entries} == {
            (i, j) for i in range(4) for j in range(3)
        }

    def test_deterministic_in_label_order(self):
        ctx = make_ctx(block_bits=2, num_blocks=3, dim=2)
        a = driver_encrypt(1, (7, 9), KEYS, ctx)
        assert a == driver_encrypt(1, (7, 9), KEYS, ctx)
        assert [e[:2] for e in a.entries] == [(i, j) for i in range(2) for j in range(3)]

    def test_capacity_violation(self):
        with pytest.raises(CapacityError):
            driver_encrypt(0, (99, 0), KEYS, make_ctx())


class TestDriverCodebook:
    """Inside a ``session_memo`` scope, driver pairs come from the scope's
    codebook for (keys, context)."""

    def count_prf_h(self, monkeypatch):
        calls = []

        def counted(key, message):
            calls.append(message)
            return prf_h(key, message)

        monkeypatch.setattr(protocol, "prf_h", counted)
        return calls

    def test_response_equal_inside_and_outside_a_scope(self, monkeypatch):
        ctx = make_ctx(block_bits=2, num_blocks=3, dim=2)
        outside = driver_encrypt(1, (7, 9), KEYS, ctx)
        calls = self.count_prf_h(monkeypatch)
        with session_memo():
            first = driver_encrypt(1, (7, 9), KEYS, ctx)
            assert len(calls) == 2 * 6
            # 7 -> 23 changes block (0, 2) only, 9 -> 5 block (1, 1) only.
            again = driver_encrypt(2, (7 + 16, 9 - 4), KEYS, ctx)
            assert len(calls) == 2 * (6 + 2)
        assert first == outside
        assert again == driver_encrypt(2, (7 + 16, 9 - 4), KEYS, ctx)

    def test_each_key_set_and_context_gets_its_own_pairs(self):
        other_keys = issue_system_keys(2025)
        ctx, other_ctx = make_ctx(slot=5), make_ctx(slot=6)
        runs = [(KEYS, ctx), (other_keys, ctx), (KEYS, other_ctx)]
        outside = [driver_encrypt(0, (3, 12), k, c).entries for k, c in runs]
        assert len(set(outside)) == 3
        with session_memo():
            inside = [driver_encrypt(0, (3, 12), k, c).entries for k, c in runs]
            # Each codebook holds a row per position and one pair per row.
            for run in runs:
                rows = session_codebook(run)
                assert tuple(rows) == run[1].labels
                filled = [sum(pair is not None for pair in row) for row in rows.values()]
                assert filled == [1] * 4
        assert inside == outside

    def test_nothing_survives_the_scope(self, monkeypatch):
        ctx = make_ctx()
        with session_memo():
            driver_encrypt(0, (3, 12), KEYS, ctx)
            assert session_codebook((KEYS, ctx))
        assert session_codebook((KEYS, ctx)) == {}
        calls = self.count_prf_h(monkeypatch)
        with session_memo():
            assert session_codebook((KEYS, ctx)) == {}
            driver_encrypt(0, (3, 12), KEYS, ctx)
        assert len(calls) == 2 * 4

    def test_capacity_violation_inside_a_scope(self):
        ctx = make_ctx()
        with session_memo():
            driver_encrypt(0, (15, 0), KEYS, ctx)
            with pytest.raises(CapacityError):
                driver_encrypt(0, (99, 0), KEYS, ctx)


class TestMatchBlock:
    def _group_and_entry(self, rider_block, driver_block, block_bits, j, num_blocks):
        params = BlockParams(block_bits, num_blocks)
        ctx = RideContext(1, 1, params, 1)
        rider_coord = rider_block * params.weight(j)
        driver_coord = driver_block * params.weight(j)
        request = rider_encrypt((rider_coord,), KEYS, ctx, random.Random(4))
        response = driver_encrypt(0, (driver_coord,), KEYS, ctx)
        group = next(g for g in request.groups if g.block_index == j)
        entry = next(e for e in response.entries if e.block_index == j)
        return group, entry

    def test_identical_blocks_give_zero(self):
        group, entry = self._group_and_entry(3, 3, 2, 0, 1)
        assert sp_match_block(group, entry) == 0

    def test_weighted_payload(self):
        group, entry = self._group_and_entry(1, 3, 2, 1, 2)
        assert sp_match_block(group, entry) == (3 - 1) * 4

    def test_cross_position_pairs_never_match(self):
        ctx = make_ctx(block_bits=2, num_blocks=4, dim=4)  # 16 positions
        rng = random.Random(8)
        location_r = random_vector(rng, ctx)
        location_d = random_vector(rng, ctx)
        request = rider_encrypt(location_r, KEYS, ctx, rng)
        response = driver_encrypt(0, location_d, KEYS, ctx)
        for group in request.groups:
            for entry in response.entries:
                result = sp_match_block(group, entry)
                same_label = (group.coord, group.block_index) == (
                    entry.coord,
                    entry.block_index,
                )
                assert (result is not None) == same_label

    def test_duplicate_match_is_a_collision_fault(self):
        ctx = make_ctx(block_bits=1, num_blocks=1, dim=1)
        request = rider_encrypt((1,), KEYS, ctx, random.Random(1))
        response = driver_encrypt(0, (1,), KEYS, ctx)
        group = request.groups[0]
        entry = response.entries[0]
        token = prf_f(entry.c1, group.nonce)
        hit = next(e for e in group.entries if e.c1 == token)
        forged = RiderBlockGroup(group.coord, group.block_index, group.nonce, (hit, hit))
        with pytest.raises(PrfCollisionError):
            sp_match_block(forged, entry)


class TestMatchAll:
    def test_identical_locations_all_zero(self):
        ctx = make_ctx(block_bits=2, num_blocks=3, dim=3)
        location = (17, 2, 60)
        request = rider_encrypt(location, KEYS, ctx, random.Random(1))
        response = driver_encrypt(0, location, KEYS, ctx)
        diffs = match_all(request, response)
        assert set(diffs.values()) == {0}

    def test_hand_worked_payloads(self):
        # Rider coordinate 6 decomposes to blocks (2, 1); driver 9 to (1, 2).
        ctx = make_ctx(block_bits=2, num_blocks=2, dim=1)
        request = rider_encrypt((6,), KEYS, ctx, random.Random(1))
        response = driver_encrypt(0, (9,), KEYS, ctx)
        diffs = match_all(request, response)
        assert diffs == {(0, 0): -1, (0, 1): 4}

    def test_per_coordinate_sums_telescope(self):
        rng = random.Random(6)
        ctx = make_ctx(block_bits=2, num_blocks=4, dim=4)
        for _ in range(10):
            rider_loc = random_vector(rng, ctx)
            driver_loc = random_vector(rng, ctx)
            request = rider_encrypt(rider_loc, KEYS, ctx, rng)
            response = driver_encrypt(0, driver_loc, KEYS, ctx)
            diffs = match_all(request, response)
            for i in range(ctx.dim):
                total = sum(diffs[(i, j)] for j in range(ctx.params.num_blocks))
                assert total == driver_loc[i] - rider_loc[i]

    def test_session_mismatch(self):
        request = rider_encrypt((1, 2), KEYS, make_ctx(zone=1), random.Random(1))
        response = driver_encrypt(0, (1, 2), KEYS, make_ctx(zone=2))
        with pytest.raises(ProtocolFault):
            match_all(request, response)

    def test_unknown_label_is_a_fault(self):
        ctx = make_ctx()
        request = rider_encrypt((1, 2), KEYS, ctx, random.Random(1))
        honest = driver_encrypt(0, (1, 2), KEYS, ctx)
        bad_entry = honest.entries[0]._replace(coord=7)
        forged = DriverResponse(0, ctx, honest.entries[1:] + (bad_entry,))
        with pytest.raises(ProtocolFault):
            match_all(request, forged)

    def test_wrong_session_entry_matches_nothing(self):
        ctx_a = make_ctx(slot=1)
        ctx_b = make_ctx(slot=2)
        request = rider_encrypt((1, 2), KEYS, ctx_a, random.Random(1))
        stale = driver_encrypt(0, (1, 2), KEYS, ctx_b)
        forged = DriverResponse(0, ctx_a, stale.entries)
        with pytest.raises(ProtocolFault):
            match_all(request, forged)


class TestMatchIndex:
    """The provider's per-request index, through ``match_response``."""

    def _honest(self, ctx, rider=(6, 9), driver=(9, 6)):
        request = rider_encrypt(rider, KEYS, ctx, random.Random(1))
        response = driver_encrypt(0, driver, KEYS, ctx)
        return request, response

    def test_duplicated_token_is_a_collision_fault(self):
        ctx = make_ctx(block_bits=1, num_blocks=1, dim=1)
        request, response = self._honest(ctx, rider=(1,), driver=(1,))
        group = request.groups[0]
        entry = response.entries[0]
        token = prf_f(entry.c1, group.nonce)
        hit = next(e for e in group.entries if e.c1 == token)
        forged = RiderRequest(
            ctx, (RiderBlockGroup(group.coord, group.block_index, group.nonce, (hit, hit)),)
        )
        for _ in range(2):  # a collision is never cached
            with pytest.raises(PrfCollisionError, match="2 rider entries"):
                match_all(forged, response)

    def test_unmatched_ciphertext_is_a_fault(self):
        ctx = make_ctx()
        request, response = self._honest(ctx)
        match_all(request, response)
        bad = response.entries[0]._replace(c1=bytes(16))
        forged = DriverResponse(0, ctx, (bad,) + response.entries[1:])
        with pytest.raises(ProtocolFault, match="matched no rider entry"):
            match_all(request, forged)

    def test_malformed_rider_entry_is_a_fault(self):
        # Every masked payload of group (0, 1) cut to 5 bytes: the honest
        # pair there matches its token, and the fault names the position.
        ctx = make_ctx()
        request, response = self._honest(ctx)
        groups = list(request.groups)
        k, group = next(
            (k, g) for k, g in enumerate(groups) if (g.coord, g.block_index) == (0, 1)
        )
        cut = tuple(e._replace(c2=e.c2[:5]) for e in group.entries)
        groups[k] = dataclasses.replace(group, entries=cut)
        forged = RiderRequest(ctx, tuple(groups))
        for _ in range(2):  # a malformed entry is never cached
            with pytest.raises(ProtocolFault, match=r"\(0, 1\) has a 5-byte payload"):
                match_all(forged, response)

    def test_unhashable_entry_raises_the_first_fault(self):
        # The unknown label comes first, so its fault wins over the
        # bytearray after it, as in the per-entry reference.
        ctx = make_ctx()
        request, response = self._honest(ctx)
        first, second = response.entries[:2]
        forged = DriverResponse(
            0,
            ctx,
            (first._replace(coord=7), second._replace(c1=bytearray(second.c1)))
            + response.entries[2:],
        )
        with pytest.raises(ProtocolFault, match=r"\(7, 0\) has no rider group"):
            match_all(request, forged)
        with pytest.raises(ProtocolFault, match=r"\(7, 0\) has no rider group"):
            reference_match(request, forged, ctx)

    def test_duplicate_driver_label_is_a_fault(self):
        ctx = make_ctx()
        request, response = self._honest(ctx)
        match_all(request, response)  # the repeated pair is now cached
        forged = DriverResponse(0, ctx, response.entries + response.entries[:1])
        with pytest.raises(ProtocolFault, match="duplicate driver ciphertext"):
            match_all(request, forged)

    def test_repeated_rider_group_is_a_fault(self):
        ctx = make_ctx()
        request, response = self._honest(ctx)
        forged = RiderRequest(ctx, request.groups + request.groups[:1])
        for _ in range(2):  # a request that failed to index fails again
            with pytest.raises(ProtocolFault, match="repeats a"):
                match_all(forged, response)

    def test_mixed_pair_gets_its_own_payload(self):
        # Two drivers with blocks 1 and 3 at (0, 0) fill the cache; a pair
        # with the c1 of one and the c2 of the other is unmasked afresh.
        ctx = make_ctx(block_bits=2, num_blocks=1, dim=1)
        request = rider_encrypt((2,), KEYS, ctx, random.Random(1))
        one = driver_encrypt(0, (1,), KEYS, ctx)
        three = driver_encrypt(1, (3,), KEYS, ctx)
        assert match_all(request, one) == {(0, 0): -1}
        assert match_all(request, three) == {(0, 0): 1}
        mixed = one.entries[0]._replace(c2=three.entries[0].c2)
        payload = match_all(request, DriverResponse(2, ctx, (mixed,)))[(0, 0)]
        assert payload == sp_match_block(request.groups[0], mixed)
        assert payload not in (-1, 1)

    def test_one_response_against_two_requests(self):
        ctx = make_ctx(block_bits=2, num_blocks=2, dim=2)
        near = rider_encrypt((5, 10), KEYS, ctx, random.Random(1))
        far = rider_encrypt((12, 3), KEYS, ctx, random.Random(2))
        response = driver_encrypt(0, (6, 9), KEYS, ctx)
        for _ in range(2):
            assert sp_compute_distance(match_all(near, response), ctx) == 1
            assert sp_compute_distance(match_all(far, response), ctx) == 6
        for request in (near, far):
            groups = {(g.coord, g.block_index): g for g in request.groups}
            assert match_all(request, response) == {
                e[:2]: sp_match_block(groups[e[:2]], e) for e in response.entries
            }

    def test_provider_unmasks_each_distinct_pair_once(self, monkeypatch):
        # n=3, m=2, l=2 and D=34 drivers: at most 3 * 2 * 4 = 24 distinct
        # pairs, two outer PRFs each, where a pair per driver would be 204.
        calls = []
        pairs = set()
        tables = []
        real_prf_f = protocol.prf_f
        real_table = protocol._token_table
        real_match = ServiceProvider.match_response

        def counting_prf_f(key, nonce):
            calls.append(key)
            return real_prf_f(key, nonce)

        def counting_match(self, request, response):
            pairs.update(response.entries)
            monkeypatch.setattr(protocol, "prf_f", counting_prf_f)
            try:
                return real_match(self, request, response)
            finally:
                monkeypatch.setattr(protocol, "prf_f", real_prf_f)

        monkeypatch.setattr(ServiceProvider, "match_response", counting_match)
        monkeypatch.setattr(
            protocol, "_token_table", lambda group: tables.append(group) or real_table(group)
        )
        params = BlockParams(2, 2)
        rng = random.Random(3)
        rider, *drivers = (
            tuple(rng.randrange(params.capacity) for _ in range(3)) for _ in range(35)
        )
        matched = _session_matches(
            RideContext(4, 8, params, 3), KEYS, rider, drivers, 3, ("session", 0)
        )
        assert len(matched) == 34
        assert len(pairs) <= 3 * 2 * 2**2
        assert len(calls) == 2 * len(pairs)
        assert len(tables) == 3 * 2  # the request is indexed once


def _outcome(call, *args):
    """A call's result, or the fault it raised as (type, message)."""
    try:
        return call(*args)
    except (ValueError, ProtocolFault, PrfCollisionError) as exc:
        return type(exc), str(exc)


#: How a drawn response departs from honest: shuffled or duplicated labels,
#: a mixed pair, an unknown label, a missing entry, another session.
FORGERIES = [
    "shuffled",
    "duplicated",
    "mixed",
    "unknown label",
    "dropped",
    "other context",
    "other context's pairs",
]


@st.composite
def provider_sessions(draw):
    """``(ctx, rider, responses)``: drivers from a small pool of vectors that
    repeat whole or with one block changed, and now and then a forged
    response made from an honest one."""
    params = BlockParams(draw(st.integers(1, 2)), draw(st.integers(1, 2)))
    dim = draw(st.integers(1, 2))
    ctx = make_ctx(params.block_bits, params.num_blocks, dim)
    other = dataclasses.replace(ctx, time_slot=ctx.time_slot + 1)
    vector = st.tuples(*[st.integers(0, params.capacity - 1)] * dim)
    rider = draw(vector)
    pool = draw(st.lists(vector, min_size=1, max_size=3))
    responses = []
    for k in range(draw(st.integers(1, 8))):
        driver = list(draw(st.sampled_from(pool)))
        if draw(st.booleans()):
            i = draw(st.integers(0, dim - 1))
            blocks = list(decompose(driver[i], params))
            blocks[draw(st.integers(0, params.num_blocks - 1))] = draw(
                st.integers(0, params.base - 1)
            )
            driver[i] = recompose(blocks, params)
        honest = driver_encrypt(k, driver, KEYS, ctx)
        entries = list(honest.entries)
        context = ctx
        forgery = draw(st.sampled_from(["honest"] * len(FORGERIES) + FORGERIES))
        a = draw(st.integers(0, len(entries) - 1))
        if forgery == "shuffled":
            entries = draw(st.permutations(entries))
        elif forgery == "duplicated":
            entries.insert(a, entries[draw(st.integers(0, len(entries) - 1))])
        elif forgery == "mixed":
            donor = driver_encrypt(k, draw(st.sampled_from(pool)), KEYS, ctx)
            entries[a] = entries[a]._replace(c2=donor.entries[a].c2)
        elif forgery == "unknown label":
            entries[a] = entries[a]._replace(coord=dim)
        elif forgery == "dropped":
            del entries[a]
        elif forgery == "other context":
            context = other
        elif forgery == "other context's pairs":
            entries = list(driver_encrypt(k, driver, KEYS, other).entries)
        responses.append(DriverResponse(k, context, tuple(entries)))
    return ctx, rider, responses


class TestWholeResponseMatching:
    """The provider's one-step paths against the per-entry references in
    ``oracles``: the same maps, distances and first faults."""

    @given(provider_sessions(), st.integers(0, 2**32))
    def test_match_and_distance_equal_the_reference(self, session, seed):
        ctx, rider, responses = session
        sp = ServiceProvider(ctx)
        with session_memo():
            request = rider_encrypt(rider, KEYS, ctx, random.Random(seed))
            for response in responses:
                got = _outcome(sp.match_response, request, response)
                assert got == _outcome(reference_match, request, response, ctx)
                if isinstance(got, dict):
                    assert list(got) == [e[:2] for e in response.entries]
                    assert _outcome(sp_compute_distance, got, ctx) == _outcome(
                        reference_distance, got, ctx
                    )

    @given(st.data())
    def test_distance_equals_the_reference(self, data):
        dim, m = data.draw(st.integers(1, 3)), data.draw(st.integers(1, 3))
        ctx = make_ctx(2, m, dim)
        labels = [(i, j) for i in range(dim) for j in range(m)]
        keys = data.draw(
            st.one_of(
                st.just(labels),
                st.permutations(labels),
                st.lists(
                    st.tuples(st.integers(-1, dim), st.integers(-1, m)),
                    unique=True,
                    max_size=dim * m + 1,
                ),
            )
        )
        diffs = {key: data.draw(st.integers(-64, 64)) for key in keys}
        assert _outcome(sp_compute_distance, diffs, ctx) == _outcome(
            reference_distance, diffs, ctx
        )


class TestDistanceAndSelection:
    def test_all_zero_diffs(self):
        ctx = make_ctx(block_bits=2, num_blocks=2, dim=3)
        diffs = {(i, j): 0 for i in range(3) for j in range(2)}
        assert sp_compute_distance(diffs, ctx) == 0

    def test_hand_example(self):
        ctx = make_ctx(block_bits=2, num_blocks=2, dim=1)
        assert sp_compute_distance({(0, 0): -1, (0, 1): 4}, ctx) == 3

    def test_incomplete_map_rejected(self):
        ctx = make_ctx(block_bits=2, num_blocks=2, dim=2)
        with pytest.raises(ValueError):
            sp_compute_distance({(0, 0): 0}, ctx)

    @pytest.mark.parametrize(
        "drop, add",
        [((1, 1), None), (None, (2, 0)), ((1, 1), (1, 2))],
        ids=["missing", "extra", "out_of_range"],
    )
    def test_bad_coverage_rejected(self, drop, add):
        # out_of_range keeps the count right and swaps in an outside position.
        ctx = make_ctx(block_bits=2, num_blocks=2, dim=2)
        diffs = {(i, j): 0 for i in range(2) for j in range(2)}
        if drop is not None:
            del diffs[drop]
        if add is not None:
            diffs[add] = 0
        with pytest.raises(ValueError, match="does not cover"):
            sp_compute_distance(diffs, ctx)

    def test_matches_plaintext_distance(self):
        rng = random.Random(13)
        ctx = make_ctx(block_bits=4, num_blocks=2, dim=5)
        for _ in range(10):
            rider_loc = random_vector(rng, ctx)
            driver_loc = random_vector(rng, ctx)
            request = rider_encrypt(rider_loc, KEYS, ctx, rng)
            response = driver_encrypt(0, driver_loc, KEYS, ctx)
            encrypted = sp_compute_distance(match_all(request, response), ctx)
            assert encrypted == rne_distance(rider_loc, driver_loc)

    def test_single_responder_selected(self):
        ctx = make_ctx()
        request = rider_encrypt((5, 6), KEYS, ctx, random.Random(1))
        response = driver_encrypt(3, (1, 2), KEYS, ctx)
        assert select_driver(request, [response]) == 3

    def test_closest_of_two_wins(self):
        ctx = make_ctx(block_bits=4, num_blocks=1, dim=1)
        request = rider_encrypt((5,), KEYS, ctx, random.Random(1))
        near = driver_encrypt(7, (8,), KEYS, ctx)  # distance 3
        far = driver_encrypt(2, (12,), KEYS, ctx)  # distance 7
        assert select_driver(request, [far, near]) == 7

    def test_tie_break_lowest_id(self):
        ctx = make_ctx(block_bits=4, num_blocks=1, dim=1)
        request = rider_encrypt((5,), KEYS, ctx, random.Random(1))
        a = driver_encrypt(9, (8,), KEYS, ctx)
        b = driver_encrypt(4, (2,), KEYS, ctx)  # also distance 3
        assert select_driver(request, [a, b]) == 4

    def test_no_responses(self):
        request = rider_encrypt((5, 6), KEYS, make_ctx(), random.Random(1))
        with pytest.raises(ValueError):
            select_driver(request, [])

    def test_selection_equals_plaintext_argmin(self):
        rng = random.Random(21)
        ctx = make_ctx(block_bits=2, num_blocks=3, dim=4)
        for _ in range(5):
            rider_loc = random_vector(rng, ctx)
            drivers = {k: random_vector(rng, ctx) for k in range(5)}
            request = rider_encrypt(rider_loc, KEYS, ctx, rng)
            responses = [
                driver_encrypt(k, loc, KEYS, ctx) for k, loc in drivers.items()
            ]
            assert select_driver(request, responses) == best_driver(
                rider_loc, drivers
            )


class TestMatchingPartyVisibility:
    """What the matching party receives must be ciphertext plus routing
    labels, nothing else."""

    def test_rider_request_field_surface(self):
        ctx = make_ctx()
        request = rider_encrypt((3, 8), KEYS, ctx, random.Random(1))
        assert {f.name for f in dataclasses.fields(request)} == {"context", "groups"}
        for group in request.groups:
            assert {f.name for f in dataclasses.fields(group)} == {
                "coord",
                "block_index",
                "nonce",
                "entries",
            }
            assert isinstance(group.nonce, bytes)
            for entry in group.entries:
                assert RiderEntry._fields == ("c1", "c2")
                assert isinstance(entry.c1, bytes)
                assert isinstance(entry.c2, bytes)

    def test_driver_response_field_surface(self):
        ctx = make_ctx()
        response = driver_encrypt(0, (3, 8), KEYS, ctx)
        assert {f.name for f in dataclasses.fields(response)} == {
            "driver_id",
            "context",
            "entries",
        }
        assert DriverEntry._fields == ("coord", "block_index", "c1", "c2")
        for entry in response.entries:
            assert isinstance(entry.c1, bytes) and isinstance(entry.c2, bytes)

    def test_service_provider_cannot_hold_keys(self):
        sp = ServiceProvider(make_ctx())
        with pytest.raises(AttributeError):
            sp.keys = KEYS
        assert sp.__slots__ == ("context",)

    def test_service_provider_pipeline(self):
        ctx = make_ctx(block_bits=2, num_blocks=2, dim=2)
        sp = ServiceProvider(ctx)
        request = rider_encrypt((5, 10), KEYS, ctx, random.Random(1))
        responses = [
            driver_encrypt(k, (5 + k, 10), KEYS, ctx)
            for k in range(3)
        ]
        assert sp_compute_distance(sp.match_response(request, responses[0]), ctx) == 0
        assert sp.select_driver(request, responses) == 0
        other = rider_encrypt((1, 1), KEYS, make_ctx(zone=99), random.Random(9))
        with pytest.raises(ProtocolFault):
            sp.select_driver(other, responses)

    def test_no_plaintext_integers_reachable(self):
        """Walk every integer reachable from the wire objects; all of them
        must be session parameters or routing labels, never location data."""
        ctx = make_ctx(block_bits=2, num_blocks=2, dim=2, zone=11, slot=5)
        location = (9, 14)  # blocks (1, 2) and (2, 3)
        request = rider_encrypt(location, KEYS, ctx, random.Random(1))
        response = driver_encrypt(0, location, KEYS, ctx)

        allowed = {
            ctx.zone_id,
            ctx.time_slot,
            ctx.params.block_bits,
            ctx.params.num_blocks,
            ctx.dim,
            response.driver_id,
        }
        allowed.update(range(ctx.dim))
        allowed.update(range(ctx.params.num_blocks))

        def walk(obj):
            if isinstance(obj, bool) or obj is None or isinstance(obj, (bytes, str)):
                return
            if isinstance(obj, int):
                assert obj in allowed, f"unexpected integer {obj} on the wire"
                return
            if dataclasses.is_dataclass(obj):
                for f in dataclasses.fields(obj):
                    walk(getattr(obj, f.name))
                return
            if isinstance(obj, (tuple, list)):
                for item in obj:
                    walk(item)
                return
            raise AssertionError(f"unexpected wire object {type(obj)}")

        walk(request)
        walk(response)
