import json

import numpy as np
import pytest

from antclust.clustering import (
    GATEWAY,
    HEAD,
    ORDINARY,
    Clustering,
    assign_members,
    is_dominating,
    load_clustering,
    save_clustering,
    uncovered_nodes,
    validate_clustering,
)
from antclust.errors import NodeNotFoundError, ParseError, ValidityError
from antclust.oracle import greedy_min_dominating_set

from conftest import (
    closed_sets,
    make_topology,
    path_topology,
    random_topology,
    star_topology,
)


def gateway_topology():
    """Node 0 sits in range of nodes 2 and 5; 1, 3 hang off 2 and 4 hangs off 5."""
    pts = [(0, 0), (2, 0), (1, 0), (1, 1.2), (-1, 1.2), (-1, 0)]
    return make_topology(pts, 1.5)


class TestIsDominating:
    def test_star_center(self):
        t = star_topology(4)
        assert is_dominating(t, {0})

    def test_path_single_head_misses_tail(self, path4):
        assert not is_dominating(t=path4, heads={1})
        assert uncovered_nodes(path4, {1}) == [3]

    def test_all_nodes_always_dominate(self):
        t = random_topology(25, 100, 20, seed=4)
        assert is_dominating(t, set(range(t.n)))

    def test_unknown_head_id(self, path3):
        with pytest.raises(NodeNotFoundError):
            is_dominating(path3, {0, 7})

    def test_empty_heads_never_dominate(self, path3):
        assert not is_dominating(path3, set())


class TestAssignMembers:
    def test_path_assignment(self, path3):
        c = assign_members(path3, {1})
        assert c.assignment == {0: 1, 2: 1}
        assert c.roles == {0: ORDINARY, 1: HEAD, 2: ORDINARY}

    def test_gateway_between_two_heads(self):
        t = gateway_topology()
        c = assign_members(t, {2, 5})
        assert c.assignment[0] == 2  # lowest head id wins the tie
        assert c.roles[0] == GATEWAY
        assert c.roles[2] == HEAD and c.roles[5] == HEAD
        assert c.roles[1] == ORDINARY and c.roles[3] == ORDINARY and c.roles[4] == ORDINARY

    def test_every_node_head(self):
        t = random_topology(15, 100, 30, seed=8)
        c = assign_members(t, set(range(t.n)))
        assert c.assignment == {}
        assert all(role == HEAD for role in c.roles.values())

    def test_non_dominating_rejected_with_uncovered_list(self, path4):
        with pytest.raises(ValidityError) as exc:
            assign_members(path4, {1})
        assert exc.value.uncovered == [3]

    def test_members_always_adjacent_to_their_head(self):
        for seed in range(6):
            t = random_topology(30, 150, 40, seed=seed)
            heads = greedy_min_dominating_set(t)
            c = assign_members(t, heads)
            closed = closed_sets(t)
            for m, h in c.assignment.items():
                assert h in closed[m] and h != m

    def test_succeeds_iff_dominating(self):
        for seed in range(8):
            t = random_topology(20, 120, 35, seed=seed)
            heads = set(range(0, t.n, 3))
            if is_dominating(t, heads):
                assert assign_members(t, heads).heads == frozenset(heads)
            else:
                with pytest.raises(ValidityError):
                    assign_members(t, heads)

    def test_single_head_means_no_gateways(self):
        t = star_topology(5)
        c = assign_members(t, {0})
        assert sum(1 for r in c.roles.values() if r == GATEWAY) == 0


class TestKDominating:
    def test_path_two_hops(self):
        t = path_topology(5)
        assert is_dominating(t, {2}, 2)
        assert not is_dominating(t, {2}, 1)

    def test_equals_plain_domination_for_k1(self):
        t = random_topology(20, 100, 25, seed=3)
        for heads in ({0}, {0, 5, 10}, set(range(t.n))):
            assert is_dominating(t, heads, hops=1) == is_dominating(t, heads)


class TestJsonAndValidate:
    def test_round_trip(self, tmp_path):
        t = random_topology(20, 100, 40, seed=6)
        c = assign_members(t, greedy_min_dominating_set(t))
        p = tmp_path / "c.json"
        save_clustering(c, p)
        back = load_clustering(p)
        assert back == c
        assert validate_clustering(t, back) == []

    def test_bool_hops_rejected(self, tmp_path):
        p = tmp_path / "c.json"
        p.write_text(json.dumps({"heads": [0], "assignment": {}, "roles": {"0": HEAD}, "hops": True}))
        with pytest.raises(ParseError, match="hops"):
            load_clustering(p)

    @pytest.mark.parametrize("doc", [
        {"heads": [0], "assignment": {"1": 0.9, "2": 0, "3": 0}},
        {"heads": [0], "assignment": {"1": "0", "2": 0, "3": 0}},
        {"heads": [0], "assignment": {"1": True, "2": 0, "3": 0}},
        {"heads": [True], "assignment": {"0": 1, "2": 1, "3": 1}},
    ])
    def test_node_ids_not_coerced(self, tmp_path, doc):
        # 0.9, "0" and true would otherwise read as the node ids 0, 0 and 1
        roles = {str(v): ORDINARY for v in range(4)}
        p = tmp_path / "c.json"
        p.write_text(json.dumps({**doc, "roles": roles, "hops": 1}))
        with pytest.raises(ParseError, match="integers"):
            load_clustering(p)

    @pytest.mark.parametrize("key", [" 1", "1 ", "0_1", "+1", "01"])
    @pytest.mark.parametrize("where", ["assignment", "roles"])
    def test_id_keys_spelled_as_str_writes_them(self, tmp_path, where, key):
        doc = {"heads": [0], "assignment": {"1": 0}, "roles": {"0": HEAD, "1": ORDINARY}, "hops": 1}
        doc[where] = {(key if k == "1" else k): v for k, v in doc[where].items()}
        p = tmp_path / "c.json"
        p.write_text(json.dumps(doc))
        with pytest.raises(ParseError, match="keys"):
            load_clustering(p)

    def test_id_key_spellings_do_not_merge(self, tmp_path):
        p = tmp_path / "c.json"
        p.write_text(json.dumps({"heads": [0], "assignment": {"1": 0, " 1": 0},
                                 "roles": {"0": HEAD, "1": ORDINARY}, "hops": 1}))
        with pytest.raises(ParseError, match="keys"):
            load_clustering(p)

    def test_validate_flags_uncovered(self, path4):
        c = Clustering(heads=frozenset({1}), assignment={0: 1, 2: 1},
                       roles={0: ORDINARY, 1: HEAD, 2: ORDINARY, 3: ORDINARY})
        problems = validate_clustering(path4, c)
        assert any("uncovered" in p and "3" in p for p in problems)

    def test_validate_flags_non_adjacent_assignment(self, path4):
        c = Clustering(heads=frozenset({0, 3}), assignment={1: 0, 2: 0},
                       roles={0: HEAD, 1: ORDINARY, 2: ORDINARY, 3: HEAD})
        problems = validate_clustering(path4, c)
        assert any("not within 1 hop" in p for p in problems)

    def test_validate_flags_role_mismatch(self, path3):
        c = Clustering(heads=frozenset({1}), assignment={0: 1, 2: 1},
                       roles={0: HEAD, 1: HEAD, 2: ORDINARY})
        problems = validate_clustering(path3, c)
        assert any("roles: node 0" in p for p in problems)

    def test_validate_flags_unassigned_member(self, path3):
        c = Clustering(heads=frozenset({1}), assignment={0: 1},
                       roles={0: ORDINARY, 1: HEAD, 2: ORDINARY})
        problems = validate_clustering(path3, c)
        assert any("not assigned" in p for p in problems)

    PATH4_ROLES = {0: ORDINARY, 1: HEAD, 2: HEAD, 3: ORDINARY}

    @pytest.mark.parametrize("assignment, message", [
        ({0: True, 3: 2}, "unknown head id True"),
        ({0: 1.0, 3: 2}, "unknown head id 1.0"),
        ({0: 7, 3: 2}, "unknown head id 7"),
        ({0: 1, 3: 0}, "assigned to 0, which is not a head"),
        ({False: 1, 3: 2}, "unknown member id False"),
        ({0: 1, 3: 2, 1.0: 1}, "unknown member id 1.0"),
        ({0: 1, 3: 2, 4: 2}, "unknown member id 4"),
        ({"0": 1, 3: 2}, "unknown member id '0'"),
        ({0: 1, 3: 2, None: 1}, "unknown member id None"),
        ({0: "1", 3: 2}, "unknown head id '1'"),
        # a key that is not a node id does not assign the node it equals
        ({False: 1, 3: 2}, "non-head node 0 is not assigned"),
        ({0.0: 1, 3: 2}, "non-head node 0 is not assigned"),
    ])
    def test_validate_reports_bad_ids(self, path4, assignment, message):
        c = Clustering(heads=frozenset({1, 2}), assignment=assignment, roles=self.PATH4_ROLES)
        assert any(message in p for p in validate_clustering(path4, c))

    @pytest.mark.parametrize("roles, messages", [
        ({**PATH4_ROLES, 99: HEAD, -1: ORDINARY}, ["roles: unknown node id 99", "roles: unknown node id -1"]),
        ({**PATH4_ROLES, "0": ORDINARY}, ["roles: unknown node id '0'"]),
        ({**PATH4_ROLES, None: HEAD, 4: ORDINARY}, ["roles: unknown node id None", "roles: unknown node id 4"]),
        # a key that is not a node id gives no role to the node it equals
        ({False: ORDINARY, 1: HEAD, 2: HEAD, 3: ORDINARY},
         ["roles: unknown node id False", "roles: node 0 has invalid role None"]),
        ({0.0: ORDINARY, 1: HEAD, 2: HEAD, 3: ORDINARY},
         ["roles: unknown node id 0.0", "roles: node 0 has invalid role None"]),
    ])
    def test_validate_reports_stray_role_keys(self, path4, roles, messages):
        c = Clustering(heads=frozenset({1, 2}), assignment={0: 1, 3: 2}, roles=roles)
        assert validate_clustering(path4, c) == messages

    @pytest.mark.parametrize("assignment", [
        {np.int64(0): 1, 3: 2},
        {0: np.int64(1), np.int32(3): np.uint8(2)},
    ])
    def test_validate_accepts_numpy_ids(self, path4, assignment):
        c = Clustering(heads=frozenset({1, 2}), assignment=assignment, roles=self.PATH4_ROLES)
        assert validate_clustering(path4, c) == []
