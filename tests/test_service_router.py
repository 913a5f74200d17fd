"""Tests for consistent-hash routing over shard server processes
(repro.service.router): ring determinism and minimal movement, the
supervisor's spawn/kill/auto-restart lifecycle, exactly-once appends
through backend restarts, topology bootstrap, and store rebalancing."""

import json
import time
import urllib.request

import pytest

from repro.service import (
    HashRing,
    RouterClient,
    ShardSupervisor,
    ShardedStore,
    rebalance_stores,
    shard_id,
)

REC = {"task": {"m": 10}, "x": {"b": 4}, "y": [1.5]}


def _rec(i):
    return {"task": {"m": i}, "x": {"b": i}, "y": [float(i)]}


class TestHashRing:
    def test_deterministic_and_total(self):
        nodes = [shard_id(i) for i in range(4)]
        ring = HashRing(nodes)
        again = HashRing(list(reversed(nodes)))
        keys = [f"problem-{i}" for i in range(200)]
        assert [ring.node_for(k) for k in keys] == [
            again.node_for(k) for k in keys
        ]
        assert set(ring.node_for(k) for k in keys) <= set(nodes)

    def test_every_node_gets_keys(self):
        ring = HashRing([shard_id(i) for i in range(4)])
        groups = ring.assignment([f"p{i}" for i in range(400)])
        assert sorted(groups) == [shard_id(i) for i in range(4)]
        assert all(len(v) > 0 for v in groups.values())

    def test_adding_a_node_moves_few_keys(self):
        keys = [f"p{i}" for i in range(400)]
        four = HashRing([shard_id(i) for i in range(4)])
        five = HashRing([shard_id(i) for i in range(5)])
        moved = sum(1 for k in keys if four.node_for(k) != five.node_for(k))
        # theory: ~1/5 of keys move; anything near a full reshuffle means
        # the ring hashes node identity wrong
        assert moved / len(keys) < 0.40
        # keys that moved all went TO the new node, never between old ones
        for k in keys:
            if four.node_for(k) != five.node_for(k):
                assert five.node_for(k) == shard_id(4)

    def test_stable_shard_ids_not_urls(self):
        # the ring must key on stable ids so a backend restarted on a new
        # port keeps its data assignment
        assert shard_id(3) == "shard-03"
        ring = HashRing([shard_id(0), shard_id(1)])
        assert set(ring.nodes) == {"shard-00", "shard-01"}


class TestRebalance:
    def test_moves_only_reassigned_problems(self, tmp_path):
        root = str(tmp_path)
        old_ids = [shard_id(i) for i in range(2)]
        new_ids = [shard_id(i) for i in range(3)]
        old_ring = HashRing(old_ids)
        problems = [f"prob{i}" for i in range(8)]
        for p in problems:
            ShardedStore(f"{root}/{old_ring.node_for(p)}").append(p, [REC])

        out = rebalance_stores(root, old_ids, new_ids)
        new_ring = HashRing(new_ids)
        moved = {p for p, _, _ in out["moved"]}
        for p in problems:
            owner = ShardedStore(f"{root}/{new_ring.node_for(p)}")
            assert owner.count(p) == 1  # exactly one copy, in the owner
            if old_ring.node_for(p) != new_ring.node_for(p):
                assert p in moved
                assert ShardedStore(
                    f"{root}/{old_ring.node_for(p)}"
                ).count(p) == 0
            else:
                assert p not in moved

    def test_idempotent(self, tmp_path):
        root = str(tmp_path)
        old_ids, new_ids = [shard_id(0)], [shard_id(0), shard_id(1)]
        for i in range(6):
            ShardedStore(f"{root}/{shard_id(0)}").append(f"p{i}", [REC])
        first = rebalance_stores(root, old_ids, new_ids)
        second = rebalance_stores(root, old_ids, new_ids)
        assert second["moved"] == []
        assert len(first["moved"]) >= 1


@pytest.fixture
def topology(tmp_path):
    with ShardSupervisor(str(tmp_path / "db"), 2) as sup:
        yield sup, sup.serve_topology()


class TestSupervisorAndRouter:
    def test_routed_round_trip(self, topology):
        sup, topo_url = topology
        client = RouterClient(topo_url)
        problems = [f"prob{i}" for i in range(6)]
        for i, p in enumerate(problems):
            out = client.append(p, [_rec(i)])
            assert out["appended"] == 1
        assert client.problems() == sorted(problems)
        for i, p in enumerate(problems):
            rows = client.records(p)
            assert [r["y"] for r in rows] == [[float(i)]]
            assert client.count(p) == 1
        # both backends own some problems (6 problems, 2 shards)
        owners = {client.shard_for(p) for p in problems}
        assert len(owners) == 2
        stats = client.stats()
        assert stats["n_records"] == len(problems)
        client.close()

    def test_topology_endpoint_serves_generation(self, topology):
        sup, topo_url = topology
        with urllib.request.urlopen(topo_url + "/v1/topology") as resp:
            topo = json.loads(resp.read().decode())
        assert sorted(topo["shards"]) == [shard_id(0), shard_id(1)]
        assert topo["generation"] == sup.generation
        assert sup._topology_server.RequestHandlerClass.disable_nagle_algorithm

    def test_data_lands_in_owner_shard_only(self, topology):
        sup, topo_url = topology
        client = RouterClient(topo_url)
        client.append("solo", [REC])
        owner = client.shard_for("solo")
        client.close()
        for sid in (shard_id(0), shard_id(1)):
            direct = ShardedStore(f"{sup.root}/{sid}")
            assert direct.count("solo") == (1 if sid == owner else 0)

    def test_kill_restart_append_exactly_once(self, topology):
        sup, topo_url = topology
        sup.watch(interval=0.02)
        client = RouterClient(topo_url)
        client.append("prob", [_rec(1)])
        victim = client.shard_for("prob")
        gen_before = sup.generation

        sup.kill(victim)
        # the routed append retries through the restart; client-side rids
        # make the retry exactly-once even if a first attempt half-landed
        out = client.append("prob", [_rec(2)])
        assert out["appended"] == 1

        deadline = time.monotonic() + 10
        while sup.generation == gen_before and time.monotonic() < deadline:
            time.sleep(0.01)
        assert sup.generation > gen_before  # restart bumped the topology

        client.refresh()
        rows = client.records("prob")
        assert sorted(r["y"][0] for r in rows) == [1.0, 2.0]
        rids = [r["rid"] for r in rows]
        assert len(set(rids)) == 2
        client.close()

    def test_etag_query_and_compact_answer_from_owner_shard(self, topology):
        sup, topo_url = topology
        client = RouterClient(topo_url)
        client.append("solo", [_rec(1), _rec(2), _rec(3)])
        owner = client.shard_for("solo")
        (other,) = set(sup.topology()["shards"]) - {owner}
        etag = ShardedStore(f"{sup.root}/{owner}").etag("solo")
        assert etag != "empty"
        assert ShardedStore(f"{sup.root}/{other}").etag("solo") == "empty"
        assert client.etag("solo") == etag
        (match,) = client.query("solo", {"m": 2}, k=1)
        assert match["task"] == {"m": 2}
        assert [r["y"] for r in match["records"]] == [[2.0]]
        # the other shard holds nothing of this problem to keep
        assert client.compact("solo") == {"kept": 3, "duplicates": 0, "torn": 0}
        assert client.etag("solo") == etag  # compaction keeps the rid set
        client.close()

    def test_router_accepts_plain_mapping(self, topology):
        sup, _ = topology
        client = RouterClient(sup.topology()["shards"])
        client.append("prob", [REC])
        assert client.count("prob") == 1
        client.close()

    def test_router_rejects_empty_topology(self):
        with pytest.raises(ValueError):
            RouterClient({})
