"""Lossless round trips for the shared object-graph serializers."""

from __future__ import annotations

import json

from repro.db.optimizer.cost import DbConfig
from repro.db.query import tpch_q2_spec
from repro.db.tpch import build_tpch_catalog
from repro.san.builder import build_testbed
from repro.storage import (
    access_from_dict,
    access_to_dict,
    catalog_from_dict,
    catalog_to_dict,
    dbconfig_from_dict,
    dbconfig_to_dict,
    spec_from_dict,
    spec_to_dict,
    topology_from_dict,
    topology_to_dict,
)
from repro.storage import testbed_from_dict as load_testbed
from repro.storage import testbed_to_dict as dump_testbed


def _json_round(payload):
    """Force a pass through real JSON — tuples become lists, keys strings."""
    return json.loads(json.dumps(payload))


def test_dbconfig_round_trip():
    config = DbConfig().with_changes(work_mem_kb=65536, enable_nestloop=False)
    restored = dbconfig_from_dict(_json_round(dbconfig_to_dict(config)))
    assert restored == config


def test_catalog_round_trip_keeps_stats_snapshot_drops():
    catalog = build_tpch_catalog()
    data = _json_round(catalog_to_dict(catalog))
    restored = catalog_from_dict(data)
    # the diff-oriented snapshot is equal ...
    assert restored.snapshot() == catalog.snapshot()
    # ... and so is what snapshot() drops: widths and column statistics
    for table in catalog.tables:
        other = restored.table(table.name)
        assert other.row_width == table.row_width
        assert other.columns == table.columns
    assert {i.name for i in restored.indexes} == {i.name for i in catalog.indexes}
    # second serialisation is byte-identical (stable ordering)
    assert json.dumps(catalog_to_dict(restored), sort_keys=True) == json.dumps(
        data, sort_keys=True
    )


def test_spec_round_trip():
    spec = tpch_q2_spec()
    restored = spec_from_dict(_json_round(spec_to_dict(spec)))
    assert restored == spec


def test_topology_round_trip_preserves_structure_and_attrs():
    testbed = build_testbed()
    restored = topology_from_dict(_json_round(topology_to_dict(testbed.topology)))
    assert restored.snapshot() == testbed.topology.snapshot()
    assert restored.validate() == []
    # typed attributes survive (not just the snapshot's type/name view)
    disk = restored.get("d1")
    original = testbed.topology.get("d1")
    assert disk.max_iops == original.max_iops
    assert disk.service_time_ms == original.service_time_ms
    # path queries still work on the rebuilt graph
    path = [c.component_id for c in restored.io_path("srv-db", "V1")]
    orig = [c.component_id for c in testbed.topology.io_path("srv-db", "V1")]
    assert path == orig


def test_access_round_trip():
    testbed = build_testbed()
    restored = access_from_dict(_json_round(access_to_dict(testbed.access)))
    assert restored.snapshot() == testbed.access.snapshot()
    assert restored.can_access(testbed.topology, "srv-db", "V1")


def test_testbed_round_trip():
    testbed = build_testbed()
    restored = load_testbed(_json_round(dump_testbed(testbed)))
    assert restored.db_server_id == testbed.db_server_id
    assert restored.volume_ids == testbed.volume_ids
    assert restored.topology.snapshot() == testbed.topology.snapshot()
    assert restored.access.snapshot() == testbed.access.snapshot()
