"""Tests for the §4.3 Hadoop substrate: MapReduce + HashJoin over the
Panthera runtime APIs."""

import os
import subprocess
import sys
from pathlib import Path

import pytest

from repro.config import DeviceKind, MiB, PolicyName
from repro.core.monitor import AccessMonitor
from repro.core.runtime_api import PantheraRuntime
from repro.core.tags import MemoryTag
from repro.errors import ReproError
from repro.hadoop.hashjoin import HashJoin
from repro.hadoop.mapreduce import MapReduceJob, SideTable
from tests.conftest import make_stack


def word_count_job(stack, **kwargs):
    return MapReduceJob(
        stack.heap,
        stack.machine,
        stack.runtime,
        map_fn=lambda record: [(word, 1) for word in record[1].split()],
        reduce_fn=lambda key, values: sum(values),
        **kwargs,
    )


class TestMapReduce:
    def test_word_count_end_to_end(self, panthera_stack):
        splits = [
            [(0, "the quick brown fox"), (1, "the lazy dog")],
            [(2, "the fox again")],
        ]
        job = word_count_job(panthera_stack)
        result = job.run(splits, bytes_per_record=256 * 1024)
        assert result["the"] == 3
        assert result["fox"] == 2
        assert result["dog"] == 1

    def test_map_phase_charges_the_machine(self, panthera_stack):
        job = word_count_job(panthera_stack)
        job.run([[(0, "a b c")]], bytes_per_record=MiB)
        assert panthera_stack.machine.elapsed_s > 0
        disk = panthera_stack.machine.devices[DeviceKind.DISK]
        assert disk.counters.read_bytes > 0  # HDFS input

    def test_streaming_splits_drive_minor_gcs(self, panthera_stack):
        job = word_count_job(panthera_stack)
        splits = [[(i, "x y z")] for i in range(8)]
        job.run(splits, bytes_per_record=MiB)
        assert panthera_stack.collector.stats.minor_count >= 1

    def test_empty_job_rejected(self, panthera_stack):
        with pytest.raises(ReproError):
            word_count_job(panthera_stack).run([], bytes_per_record=1024)

    def test_side_table_pretenured_by_tag(self, panthera_stack):
        table = SideTable("dims", [(1, "a")], nbytes=2 * MiB, tag=MemoryTag.DRAM)
        job = word_count_job(panthera_stack, side_tables=[table])
        job.load_side_tables()
        assert table.array.space.name == "old-dram"
        job.release_side_tables()
        assert table.array is None

    def test_untagged_side_table_goes_to_nvm(self, panthera_stack):
        table = SideTable("cold", [(1, "a")], nbytes=2 * MiB, tag=None)
        job = word_count_job(panthera_stack, side_tables=[table])
        job.load_side_tables()
        assert table.array.space.name == "old-nvm"
        job.release_side_tables()

    def test_side_tables_survive_collections_during_job(self, panthera_stack):
        table = SideTable("dims", [(0, "v")], nbytes=2 * MiB, tag=MemoryTag.DRAM)
        job = word_count_job(panthera_stack, side_tables=[table])
        splits = [[(i, "w w w")] for i in range(6)]
        job.run(splits, bytes_per_record=MiB)
        # Collections ran; the table must have stayed alive throughout
        # (release only happens at job end).
        assert panthera_stack.collector.stats.minor_count >= 1

    def test_string_keys_bucket_the_same_under_every_hash_seed(self):
        """Map outputs bucket by Spark's stable hash, not the salted
        built-in: a string-keyed job's output order and simulated time
        are the same under two ``PYTHONHASHSEED`` values."""
        script = (
            "from tests.conftest import make_stack\n"
            "from tests.test_hadoop import word_count_job\n"
            "stack = make_stack()\n"
            "words = 'alpha beta gamma delta epsilon zeta eta theta'\n"
            "splits = [[(i, words)] for i in range(4)]\n"
            "out = word_count_job(stack).run(splits, bytes_per_record=2 ** 20)\n"
            "print(list(out.items()), stack.machine.elapsed_s)\n"
        )
        root = Path(__file__).resolve().parent.parent
        outputs = []
        for seed in ("1", "2"):
            env = dict(
                os.environ,
                PYTHONHASHSEED=seed,
                PYTHONPATH=os.pathsep.join([str(root / "src"), str(root)]),
            )
            done = subprocess.run(
                [sys.executable, "-c", script],
                env=env,
                cwd=root,
                capture_output=True,
                text=True,
                check=True,
            )
            outputs.append(done.stdout)
        assert outputs[0] == outputs[1]


class TestHashJoin:
    def build_join(self, stack, monitored=False, tag=MemoryTag.DRAM):
        build = [(key, f"dim{key}") for key in range(8)]
        return HashJoin(
            stack.heap,
            stack.machine,
            stack.runtime,
            build_records=build,
            build_nbytes=2 * MiB,
            tag=tag,
            monitored=monitored,
        )

    def test_join_results_correct(self, panthera_stack):
        join = self.build_join(panthera_stack)
        probe = [[(k % 8, f"fact{k}") for k in range(16)]]
        result = join.join(probe, bytes_per_record=256 * 1024)
        assert set(result) == set(range(8))
        for key, pairs in result.items():
            for fact_value, dim_value in pairs:
                assert dim_value == f"dim{key}"
        assert sum(len(v) for v in result.values()) == 16

    def test_missing_keys_dropped(self, panthera_stack):
        join = self.build_join(panthera_stack)
        result = join.join([[(99, "nope")]], bytes_per_record=1024)
        assert result == {}

    def test_build_table_in_dram(self, panthera_stack):
        join = self.build_join(panthera_stack)

        # Sample the placement while the job is mid-flight via the map fn.
        seen = {}

        original = join.table.lookup

        def spying_lookup(key):
            seen["space"] = join.table.array.space.name
            return original(key)

        join.table.lookup = spying_lookup
        join.join([[(0, "probe")]], bytes_per_record=1024)
        assert seen["space"] == "old-dram"

    def test_monitored_table_accumulates_calls(self, panthera_stack):
        join = self.build_join(panthera_stack, monitored=True, tag=MemoryTag.NVM)
        probe_splits = [[(k, "p")] for k in range(6)]
        join.join(probe_splits, bytes_per_record=MiB)
        # Six map tasks -> six monitored probes.
        assert panthera_stack.monitor.total_calls >= 6

    def test_hashjoin_under_stock_policy(self):
        # The APIs degrade gracefully without a split old generation.
        stack = make_stack(PolicyName.DRAM_ONLY)
        # A stock policy attaches no runtime: build one for the API.
        stack.runtime = PantheraRuntime(stack.heap, AccessMonitor(stack.machine))
        join = self.build_join(stack)
        result = join.join([[(1, "x")]], bytes_per_record=1024)
        assert result == {1: [("x", "dim1")]}
