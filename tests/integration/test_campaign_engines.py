"""One campaign grid, three execution engines, one record schema.

The ``engine`` spec key must be an implementation detail of *how* cells
execute, never of *what* a results.jsonl record looks like: downstream
analysis reads records without knowing which engine produced them. The
vectorized and batched paths share the whole-array kernels and the same
per-cell RNG streams, so their records must agree bit-for-bit (modulo
wall-clock and the engine tag itself).
"""

import pytest

from repro.campaigns import CampaignSpec, load_results, run_campaign
from repro.campaigns.builtin import BUILTIN_SPECS
from repro.exceptions import ConfigurationError

ENGINES = ("object", "vectorized", "batched")


def grid_spec(engine):
    return CampaignSpec.from_dict(
        {
            "name": f"grid-{engine}",
            "engine": engine,
            "algorithms": ["push_flow", "push_cancel_flow"],
            "topologies": [{"family": "hypercube", "n": 16}],
            "faults": [
                {"kind": "none"},
                {"kind": "link_failure", "round": 40},
                {"kind": "message_loss", "rate": 0.1},
            ],
            "seeds": [0, 1],
            "rounds": 120,
            "epsilon": 1e-6,
        }
    )


@pytest.fixture(scope="module")
def engine_results(tmp_path_factory):
    results = {}
    for engine in ENGINES:
        out = tmp_path_factory.mktemp(engine)
        run = run_campaign(grid_spec(engine), out)
        assert (run.ok, run.failed) == (12, 0)
        results[engine] = load_results(out)
    return results


class TestSchemaIdentity:
    def test_same_cells_recorded(self, engine_results):
        keys = {e: set(r) for e, r in engine_results.items()}
        assert keys["object"] == keys["vectorized"] == keys["batched"]
        assert len(keys["object"]) == 12

    def test_same_record_fields_everywhere(self, engine_results):
        field_sets = {
            tuple(sorted(record))
            for records in engine_results.values()
            for record in records.values()
        }
        assert len(field_sets) == 1

    def test_records_tagged_with_their_engine(self, engine_results):
        for engine, records in engine_results.items():
            assert all(r["engine"] == engine for r in records.values())

    def test_all_cells_ok_and_converged_when_fault_free(self, engine_results):
        for records in engine_results.values():
            assert all(r["status"] == "ok" for r in records.values())
            for cell_id, record in records.items():
                if "|none|" in cell_id:
                    assert record["converged"] is True

    def test_vectorized_and_batched_agree_bit_for_bit(self, engine_results):
        # Same seed streams, same kernels: everything but the engine tag
        # and wall-clock must be *identical*, not merely close.
        varying = {"engine", "wall_s", "kernel_seconds", "recorded_at"}
        for cell_id, vec in engine_results["vectorized"].items():
            bat = engine_results["batched"][cell_id]
            for key in vec:
                if key not in varying:
                    assert vec[key] == bat[key], (cell_id, key)


class TestBatchedRunnerBehavior:
    def test_resume_skips_recorded_cells(self, tmp_path):
        spec = grid_spec("batched")
        first = run_campaign(spec, tmp_path)
        assert (first.executed, first.skipped) == (12, 0)
        second = run_campaign(spec, tmp_path)
        assert (second.executed, second.skipped) == (0, 12)

    def test_smoke_batched_builtin_expands(self):
        spec = CampaignSpec.from_dict(BUILTIN_SPECS["smoke-batched"])
        assert spec.engine == "batched"
        assert len(spec.expand()) == 4


class TestBackendAxis:
    """Records keep their ``backend`` field: the whole-array engines run
    the numpy kernels, the object engine none."""

    def test_records_carry_resolved_backend(self, engine_results):
        backends = {
            engine: {r["backend"] for r in records.values()}
            for engine, records in engine_results.items()
        }
        assert backends == {
            "object": {None},
            "vectorized": {"numpy"},
            "batched": {"numpy"},
        }


class TestEngineSpecValidation:
    def test_unknown_engine_rejected(self):
        with pytest.raises(ConfigurationError, match="engine"):
            CampaignSpec.from_dict(
                {
                    "name": "bad",
                    "engine": "quantum",
                    "algorithms": ["push_flow"],
                    "topologies": [{"family": "hypercube", "n": 8}],
                    "faults": [{"kind": "none"}],
                    "seeds": [0],
                    "rounds": 10,
                    "epsilon": 1e-3,
                }
            )

    @pytest.mark.parametrize("engine", ["vectorized", "batched"])
    def test_unsupported_fault_kind_rejected_upfront(self, engine):
        # bit_flip is valid on the object path but has no whole-array
        # implementation; the spec must fail fast, not per cell.
        with pytest.raises(ConfigurationError, match="faults"):
            CampaignSpec.from_dict(
                {
                    "name": "bad",
                    "engine": engine,
                    "algorithms": ["push_flow"],
                    "topologies": [{"family": "hypercube", "n": 8}],
                    "faults": [{"kind": "bit_flip", "rate": 0.01}],
                    "seeds": [0],
                    "rounds": 10,
                    "epsilon": 1e-3,
                }
            )

    def test_unknown_backend_rejected(self):
        with pytest.raises(ConfigurationError, match="backend"):
            CampaignSpec.from_dict(
                {
                    "name": "bad",
                    "engine": "batched",
                    "backend": "cuda",
                    "algorithms": ["push_flow"],
                    "topologies": [{"family": "hypercube", "n": 8}],
                    "faults": [{"kind": "none"}],
                    "seeds": [0],
                    "rounds": 10,
                    "epsilon": 1e-3,
                }
            )

    @pytest.mark.parametrize("backend", [None, "numpy"])
    def test_backend_key_is_unknown(self, backend):
        # The kernel backend is no longer a setting: a spec that still
        # names one, even the old default, fails like any unknown key.
        with pytest.raises(ConfigurationError, match=r"unknown key\(s\) \['backend'\]"):
            CampaignSpec.from_dict(
                {
                    "name": "old",
                    "engine": "batched",
                    "backend": backend,
                    "algorithms": ["push_flow"],
                    "topologies": [{"family": "hypercube", "n": 8}],
                    "faults": [{"kind": "none"}],
                    "seeds": [0],
                    "rounds": 10,
                    "epsilon": 1e-3,
                }
            )

    def test_algorithm_without_vector_engine_rejected(self):
        with pytest.raises(ConfigurationError, match="push_flow_incremental"):
            CampaignSpec.from_dict(
                {
                    "name": "bad",
                    "engine": "batched",
                    "algorithms": ["push_flow_incremental"],
                    "topologies": [{"family": "hypercube", "n": 8}],
                    "faults": [{"kind": "none"}],
                    "seeds": [0],
                    "rounds": 10,
                    "epsilon": 1e-3,
                }
            )
