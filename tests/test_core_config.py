"""Unit tests for processor configurations (Tables I, II, IV)."""

import pytest

from repro.core import ProcessorConfig, size_models
from repro.pubs import PubsConfig


class TestTableI:
    def test_base_matches_paper(self):
        cfg = ProcessorConfig.cortex_a72_like()
        assert cfg.fetch_width == cfg.decode_width == 4
        assert cfg.issue_width == cfg.commit_width == 4
        assert cfg.rob_size == 128
        assert cfg.iq_size == 64
        assert cfg.lsq_size == 64
        assert cfg.int_phys_regs == cfg.fp_phys_regs == 128
        assert cfg.recovery_penalty == 10
        assert (cfg.fu_pool.ialu, cfg.fu_pool.imult,
                cfg.fu_pool.ldst, cfg.fu_pool.fpu) == (2, 1, 2, 2)
        assert cfg.predictor.kind == "perceptron"
        assert cfg.predictor.history_length == 34
        assert cfg.predictor.table_size == 256
        assert cfg.predictor.btb_sets == 2048 and cfg.predictor.btb_assoc == 4

    def test_base_has_no_pubs_no_age_matrix(self):
        cfg = ProcessorConfig.cortex_a72_like()
        assert not cfg.pubs.enabled
        assert not cfg.use_age_matrix


class TestVariants:
    def test_with_pubs_default_table_ii(self):
        cfg = ProcessorConfig.cortex_a72_like().with_pubs()
        assert cfg.pubs.enabled
        assert cfg.pubs.priority_entries == 6
        assert cfg.pubs.stall_policy
        assert cfg.pubs.conf_counter_bits == 6

    def test_with_age_matrix(self):
        assert ProcessorConfig.cortex_a72_like().with_age_matrix().use_age_matrix

    def test_with_overrides(self):
        cfg = ProcessorConfig.cortex_a72_like().with_overrides(iq_size=32)
        assert cfg.iq_size == 32

    def test_enlarged_predictor(self):
        p = ProcessorConfig.cortex_a72_like().predictor.enlarged()
        assert p.history_length == 36 and p.table_size == 512

    def test_priority_entries_must_fit(self):
        with pytest.raises(ValueError):
            ProcessorConfig(iq_size=4, pubs=PubsConfig(priority_entries=6))

    def test_positive_fields_validated(self):
        with pytest.raises(ValueError):
            ProcessorConfig(rob_size=0)
        with pytest.raises(ValueError):
            ProcessorConfig(recovery_penalty=-1)


class TestVerificationKnobs:
    def test_defaults_off(self):
        cfg = ProcessorConfig.cortex_a72_like()
        assert cfg.verify_level == "off"
        assert cfg.verify_interval == 256

    def test_with_verification(self):
        cfg = ProcessorConfig.cortex_a72_like().with_verification()
        assert cfg.verify_level == "full"
        sparse = cfg.with_verification("commit-only", interval=512)
        assert sparse.verify_level == "commit-only"
        assert sparse.verify_interval == 512

    def test_commit_alias_normalized(self):
        cfg = ProcessorConfig(verify_level="commit")
        assert cfg.verify_level == "commit-only"

    def test_invalid_values_rejected(self):
        with pytest.raises(ValueError):
            ProcessorConfig(verify_level="paranoid")
        with pytest.raises(ValueError):
            ProcessorConfig(verify_interval=0)


class TestTableIv:
    def test_four_models(self):
        models = size_models()
        assert set(models) == {"small", "medium", "large", "huge"}

    def test_medium_is_default(self):
        assert size_models()["medium"] == ProcessorConfig()

    def test_windows_scale_monotonically(self):
        models = size_models()
        order = ["small", "medium", "large", "huge"]
        for field in ("iq_size", "lsq_size", "rob_size", "int_phys_regs",
                      "issue_width"):
            values = [getattr(models[name], field) for name in order]
            assert values == sorted(values)
            assert values[0] < values[-1]

    def test_window_grows_faster_than_issue_width(self):
        """Issue conflicts must increase with size (the paper's Fig. 16
        premise): IQ-entries-per-issue-slot rises monotonically."""
        models = size_models()
        ratios = [models[n].iq_size / models[n].issue_width
                  for n in ("small", "medium", "large", "huge")]
        assert ratios == sorted(ratios)


class TestPubsConfig:
    def test_disabled_factory(self):
        assert not PubsConfig.disabled().enabled

    def test_with_overrides(self):
        cfg = PubsConfig().with_overrides(priority_entries=8, stall_policy=False)
        assert cfg.priority_entries == 8 and not cfg.stall_policy

    def test_validation(self):
        with pytest.raises(ValueError):
            PubsConfig(priority_entries=-1)
        with pytest.raises(ValueError):
            PubsConfig(conf_sets=100)
        with pytest.raises(ValueError):
            PubsConfig(conf_counter_bits=0)
        with pytest.raises(ValueError):
            PubsConfig(brslice_assoc=0)

    def test_zero_entry_stall_partition_rejected(self):
        """Under the stall policy an unconfident instruction waits for a
        priority entry, so a zero-entry partition deadlocks the run."""
        with pytest.raises(ValueError, match="zero-entry"):
            PubsConfig(priority_entries=0)
        assert PubsConfig(priority_entries=0, stall_policy=False)
        assert not PubsConfig(enabled=False, priority_entries=0).enabled
