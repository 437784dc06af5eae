"""Tests for the repo's generator scripts (docs + experiments records)."""

import sys
from pathlib import Path

import pytest

SCRIPTS = Path(__file__).resolve().parents[1] / "scripts"
sys.path.insert(0, str(SCRIPTS))

import generate_api_docs  # noqa: E402
import generate_experiments_md  # noqa: E402


class TestApiDocsGenerator:
    def test_first_paragraph(self):
        doc = "Line one\ncontinues here.\n\nSecond paragraph."
        assert generate_api_docs.first_paragraph(doc) == \
            "Line one continues here."

    def test_first_paragraph_empty(self):
        assert generate_api_docs.first_paragraph("") == "(undocumented)"

    def test_signature_of_plain_function(self):
        def fn(a, b=2):
            return a + b

        assert generate_api_docs.signature_of(fn) == "(a, b=2)"

    def test_render_package_produces_markdown(self):
        lines = generate_api_docs.render_package(
            "repro.analysis", "Metrics"
        )
        text = "\n".join(lines)
        assert "## `repro.analysis`" in text
        assert "### `aae" in text

    def test_main_writes_file(self, tmp_path):
        out = tmp_path / "API.md"
        assert generate_api_docs.main(["--out", str(out)]) == 0
        content = out.read_text()
        assert "# API reference" in content
        assert "HypersistentSketch" in content

    def test_output_has_no_object_addresses(self, tmp_path):
        out = tmp_path / "API.md"
        assert generate_api_docs.main(["--out", str(out)]) == 0
        content = out.read_text()
        assert "### `CATALOG`" in content and "### `EXPERIMENTS`" in content
        assert " at 0x" not in content


class TestExperimentsGenerator:
    def test_claims_cover_every_experiment(self):
        from repro.experiments.registry import EXPERIMENTS

        missing = [
            exp_id for exp_id in EXPERIMENTS
            if exp_id not in generate_experiments_md.PAPER_CLAIMS
        ]
        assert not missing, f"missing paper claims for {missing}"

    def test_render_one_cheap_experiment(self, tmp_path):
        text = generate_experiments_md.render_experiment(
            "fig04", scale=0.002, results_dir=tmp_path / "results"
        )
        assert "Figure 4" in text
        assert "Measured tables." in text
        assert (tmp_path / "results" / "fig04.json").exists()

    def test_main_with_subset(self, tmp_path):
        out = tmp_path / "EXP.md"
        code = generate_experiments_md.main([
            "--scale", "0.002", "--out", str(out),
            "--results-dir", str(tmp_path / "r"),
            "--only", "fig04",
        ])
        assert code == 0
        assert "paper vs. measured" in out.read_text()
