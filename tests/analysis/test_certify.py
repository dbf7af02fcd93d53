"""Unit tests for the plan certifier and proof-certificate ledger
(`repro.analysis.certify`) and its CLI front end (`python -m repro
prove`)."""

import io
import json

import pytest

from repro.analysis.certify import (
    CERTIFICATE_VERSION,
    CERTIFIED_BACKENDS,
    Certificate,
    CertificateLedger,
    ProveReport,
    build_certificates,
    certify_layout,
    certify_plan,
    check_exit_codes,
    check_fault_registry,
    check_state_registry,
    registry_checks,
    run_prove,
)
from repro.cli import main
from repro.errors import ProofError, exit_code_for
from repro.graphs import load_dataset


@pytest.fixture(scope="module")
def graph():
    return load_dataset("wiki", scale=0.25)


@pytest.fixture(scope="module")
def prepared(graph):
    from repro.core.filtering import filter_graph
    from repro.core.mixed_format import build_mixed
    from repro.core.partition import partition_regular

    plan = filter_graph(graph)
    mixed = build_mixed(graph, plan)
    partition = partition_regular(mixed.rr, 512)
    return mixed, partition


class TestCertificate:
    def test_id_is_deterministic(self, prepared):
        mixed, partition = prepared
        a = certify_layout(partition.layout, "parallel")
        b = certify_layout(partition.layout, "parallel")
        assert a.certificate_id == b.certificate_id
        assert a.fingerprint == b.fingerprint

    def test_id_depends_on_backend(self, prepared):
        mixed, partition = prepared
        ids = {
            certify_layout(partition.layout, backend).certificate_id
            for backend in CERTIFIED_BACKENDS
        }
        assert len(ids) == len(CERTIFIED_BACKENDS)

    def test_id_survives_json_roundtrip(self, prepared):
        """Evidence reloaded from the ledger (tuples become lists) must
        reproduce the same certificate id."""
        mixed, partition = prepared
        cert = certify_layout(partition.layout, "bincount")
        roundtripped = Certificate(
            kind=cert.kind,
            structure=cert.structure,
            backend=cert.backend,
            fingerprint=cert.fingerprint,
            evidence=json.loads(json.dumps(cert.evidence)),
        )
        assert roundtripped.certificate_id == cert.certificate_id

    def test_mp_certificate_proves_both_bases(self, prepared):
        # One plan proof covers every rung and both accumulation bases:
        # the mp certificate carries the same evidence as the serial one.
        mixed, partition = prepared
        mp = certify_layout(partition.layout, "parallel-mp")
        serial = certify_layout(partition.layout, "bincount")
        assert mp.evidence["proof"] == "PlanProof"
        assert mp.evidence == serial.evidence
        assert mp.certificate_id != serial.certificate_id

    def test_phase_plan_certificates(self, prepared):
        mixed, _ = prepared
        serial = certify_plan(mixed.seed_push_plan, "bincount")
        mp = certify_plan(mixed.seed_push_plan, "parallel-mp")
        assert serial.kind == "reduce-plan"
        assert serial.structure == "seed-push"
        assert serial.evidence["proof"] == "PlanProof"
        assert mp.evidence == serial.evidence
        assert serial.fingerprint == mp.fingerprint
        assert serial.certificate_id != mp.certificate_id

    @pytest.mark.parametrize("backend", (*CERTIFIED_BACKENDS, "auto"))
    def test_id_unchanged_when_derived_from_a_given_proof(
        self, prepared, backend
    ):
        from repro.analysis.races import prove_schedule

        _, partition = prepared
        layout = partition.layout
        derived = certify_layout(
            layout, backend, proof=prove_schedule(layout.reduce_plan)
        )
        fresh = certify_layout(layout, backend)
        assert derived.certificate_id == fresh.certificate_id

    @pytest.mark.parametrize("engine_name", ("mixen", "block"))
    def test_prepare_proves_the_schedule_once(
        self, graph, monkeypatch, engine_name
    ):
        import repro.analysis.races as races
        from repro.frameworks import make_engine

        calls = []
        original = races.prove_schedule

        def counting(plan):
            calls.append(plan.name)
            return original(plan)

        monkeypatch.setattr(races, "prove_schedule", counting)
        engine = make_engine(engine_name, graph)
        engine.prepare()
        # Each plan a run dispatches is proved exactly once; the
        # certificate reuses the Main-Phase proof.
        expected = (
            ["main", "seed-push", "sink-pull"]
            if engine_name == "mixen"
            else ["main"]
        )
        assert calls == expected
        assert engine.certificate.evidence["proof"] == "PlanProof"

    def test_version_stamped(self, prepared):
        mixed, partition = prepared
        cert = certify_layout(partition.layout, "bincount")
        assert cert.version == CERTIFICATE_VERSION


class TestLedger:
    def _any_cert(self, prepared):
        _, partition = prepared
        return certify_layout(partition.layout, "bincount")

    def test_roundtrip(self, prepared, tmp_path):
        cert = self._any_cert(prepared)
        ledger = CertificateLedger(tmp_path / "ledger.json")
        ledger.record(cert)
        path = ledger.save()
        reloaded = CertificateLedger.load(path)
        assert reloaded.verify(cert) == "verified"

    def test_missing_entry_is_uncertified(self, prepared, tmp_path):
        cert = self._any_cert(prepared)
        ledger = CertificateLedger.load(tmp_path / "absent.json")
        assert ledger.verify(cert) == "uncertified"

    def test_tampered_entry_is_stale(self, prepared, tmp_path):
        cert = self._any_cert(prepared)
        ledger = CertificateLedger(tmp_path / "ledger.json")
        ledger.record(cert)
        ledger.entries[cert.key]["certificate_id"] = "0" * 64
        assert ledger.verify(cert) == "stale"

    def test_save_is_atomic_and_sorted(self, prepared, tmp_path):
        cert = self._any_cert(prepared)
        ledger = CertificateLedger(tmp_path / "ledger.json")
        ledger.record(cert)
        path = ledger.save()
        assert not path.with_suffix(".tmp").exists()
        data = json.loads(path.read_text())
        assert data["version"] == CERTIFICATE_VERSION
        assert list(data["entries"]) == sorted(data["entries"])

    def test_corrupt_ledger_raises_proof_error(self, tmp_path):
        bad = tmp_path / "bad.json"
        bad.write_text("{not json")
        with pytest.raises(ProofError):
            CertificateLedger.load(bad)

    def test_missing_entries_table_raises(self, tmp_path):
        bad = tmp_path / "bad.json"
        bad.write_text('{"version": 1}')
        with pytest.raises(ProofError):
            CertificateLedger.load(bad)


class TestRegistryChecks:
    def test_all_pass_on_real_tree(self):
        for check in registry_checks():
            assert check.passed, f"{check.name}: {check.detail}"

    def test_fault_registry_named(self):
        assert check_fault_registry().name == "registry:fault-sites"

    def test_exit_codes_documented(self):
        check = check_exit_codes()
        assert check.passed, check.detail

    def test_state_registry_flags_reserved_name(self, tmp_path):
        pkg = tmp_path / "pkg"
        pkg.mkdir()
        (pkg / "mod.py").write_text(
            "def build():\n"
            "    return StateSpec('fingerprint')\n"
        )
        check = check_state_registry(pkg)
        assert not check.passed
        assert "fingerprint" in check.detail

    def test_state_registry_flags_unknown_kwarg(self, tmp_path):
        pkg = tmp_path / "pkg"
        pkg.mkdir()
        (pkg / "mod.py").write_text(
            "def build():\n"
            "    return StateSpec('x', garded=False)\n"
        )
        check = check_state_registry(pkg)
        assert not check.passed
        assert "garded" in check.detail


class TestBuildCertificates:
    def test_full_matrix(self, graph):
        certs = build_certificates(graph)
        # 4 structures x 4 backends
        assert len(certs) == 16
        structures = {c.structure for c in certs}
        assert structures == {
            "mixen-main",
            "seed-push",
            "sink-pull",
            "block-main",
        }
        backends = {c.backend for c in certs}
        assert backends == set(CERTIFIED_BACKENDS)
        # Ledger keys are unique across the matrix.
        keys = {c.key for c in certs}
        assert len(keys) == 16


class TestRunProve:
    def test_update_then_verify(self, tmp_path):
        path = tmp_path / "ledger.json"
        updated = run_prove(ledger_path=path, update=True)
        assert updated.ok, updated.render()
        assert all(c.status == "certified" for c in updated.certs)
        verified = run_prove(ledger_path=path)
        assert verified.ok, verified.render()
        assert all(c.status == "verified" for c in verified.certs)

    def test_missing_ledger_fails(self, tmp_path):
        report = run_prove(ledger_path=tmp_path / "absent.json")
        assert not report.ok
        with pytest.raises(ProofError) as excinfo:
            report.raise_on_failure()
        assert "uncertified" in str(excinfo.value)

    def test_stale_ledger_fails(self, tmp_path):
        path = tmp_path / "ledger.json"
        run_prove(ledger_path=path, update=True)
        data = json.loads(path.read_text())
        key = next(iter(data["entries"]))
        data["entries"][key]["certificate_id"] = "0" * 64
        path.write_text(json.dumps(data))
        report = run_prove(ledger_path=path)
        assert not report.ok
        assert any(c.status == "stale" for c in report.certs)

    def test_report_renders(self, tmp_path):
        report = run_prove(
            ledger_path=tmp_path / "l.json", update=True
        )
        text = report.render()
        assert "numeric-safety dataflow: 0 finding(s)" in text
        assert "registry:fault-sites" in text
        assert "16 certificates updated" in text

    def test_committed_ledger_is_current(self):
        """The repo's own ledger must verify — CI's ground truth."""
        report = run_prove()
        assert report.ok, report.render()


class TestProveReportSemantics:
    def test_findings_fail_report(self):
        from repro.analysis.dataflow import Finding

        report = ProveReport(
            title="t",
            findings=[Finding("a.py", 1, 0, "REP007", "boom")],
        )
        assert not report.ok
        with pytest.raises(ProofError):
            report.raise_on_failure()

    def test_empty_report_ok(self):
        assert ProveReport(title="t").ok


class TestCLI:
    def test_prove_verifies_committed_ledger(self):
        out = io.StringIO()
        assert main(["prove"], out=out) == 0
        assert "16 certificates" in out.getvalue()

    def test_prove_missing_ledger_exits_ten(self, tmp_path, capsys):
        code = main(
            ["prove", "--ledger", str(tmp_path / "absent.json")],
            out=io.StringIO(),
        )
        assert code == 10
        assert "ProofError" in capsys.readouterr().err

    def test_prove_update_writes_ledger(self, tmp_path):
        path = tmp_path / "ledger.json"
        out = io.StringIO()
        assert (
            main(["prove", "--update", "--ledger", str(path)], out=out)
            == 0
        )
        assert path.exists()
        assert main(["prove", "--ledger", str(path)], out=io.StringIO()) == 0

    def test_analyze_certify_against_committed_ledger(self):
        out = io.StringIO()
        code = main(
            ["analyze", "--scale", "0.25", "--certify"], out=out
        )
        assert code == 0
        assert "certificates verified" in out.getvalue()

    def test_analyze_certify_uncertified_exits_ten(self, tmp_path, capsys):
        code = main(
            [
                "analyze",
                "--scale",
                "0.25",
                "--certify",
                "--ledger",
                str(tmp_path / "absent.json"),
            ],
            out=io.StringIO(),
        )
        assert code == 10

    def test_proof_error_exit_code(self):
        assert exit_code_for(ProofError("x")) == 10


class TestEngineAttachment:
    def test_mixen_result_carries_certificate_id(self, graph):
        from repro.algorithms import ALGORITHMS
        from repro.frameworks import make_engine

        engine = make_engine("mixen", graph)
        engine.prepare()
        result = engine.run(ALGORITHMS["pagerank"](), max_iterations=3)
        assert result.certificate_id is not None
        assert engine.certificate is not None
        assert (
            result.certificate_id == engine.certificate.certificate_id
        )
        # The engine's certificate is the ledger's mixen-main entry.
        assert engine.certificate.structure == "mixen-main"
        assert engine.certificate.backend == engine.kernel

    def test_block_result_carries_certificate_id(self, graph):
        from repro.algorithms import ALGORITHMS
        from repro.frameworks import make_engine

        engine = make_engine("block", graph)
        engine.prepare()
        result = engine.run(ALGORITHMS["pagerank"](), max_iterations=3)
        assert result.certificate_id is not None
        assert engine.certificate.structure == "block-main"

    def test_certificate_in_committed_ledger(self, graph):
        """An engine prepared at the test-matrix scale produces exactly
        the certificate the committed ledger carries."""
        from repro.frameworks import make_engine

        engine = make_engine("mixen", graph)
        engine.prepare()
        ledger = CertificateLedger.load("bench_results/certificates.json")
        assert ledger.verify(engine.certificate) == "verified"

    def test_uncertified_engine_has_none(self, graph):
        from repro.algorithms import ALGORITHMS
        from repro.frameworks import make_engine

        engine = make_engine("ligra", graph)
        engine.prepare()
        result = engine.run(ALGORITHMS["pagerank"](), max_iterations=3)
        assert result.certificate_id is None
