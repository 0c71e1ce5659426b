"""The preview-purity rule: call-graph reachability and write detection."""

from __future__ import annotations

from repro.analysis.rules import PreviewPurityRule

from .util import findings_of, make_module, surviving

SESSION = "repro.session.session"


def rule(**overrides) -> PreviewPurityRule:
    options = {
        "roots": (f"{SESSION}:MeasurementSession.speculate_batch",),
        "stop_edges": frozenset(
            {f"{SESSION}:MeasurementSession._flush"}
        ),
    }
    options.update(overrides)
    return PreviewPurityRule(**options)


class TestDirectWrites:
    def test_write_in_root_fires(self):
        module = make_module(
            SESSION,
            """
            class MeasurementSession:
                def speculate_batch(self, deltas):
                    self._cached = None
            """,
        )
        (finding,) = findings_of(rule(), module)
        assert "_cached" in finding.message
        assert "speculate_batch" in finding.message

    def test_write_in_self_callee_fires_with_chain(self):
        module = make_module(
            SESSION,
            """
            class MeasurementSession:
                def speculate_batch(self, deltas):
                    self._score(deltas)

                def _score(self, deltas):
                    self.topology = None
            """,
        )
        (finding,) = findings_of(rule(), module)
        assert "MeasurementSession._score" in finding.message
        assert "speculate_batch" in finding.message  # reachability chain

    def test_unreachable_write_is_clean(self):
        module = make_module(
            SESSION,
            """
            class MeasurementSession:
                def speculate_batch(self, deltas):
                    return self._read(deltas)

                def _read(self, deltas):
                    return len(deltas)

                def commit(self):
                    self._cached = None
            """,
        )
        assert not findings_of(rule(), module)

    def test_unprotected_attribute_write_is_clean(self):
        module = make_module(
            SESSION,
            """
            class MeasurementSession:
                def speculate_batch(self, deltas):
                    self._scratch = list(deltas)
            """,
        )
        assert not findings_of(rule(), module)

    def test_augmented_and_del_writes_fire(self):
        module = make_module(
            SESSION,
            """
            class MeasurementSession:
                def speculate_batch(self, deltas):
                    self.generation += 1
                    del self.topology
            """,
        )
        assert len(findings_of(rule(), module)) == 2

    def test_item_stores_into_protected_attributes_fire(self):
        module = make_module(
            SESSION,
            """
            class MeasurementSession:
                def speculate_batch(self, deltas):
                    self._witnesses[0] = None
                    self.topology._tags[deltas] = set()
                    self._cached[0][1] += 1
                    del self.topology._binding[deltas]
                    self._scratch[0] = None  # unprotected: clean
            """,
        )
        findings = findings_of(rule(), module)
        assert len(findings) == 4
        assert all("item store into" in f.message for f in findings)
        assert {"_witnesses", "_tags", "_cached", "_binding"} == {
            f.message.split("'")[1] for f in findings
        }


class TestCallResolution:
    def test_stop_edge_not_descended(self):
        module = make_module(
            SESSION,
            """
            class MeasurementSession:
                def speculate_batch(self, deltas):
                    self._flush()

                def _flush(self):
                    self._cached = None  # the documented pre-batch flush
            """,
        )
        assert not findings_of(rule(), module)

    def test_cross_module_function_call_resolves(self):
        helper = make_module(
            "repro.session.helper",
            """
            def merge(session):
                session._witnesses = {}
            """,
        )
        session = make_module(
            SESSION,
            """
            from repro.session.helper import merge

            class MeasurementSession:
                def speculate_batch(self, deltas):
                    merge(self)
            """,
        )
        (finding,) = findings_of(rule(), session, helper)
        assert finding.path == "repro/session/helper.py"

    def test_module_alias_call_resolves(self):
        helper = make_module(
            "repro.session.helper",
            """
            def merge(session):
                session._witnesses = {}
            """,
        )
        session = make_module(
            SESSION,
            """
            from repro.session import helper

            class MeasurementSession:
                def speculate_batch(self, deltas):
                    helper.merge(self)
            """,
        )
        assert findings_of(rule(), session, helper)

    def test_unknown_receiver_links_by_method_name(self):
        store = make_module(
            "repro.session.witnesses",
            """
            class WitnessStore:
                def rebuild(self):
                    self._ordered = None
            """,
        )
        session = make_module(
            SESSION,
            """
            class MeasurementSession:
                def speculate_batch(self, store):
                    store.rebuild()
            """,
        )
        assert findings_of(rule(), session, store)

    def test_builtin_collection_names_not_linked(self):
        # ``.add`` on an unknown receiver must not wire the graph to an
        # unrelated class that happens to define ``add``.
        store = make_module(
            "repro.session.witnesses",
            """
            class WitnessStore:
                def add(self, witness):
                    self._ordered = None
            """,
        )
        session = make_module(
            SESSION,
            """
            class MeasurementSession:
                def speculate_batch(self, seen):
                    seen.add(1)
            """,
        )
        assert not findings_of(rule(), session, store)

    def test_base_class_method_resolves(self):
        base = make_module(
            "repro.session.base",
            """
            class BaseSession:
                def _flush_now(self):
                    self._cached = None
            """,
        )
        session = make_module(
            SESSION,
            """
            from repro.session.base import BaseSession

            class MeasurementSession(BaseSession):
                def speculate_batch(self, deltas):
                    self._flush_now()
            """,
        )
        assert findings_of(rule(), session, base)

    def test_pragma_silences_write(self):
        module = make_module(
            SESSION,
            """
            class MeasurementSession:
                def speculate_batch(self, deltas):
                    self._cached = None  # repro: allow(preview-purity)
            """,
        )
        assert not surviving(rule(), module)


class TestRealTreeContract:
    def test_reintroducing_live_write_under_preview_fails(self):
        """The acceptance drill: a live-topology write under the real root
        names is caught with the shipped default configuration."""
        module = make_module(
            "repro.violations.topology",
            """
            class ComponentTopology:
                def preview(self, region):
                    self._components = set()  # purity violation
                    return region
            """,
        )
        (finding,) = findings_of(PreviewPurityRule(), module)
        assert "_components" in finding.message


class TestManifestEntries:
    """Stale manifest entries are findings, not silently skipped roots."""

    MANIFEST = make_module("repro.analysis.config", "PREVIEW_ROOTS = ()\n")
    SESSION_MODULE = make_module(
        SESSION,
        """
        class MeasurementSession:
            def speculate_batch(self, deltas):
                return self._flush()

            def _flush(self):
                self._cached = None
        """,
    )

    def test_bogus_root_is_reported(self):
        bogus = f"{SESSION}:MeasurementSession.no_such_preview"
        roots = (f"{SESSION}:MeasurementSession.speculate_batch", bogus)
        (finding,) = findings_of(
            rule(roots=roots), self.MANIFEST, self.SESSION_MODULE
        )
        assert "PREVIEW_ROOTS" in finding.message
        assert bogus in finding.message
        assert finding.path == "repro/analysis/config.py"

    def test_bogus_stop_edge_is_reported(self):
        stale = "repro.session.gone:Session._flush"
        stop_edges = frozenset(
            {f"{SESSION}:MeasurementSession._flush", stale}
        )
        (finding,) = findings_of(
            rule(stop_edges=stop_edges), self.MANIFEST, self.SESSION_MODULE
        )
        assert "PREVIEW_STOP_EDGES" in finding.message
        assert stale in finding.message

    def test_resolving_manifest_is_clean(self):
        assert not findings_of(rule(), self.MANIFEST, self.SESSION_MODULE)

    def test_shipped_manifest_resolves_in_the_real_tree(self, repo_root):
        """Every shipped root and stop edge names a function in src/."""
        from repro.analysis.engine import collect

        project = collect([repo_root / "src"])
        stale = [
            finding
            for finding in PreviewPurityRule().finish(project)
            if "stale preview manifest entry" in finding.message
        ]
        assert not stale, [finding.message for finding in stale]
