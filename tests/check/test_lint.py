"""The determinism linter: every REP rule fires on its fixture, the real
package lints clean, and inline suppressions are honoured."""

from pathlib import Path

import pytest

import repro
from repro.check.lint import (
    lint_file,
    lint_paths,
    lint_source,
    main,
    module_name,
)
from repro.check.rules import RULES, allowed_rules

FIXTURES = Path(__file__).parent / "fixtures"
PACKAGE_ROOT = Path(repro.__file__).resolve().parent


def rules_in(findings):
    return {finding.rule for finding in findings}


def test_every_rule_fires_on_the_fixture_tree():
    findings = lint_paths([FIXTURES])
    assert rules_in(findings) == {rule.code for rule in RULES}


def test_rep001_flags_builtin_hash_in_derivations():
    findings = lint_file(FIXTURES / "plain" / "bad_hash_seed.py")
    assert [finding.rule for finding in findings] == ["REP001", "REP001"]
    assert "blake2b" in findings[0].message


def test_rep002_flags_the_random_module():
    findings = lint_file(FIXTURES / "plain" / "bad_random_module.py")
    assert rules_in(findings) == {"REP002"}
    assert len(findings) == 3  # the import, random.Random, random.random
    # The RandomSource module itself is the allowlist.
    source = "import random\nvalue = random.random()\n"
    assert lint_source(source, module="repro.core.rng") == []
    assert len(lint_source(source, module="repro.core.scheduler")) == 2


def test_rep003_flags_module_scope_numpy_only_in_scoped_packages():
    findings = lint_file(FIXTURES / "repro" / "core" / "bad_numpy_import.py")
    assert rules_in(findings) == {"REP003"}
    # Function-scope imports are the sanctioned spelling.
    lazy = "def convert(x):\n    import numpy\n    return numpy.asarray(x)\n"
    assert lint_source(lazy, module="repro.core.fast_simulator") == []
    # Outside repro.core / repro.topology the rule does not apply at all.
    eager = "import numpy\n"
    assert lint_source(eager, module="repro.experiments.scaling") == []
    assert len(lint_source(eager, module="repro.topology.torus")) == 1


def test_rep004_flags_wall_clocks_in_identity_paths():
    findings = lint_file(FIXTURES / "repro" / "store" / "bad_wall_clock.py")
    assert rules_in(findings) == {"REP004"}
    assert len(findings) == 2  # time.time() and the `from time import` alias
    # Monotonic duration measurement is fine; the service layer is exempt.
    assert lint_source("import time\nd = time.perf_counter()\n",
                       module="repro.core.simulator") == []
    wall = "import time\nt = time.time()\n"
    assert lint_source(wall, module="repro.service.jobs") == []
    assert len(lint_source(wall, module="repro.api.executor")) == 1


def test_rep004_scope_covers_the_scenario_runtime():
    # Phase results flow into store records, so the scenario layer is a
    # result-identity path like the executor and the engines.
    wall = "import time\nt = time.time()\n"
    assert len(lint_source(wall, module="repro.scenario.runtime")) == 1
    assert len(lint_source(wall, module="repro.scenario.perturbations")) == 1
    # REP001/REP002 are global: perturbation seed derivation must use
    # RandomSource.spawn, never builtin hash() or the random module.
    assert len(lint_source("seed = hash('phase-1')\n",
                           module="repro.scenario.spec")) == 1
    assert len(lint_source("import random\n",
                           module="repro.scenario.perturbations")) == 1


def test_rep005_flags_unsorted_iteration_feeding_digests():
    findings = lint_file(FIXTURES / "plain" / "bad_digest_order.py")
    assert rules_in(findings) == {"REP005"}
    assert len(findings) == 3  # bare dumps, .items(), set display
    messages = " ".join(finding.message for finding in findings)
    assert "sort_keys=True" in messages and "sorted(" in messages


def test_clean_spellings_produce_no_findings():
    assert lint_file(FIXTURES / "plain" / "clean_module.py") == []


def test_inline_allow_comments_suppress_findings():
    assert lint_file(FIXTURES / "plain" / "suppressed.py") == []
    # Scoped-rule suppression, and the comma-separated form.
    source = ("import time\n"
              "t = time.time()  # repro: allow[REP004, REP001]\n")
    assert lint_source(source, module="repro.store.store") == []
    # The comment only covers the rules it names.
    wrong = "seed = hash('x')  # repro: allow[REP004]\n"
    assert len(lint_source(wrong, module="repro.core.rng")) == 1


def test_allowed_rules_parses_the_comment_grammar():
    assert allowed_rules("x = 1  # repro: allow[REP001]") == {"REP001"}
    assert allowed_rules("y  # repro: allow[REP001, REP005]") == {
        "REP001", "REP005"}
    assert allowed_rules("plain line") == frozenset()


def test_module_name_is_anchored_at_the_repro_package():
    assert module_name(Path("src/repro/core/rng.py")) == "repro.core.rng"
    assert module_name(Path("/x/y/repro/store/__init__.py")) == "repro.store"
    assert module_name(Path("fixtures/plain/clean_module.py")) == "clean_module"


def test_the_shipped_package_lints_clean():
    # The acceptance gate: the real src/ tree has zero findings (every
    # audited exception carries its allow comment).
    assert lint_paths([PACKAGE_ROOT]) == []


def test_main_exit_codes_and_select(capsys):
    assert main([str(FIXTURES / "plain" / "clean_module.py")]) == 0
    assert "clean" in capsys.readouterr().out
    assert main([str(FIXTURES)]) == 1
    assert "REP001" in capsys.readouterr().out
    assert main([str(FIXTURES), "--select", "REP003"]) == 1
    out = capsys.readouterr().out
    assert "REP003" in out and "REP001" not in out
    assert main([str(FIXTURES / "missing.py")]) == 2
    with pytest.raises(SystemExit):
        main([str(FIXTURES), "--select", "REP999"])


def test_main_json_format(capsys):
    import json

    assert main([str(FIXTURES / "plain" / "bad_hash_seed.py"),
                 "--format", "json"]) == 1
    payload = json.loads(capsys.readouterr().out)
    assert payload["ok"] is False
    assert {finding["rule"] for finding in payload["findings"]} == {"REP001"}
    assert set(payload["rules"]) == {rule.code for rule in RULES}


def test_default_target_is_the_installed_package(capsys):
    # No path argument lints src/repro itself — the CI gate invocation.
    assert main([]) == 0
    assert "clean" in capsys.readouterr().out


def test_rep004_scope_covers_the_fabric():
    # Fabric results (claims, receipts, merged sweep rows) flow back into
    # the store, so the fabric is a result-identity path too.  Its lease
    # and retry timing uses time.monotonic()/time.sleep(), which the rule
    # permits by design — the shipped fabric needs no allows at all.
    wall = "import time\nt = time.time()\n"
    assert len(lint_source(wall, module="repro.fabric.coordinator")) == 1
    assert len(lint_source(wall, module="repro.fabric.worker")) == 1
    monotonic = ("import time\n"
                 "deadline = time.monotonic() + 5\n"
                 "time.sleep(0.1)\n")
    assert lint_source(monotonic, module="repro.fabric.retry") == []


def test_rep006_flags_snapshot_restore_gaps():
    findings = lint_file(FIXTURES / "plain" / "bad_snapshot_gap.py")
    assert [finding.rule for finding in findings] == ["REP006", "REP006"]
    # One finding per direction of the gap, anchored on the __init__
    # assignment so the allow comment lands where the field is born.
    messages = {finding.message for finding in findings}
    assert any("_cursor" in m and "restore()" in m for m in messages)
    assert any("_tally" in m and "snapshot()" in m for m in messages)


def test_rep006_counts_method_receivers_as_references():
    # `self._scheduler.setstate(...)` in restore() is how the step engine
    # reinstates its scheduler — a Load on self._scheduler, not a Store.
    source = (
        "class Engine:\n"
        "    def __init__(self, scheduler):\n"
        "        self._scheduler = scheduler\n"
        "    def snapshot(self):\n"
        "        return self._scheduler.getstate()\n"
        "    def restore(self, state):\n"
        "        self._scheduler.setstate(state)\n")
    assert lint_source(source, module="engine") == []


def test_rep006_ignores_classes_without_the_contract():
    # Only snapshot+restore pairs opt a class into the rule.
    partial = (
        "class Half:\n"
        "    def __init__(self):\n"
        "        self._x = 1\n"
        "    def snapshot(self):\n"
        "        return ()\n")
    assert lint_source(partial, module="half") == []
    # Tuple-unpack targets are individually tracked.
    unpack = (
        "class Pair:\n"
        "    def __init__(self, t):\n"
        "        self._a, self._b = t\n"
        "    def snapshot(self):\n"
        "        return (self._a,)\n"
        "    def restore(self, state):\n"
        "        (self._a,) = state\n")
    findings = lint_source(unpack, module="pair")
    assert [finding.rule for finding in findings] == ["REP006"]
    assert "_b" in findings[0].message
