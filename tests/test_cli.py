import copy
import json
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qcrack import cli
from qcrack.circuit import CircuitSpec, Shots
from qcrack.cli import _DEFAULTS, main, parse_run_config
from qcrack.errors import ConfigError
from qcrack.model import HybridModel, save_checkpoint


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


@pytest.fixture()
def feature_csv(tmp_path):
    """Small separable feature file: 12 crack / 12 clean, 8 features."""
    rng = np.random.default_rng(0)
    rows = []
    for i in range(12):
        rows.append(f"c{i},crack," +
                    ",".join(f"{v:.4f}" for v in rng.normal(1.0, 0.3, 8)))
        rows.append(f"n{i},no_crack," +
                    ",".join(f"{v:.4f}" for v in rng.normal(-1.0, 0.3, 8)))
    path = tmp_path / "features.csv"
    path.write_text("\n".join(rows) + "\n")
    return path


def train_config(tmp_path, feature_csv, **overrides):
    doc = {
        "circuit": {"num_qubits": 2, "q_depth": 1},
        "method": "backprop",
        "epochs": 2,
        "seed": 5,
        "split": [0.5, 0.25, 0.25],
        "data": {"source": "features", "path": str(feature_csv)},
        "out_dir": str(tmp_path / "run"),
    }
    doc.update(overrides)
    path = tmp_path / "config.json"
    path.write_text(json.dumps(doc))
    return path


class TestLedgerCommand:
    def test_paper_values(self, capsys):
        code, out, _ = run(capsys, "ledger", "856", "184", "2", "4")
        assert code == 0
        assert "1,040" in out and "7,888" in out and "14,736" in out

    def test_json_output(self, capsys):
        code, out, _ = run(capsys, "ledger", "1", "0", "2", "1", "--json")
        assert code == 0
        doc = json.loads(out)
        assert doc["n_calls"] == {"backprop": 1, "finite-diff": 3,
                                  "param-shift": 5}

    def test_zero_images(self, capsys):
        code, out, _ = run(capsys, "ledger", "0", "0", "3", "4", "--json")
        assert json.loads(out)["n_calls"] == {
            "backprop": 0, "finite-diff": 0, "param-shift": 0}


class TestEstimateCommand:
    def test_named_profile(self, capsys):
        code, out, _ = run(capsys, "estimate", "--profile", "ibmq_ehningen",
                           "--n-calls", "8820", "--shots", "1000",
                           "--layers", "2", "--json")
        assert code == 0
        doc = json.loads(out)
        assert doc["device_seconds"] == pytest.approx(9284.2, abs=0.1)

    def test_custom_clops_with_overhead(self, capsys):
        code, out, _ = run(capsys, "estimate", "--clops", "1900",
                           "--overhead", "6.5", "--n-calls", "8820", "--json")
        doc = json.loads(out)
        assert doc["wall_seconds"] == pytest.approx(6.5 * doc["device_seconds"])

    def test_missing_profile_is_config_error(self, capsys):
        code, _, err = run(capsys, "estimate", "--n-calls", "10")
        assert code == 2 and "config error" in err

    def test_directory_profile_exits_2(self, capsys, tmp_path):
        """A .json path that is not a file is looked up as a name."""
        path = tmp_path / "d.json"
        path.mkdir()
        code, out, err = run(capsys, "estimate", "--profile", str(path),
                             "--n-calls", "10")
        assert code == 2 and out == ""
        assert f"config error: no backend profile {str(path)!r}" in err
        assert "ibmq_kolkata" in err

    def test_unknown_profile_exits_2(self, capsys):
        code, out, err = run(capsys, "estimate", "--profile", "nowhere",
                             "--n-calls", "3")
        assert code == 2 and out == ""
        assert "config error" in err and "'nowhere'" in err
        assert "ibmq_kolkata" in err  # the message lists the built-ins

    @pytest.mark.parametrize("doc", [{"clops": 500},
                                     {"name": "p", "clops": "fast"}])
    def test_malformed_profile_exits_2(self, capsys, tmp_path, doc):
        path = tmp_path / "p.json"
        path.write_text(json.dumps(doc))
        code, _, err = run(capsys, "estimate", "--profile", str(path),
                           "--n-calls", "10")
        assert code == 2
        assert str(path) in err and "malformed backend profile" in err

    def test_clops_overrides_profile_file(self, capsys, tmp_path):
        """--clops replaces the profile's throughput and keeps its name and
        overhead factor."""
        path = tmp_path / "p.json"
        path.write_text(json.dumps({"name": "p", "clops": 100,
                                    "overhead_factor": 2.0}))
        code, out, _ = run(capsys, "estimate", "--profile", str(path),
                           "--clops", "500", "--n-calls", "10", "--json")
        doc = json.loads(out)
        assert code == 0 and doc["profile"] == "p"
        assert doc["clops"] == 500 and doc["overhead_factor"] == 2.0
        assert doc["wall_seconds"] == 2.0 * doc["device_seconds"]

    def test_overhead_overrides_profile_file(self, capsys, tmp_path):
        path = tmp_path / "p.json"
        path.write_text(json.dumps({"name": "p", "clops": 100,
                                    "overhead_factor": 2.0}))
        code, out, _ = run(capsys, "estimate", "--profile", str(path),
                           "--overhead", "3", "--n-calls", "10", "--json")
        doc = json.loads(out)
        assert code == 0 and doc["profile"] == "p"
        assert doc["overhead_factor"] == 3.0 and doc["clops"] == 100


KOLKATA = ["estimate", "--profile", "ibmq_kolkata", "--n-calls", "14736",
           "--shots", "1024", "--layers", "2"]
CUSTOM = ["estimate", "--clops", "1900", "--overhead", "6.5",
          "--n-calls", "1040"]
EVAL = ["eval", "--checkpoint", "{tmp}/ckpt.json", "--features",
        "{tmp}/features.csv"]
MISSED = "n0, c1, n1, n2, n3, n4, n5, n6, n7, c8, n8, n9, n10, n11"


class TestStdout:
    """Each subcommand's exact stdout and exit code, as text and as --json
    where it has the flag."""

    @pytest.mark.parametrize("argv,expected", [
        (["ledger", "856", "184", "2", "4"],
         "predicted calls per epoch (T=856, V=184, L=2, Q=4):\n"
         "  backprop      1,040\n  finite-diff   7,888\n"
         "  param-shift   14,736\n"),
        (["ledger", "856", "184", "2", "4", "--json"],
         '{"T": 856, "V": 184, "L": 2, "Q": 4, "n_calls": {"backprop": 1040,'
         ' "finite-diff": 7888, "param-shift": 14736}}\n'),
        (KOLKATA,
         "device_seconds = n_calls*shots*layers/clops = 14736*1024*2/2000"
         " = 15,089.7 s\nwall_seconds   = device_seconds*1 = 15,089.7 s\n"
         "(order-of-magnitude model; queueing reduced to one multiplier)\n"),
        (KOLKATA + ["--json"],
         '{"profile": "ibmq_kolkata", "clops": 2000, "overhead_factor": 1.0,'
         ' "n_calls": 14736, "shots": 1024, "layers": 2,'
         ' "device_seconds": 15089.664, "wall_seconds": 15089.664}\n'),
        (CUSTOM,
         "device_seconds = n_calls*shots*layers/clops = 1040*1000*2/1900"
         " = 1,094.7 s\nwall_seconds   = device_seconds*6.5 = 7,115.8 s\n"
         "(order-of-magnitude model; queueing reduced to one multiplier)\n"),
        (CUSTOM + ["--json"],
         '{"profile": "custom", "clops": 1900, "overhead_factor": 6.5,'
         ' "n_calls": 1040, "shots": 1000, "layers": 2,'
         ' "device_seconds": 1094.7368421052631,'
         ' "wall_seconds": 7115.78947368421}\n'),
        (["gen", "2", "1", "--out", "{tmp}/p"],
         "wrote 3 patches and {tmp}/p/manifest.csv\n"),
        (EVAL,
         "loss 0.8041  accuracy 0.4167\nconfusion: tp=10 fp=12 fn=2 tn=0\n"
         f"misclassified: {MISSED}\n"),
        (EVAL + ["--json"],
         '{"test_loss": 0.8041181002107569,'
         ' "test_accuracy": 0.4166666666666667,'
         ' "confusion_matrix": {"tp": 10, "fp": 12, "fn": 2, "tn": 0},'
         ' "misclassified_ids": ["' + MISSED.replace(", ", '", "') + '"]}\n'),
        (EVAL + ["--shots", "32", "--seed", "3"],
         "loss 0.8112  accuracy 0.3750\nconfusion: tp=8 fp=11 fn=4 tn=1\n"
         "misclassified: c0, n0, c1, n1, n2, n3, n4, n5, c6, n6, c7, n8, n9,"
         " n10, n11\n"),
    ], ids=["ledger", "ledger-json", "estimate-profile",
            "estimate-profile-json", "estimate-clops", "estimate-clops-json",
            "gen", "eval", "eval-json", "eval-shots-seed"])
    def test_exact_stdout(self, capsys, tmp_path, feature_csv, argv,
                          expected):
        save_checkpoint(tmp_path / "ckpt.json",
                        HybridModel.init(8, CircuitSpec(2, 1), 0), seed=0)
        code, out, _ = run(capsys, *(a.format(tmp=tmp_path) for a in argv))
        assert code == 0
        assert out == expected.replace("{tmp}", str(tmp_path))


class TestGenCommand:
    def test_writes_patches_and_manifest(self, capsys, tmp_path):
        out_dir = tmp_path / "patches"
        code, out, _ = run(capsys, "gen", "10", "10", "--seed", "42",
                           "--out", str(out_dir))
        assert code == 0
        pgms = sorted(out_dir.glob("*.pgm"))
        assert len(pgms) == 20
        manifest = (out_dir / "manifest.csv").read_text().splitlines()
        assert len(manifest) == 21
        assert manifest[0] == "filename,label"

    def test_idempotent(self, capsys, tmp_path):
        out_dir = tmp_path / "patches"
        run(capsys, "gen", "2", "1", "--seed", "7", "--out", str(out_dir))
        first = {p.name: p.read_bytes() for p in out_dir.glob("*.pgm")}
        run(capsys, "gen", "2", "1", "--seed", "7", "--out", str(out_dir))
        second = {p.name: p.read_bytes() for p in out_dir.glob("*.pgm")}
        assert first == second

    def test_empty(self, capsys, tmp_path):
        out_dir = tmp_path / "patches"
        code, _, _ = run(capsys, "gen", "0", "0", "--out", str(out_dir))
        assert code == 0
        assert (out_dir / "manifest.csv").read_text().splitlines() == \
            ["filename,label"]


class TestGradcheckCommand:
    def test_defaults_pass(self, capsys):
        code, out, _ = run(capsys, "gradcheck", "--trials", "5", "--json")
        assert code == 0
        doc = json.loads(out)
        assert doc["pass"] is True
        assert (doc["tol_shift"], doc["tol_fd"]) == (1e-10, 1e-3)

    @pytest.mark.parametrize("flag", ["--tol-shift", "--tol-fd", "--fd-delta",
                                      "--fd-variant"])
    def test_bounds_are_not_flags(self, capsys, flag):
        with pytest.raises(SystemExit) as exc:
            main(["gradcheck", "--trials", "1", flag, "1"])
        assert exc.value.code == 2
        assert f"unrecognized arguments: {flag}" in capsys.readouterr().err

    def test_coarse_delta_fails(self, capsys, monkeypatch):
        # forward differences at delta = 1e-4 truncate at about 5e-5, far
        # above this bound: the check fails, and says so, with exit 1
        monkeypatch.setattr(cli, "TOL_FD", 1e-8)
        code, out, _ = run(capsys, "gradcheck", "--trials", "5", "--json")
        assert code == 1
        doc = json.loads(out)
        assert doc["pass"] is False and doc["tol_fd"] == 1e-8
        assert doc["max_dev_finite_diff_vs_backprop"] > 1e-8
        assert doc["max_dev_param_shift_vs_backprop"] <= doc["tol_shift"]

    def test_depth_sweep_passes(self, capsys):
        for depth in (2, 6):
            code, out, _ = run(capsys, "gradcheck", "--trials", "3",
                               "--q-depth", str(depth), "--json")
            assert code == 0, out


class TestTrainCommand:
    def test_train_writes_artifacts(self, capsys, tmp_path, feature_csv):
        cfg = train_config(tmp_path, feature_csv)
        code, out, _ = run(capsys, "train", "--config", str(cfg))
        assert code == 0
        run_dir = tmp_path / "run"
        for name in ("metrics.csv", "report.json", "checkpoint.json",
                     "split.json", "run_config.json"):
            assert (run_dir / name).exists(), name
        report = json.loads((run_dir / "report.json").read_text())
        assert "ledger" not in report
        assert report["reconcile"]["measured"] == \
            report["reconcile"]["predicted"]
        metrics = (run_dir / "metrics.csv").read_text().splitlines()
        assert len(metrics) == 3  # header + 2 epochs
        assert "test accuracy" in out

    def test_zero_epochs_header_only(self, capsys, tmp_path, feature_csv):
        cfg = train_config(tmp_path, feature_csv, epochs=0)
        code, _, _ = run(capsys, "train", "--config", str(cfg))
        assert code == 0
        metrics = (tmp_path / "run" / "metrics.csv").read_text().splitlines()
        assert metrics == ["epoch,train_loss,train_acc,val_loss,val_acc,"
                           "n_calls,elapsed_ms"]

    def test_deterministic_metrics(self, capsys, tmp_path, feature_csv):
        cfg = train_config(tmp_path, feature_csv)
        run(capsys, "train", "--config", str(cfg),
            "--out", str(tmp_path / "a"))
        run(capsys, "train", "--config", str(cfg),
            "--out", str(tmp_path / "b"))
        # identical except the wall-clock column (last field per row)
        strip = lambda p: [",".join(line.split(",")[:-1])
                           for line in p.read_text().splitlines()]
        assert strip(tmp_path / "a" / "metrics.csv") == \
            strip(tmp_path / "b" / "metrics.csv")

    def test_invalid_config_exits_2(self, capsys, tmp_path, feature_csv):
        cfg = train_config(tmp_path, feature_csv, method="adjoint")
        code, _, err = run(capsys, "train", "--config", str(cfg))
        assert code == 2 and "config error" in err

    def test_unknown_key_exits_2(self, capsys, tmp_path, feature_csv):
        cfg = train_config(tmp_path, feature_csv, optimizer="sgd")
        code, _, _ = run(capsys, "train", "--config", str(cfg))
        assert code == 2

    def test_missing_data_file_exits_1(self, capsys, tmp_path):
        cfg = train_config(tmp_path, tmp_path / "nope.csv")
        code, _, err = run(capsys, "train", "--config", str(cfg))
        assert code == 1 and "error" in err

    def test_backprop_with_shots_rejected(self, capsys, tmp_path, feature_csv):
        cfg = train_config(tmp_path, feature_csv, shots=100)
        code, _, _ = run(capsys, "train", "--config", str(cfg))
        assert code == 2

    def test_shots_mode_param_shift(self, capsys, tmp_path, feature_csv):
        cfg = train_config(tmp_path, feature_csv, method="param-shift",
                           shots=256, epochs=1)
        code, _, _ = run(capsys, "train", "--config", str(cfg))
        assert code == 0
        report = json.loads((tmp_path / "run" / "report.json").read_text())
        assert "ledger" not in report
        assert report["reconcile"]["measured"] == \
            report["reconcile"]["predicted"]

    @pytest.mark.parametrize("flag", [("--seed", "3"), ("--out", "d")])
    def test_non_object_config_with_override_exits_2(self, capsys, tmp_path,
                                                     flag):
        cfg = tmp_path / "config.json"
        cfg.write_text("[1]")
        code, out, err = run(capsys, "train", "--config", str(cfg), *flag)
        assert code == 2 and out == ""
        assert "config error: config must be a JSON object" in err

    def test_replay_from_run_config(self, capsys, tmp_path, feature_csv):
        # run_config.json records every value the run used: training again
        # from it, elsewhere, gives the same checkpoint and split
        cfg = train_config(tmp_path, feature_csv)
        assert run(capsys, "train", "--config", str(cfg))[0] == 0
        first, second = tmp_path / "run", tmp_path / "run2"
        code, _, _ = run(capsys, "train", "--config",
                         str(first / "run_config.json"), "--out", str(second))
        assert code == 0
        for name in ("checkpoint.json", "split.json"):
            assert (second / name).read_bytes() == (first / name).read_bytes()
        recorded = [json.loads((d / "run_config.json").read_text())
                    for d in (first, second)]
        assert recorded[1] == {**recorded[0], "out_dir": str(second)}

    def test_duplicate_feature_id_exits_1(self, capsys, tmp_path,
                                          feature_csv):
        rows = feature_csv.read_text().splitlines()
        feature_csv.write_text("\n".join(rows + [rows[0]]) + "\n")
        code, out, err = run(capsys, "train", "--config",
                             str(train_config(tmp_path, feature_csv)))
        assert code == 1 and out == ""
        assert (f"error: {feature_csv}:25: duplicate id 'c0' "
                "(first at line 1)") in err


class TestTrainReconciliation:
    def test_report_records_reconcile(self, capsys, tmp_path, feature_csv):
        cfg = train_config(tmp_path, feature_csv, method="param-shift")
        code, _, _ = run(capsys, "train", "--config", str(cfg))
        assert code == 0
        report = json.loads((tmp_path / "run" / "report.json").read_text())
        assert "ledger" not in report and report["reconcile"]["ok"]
        assert report["reconcile"]["measured"] == \
            report["reconcile"]["predicted"]

    def test_ledger_off_by_one_exits_1(self, capsys, tmp_path, feature_csv,
                                       monkeypatch):
        import qcrack.model as model_mod
        real = model_mod.value_and_jacobian
        calls = []

        def one_extra_call(spec, qinput, method, ledger, mode=None):
            if not calls:
                ledger.add_forward(1)
            calls.append(1)
            return real(spec, qinput, method, ledger, mode)

        monkeypatch.setattr(model_mod, "value_and_jacobian", one_extra_call)
        cfg = train_config(tmp_path, feature_csv)
        code, _, err = run(capsys, "train", "--config", str(cfg))
        assert code == 1 and "call-ledger mismatch" in err
        report = json.loads((tmp_path / "run" / "report.json").read_text())
        rec = report["reconcile"]
        assert not rec["ok"] and rec["measured"] == rec["predicted"] + 1


class TestEvalCommand:
    def test_matches_training_report(self, capsys, tmp_path, feature_csv):
        cfg = train_config(tmp_path, feature_csv, epochs=1)
        run(capsys, "train", "--config", str(cfg))
        run_dir = tmp_path / "run"
        report = json.loads((run_dir / "report.json").read_text())
        # evaluating on the full feature file covers the test split too
        code, out, _ = run(capsys, "eval",
                           "--checkpoint", str(run_dir / "checkpoint.json"),
                           "--features", str(feature_csv), "--json")
        assert code == 0
        doc = json.loads(out)
        assert sum(doc["confusion_matrix"].values()) == 24

    def test_out_is_not_a_flag(self, capsys, tmp_path, feature_csv):
        # eval prints its report (--json gives the document); only train
        # writes one
        with pytest.raises(SystemExit) as exc:
            main(["eval", "--checkpoint", str(tmp_path / "ckpt.json"),
                  "--features", str(feature_csv), "--out", str(tmp_path)])
        assert exc.value.code == 2
        assert "unrecognized arguments: --out" in capsys.readouterr().err

    def test_feature_width_mismatch_exits_2(self, capsys, tmp_path,
                                            feature_csv):
        cfg = train_config(tmp_path, feature_csv, epochs=0)
        run(capsys, "train", "--config", str(cfg))
        bad = tmp_path / "bad.csv"
        bad.write_text("a,crack,1,2,3\n")
        code, out, err = run(capsys, "eval",
                             "--checkpoint",
                             str(tmp_path / "run" / "checkpoint.json"),
                             "--features", str(bad))
        assert code == 2 and out == ""
        assert "config error: checkpoint expects 8 features, data has 3" in err

    def test_empty_feature_file_exits_2(self, capsys, tmp_path, feature_csv):
        cfg = train_config(tmp_path, feature_csv, epochs=0)
        run(capsys, "train", "--config", str(cfg))
        empty = tmp_path / "empty.csv"
        empty.write_text("")
        code, out, err = run(capsys, "eval",
                             "--checkpoint",
                             str(tmp_path / "run" / "checkpoint.json"),
                             "--features", str(empty))
        assert code == 2 and out == ""
        assert f"config error: nothing to evaluate: {empty}" in err

    def test_malformed_checkpoint_names_file(self, capsys, tmp_path,
                                             feature_csv):
        bad = tmp_path / "checkpoint.json"
        bad.write_text(json.dumps({"seed": 1}))
        code, _, err = run(capsys, "eval", "--checkpoint", str(bad),
                           "--features", str(feature_csv))
        assert code == 1
        assert str(bad) in err and "malformed checkpoint" in err


    def test_non_finite_parameter_is_malformed(self, capsys, tmp_path,
                                               feature_csv):
        path = tmp_path / "checkpoint.json"
        save_checkpoint(path, HybridModel.init(8, CircuitSpec(2, 1), 0), 0)
        doc = json.loads(path.read_text())
        doc["post"]["bias"][0] = float("nan")
        path.write_text(json.dumps(doc))
        code, out, err = run(capsys, "eval", "--checkpoint", str(path),
                             "--features", str(feature_csv), "--json")
        assert code == 1 and out == ""
        assert err == (f"error: {path}: malformed checkpoint "
                       "(ValueError: post.bias must be a finite number, "
                       "got nan)\n")

    @pytest.mark.parametrize("key, index, value", [
        ("qparams", None, True), ("post", "bias", "1.5")])
    def test_parameter_that_is_not_a_number_is_malformed(
            self, capsys, tmp_path, feature_csv, key, index, value):
        path = tmp_path / "checkpoint.json"
        save_checkpoint(path, HybridModel.init(8, CircuitSpec(2, 1), 0), 0)
        doc = json.loads(path.read_text())
        (doc[key] if index is None else doc[key][index])[0] = value
        path.write_text(json.dumps(doc))
        code, out, err = run(capsys, "eval", "--checkpoint", str(path),
                             "--features", str(feature_csv), "--json")
        name = key if index is None else f"{key}.{index}"
        assert code == 1 and out == ""
        assert err == (f"error: {path}: malformed checkpoint (ValueError: "
                       f"{name} must be a finite number, got {value!r})\n")


class TestDataSources:
    """train and eval read their data through one table of sources."""

    def test_dir_round_trip(self, capsys, tmp_path):
        patches = tmp_path / "p"
        assert run(capsys, "gen", "4", "4", "--out", str(patches))[0] == 0
        cfg = tmp_path / "config.json"
        cfg.write_text(json.dumps({
            "circuit": {"num_qubits": 2, "q_depth": 1}, "epochs": 1,
            "split": [0.5, 0.25, 0.25], "out_dir": str(tmp_path / "run"),
            "data": {"source": "dir", "path": str(patches),
                     "manifest": str(patches / "manifest.csv")}}))
        assert run(capsys, "train", "--config", str(cfg))[0] == 0
        code, out, _ = run(capsys, "eval", "--checkpoint",
                           str(tmp_path / "run" / "checkpoint.json"),
                           "--data-dir", str(patches), "--manifest",
                           str(patches / "manifest.csv"), "--json")
        assert code == 0
        assert sum(json.loads(out)["confusion_matrix"].values()) == 8

    def test_eval_repeated_manifest_row_exits_1(self, capsys, tmp_path):
        patches = tmp_path / "p"
        run(capsys, "gen", "2", "2", "--out", str(patches))
        manifest = patches / "manifest.csv"
        manifest.write_text(manifest.read_text() + "crack_00001.pgm,crack\n")
        save_checkpoint(tmp_path / "ckpt.json",
                        HybridModel.init(512, CircuitSpec(2, 1), 0), seed=0)
        code, out, err = run(capsys, "eval", "--checkpoint",
                             str(tmp_path / "ckpt.json"), "--data-dir",
                             str(patches), "--manifest", str(manifest))
        assert code == 1 and out == ""
        assert "manifest.csv:6: duplicate id 'crack_00001' (first at line 3)" \
            in err

    def test_eval_missing_patch_names_manifest_line(self, capsys, tmp_path):
        (tmp_path / "m.csv").write_text("filename,label\nnope.pgm,crack\n")
        save_checkpoint(tmp_path / "ckpt.json",
                        HybridModel.init(512, CircuitSpec(2, 1), 0), seed=0)
        code, out, err = run(capsys, "eval", "--checkpoint",
                             str(tmp_path / "ckpt.json"), "--data-dir",
                             str(tmp_path), "--manifest",
                             str(tmp_path / "m.csv"))
        assert code == 1 and out == ""
        assert f"{tmp_path / 'm.csv'}:2: " in err and "nope.pgm" in err

    @pytest.mark.parametrize("data,extra", [
        ({"source": "synthetic", "n_crack": 2, "n_clean": 2, "seed_gen": 7},
         "seed_gen"),
        ({"source": "dir", "path": "p", "manifest": "p/m.csv", "shuffle": 1},
         "shuffle"),
        ({"source": "features", "path": "f.csv", "manifest": "m.csv"},
         "manifest"),
    ])
    def test_unknown_data_key_exits_2(self, capsys, tmp_path, feature_csv,
                                      data, extra):
        cfg = train_config(tmp_path, feature_csv, data=data)
        code, out, err = run(capsys, "train", "--config", str(cfg))
        assert code == 2 and out == "" and not (tmp_path / "run").exists()
        assert f"config error: unknown data keys: ['{extra}']" in err

    @pytest.mark.parametrize("argv", [
        ["--features", "{features}", "--data-dir", "{tmp}", "--manifest",
         "{features}"],
        ["--features", "{features}", "--data-dir", "{tmp}"],
        ["--manifest", "{features}"],
        [],
    ])
    def test_eval_needs_exactly_one_source_flag(self, capsys, tmp_path,
                                                feature_csv, argv):
        argv = [a.format(tmp=tmp_path, features=feature_csv) for a in argv]
        with pytest.raises(SystemExit) as exc:
            main(["eval", "--checkpoint", str(tmp_path / "ckpt.json"), *argv])
        assert exc.value.code == 2 and "usage:" in capsys.readouterr().err


class TestFlagValidation:
    """A flag value the package rejects is a usage error: exit 2, before
    any work."""

    @pytest.mark.parametrize("argv", [
        pytest.param(["gradcheck", "--qubits", "0", "--trials", "1"],
                     id="gradcheck-qubits-0"),
        pytest.param(["estimate", "--profile", "ibmq_lima", "--n-calls", "0"],
                     id="estimate-n-calls-0"),
        pytest.param(["estimate", "--clops", "0", "--n-calls", "10"],
                     id="estimate-clops-0"),
        pytest.param(["estimate", "--profile", "ibmq_lima", "--overhead",
                      "0.5", "--n-calls", "10"],
                     id="estimate-overhead-below-1"),
        pytest.param(["ledger", "-1", "184", "2", "4"],
                     id="ledger-T-negative"),
        pytest.param(["gen", "-1", "2", "--out", "{tmp}/patches"],
                     id="gen-count-negative"),
        pytest.param(["eval", "--checkpoint", "{tmp}/ckpt.json", "--features",
                      "{features}", "--shots", "0"],
                     id="eval-shots-0"),
        pytest.param(["eval", "--checkpoint", "{tmp}/ckpt.json", "--features",
                      "{features}", "--shots", "8", "--seed", "-1"],
                     id="eval-seed-negative"),
        pytest.param(["gradcheck", "--trials", "0", "--json"],
                     id="gradcheck-trials-0"),
        pytest.param(["gradcheck", "--trials", "-3", "--json"],
                     id="gradcheck-trials-negative"),
        pytest.param(["gradcheck", "--seed", "-1", "--trials", "1"],
                     id="gradcheck-seed-negative"),
        pytest.param(["eval", "--checkpoint", "{tmp}/ckpt.json", "--features",
                      "{features}", "--manifest", "{features}"],
                     id="eval-features-with-manifest"),
        pytest.param(["eval", "--checkpoint", "{tmp}/ckpt.json", "--data-dir",
                      "{tmp}"],
                     id="eval-data-dir-without-manifest"),
        pytest.param(["ledger", "5", "5", "0", "4"], id="ledger-L-0"),
        pytest.param(["ledger", "5", "5", "1", "4"], id="ledger-L-1"),
        pytest.param(["estimate", "--profile", "ibmq_lima", "--overhead",
                      "inf", "--n-calls", "10", "--json"],
                     id="estimate-overhead-inf"),
        pytest.param(["eval", "--checkpoint", "{tmp}/missing.json",
                      "--features", "{features}", "--seed", "3"],
                     id="eval-seed-without-shots"),
    ])
    def test_rejected_flag_exits_2(self, capsys, tmp_path, feature_csv,
                                   argv):
        save_checkpoint(tmp_path / "ckpt.json",
                        HybridModel.init(8, CircuitSpec(2, 1), 0), seed=0)
        argv = [a.format(tmp=tmp_path, features=feature_csv) for a in argv]
        code, out, err = run(capsys, *argv)
        assert code == 2 and "config error" in err
        assert out == "" and not (tmp_path / "patches").exists()


class TestNumbersBeyondMachineRange:
    """A number Python holds but numpy or a float cannot is a usage error:
    exit 2, before any work."""

    @pytest.mark.parametrize("overrides", [
        {"method": "finite-diff", "fd_delta": 10 ** 400},
        {"method": "param-shift", "shots": 2 ** 63},
    ])
    def test_train_config_exits_2(self, capsys, tmp_path, feature_csv,
                                  overrides):
        cfg = train_config(tmp_path, feature_csv, **overrides)
        code, out, err = run(capsys, "train", "--config", str(cfg))
        assert code == 2 and out == "" and "config error" in err
        assert not (tmp_path / "run").exists()

    @pytest.mark.parametrize("text, message", [
        # json.loads raises a plain ValueError, not JSONDecodeError, on an
        # integer of more than 4,300 digits
        (b'{"shots": 1' + b"0" * 5000 + b"}", "4300"),
        (b'{"seed": "\xff"}', "utf-8"),
    ])
    def test_unreadable_config_exits_2(self, capsys, tmp_path, text,
                                       message):
        cfg = tmp_path / "config.json"
        cfg.write_bytes(text)
        code, out, err = run(capsys, "train", "--config", str(cfg))
        assert code == 2 and out == ""
        assert err.startswith("config error: ") and message in err

    def test_eval_shots_exits_2(self, capsys, tmp_path, feature_csv):
        save_checkpoint(tmp_path / "ckpt.json",
                        HybridModel.init(8, CircuitSpec(2, 1), 0), seed=0)
        code, out, err = run(capsys, "eval", "--checkpoint",
                             str(tmp_path / "ckpt.json"), "--features",
                             str(feature_csv), "--shots", str(2 ** 63))
        assert code == 2 and out == "" and "config error" in err

    def test_profile_overhead_exits_2(self, capsys, tmp_path):
        path = tmp_path / "big.json"
        path.write_text('{"name": "big", "clops": 100, "overhead_factor": 1'
                        + "0" * 399 + "}")
        code, out, err = run(capsys, "estimate", "--profile", str(path),
                             "--n-calls", "10")
        assert code == 2 and out == ""
        assert "malformed backend profile" in err and "overhead_factor" in err


# A valid config whose every key, and every key of its circuit and data
# objects, takes part in validation.
VALID_CONFIG = {
    "circuit": {"num_qubits": 2, "q_depth": 1},
    "method": "finite-diff",
    "fd_delta": 1e-3,
    "fd_variant": "central",
    "epochs": 1,
    "seed": 3,
    "shots": 16,
    "split": [0.5, 0.25, 0.25],
    "data": {"source": "synthetic", "n_crack": 2, "n_clean": 2,
             "gen_seed": 4},
    "out_dir": "runs/x",
}
CONFIG_PATHS = ([(k,) for k in VALID_CONFIG]
                + [("circuit", k) for k in VALID_CONFIG["circuit"]]
                + [("data", k) for k in VALID_CONFIG["data"]])
json_values = st.recursive(
    st.none() | st.booleans() | st.integers() | st.floats() | st.text(),
    lambda inner: st.lists(inner, max_size=4)
    | st.dictionaries(st.text(), inner, max_size=4),
    max_leaves=8)


class TestRunConfigValidation:
    def test_defaults(self):
        cfg = parse_run_config({})
        assert cfg.method.kind == "backprop"
        assert cfg.split.ratios == (0.7, 0.15, 0.15) and cfg.split.seed == 0
        assert cfg.mode is None
        # the generator seed the run uses is the one its record shows
        assert cfg.doc["data"] == {"source": "synthetic", "n_crack": 50,
                                   "n_clean": 50, "gen_seed": 1234}
        assert parse_run_config(VALID_CONFIG).mode == Shots(16, 3)

    def test_record_follows_the_defaults_table(self):
        assert list(parse_run_config({}).doc) == list(_DEFAULTS)
        assert list(parse_run_config(
            dict(reversed(VALID_CONFIG.items()))).doc) == list(_DEFAULTS)

    def test_record_shares_nothing_with_the_defaults(self):
        before = copy.deepcopy(_DEFAULTS)
        doc = parse_run_config({}).doc
        for key, value in doc.items():
            if isinstance(value, (dict, list)):
                assert value is not _DEFAULTS[key], key
        doc["circuit"]["num_qubits"] = 9
        doc["data"]["n_crack"] = 0
        doc["split"].append(0.0)
        assert _DEFAULTS == before
        assert parse_run_config({}).doc["circuit"] == {"num_qubits": 4,
                                                       "q_depth": 1}

    @pytest.mark.parametrize("doc, message", [
        ({"optimizer": "sgd", "circuit": {"num_qubits": 0}},
         "unknown config keys"),
        ({"circuit": {"num_qubits": 0}, "epochs": -1}, "circuit: "),
        ({"epochs": -1, "shots": 4, "data": {"source": "x"}}, "epochs"),
        ({"split": [1.0], "shots": 4}, "split must be three ratios"),
        ({"shots": 4, "data": {"source": "x"}}, "backprop is not available"),
        ({"data": {"source": "x"}, "out_dir": 5}, "data.source"),
    ])
    def test_first_check_reports(self, doc, message):
        # a document wrong in two ways fails on the first check in order
        with pytest.raises(ConfigError, match=message):
            parse_run_config(doc)

    @pytest.mark.parametrize("doc", [
        {"epochs": -1},
        {"split": [0.5, 0.5]},
        {"split": [0.5, 0.4, 0.2]},
        {"data": {"source": "synthetic", "n_crack": -2, "n_clean": 1}},
        {"data": {"source": "dir"}},
        {"shots": 0, "method": "param-shift"},
        {"circuit": {"num_qubits": 0}},
        {"fd_delta": "x"},
        {"method": "finite-diff", "fd_delta": "x"},
        {"method": "finite-diff", "fd_delta": float("nan")},
        {"circuit": {"num_qubits": 4.5}},
        {"split": 5},
        {"split": [0.7, 0.15, "a"]},
        {"epochs": True},
        {"seed": True},
        {"shots": True, "method": "param-shift"},
        {"data": {"source": "synthetic", "n_crack": True, "n_clean": 1}},
        {"data": {"source": "synthetic", "n_crack": 1, "n_clean": 1,
                  "gen_seed": "x"}},
        {"circuit": {"num_qubits": 40}},
        {"circuit": {"num_qbits": 5}},
        {"circuit": {"entanglement": "all-to-all"}},
        {"out_dir": 5},
        {"split": [float("nan"), 0.5, 0.5]},
        {"split": True},
        {"split": "abc"},
        {"split": [1.0, 0.0]},
        {"fd_delta": True},
        {"method": "backprop", "fd_variant": "sideways"},
        {"method": "param-shift", "fd_delta": -1},
    ])
    def test_rejects(self, doc):
        with pytest.raises(ConfigError):
            parse_run_config(doc)

    @given(path=st.sampled_from(CONFIG_PATHS), value=json_values)
    @settings(max_examples=300, deadline=None)
    def test_any_value_is_accepted_or_a_config_error(self, path, value):
        doc = copy.deepcopy(VALID_CONFIG)
        parent = doc
        for key in path[:-1]:
            parent = parent[key]
        parent[path[-1]] = value
        try:
            cfg = parse_run_config(doc)
        except ConfigError:
            return
        out = cfg.doc
        assert parse_run_config(out) == cfg
        for key, value in doc.items():  # every value set is recorded as set
            if key in ("circuit", "data"):
                assert {k: out[key][k] for k in value} == value
            elif key == "out_dir":
                assert Path(out[key]) == Path(value)
            else:
                assert out[key] == value
