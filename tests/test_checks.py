"""Numeric self-check battery, including fault injection."""

from cvloc import solver
from cvloc.geometry import d_satproj_d_pose_many
from cvloc.harness import checks
from cvloc.harness.checks import check_numerics
from cvloc.harness.cli import main


class TestCheckNumerics:
    def test_fresh_build_passes(self):
        report = check_numerics(seed=0)
        assert report.passed
        for result in report.results:
            assert result.passed, result.line()

    def test_report_lists_every_check_with_errors(self):
        report = check_numerics(seed=1)
        names = {r.name for r in report.results}
        assert any("projection_jacobian" in n for n in names)
        assert any("bilinear" in n for n in names)
        assert any("lm_step" in n for n in names)
        assert any("residual_jacobian" in n for n in names)
        assert "normal_equations/planes_vs_dense" in names
        for r in report.results:
            assert r.max_error >= 0.0
            assert r.line().startswith("[PASS]") or r.line().startswith("[FAIL]")
        text = report.as_text()
        assert "all checks passed" in text

    def test_injected_yaw_sign_flip_fails_naming_column(self, monkeypatch):
        def flipped(pts_sat, pose, georef):
            jac = d_satproj_d_pose_many(pts_sat, pose, georef).copy()
            jac[:, :, 2] *= -1.0
            return jac

        monkeypatch.setattr(checks, "d_satproj_d_pose_many", flipped)
        report = check_numerics(seed=0)
        assert not report.passed
        failing = [r.name for r in report.results if not r.passed]
        assert any("yaw" in name for name in failing)
        # the untouched columns still pass
        assert all("lateral" not in name for name in failing)
        assert all("longitudinal" not in name for name in failing)

    def test_wrong_yaw_column_in_assembly_exits_5(self, monkeypatch, capsys):
        # the solver's assembly reads u's yaw entry for v's and back
        assemble = solver._normal_equations

        def swapped_yaw_rows(ev, proj_jac, w_points):
            wrong = proj_jac.copy()
            wrong[:, :, 2] = proj_jac[:, ::-1, 2]
            return assemble(ev, wrong, w_points)

        monkeypatch.setattr(solver, "_normal_equations", swapped_yaw_rows)
        assert main(["check-numerics"]) == 5
        failing = [line for line in capsys.readouterr().out.splitlines()
                   if line.startswith("[FAIL]")]
        assert len(failing) == 1 and "normal_equations/planes_vs_dense" in failing[0]

    def test_report_serializable(self):
        import json
        json.dumps(check_numerics(seed=2).to_dict())
