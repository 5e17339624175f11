import numpy as np

from nsmove.extension import (
    extend_boundary_data,
    extension_norm_report,
    stress_trace_fd,
)
from nsmove.fields import Field, Grid
from nsmove.lagrangian import BoundaryData, transformed_boundary_data
from nsmove.momentum import FluidParams
from nsmove.motion import MotionField, advect_flow_map

from fixed_domain import fixed_map


def unit_square(n=33):
    return Grid((n, n), (0.0, 0.0), (1.0, 1.0))


def zero_data(grid, t=0.0):
    faces = {}
    for face in grid.face_names:
        m = len(grid.face_index(face, closed=True)[0])
        faces[face] = {"d": np.zeros(m), "B": np.zeros(m)}
    return BoundaryData(faces, t)


def extend_raw(bdata, grid, params=FluidParams(mu=1.0, bc="slip")):
    """Extend raw data at t = 0 on the fixed domain: V = 0, its flow map
    and u_ref = 0."""
    return extend_boundary_data(bdata, grid, u_ref=Field.zeros(grid, ncomp=2),
                                V=MotionField.zero(), flow_map=fixed_map(grid, [0.0]),
                                params=params)


def bump(s, lo=0.3, hi=0.7):
    """C^2 bump supported in [lo, hi] along the face coordinate."""
    t = np.clip((s - lo) / (hi - lo), 0.0, 1.0)
    return np.sin(np.pi * t) ** 3


class TestTraces:
    def test_zero_data_zero_field(self):
        g = unit_square(17)
        ext = extend_raw(zero_data(g), g)
        assert np.max(np.abs(ext.field.values)) == 0.0

    def test_normal_trace_reproduced(self):
        g = unit_square(65)
        bd = zero_data(g)
        s = g.axis_coords(0)
        bd.faces["y0"]["d"] = bump(s)
        ext = extend_raw(bd, g)
        flat = np.ravel_multi_index(g.face_index("y0", closed=True), g.shape)
        trace = ext.field.values.reshape(2, -1).T[flat] @ np.array([0.0, -1.0])
        assert np.max(np.abs(trace - bump(s))) <= 1e-8

    def test_support_confined_to_collar(self):
        g = unit_square(65)
        bd = zero_data(g)
        bd.faces["y0"]["d"] = bump(g.axis_coords(0))
        eps = 1.0 / 8.0  # one eighth of the shortest extent
        ext = extend_raw(bd, g)
        assert ext.eps == eps
        pts = g.node_coords()
        outside = pts[:, 1] >= 2 * eps + 1e-12
        vals = ext.field.values.reshape(2, -1).T
        assert np.max(np.abs(vals[outside])) == 0.0
        # decays to zero approaching the collar edge
        band = (pts[:, 1] > 1.5 * eps) & (pts[:, 1] < 2 * eps)
        assert np.max(np.abs(vals[band])) < np.max(np.abs(vals))

    def test_linearity_in_data(self):
        g = unit_square(33)
        s = g.axis_coords(0)
        bd1 = zero_data(g)
        bd1.faces["y0"]["d"] = bump(s)
        bd1.faces["x1"]["B"] = 0.3 * bump(g.axis_coords(1))
        bd2 = zero_data(g)
        bd2.faces["y0"]["B"] = -0.5 * bump(s)
        bd2.faces["y1"]["d"] = 0.2 * bump(s)
        bd_sum = zero_data(g)
        for f in g.face_names:
            bd_sum.faces[f]["d"] = bd1.faces[f]["d"] + bd2.faces[f]["d"]
            bd_sum.faces[f]["B"] = bd1.faces[f]["B"] + bd2.faces[f]["B"]
        params = FluidParams(mu=0.7, kappa=0.4, bc="slip")
        e1 = extend_raw(bd1, g, params)
        e2 = extend_raw(bd2, g, params)
        es = extend_raw(bd_sum, g, params)
        gap = es.field.values - e1.field.values - e2.field.values
        assert np.max(np.abs(gap)) < 1e-13

    def test_scaling_in_data(self):
        g = unit_square(33)
        bd = zero_data(g)
        bd.faces["y0"]["d"] = bump(g.axis_coords(0))
        bd.faces["y0"]["B"] = 0.4 * bump(g.axis_coords(0))
        params = FluidParams(mu=0.5, bc="slip")
        e1 = extend_raw(bd, g, params)
        lam = 3.7
        bd2 = zero_data(g)
        bd2.faces["y0"]["d"] = lam * bd.faces["y0"]["d"]
        bd2.faces["y0"]["B"] = lam * bd.faces["y0"]["B"]
        e2 = extend_raw(bd2, g, params)
        assert np.allclose(e2.field.values, lam * e1.field.values, atol=1e-12)

    def test_stress_trace_zero_context(self):
        # u^b built from raw (d, B): the FD stress reproduces B to round-off
        # at every node of the closed face, not only to O(h). Two reasons:
        # with V = 0 and u_ref = 0 the tangential component is q * P(s),
        # linear in q on the first two node layers (2h <= eps, inside the
        # cutoff plateau), so the one-sided q-stencil is exact; and P's dtau_d uses
        # fields._diff_axis, the same stencil that stress_trace_fd applies
        # through differentiate. The data vanish in the corner collars, so the
        # face blending does not enter. y1 has tau against increasing s
        # (sgn_tau = -1); y0 has tau along it.
        for face, kappa in (("y0", 0.3), ("y1", 0.0)):
            for n in (33, 65):
                g = unit_square(n)
                s = g.axis_coords(0)
                bd = zero_data(g)
                bd.faces[face]["d"] = bump(s)
                bd.faces[face]["B"] = 0.6 * bump(s, 0.25, 0.75)
                params = FluidParams(mu=0.8, kappa=kappa, bc="slip")
                ext = extend_raw(bd, g, params)
                got = stress_trace_fd(ext, g, params, face)
                err = np.max(np.abs(got - bd.faces[face]["B"]))
                assert err <= 1e-12, (face, n, err)


class TestWithContext:
    def setup_context(self, n=65, t=0.2):
        g = unit_square(n)
        V = MotionField.shear(0.6)
        fm = advect_flow_map(V, g, t, t / 40)
        A = np.array([[0.4, -0.1], [0.2, 0.3]])
        u = Field.from_function(g, lambda p: p @ A.T + 0.1, ncomp=2)
        params = FluidParams(mu=0.7, kappa=0.5, bc="slip")
        return g, V, fm, u, params

    def test_consistent_data_trace_and_stress(self):
        g, V, fm, u, params = self.setup_context()
        t = 0.2
        bd = transformed_boundary_data(u, V, fm, t, params)
        ext = extend_boundary_data(bd, g, u_ref=u, V=V, flow_map=fm, params=params)
        for face in g.face_names:
            flat = np.ravel_multi_index(g.face_index(face, closed=True), g.shape)
            from nsmove.fields import FACE_NORMALS
            n_ref = FACE_NORMALS[face]
            trace = ext.field.values.reshape(2, -1).T[flat] @ n_ref
            s = g.axis_coords(1 if face in ("x0", "x1") else 0)
            mid = (s > 0.3) & (s < 0.7)
            # Linear u: both identities close to round-off away from the
            # corners (measured <= 4.4e-15); in the corner collars the data
            # do not vanish and the error is O(0.1).
            assert np.max(np.abs(trace - bd.normal(face))[mid]) <= 1e-12
            got = stress_trace_fd(ext, g, params, face)
            errs = np.abs(got - bd.stress(face))[mid]
            assert np.max(errs) <= 1e-12

    def test_interpolates_only_on_the_collars(self, monkeypatch):
        # each face samples u only at its collar nodes, where the cutoff is
        # positive: four points (q and q/2 along tau and nu) per collar node
        import nsmove.extension as ext_mod
        from nsmove.extension import cutoff_profile

        g, V, fm, u, params = self.setup_context(n=33)
        bd = transformed_boundary_data(u, V, fm, 0.2, params)
        counts = []
        interp = ext_mod.interpolate

        def counting(f, points, out_of_bounds="raise"):
            counts.append(len(points))
            return interp(f, points, out_of_bounds)

        monkeypatch.setattr(ext_mod, "interpolate", counting)
        ext = extend_boundary_data(bd, g, u_ref=u, V=V, flow_map=fm, params=params)
        nodes = g.node_coords()
        collars = []
        for face in g.faces().values():
            coord = nodes[:, face.axis]
            q = (coord - g.lo[face.axis] if face.name.endswith("0")
                 else g.hi[face.axis] - coord)
            collars.append(int(np.count_nonzero(cutoff_profile(q, ext.eps) > 0)))
        assert 0 < max(collars) < g.num_nodes
        assert sum(counts) == 4 * sum(collars)
        assert counts == [4 * c for c in collars]

    def test_monitor_nonincreasing_in_horizon(self):
        g, V, _, u, params = self.setup_context(n=33, t=0.21)
        fm = advect_flow_map(V, g, 0.21, 0.21 / 60)
        monitors = []
        for T in (0.2, 0.1, 0.05):
            times = np.linspace(0.0, T, 5)
            exts = []
            for t in times:
                bd = transformed_boundary_data(u, V, fm, t, params)
                exts.append(extend_boundary_data(bd, g, u_ref=u, V=V,
                                                 flow_map=fm, params=params))
            rep = extension_norm_report(exts, times)
            monitors.append(rep["trajectory_norm"])
        assert monitors[0] >= monitors[1] >= monitors[2]

