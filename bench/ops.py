"""Workload definitions: seeded inputs, the ops of one pass, and their oracles.

A workload object is built in a worker process after BLAS has been pinned.
`setup()` does the program-side set-up the first op needs (representations,
Clifford tables).  `draw(seed)` makes every input from the workload seed.
`passes(seconds)` is the op count of an untraced run, in passes: `pass_rate`
passes per second of --seconds (one in smoke mode).  It depends on --seconds
only, never on how fast the machine runs, so a seed always gives the same
ops, the same failures and the same rank of the tail percentile.  (Spin's
cycles take 4-5 s each, so its 10 passes at --seconds 10 take ~50 s.)
`reference` names the reference kernel (worker.reference_s) the workload's
times are scaled by, sampled between ops every `ref_every_ns`.
`tail_block` is the op count of the blocks the tail percentile is taken in;
`low_quartile` reports pass time, rate and tail as lower quartiles (upper,
for the rate) over passes or blocks instead of medians.
`pass_ops(k)` lists the ops of pass k as (label, callable, args, meta)
tuples, looking the callables up on their modules at that moment so that
installed trace wrappers are picked up; so does `setup()`, and
`setup_calls` lists the traced calls it must make.
`check(label, args, out, meta)` is the oracle, run outside the timed region;
`perturb(label, out)` returns a deliberately wrong copy of a correct output
that the oracle must reject (None if this output cannot be made wrong that
way; the run then tries a later one).  `known_defect(label, args, out, err,
meta)` tells a failure that is a known, measured defect of the library from
any other; only the latter makes a run incorrect.
"""

from __future__ import annotations

from collections import Counter

import numpy as np

from cayleymap import catalog, clifford as cl, degree, errors
from cayleymap import representation as rm

TOL = 1e-8


def _rel_ok(err: float, scale: float, tol: float = TOL) -> bool:
    return bool(np.isfinite(err)) and err <= tol * (1.0 + scale)


# --- project -----------------------------------------------------------------

PROJECT_REPS = {"full": [("sl", 6), ("sl", 10), ("so", 12), ("gl", 12)], "smoke": [("sl", 3), ("so", 4), ("gl", 3)]}
PROJECT_KINDS = ("generic", "hyperbolic", "unipotent", "cartan")
PROJECT_OPS = ("cayley", "psi", "cayley_jacobian", "adjoint_matrix", "centralizer_dim", "multiplicative_jordan")
POOL = 4


class Workload:
    """Defaults: tail blocks of 500 ops, no set-up calls to check, the small
    reference kernel every 125 ms, medians, no known defect."""

    tail_block = 500
    setup_calls: dict = {}
    reference = "small"
    ref_every_ns = 125_000_000
    low_quartile = False

    def passes(self, seconds: float) -> int:
        return 1 if self.smoke else max(1, round(self.pass_rate * seconds))

    @staticmethod
    def known_defect(label, args, out, err, meta) -> bool:
        return False


def _applies(op: str, kind: str) -> bool:
    # The centralizer oracle (dimension = rank) holds for generic elements.
    # multiplicative_jordan refuses conjugated unipotent samples with the typed
    # ClusterAmbiguity at a seed-dependent rate, so the mix leaves that pair out.
    if op == "centralizer_dim":
        return kind == "generic"
    if op == "multiplicative_jordan":
        return kind != "unipotent"
    return True


def closed_image(family: str, m: np.ndarray) -> np.ndarray:
    """Trace-form projection in closed form: g on gl, trace-free part on sl,
    skew part on so."""
    if family == "gl":
        return m
    if family == "sl":
        return m - (np.trace(m) / m.shape[0]) * np.eye(m.shape[0])
    return 0.5 * (m - m.T)


class Project(Workload):
    pass_rate = 2.0

    def __init__(self, smoke: bool):
        self.keys = PROJECT_REPS["smoke" if smoke else "full"]
        self.smoke = smoke
        self.setup_calls = dict(Counter(f"catalog.make_{fam}" for fam, _ in self.keys))

    def setup(self):
        self.reps = {f"{fam}{n}": getattr(catalog, f"make_{fam}")(n) for fam, n in self.keys}

    def draw(self, seed: int):
        rng = np.random.default_rng(np.random.SeedSequence([seed, 0x9E0]))
        self.samples = {}
        for name, rep in self.reps.items():
            for kind in PROJECT_KINDS:
                self.samples[name, kind] = [
                    catalog.sample_element(rep, kind, int(rng.integers(2**31 - 1))) for _ in range(POOL)
                ]
        combos = [
            (name, kind, op)
            for name in self.reps
            for kind in PROJECT_KINDS
            for op in PROJECT_OPS
            if _applies(op, kind)
        ]
        self.mix = [combos[i] for i in rng.permutation(len(combos))]
        self._oracle = {}

    def pass_ops(self, k: int):
        fns = {
            "cayley": rm.cayley,
            "psi": rm.psi,
            "cayley_jacobian": rm.cayley_jacobian,
            "adjoint_matrix": rm.adjoint_matrix,
            "centralizer_dim": rm.centralizer_dim,
        }
        ops = []
        for name, kind, op in self.mix:
            g = self.samples[name, kind][k % POOL]
            rep = self.reps[name]
            if op == "multiplicative_jordan":
                ops.append((op, rm.multiplicative_jordan, (g,), (name, kind, k % POOL)))
            else:
                ops.append((op, fns[op], (rep, g), (name, kind, k % POOL)))
        return ops

    # -- oracle ---------------------------------------------------------------

    def _coords_solver(self, name):
        """Least-squares coordinates in the basis span, independent of the Gram solve."""
        key = ("pinv", name)
        if key not in self._oracle:
            rep = self.reps[name]
            self._oracle[key] = np.linalg.pinv(rep.stack.reshape(rep.g_dim, -1).T)
        return self._oracle[key]

    def _psi_ref(self, meta):
        """det(g)^n on gl; elsewhere the determinant of an independently built
        Jacobian whose column i is the closed-form image of g B_i."""
        name, kind, idx = meta
        rep = self.reps[name]
        m = self.samples[name, kind][idx].matrix
        family = rep.metadata["family"]
        if family == "gl":
            return complex(np.linalg.det(m)) ** rep.metadata["n"]
        if meta not in self._oracle:
            images = [closed_image(family, m @ b).ravel() for b in rep.basis]
            jac = self._coords_solver(name) @ np.array(images).T
            self._oracle[meta] = complex(np.linalg.det(jac))
        return self._oracle[meta]

    def check(self, label, args, out, meta) -> bool:
        name, kind, idx = meta
        rep = self.reps[name]
        family = rep.metadata["family"]
        m = self.samples[name, kind][idx].matrix
        if label == "cayley":
            ref = closed_image(family, m)
            return _rel_ok(np.linalg.norm(out.matrix() - ref), np.linalg.norm(ref))
        if label in ("psi", "cayley_jacobian"):
            ref = self._psi_ref(meta)
            value = out if label == "psi" else complex(np.linalg.det(out))
            return abs(value - ref) <= TOL * abs(ref)
        if label == "adjoint_matrix":
            # cayley(b x b^-1) = Ad(b) cayley(x), both sides from closed forms
            x = self.samples[name, "generic"][(idx + 1) % POOL].matrix
            solve = self._coords_solver(name)
            lhs = solve @ closed_image(family, m @ x @ np.linalg.inv(m)).ravel()
            rhs = out @ (solve @ closed_image(family, x).ravel())
            return _rel_ok(np.linalg.norm(lhs - rhs), np.linalg.norm(lhs))
        if label == "centralizer_dim":
            return out == rep.metadata["rank"]
        gs, gu = out
        return _rel_ok(np.linalg.norm(gs @ gu - m), np.linalg.norm(m))

    @staticmethod
    def perturb(label, out):
        if label == "cayley":
            return rm.AlgebraVector(out.rep, out.coords + 1e-6)
        if label == "psi":
            return out * (1 + 1e-6)
        if label == "centralizer_dim":
            return out + 1
        if label == "multiplicative_jordan":
            return out[0] * (1 + 1e-6), out[1]
        return out * (1 + 1e-6)


# --- spin --------------------------------------------------------------------

# One op per n in a cycle; a pass is one cycle.
SPIN_NS = {"full": (6, 7, 8, 9, 10), "smoke": (3, 4, 5)}


def random_bivector(n: int, rng) -> cl.CliffordElement:
    """Bivector drawn as `cayleymap spin cayley --random` draws it, then scaled
    so that the sum of |coefficients| is that draw's expected value.

    That sum is the inf-norm of the gamma matrix, which sets how many
    squarings `matrix_exp` does; fixing it gives every op at one n the same
    work, so seeds vary the direction of the bivector and not its cost.
    """
    u = cl.CliffordElement(n)
    for a in range(n):
        for b in range(a + 1, n):
            u.coeffs[(1 << a) | (1 << b)] = 0.4 * (rng.standard_normal() + 1j * rng.standard_normal()) / np.sqrt(2)
    expected = 0.4 * (np.sqrt(np.pi) / 2) * n * (n - 1) / 2
    u.coeffs *= expected / np.abs(u.coeffs).sum()
    return u


def spin_chain(u: cl.CliffordElement):
    """spin_exp -> vector_action -> scalar and bivector parts -> closed form."""
    g = cl.spin_exp(u)
    t = cl.vector_action(g)
    pr0 = cl.spin_scalar(g)
    pr2 = cl.spin_cayley(g)
    closed = None
    if abs(np.linalg.det(np.eye(g.n) + t)) > 1e-9:
        closed = -2.0 * pr0 * cl.tau_inv(cl.cayley_gamma(t))
    return t, pr0, pr2, closed


class Spin(Workload):
    pass_rate = 1.0
    # the reference is the dense product most of the time goes into, sampled
    # after every op (a pass has 5 ops and takes seconds)
    reference = "gemm"
    ref_every_ns = 0
    # A cycle is five ops of fixed cost (random_bivector fixes the work at
    # each n), so the host's contention is the only thing that varies it,
    # and it only ever slows a cycle, for tens of seconds at a time: pass
    # time, rate and tail are taken as the lower quartile over cycles.  Over
    # ten seeds of 8 cycles their spread was 0.11-0.12 as medians and
    # 0.03-0.04 so (0.085 in a noisier hour, hence 10 cycles).
    low_quartile = True

    def __init__(self, smoke: bool):
        self.ns = SPIN_NS["smoke" if smoke else "full"]
        self.smoke = smoke
        # The tail is taken per cycle, where it is the op at the largest n.
        # (Over a whole run it would be the op with 10 slower ones beyond
        # it, a smaller n whenever a run does more than two cycles.)
        self.tail_block = len(self.ns)
        self.setup_calls = {"clifford.tables": len(self.ns)}

    def setup(self):
        for n in self.ns:
            cl.CliffordElement(n)

    def draw(self, seed: int):
        rng = np.random.default_rng(np.random.SeedSequence([seed, 0x5919]))
        self.pool = [[random_bivector(n, rng) for n in self.ns] for _ in range(POOL)]

    def pass_ops(self, k: int):
        return [("spin_chain", spin_chain, (u,), n) for n, u in zip(self.ns, self.pool[k % POOL])]

    @staticmethod
    def check(label, args, out, n) -> bool:
        t, pr0, pr2, closed = out
        if closed is None:
            return False
        ortho = np.linalg.norm(t.T @ t - np.eye(n))
        rhs = complex(np.linalg.det(np.eye(n) + t)) / 2**n
        return (
            _rel_ok(ortho, 0.0)
            and _rel_ok(abs(pr0 * pr0 - rhs), abs(rhs))
            and _rel_ok((pr2 - closed).norm(), closed.norm())
        )

    @staticmethod
    def perturb(label, out):
        t, pr0, pr2, closed = out
        return t, pr0, pr2 + cl.CliffordElement(pr2.n, np.full(1 << pr2.n, 1e-6)), closed


# --- fiber -------------------------------------------------------------------

FIBER_NS = {"full": tuple(range(3, 13)), "smoke": (3, 4, 5)}
FIBER_POOL = 400


def fiber_degree(family: str, n: int) -> int:
    """The mapping degree: n for sl; n for even, n - 1 for odd spin."""
    return n if family == "sl" or n % 2 == 0 else n - 1


class Fiber(Workload):
    pass_rate = 60.0

    def __init__(self, smoke: bool):
        self.ns = FIBER_NS["smoke" if smoke else "full"]
        self.smoke = smoke

    def setup(self):
        pass

    def draw(self, seed: int):
        """Generic targets at scales log-uniform over 1e-4..1e4."""
        rng = np.random.default_rng(np.random.SeedSequence([seed, 0xF1BE7]))
        self.pool = []
        for _ in range(FIBER_POOL):
            ops = []
            for n in self.ns:
                for family in ("sl", "spin"):
                    base = degree.random_trace_free(n, rng) if family == "sl" else degree.random_skew(n, rng)
                    ops.append((family, n, base * 10.0 ** rng.uniform(-4.0, 4.0)))
            self.pool.append(ops)

    def pass_ops(self, k: int):
        fns = {"sl": degree.sl_fiber, "spin": degree.spin_fiber}
        return [(family, fns[family], (n, x), n) for family, n, x in self.pool[k % FIBER_POOL]]

    @staticmethod
    def check(label, args, out, n) -> bool:
        x = args[1]
        eye = np.eye(n)
        if out.count != fiber_degree(label, n):
            return False
        if label == "sl":
            return all(
                _rel_ok(np.linalg.norm(closed_image("sl", e) - x), np.linalg.norm(x)) for e in out.valid_elements
            )
        for t, rot in zip(out.element_roots, out.valid_elements):
            if np.linalg.norm(rot.T @ rot - eye) > 1e-6:
                return False
            if abs(np.linalg.det(eye + rot) - t * t) > 1e-6 * (1.0 + abs(t) ** 2):
                return False
        return True

    @staticmethod
    def known_defect(label, args, out, err, meta) -> bool:
        """The defect of ROADMAP item 4: a wrong count, or sl_fiber refusing a
        large-scale target as degenerate.  Elements that fail their oracle
        under the right count, and any other exception, are not excused."""
        if err is not None:
            return isinstance(err, errors.DegenerateInput)
        return out.count != fiber_degree(label, meta)

    @staticmethod
    def perturb(label, out):
        """Shift every element off the fiber, keeping the count right; None
        when the output has no element to shift."""
        if not out.valid_elements:
            return None
        bad = degree.FiberReport(**vars(out))
        shift = np.zeros_like(out.valid_elements[0])
        shift[0, 1] = 1e-3
        bad.valid_elements = [e + shift * (1.0 + np.linalg.norm(e)) for e in out.valid_elements]
        return bad


WORKLOADS = {"project": Project, "spin": Spin, "fiber": Fiber}
