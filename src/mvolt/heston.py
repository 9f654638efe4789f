"""Multivariate covariance-modulated log-price model with Fourier pricing.

The instantaneous covariance is the squared Gaussian lift V = X^T X; the
d-dimensional log price P follows

    dP = -1/2 diag(V) dt - sum_r (e^(xi_r) - 1 - xi_r) Tr(V m_r) dt
         + X^T dB + sum_r xi_r (dN_r - Tr(V m_r) dt),
    B  = W rho + sqrt(1 - rho^T rho) Btilde,

with W the same n x d Brownian sheet that drives the lift.  Simulation
keeps the node update exact (:class:`ou.StepOperator`, which knows nothing
of B).  The price reads W only through dB, and this module builds its law:
given the node innovation zeta_a of lift row a, with covariance C and
Cov(dW_a, zeta_a) = cross, cross[c, (j, b)] = F_j(dt) (nu_j)_{cb}, dW_a
has mean gain zeta_a, gain = cross C^+, and covariance dt I - gain cross^T,
so dB_a is Gaussian with mean rho^T gain zeta_a and variance

    sigma_perp^2 = rho^T (dt I - gain cross^T) rho + (1 - rho^T rho) dt.

A step draws one normal per row for dB beside the node normals (exact
conditional-Gaussian sampling; Glasserman 2004, sec. 2.3) and the leverage
correlation survives the exact stepping.  The price itself is an Euler
step (weak error O(dt), every exp(P_i) remains a martingale of the discrete
chain by construction).  The characteristic function delegates to the
node-pair Riccati system, and a strike ladder is priced by a damped inverse
transform along one asset direction from one solve of it.

The draws dominate a simulated block.  They come from one SFC64 stream
per group of ``mc.STREAM_GROUP`` consecutive paths, the streams of
:func:`mc.group_normals`, so a path's samples depend on (seed, path) alone,
and the groups of a pass are filled on several threads (NumPy's Generator
fills release the GIL): each group by one thread, in its own order, so the
samples do not depend on the thread count.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cache

import numpy as np

from .measures import AtomicMatrixMeasure, check_psd, decay_integral
from .mc import _GROUP_STREAMS, STREAM_GROUP, _usable_cpus, path_rng, run_path_blocks
from .ou import StepOperator, _psd_factor, node_covariance
from .riccati import solve_joint_riccati_heston


@dataclass(frozen=True)
class HestonModelSpec:
    """Covariance measure, initial lift data, correlation and price jumps."""

    measure: AtomicMatrixMeasure
    gamma0: np.ndarray                 # (k, n, d)
    rho: np.ndarray                    # (d,)
    p0: np.ndarray                     # (d,)
    jump_atoms: np.ndarray = None      # (J, d) price jump sizes
    jump_weights: np.ndarray = None    # (J, d, d) PSD intensity weights

    def __post_init__(self):
        k, d = self.measure.k, self.measure.d
        g = np.array(self.gamma0, dtype=float)
        if g.ndim != 3 or g.shape[0] != k or g.shape[1] < 1 or g.shape[2] != d:
            raise ValueError(f"gamma0 must be (k={k}, n >= 1, d={d}), got {g.shape}")
        rho = np.array(self.rho, dtype=float).reshape(-1)
        if rho.size != d:
            raise ValueError(f"rho must have length d={d}")
        p0 = np.array(self.p0, dtype=float).reshape(-1)
        if p0.size != d:
            raise ValueError(f"p0 must have length d={d}")
        ja = np.zeros((0, d)) if self.jump_atoms is None else np.atleast_2d(
            np.array(self.jump_atoms, dtype=float)
        )
        jw = np.zeros((0, d, d)) if self.jump_weights is None else np.array(
            self.jump_weights, dtype=float
        )
        if ja.ndim != 2 or ja.shape[1] != d or jw.shape != (ja.shape[0], d, d):
            raise ValueError(f"need jump atoms of shape (J, {d}) and one {d} x {d} "
                             f"weight per atom, got atoms {ja.shape} and weights {jw.shape}")
        for name, a in (("gamma0", g), ("rho", rho), ("p0", p0), ("jump atoms", ja),
                        ("jump weights", jw)):
            if not np.all(np.isfinite(a)):
                raise ValueError(f"{name} entries must be finite")
        if rho @ rho > 1.0 + 1e-12:
            raise ValueError("rho^T rho must not exceed 1")
        # the simulator clips the rate Tr(V m_r) at 0 and the Riccati does
        # not, so the two model one law only while every rate is >= 0
        check_psd(jw, "jump weight")
        for a in (g, rho, p0, ja, jw):
            a.setflags(write=False)
        object.__setattr__(self, "gamma0", g)
        object.__setattr__(self, "rho", rho)
        object.__setattr__(self, "p0", p0)
        object.__setattr__(self, "jump_atoms", ja)
        object.__setattr__(self, "jump_weights", jw)

    @property
    def d(self) -> int:
        return self.measure.d

    @property
    def n(self) -> int:
        return self.gamma0.shape[1]

    @property
    def n_jumps(self) -> int:
        return self.jump_atoms.shape[0]


def _poisson_from_uniform(u: np.ndarray, mu: np.ndarray) -> np.ndarray:
    """Exact Poisson counts by CDF inversion of per-path uniforms.

    count = #{j >= 0 : u > CDF(j)}, accumulated level by level; the loop
    runs only as deep as the largest count drawn.
    """
    counts = np.zeros(np.broadcast(u, mu).shape)
    term = np.exp(-mu) * np.ones_like(counts)
    cdf = term.copy()
    j = 0
    active = u > cdf
    while np.any(active):
        counts += active
        j += 1
        if j > 1000:
            raise FloatingPointError("Poisson inversion runaway (rate too large)")
        term = term * mu / j
        cdf = cdf + term
        active = u > cdf
    return counts


def _sum_rows(a: np.ndarray) -> np.ndarray:
    """a.sum(axis=1) bit for bit, rows added in order, in one buffer."""
    out = a[:, 0].copy()
    for i in range(1, a.shape[1]):
        out += a[:, i]
    return out


# Draws each path makes per pass of a block: a pass draws the next
# CHUNK_DRAWS // (_draws_per_step + J) steps (at least one) of every path.
# A block whose passes draw fewer than CHUNK_DRAWS // 2 per path stays on
# one thread: the pool's start-up and hand-offs cost it 0.3 ms.  1024 paths
# of 10 draws a step on SFC64 streams, median ms on one thread and on two
# (2-vCPU Xeon, two series of 20 alternating pairs): 1 step 0.28-0.36 and
# 0.51-0.63, 4 steps 0.8-1.0 and 1.0-1.3, 16 steps 3.3-3.7 and 3.5-3.8,
# 51 steps 14.5-14.6 and 14.8-15.3, two winning at most 9 of 20 pairs
# below the floor; a full pass of 102 steps took 25-30 ms on either.  On
# Philox streams such a pass filled 1.4-1.8x faster on two while the
# second vCPU was free.
CHUNK_DRAWS = 1024


def step_times(horizon: float, n_steps: int) -> np.ndarray:
    """The grid 0, dt, ..., horizon of n_steps >= 1 steps over a positive,
    finite horizon."""
    if not 0.0 < horizon < np.inf:
        raise ValueError(f"horizon T must be positive and finite, got {horizon}")
    if n_steps < 1:
        raise ValueError(f"need at least one step, got n_steps = {n_steps}")
    return np.linspace(0.0, horizon, n_steps + 1)


class HestonSimulator:
    """Vectorized terminal-state simulator for (P_T, auxiliary records).

    A block's lift state is one contiguous (B n, k d) array: row (b, a) holds
    row a of every node matrix of path b, node by node, which is the layout
    of the node innovations themselves.  Each linear map of a step is then
    one flat 2-D product, and the constant ones are folded here, once:

    - ``_sum_nodes`` = 1_k (x) I_d (k d, d), so X = gamma @ _sum_nodes, and
      the node update is :meth:`ou.StepOperator.step` on these rows, the
      step of the Gaussian lift itself;
    - ``_db_map`` (draws, n), dB from a step's raw draws: the n r node
      draws (r = rank of ``noise_factor``, (k d, r)) through
      noise_factor^T gain^T rho, the conditional mean, and sigma_perp on
      the one dB draw of each row, the rest of its law.

    Path p lies in group g = p // ``STREAM_GROUP`` and draws from the
    group's stream ``path_rng(seed, 2**32 + g)``, the stream of
    :func:`mc.group_normals`, in chunks of S = ``_chunk_steps`` =
    CHUNK_DRAWS // (_draws_per_step + J) steps (at least one, at most
    n_steps), J the number of price jump atoms: in each pass every group
    the block touches draws a (STREAM_GROUP, s, _draws_per_step) normal
    array for the next s <= S steps and then, with price jumps, a
    (STREAM_GROUP, s, J) uniform array, and path p takes row
    p % STREAM_GROUP of both; the steps run over them, and the last chunk
    is ragged.  The counts of a pass do not depend on the block, so a
    path's samples depend on (seed, p) alone.  The buffers hold G x
    STREAM_GROUP x CHUNK_DRAWS doubles at most, G the groups touched,
    whatever the horizon; a ragged pass uses their prefix.

    The G groups of a pass are split into T = min(usable CPUs, G)
    contiguous ranges: the calling thread fills the first, T - 1 threads of
    a pool that lives for the call fill the others.  A block inside one
    group, or whose passes draw fewer than CHUNK_DRAWS // 2 per path,
    starts no pool.  A group is filled by one thread from its own
    Generator in the order above, so the samples are bitwise equal for every
    T.  The streams are built on the calling thread, one ``path_rng`` per
    group, and the pool threads call only the Generators' fill methods: the
    benchmark's tracing wraps ``path_rng`` with spans on one stack, which is
    not thread-safe.
    """

    def __init__(self, model: HestonModelSpec, horizon: float, n_steps: int,
                 record_times: np.ndarray | None = None,
                 record_variance: bool = False):
        self.model = model
        self.horizon = float(horizon)
        self.n_steps = int(n_steps)
        times = step_times(self.horizon, self.n_steps)
        self.dt = self.horizon / self.n_steps
        # the step's decay integrals take (x_i + x_j) dt on every node pair
        if 2.0 * float(model.measure.nodes[-1]) * self.dt == np.inf:
            raise OverflowError(f"step dt = {self.dt:.6g} overflows the decay of node "
                                f"x = {model.measure.nodes[-1]:.6g} (2 x dt = inf)")
        self.op = StepOperator.build(model.measure, self.dt)
        if record_times is None:
            record_times = times[-1:]
        self.record_times = np.asarray(record_times, dtype=float)
        self.record_idx = []
        for rt in self.record_times:
            m = int(round(rt / self.dt))
            if not (0 <= m <= self.n_steps
                    and abs(times[m] - rt) <= 1e-9 * max(self.horizon, 1.0)):
                raise ValueError("record times must lie on the step grid [0, T]")
            self.record_idx.append(m)
        if np.any(np.diff(self.record_idx) < 0):
            raise ValueError("record times must be non-decreasing")
        self.record_variance = bool(record_variance)

        n, d, k = model.n, model.d, model.measure.k
        measure, rho = model.measure, model.rho
        # the law of dW_a given the node innovation of row a (module docstring)
        F = decay_integral(measure.nodes, self.dt)  # (k,)
        cross = np.einsum("j,jcb->cjb", F, measure.weights).reshape(d, k * d)
        gain = cross @ np.linalg.pinv(node_covariance(measure, self.dt), rcond=1e-12,
                                      hermitian=True)
        cond_factor = _psd_factor(self.dt * np.eye(d) - gain @ cross.T)
        rho_orth = float(np.sqrt(max(1.0 - rho @ rho, 0.0)))
        # sd of dB_a given the node innovation of row a: the W part left
        # after conditioning, and the Btilde part
        sigma_perp = float(np.hypot(np.linalg.norm(cond_factor.T @ rho),
                                    rho_orth * np.sqrt(self.dt)))
        self._sum_nodes = np.tile(np.eye(d), (k, 1))
        eye_n = np.eye(n)
        self._db_map = np.concatenate([
            np.kron(eye_n, (self.op.noise_factor.T @ (gain.T @ rho))[:, None]),
            sigma_perp * eye_n,
        ])
        self._gamma0 = model.gamma0.transpose(1, 0, 2).reshape(n, k * d)
        # V (B, d^2) @ _jump_trace = Tr(V m_r); the compensator and the
        # -xi_r Tr(V m_r) dt term of dP fold into (e^(xi_r) - 1) dt
        self._jump_trace = model.jump_weights.reshape(model.n_jumps, d * d).T
        self._jump_comp = np.expm1(model.jump_atoms) * self.dt

    @property
    def _draws_per_step(self) -> int:
        """n r node draws (r = rank of the step's noise_factor) and one dB
        draw per lift row."""
        n = self.model.n
        return n * self.op.noise_factor.shape[1] + n

    @property
    def _chunk_steps(self) -> int:
        """Steps drawn per pass."""
        draws = self._draws_per_step + self.model.n_jumps
        return min(max(CHUNK_DRAWS // draws, 1), self.n_steps)

    def __call__(self, seed: int, start: int, stop: int) -> np.ndarray:
        """Samples of shape (paths, len(record_times), d), the log prices;
        with ``record_variance`` the last axis doubles to [P, diag V]."""
        # One path_rng per group, in group order on the calling thread: the
        # kind 1 streams of mc.group_streams, built here because the
        # benchmark's tracing wraps mvolt.heston.path_rng by name.
        rngs = [path_rng(seed, _GROUP_STREAMS + g)
                for g in range(start // STREAM_GROUP, -(-stop // STREAM_GROUP))]
        rows = slice(start % STREAM_GROUP, start % STREAM_GROUP + stop - start)
        threads = min(_usable_cpus(), len(rngs))
        pass_draws = self._chunk_steps * (self._draws_per_step + self.model.n_jumps)
        if threads == 1 or pass_draws < CHUNK_DRAWS // 2:
            return self._simulate(rngs, rows, None, 1)
        # imported here: a block that stays on one thread never loads the pool
        from concurrent.futures.thread import ThreadPoolExecutor

        with ThreadPoolExecutor(threads - 1) as pool:
            return self._simulate(rngs, rows, pool, threads)

    def _simulate(self, rngs: list, rows: slice, pool, threads: int) -> np.ndarray:
        """The samples of the block's ``rows`` of the groups that draw from
        ``rngs``; the groups of each pass are split into ``threads``
        ranges, and ``pool`` (None for one thread) takes those beyond the
        calling thread's."""
        model = self.model
        n, d, r = model.n, model.d, self.op.noise_factor.shape[1]
        J = model.n_jumps
        B = rows.stop - rows.start
        G = len(rngs)
        edges = [G * i // threads for i in range(threads + 1)]
        S, draws = self._chunk_steps, self._draws_per_step
        gauss_buf = np.empty(G * STREAM_GROUP * S * draws)
        unif_buf = np.empty(G * STREAM_GROUP * S * J)

        def fill(lo, hi, gauss, unif):
            """Draw the next steps of groups [lo, hi): each group's normals,
            then its uniforms, from its own stream."""
            for g in range(lo, hi):
                rngs[g].standard_normal(out=gauss[g])
                if J:
                    rngs[g].random(out=unif[g])

        half_dt = 0.5 * self.dt
        gamma = np.tile(self._gamma0, (B, 1))            # (B n, k d)
        P = np.broadcast_to(model.p0, (B, d)).copy()
        width = 2 * d if self.record_variance else d
        out = np.empty((B, len(self.record_times), width))

        def record(pos):
            out[:, pos, :d] = P
            if self.record_variance:
                X = gamma @ self._sum_nodes
                out[:, pos, d:] = _sum_rows((X * X).reshape(B, n, d))

        rec_pos = 0
        while rec_pos < len(self.record_idx) and self.record_idx[rec_pos] == 0:
            record(rec_pos)
            rec_pos += 1

        for m in range(self.n_steps):
            j = m % S
            if j == 0:
                s = min(S, self.n_steps - m)
                # prefix views, so the block's rows below stay views
                gauss = gauss_buf[:G * STREAM_GROUP * s * draws].reshape(
                    G, STREAM_GROUP, s, draws)
                unif = unif_buf[:G * STREAM_GROUP * s * J].reshape(G, STREAM_GROUP, s, J)
                futures = [pool.submit(fill, lo, hi, gauss, unif)
                           for lo, hi in zip(edges[1:-1], edges[2:])]
                fill(0, edges[1], gauss, unif)
                for future in futures:
                    future.result()
                gauss_rows = gauss.reshape(G * STREAM_GROUP, s, draws)[rows]
                unif_rows = unif.reshape(G * STREAM_GROUP, s, J)[rows]
            z = gauss_rows[:, j]                          # (B, draws)
            z_node = z[:, :n * r].reshape(B * n, r)
            X = gamma @ self._sum_nodes                   # (B n, d)
            dB = (z @ self._db_map).reshape(B * n, 1)
            # X^T dB - 1/2 diag(V) dt in one contraction over the n rows
            P += _sum_rows((X * (dB - half_dt * X)).reshape(B, n, d))
            if J:
                X3 = X.reshape(B, n, d)
                V = _sum_rows(X3[:, :, :, None] * X3[:, :, None, :])
                rates = np.clip(V.reshape(B, d * d) @ self._jump_trace, 0.0, None)
                counts = _poisson_from_uniform(unif_rows[:, j], rates * self.dt)
                P += counts @ model.jump_atoms - rates @ self._jump_comp
            self.op.step(gamma, z_node)
            while rec_pos < len(self.record_idx) and self.record_idx[rec_pos] == m + 1:
                record(rec_pos)
                rec_pos += 1
        return out


def simulate_heston_terminal(
    model: HestonModelSpec,
    horizon: float,
    n_steps: int,
    n_paths: int,
    seed: int,
    workers: int = 1,
    record_times=None,
    record_variance: bool = False,
) -> np.ndarray:
    """Log-price samples of shape (n_paths, len(record_times), d).

    With ``record_variance`` the last axis carries [P, diag V] (width 2 d).
    """
    sim = HestonSimulator(model, horizon, n_steps, record_times,
                          record_variance=record_variance)
    return run_path_blocks(sim, n_paths, seed, workers=workers)


def char_function(model: HestonModelSpec, v, t: float, n_steps: int = 400):
    """E[exp(i v^T P_t)] through the node-pair Riccati system.

    ``v`` is one real d-vector or a batch (B, d); complex v is accepted for
    damped-transform use (the argument passed down is w = i v).  The
    transform is exact; ``n_steps`` is the floor on 2^J for the J doublings
    of its flow map (:func:`riccati.solve_joint_riccati_heston`), so the cost
    grows with log2 n_steps.  A non-finite v raises ValueError.
    """
    v_arr = np.asarray(v)
    single = v_arr.ndim == 1
    # i inf is nan + inf i, which the solver rejects: no warning on the way
    with np.errstate(invalid="ignore"):
        w = 1j * np.atleast_2d(v_arr)
    res = solve_joint_riccati_heston(
        w,
        model.measure,
        model.gamma0,
        model.rho,
        float(t),
        price_jump_atoms=model.jump_atoms,
        price_jump_weights=model.jump_weights,
        p0=model.p0,
        n_steps=n_steps,
    )
    return complex(res.char[0]) if single else res.char


# Slack of the no-arbitrage check in fourier_price_call, in units of the
# forward e^(p0_asset), on top of the truncation error.
PRICE_BOUND_TOL = 1e-6


@cache
def _legendre_rule() -> tuple[np.ndarray, np.ndarray]:
    """The 64-point Gauss-Legendre rule on [-1, 1], computed at first use."""
    nodes, weights = np.polynomial.legendre.leggauss(64)
    nodes.setflags(write=False)
    weights.setflags(write=False)
    return nodes, weights


@dataclass(frozen=True)
class CallPrice:
    price: float | np.ndarray
    strike: float | np.ndarray
    maturity: float
    asset: int
    damping: float
    truncation_error: float | np.ndarray


def fourier_price_call(
    model: HestonModelSpec,
    asset: int,
    strike,
    maturity: float,
    alpha: float = 1.5,
    v_max: float = 200.0,
    n_quad: int = 2048,
    riccati_steps: int = 400,
) -> CallPrice:
    """European calls on exp(P_asset) by the damped inverse transform.

    price = e^(-alpha kappa) / pi * int_0^inf Re[e^(-i v kappa) Phi(v - i
    (alpha + 1)) / (alpha^2 + alpha - v^2 + i (2 alpha + 1) v)] dv with
    kappa = log strike and Phi the marginal characteristic function of
    P_asset.  Phi does not depend on the strike, so a 1-D strike ladder is
    priced from one batched solve (price, strike and truncation_error come
    back as arrays; a float strike gives floats).  The damping strip is
    probed in that solve: Phi(-i (alpha + 1)) is the (alpha + 1) exponential
    moment and must be finite.  The truncation error integrates the envelope
    of the last decade of the quadrature range, in price units (scaled by
    e^(-alpha kappa) / pi like the price).  ``riccati_steps`` is the
    ``n_steps`` floor of :func:`char_function`.

    Raises ValueError ("retry with a smaller alpha") when the probe fails
    or a price leaves the no-arbitrage bounds [(F - K)^+, F], F = e^(p0_asset)
    (e^P is a martingale), by more than its truncation error plus
    ``PRICE_BOUND_TOL`` F = 1e-6 F: too large an alpha can pass the probe
    and still ruin the quadrature.  A price inside the bounds is not proof
    of accuracy.  The maturity must be positive and finite.
    """
    strikes = np.array(strike, dtype=float)
    if strikes.ndim > 1 or strikes.size == 0:
        raise ValueError("strike must be a float or a non-empty 1-D ladder")
    for k in strikes.reshape(-1):
        if not 0.0 < k < np.inf:
            raise ValueError(f"strike must be positive and finite, got {k}")
    if not 0.0 < alpha < np.inf:
        raise ValueError(f"damping alpha must be positive and finite, got {alpha}")
    if not 0.0 < maturity < np.inf:
        raise ValueError(f"maturity must be positive and finite, got {maturity}")
    if not 0 <= asset < model.d:
        raise ValueError(f"asset must lie in [0, {model.d}), got {asset}")
    e_i = np.eye(model.d)[asset]
    ladder = strikes.reshape(-1)
    kappa = np.log(ladder)
    # Gauss-Legendre panels on [0, v_max]
    nodes, weights = _legendre_rule()
    n_panels = max(n_quad // 64, 8)
    edges = np.linspace(0.0, v_max, n_panels + 1)
    vs = np.concatenate(
        [0.5 * (a + b) + 0.5 * (b - a) * nodes for a, b in zip(edges[:-1], edges[1:])]
    )
    ws = np.concatenate(
        [0.5 * (b - a) * weights for a, b in zip(edges[:-1], edges[1:])]
    )
    # row 0 is the strip probe: the moment of order alpha + 1 must exist
    varg = np.concatenate([[0.0], vs]) - 1j * (alpha + 1.0)
    try:
        phi = char_function(model, varg[:, None] * e_i[None, :], maturity,
                            n_steps=riccati_steps)
        if not np.isfinite(phi[0].real):
            raise FloatingPointError(f"Phi(-i (alpha + 1)) = {phi[0]}")
    except FloatingPointError as exc:
        raise ValueError(
            f"damping alpha = {alpha} is outside the finite-moment strip "
            f"({exc}); retry with a smaller alpha"
        ) from exc
    phi = phi[1:]
    denom = alpha**2 + alpha - vs**2 + 1j * (2.0 * alpha + 1.0) * vs
    integrand = np.exp(-1j * vs * kappa[:, None]) * phi / denom
    integral = np.sum(ws * integrand.real, axis=1)
    tail_mask = vs > 0.9 * v_max
    scale = np.exp(-alpha * kappa) / np.pi
    tail = scale * float(np.sum(np.abs(phi[tail_mask] / denom[tail_mask]) * ws[tail_mask]))
    price = scale * integral
    forward = float(np.exp(model.p0[asset]))
    low = np.maximum(forward - ladder, 0.0)
    slack = tail + PRICE_BOUND_TOL * forward
    outside = ~((price >= low - slack) & (price <= forward + slack))
    if outside.any():
        j = int(np.flatnonzero(outside)[0])
        raise ValueError(
            f"call price {price[j]:.6g} at strike {ladder[j]:.6g} leaves the "
            f"no-arbitrage bounds [{low[j]:.6g}, {forward:.6g}] by more than the "
            f"truncation error {tail[j]:.3g} + {PRICE_BOUND_TOL:g} * forward "
            f"(damping alpha = {alpha}); retry with a smaller alpha"
        )
    if strikes.ndim == 0:
        price, strikes, tail = float(price[0]), float(strikes), float(tail[0])
    return CallPrice(
        price=price,
        strike=strikes,
        maturity=float(maturity),
        asset=int(asset),
        damping=float(alpha),
        truncation_error=tail,
    )
