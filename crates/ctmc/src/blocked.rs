//! Captured rate tables and the cache-blocked MBD sweep kernel.
//!
//! The scalar kernel, [`crate::mbd::solve_mbd_projected_inplace_ws`],
//! is matrix-free: every sweep re-derives birth/death rates through
//! virtual calls (four per level per phase for the tridiagonal assembly
//! alone) and re-enumerates the phase transition structure through
//! `for_each_phase_incoming` closures. On the GPRS chain each of those
//! calls decodes a flat phase index into `(n, m, r)` with divisions and
//! walks a branchy service-rate formula — work that is identical across
//! the tens of sweeps of a solve and across the residual passes.
//!
//! [`BlockedMbd`] hoists all of it: one capture pass materializes the
//! birth and death rates as per-phase rows of `levels` entries, and the
//! incoming phase transitions as a small CSR. Rows are deduplicated by
//! their bit patterns: each distinct row is stored once and every phase
//! carries a `u32` row id. On the GPRS chain birth rates depend on the
//! phase only through `(n, m − r)` and death rates only through `n`, so
//! Fig. 10's 218,044-phase chain keeps 2,531 birth rows and 19 death
//! rows, and the tables stay cache-resident however large the chain.
//!
//! [`solve_mbd_projected_blocked_ws`] then runs the same block
//! Gauss–Seidel / Thomas sweep as the scalar kernel, but with every
//! inner loop a contiguous, branch-free slice scan the compiler can
//! unroll and vectorize. The floating-point operations and their order
//! are **exactly** those of the scalar kernel, and the rates read are
//! bit-identical to the source's, so blocked and scalar solves are
//! bit-identical — pinned by the tests below and by `gprs_core`'s
//! template tests. Every production solve runs this kernel; the scalar
//! kernel is kept only as the oracle of those tests.
//!
//! Capture costs about one sweep's worth of rate evaluations and is
//! repaid within the first sweep; for repeated same-shape solves the
//! tables are refilled in place.

// Indexed loops mirror the scalar kernel they must match bit-for-bit.
#![allow(clippy::needless_range_loop)]

use crate::error::CtmcError;
use crate::mbd::{
    project_onto_marginal, solve_single_birth_death, validate_phase_marginal, ModulatedBirthDeath,
};
use crate::solver::{HealthGuard, Relaxation, SolveOptions, SolveStats, SolveWorkspace};

/// Always `true`: every template and model solve runs the blocked
/// kernel.
///
/// The scalar kernel, [`crate::mbd::solve_mbd_projected_inplace_ws`],
/// is kept only as the oracle of the bitwise tests, and no environment
/// variable selects it. This constant survives for one caller, the
/// repository benchmark, which records it in its report; the next
/// change to the benchmark deletes that call and this function.
pub fn blocked_kernel_enabled() -> bool {
    true
}

/// Per-phase rate rows with each distinct row stored once.
///
/// Rows are compared by the bit patterns of all their entries, so two
/// rows that differ only in the sign of a zero stay distinct and every
/// value read back is bit-identical to the value captured. Row ids are
/// assigned in first-seen phase order.
#[derive(Clone, Default)]
struct RowTable {
    /// Distinct rows, `levels` entries each, by row id.
    rows: Vec<f64>,
    /// Row id of each phase.
    ids: Vec<u32>,
    /// Hash of each distinct row, by row id.
    hashes: Vec<u64>,
    /// Capture-time lookup: open addressing over a power-of-two table
    /// of `row id + 1`, 0 marking an empty slot. Kept across captures
    /// so a recapture reuses its storage.
    slots: Vec<u32>,
}

impl RowTable {
    /// Empties the table for a capture of `phases` phases.
    fn clear(&mut self, phases: usize) {
        self.rows.clear();
        self.ids.clear();
        self.ids.reserve(phases);
        self.hashes.clear();
        self.slots.fill(0);
    }

    /// Number of distinct rows.
    fn distinct(&self) -> usize {
        self.hashes.len()
    }

    /// The row of phase `p`.
    #[inline]
    fn row(&self, p: usize, levels: usize) -> &[f64] {
        let start = self.ids[p] as usize * levels;
        &self.rows[start..start + levels]
    }

    /// Appends the next phase's row: the `levels` values evaluated by
    /// `rate`, interned against the rows seen so far.
    fn push_row(&mut self, levels: usize, rate: impl Fn(usize) -> f64) {
        if self.slots.is_empty() {
            self.grow();
        }
        let start = self.rows.len();
        self.rows.extend((0..levels).map(rate));
        let row = &self.rows[start..];
        let hash = row_hash(row);
        let mask = self.slots.len() - 1;
        let mut slot = slot_of(hash, mask);
        while self.slots[slot] != 0 {
            let id = self.slots[slot] as usize - 1;
            let seen = &self.rows[id * levels..(id + 1) * levels];
            if self.hashes[id] == hash && bitwise_eq(seen, row) {
                self.rows.truncate(start);
                self.ids.push(id as u32);
                return;
            }
            slot = (slot + 1) & mask;
        }
        let id = self.hashes.len();
        self.hashes.push(hash);
        self.ids.push(id as u32);
        if 2 * self.hashes.len() > self.slots.len() {
            self.grow();
        } else {
            self.slots[slot] = id as u32 + 1;
        }
    }

    /// Doubles the lookup table and re-inserts every row id.
    fn grow(&mut self) {
        let len = (2 * self.slots.len()).max(16);
        self.slots.clear();
        self.slots.resize(len, 0);
        let mask = len - 1;
        for (id, &hash) in self.hashes.iter().enumerate() {
            let mut slot = slot_of(hash, mask);
            while self.slots[slot] != 0 {
                slot = (slot + 1) & mask;
            }
            self.slots[slot] = id as u32 + 1;
        }
    }
}

/// Prints the stored rows and per-phase ids, not the lookup scratch.
impl std::fmt::Debug for RowTable {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("RowTable")
            .field("rows", &self.rows)
            .field("ids", &self.ids)
            .finish_non_exhaustive()
    }
}

fn row_hash(row: &[f64]) -> u64 {
    const K: u64 = 0x9e37_79b9_7f4a_7c15;
    row.iter().fold(row.len() as u64, |h, x| {
        (h.rotate_left(5) ^ x.to_bits()).wrapping_mul(K)
    })
}

fn slot_of(hash: u64, mask: usize) -> usize {
    (hash ^ (hash >> 32)) as usize & mask
}

fn bitwise_eq(a: &[f64], b: &[f64]) -> bool {
    a.iter().zip(b).all(|(x, y)| x.to_bits() == y.to_bits())
}

/// Captured rate tables of a [`ModulatedBirthDeath`] chain.
///
/// Built by [`capture`](Self::capture) from any MBD implementation and
/// consumed by [`solve_mbd_projected_blocked_ws`] /
/// [`solve_mbd_projected_blocked_inplace_ws`]. Also implements
/// [`ModulatedBirthDeath`] itself (pure table lookups), so anything
/// generic over the trait can run on the captured tables.
#[derive(Debug, Clone, Default)]
pub struct BlockedMbd {
    phases: usize,
    levels: usize,
    /// Birth rates, one deduplicated row of `levels` entries per phase.
    birth: RowTable,
    /// Death rates, one deduplicated row of `levels` entries per phase.
    death: RowTable,
    /// Per-phase exit rate (`phase_exit_rate`), captured once.
    exit: Vec<f64>,
    /// Incoming phase-transition CSR: sources of phase `p` are
    /// `in_src[in_ptr[p]..in_ptr[p + 1]]`, in exactly the
    /// `for_each_phase_incoming` visitation order.
    in_ptr: Vec<usize>,
    in_src: Vec<u32>,
    in_rate: Vec<f64>,
}

impl BlockedMbd {
    /// An empty table set; buffers grow on first capture.
    pub fn new() -> Self {
        Self::default()
    }

    /// Number of phases captured (0 before the first capture).
    pub fn num_phases(&self) -> usize {
        self.phases
    }

    /// Number of levels captured (0 before the first capture).
    pub fn num_levels(&self) -> usize {
        self.levels
    }

    /// Numbers of distinct `(birth, death)` rows the last capture
    /// stored: phases whose rows are bitwise equal share one copy.
    pub fn distinct_rows(&self) -> (usize, usize) {
        (self.birth.distinct(), self.death.distinct())
    }

    /// Birth rates of phase `p`, one per level.
    #[inline]
    fn birth_of(&self, p: usize) -> &[f64] {
        self.birth.row(p, self.levels)
    }

    /// Death rates of phase `p`, one per level.
    #[inline]
    fn death_of(&self, p: usize) -> &[f64] {
        self.death.row(p, self.levels)
    }

    /// (Re)captures the rate tables from `gen`. Allocations are reused
    /// across captures: refilling for a new parameter point on the same
    /// shape allocates only when the point has more distinct rate rows
    /// than any earlier capture held. Cost is one rate evaluation per
    /// table entry — about one sweep's worth of the work it then saves
    /// on every sweep.
    pub fn capture<G: ModulatedBirthDeath + ?Sized>(&mut self, gen: &G) {
        let p_count = gen.num_phases();
        let l_count = gen.num_levels();
        assert!(
            p_count <= u32::MAX as usize,
            "phase count exceeds u32 source index range"
        );
        self.phases = p_count;
        self.levels = l_count;

        self.birth.clear(p_count);
        self.death.clear(p_count);
        for p in 0..p_count {
            self.birth.push_row(l_count, |l| gen.birth_rate(p, l));
            self.death.push_row(l_count, |l| gen.death_rate(p, l));
        }

        self.exit.clear();
        self.exit.reserve(p_count);
        for p in 0..p_count {
            self.exit.push(gen.phase_exit_rate(p));
        }

        // The first capture counts the edges so the edge arrays are
        // allocated once at their final size: grown by doubling
        // instead, the outgrown buffers stay resident as allocator
        // holes. Recaptures reuse that capacity.
        if self.in_src.capacity() == 0 {
            let mut edges = 0usize;
            for p in 0..p_count {
                gen.for_each_phase_incoming(p, &mut |_, _| edges += 1);
            }
            self.in_src.reserve_exact(edges);
            self.in_rate.reserve_exact(edges);
        }
        self.in_ptr.clear();
        self.in_ptr.reserve(p_count + 1);
        self.in_src.clear();
        self.in_rate.clear();
        self.in_ptr.push(0);
        for p in 0..p_count {
            gen.for_each_phase_incoming(p, &mut |q, rate| {
                self.in_src.push(q as u32);
                self.in_rate.push(rate);
            });
            self.in_ptr.push(self.in_src.len());
        }
    }

    /// Re-evaluates only the **phase-coupling rates** (the incoming
    /// phase-transition CSR values and the per-phase exit rates) from
    /// `gen`, keeping the captured birth/death tables and the CSR
    /// pattern untouched.
    ///
    /// This is the cheap recapture for fixed-point iterations that
    /// re-solve the *same* chain under moving phase-arrival rates (the
    /// cluster handover balance): between outer iterations only the
    /// handover arrival terms move, and those enter exclusively through
    /// phase transitions — births (packet arrivals) and deaths (packet
    /// services) do not depend on them. The birth/death tables are not
    /// re-read, so the caller must only use this when they cannot have
    /// moved; `gprs_core`'s generator template checks that by taking
    /// this path only when the cell configuration is bitwise equal to
    /// the one of its last full capture. Under that contract the
    /// refreshed tables are **bit-identical** to a full
    /// [`capture`](Self::capture) of the same generator, at a fraction
    /// of the rate evaluations.
    ///
    /// # Panics
    ///
    /// If no capture happened yet, or `gen`'s phase dimensions or
    /// incoming-edge pattern do not match the captured ones.
    pub fn recapture_phase_rates<G: ModulatedBirthDeath + ?Sized>(&mut self, gen: &G) {
        assert!(
            self.phases == gen.num_phases() && self.levels == gen.num_levels(),
            "recapture_phase_rates: phase table shape mismatch"
        );
        for p in 0..self.phases {
            self.exit[p] = gen.phase_exit_rate(p);
            let mut e = self.in_ptr[p];
            let end = self.in_ptr[p + 1];
            gen.for_each_phase_incoming(p, &mut |q, rate| {
                assert!(
                    e < end && self.in_src[e] as usize == q,
                    "recapture_phase_rates: incoming-edge pattern changed"
                );
                self.in_rate[e] = rate;
                e += 1;
            });
            assert!(
                e == end,
                "recapture_phase_rates: incoming-edge count changed"
            );
        }
    }

    /// Exact relative L1 balance residual of an arbitrary iterate `pi`
    /// against the captured chain — bit-identical to
    /// [`crate::mbd::mbd_residual_of`] on the source generator. This is
    /// the verification half of the predict-and-verify surrogate:
    /// `inflow` is caller-owned scratch so the check allocates nothing.
    pub fn residual(&self, pi: &[f64], inflow: &mut Vec<f64>) -> f64 {
        let p_count = self.phases;
        let l_count = self.levels;
        inflow.resize(l_count, 0.0);
        let mut num = 0.0f64;
        let mut den = 0.0f64;
        for p in 0..p_count {
            let base = p * l_count;
            inflow.fill(0.0);
            for e in self.in_ptr[p]..self.in_ptr[p + 1] {
                let rate = self.in_rate[e];
                let qbase = self.in_src[e] as usize * l_count;
                for (l, x) in inflow.iter_mut().enumerate() {
                    *x += rate * pi[qbase + l];
                }
            }
            let brow = self.birth_of(p);
            let drow = self.death_of(p);
            for l in 0..l_count {
                let exit = self.exit[p] + brow[l] + drow[l];
                let mut inf = inflow[l];
                if l > 0 {
                    inf += pi[base + l - 1] * brow[l - 1];
                }
                if l + 1 < l_count {
                    inf += pi[base + l + 1] * drow[l + 1];
                }
                num += (inf - pi[base + l] * exit).abs();
                den += pi[base + l] * exit;
            }
        }
        if den == 0.0 {
            0.0
        } else {
            num / den
        }
    }
}

impl ModulatedBirthDeath for BlockedMbd {
    fn num_phases(&self) -> usize {
        self.phases
    }
    fn num_levels(&self) -> usize {
        self.levels
    }
    fn birth_rate(&self, phase: usize, level: usize) -> f64 {
        self.birth_of(phase)[level]
    }
    fn death_rate(&self, phase: usize, level: usize) -> f64 {
        self.death_of(phase)[level]
    }
    fn for_each_phase_outgoing(&self, phase: usize, visit: &mut dyn FnMut(usize, f64)) {
        // The capture stores incoming structure; outgoing edges of `p`
        // are the incoming edges of every phase that lists `p` as a
        // source. Only used by generic (non-hot) trait consumers.
        for q in 0..self.phases {
            for e in self.in_ptr[q]..self.in_ptr[q + 1] {
                if self.in_src[e] as usize == phase {
                    visit(q, self.in_rate[e]);
                }
            }
        }
    }
    fn for_each_phase_incoming(&self, phase: usize, visit: &mut dyn FnMut(usize, f64)) {
        for e in self.in_ptr[phase]..self.in_ptr[phase + 1] {
            visit(self.in_src[e] as usize, self.in_rate[e]);
        }
    }
    fn phase_exit_rate(&self, phase: usize) -> f64 {
        self.exit[phase]
    }
}

/// [`crate::mbd::solve_mbd_projected_inplace_ws`] over captured blocked
/// tables, seeded from a copy of `warm_start` (`None`: the uniform
/// vector). The solution is left in `ws.pi()`. Bit-identical to staging
/// the same start and calling [`solve_mbd_projected_blocked_inplace_ws`].
///
/// # Errors
///
/// As [`crate::mbd::solve_mbd_projected_inplace_ws`], with the warm
/// start in place of the staged iterate.
pub fn solve_mbd_projected_blocked_ws(
    blocked: &BlockedMbd,
    phase_marginal: &[f64],
    warm_start: Option<&[f64]>,
    opts: &SolveOptions,
    ws: &mut SolveWorkspace,
) -> Result<SolveStats, CtmcError> {
    ws.stage_pi(blocked.phases * blocked.levels, warm_start);
    solve_mbd_projected_blocked_inplace_ws(blocked, phase_marginal, opts, ws)
}

/// The blocked twin of [`crate::mbd::solve_mbd_projected_inplace_ws`]:
/// the same projected block Gauss–Seidel / Thomas iteration, seeded in
/// place from whatever the caller staged in `ws.pi()` (via
/// [`SolveWorkspace::pi_mut`]), so a large chain's iterate is never
/// held twice. Every rate lookup is a contiguous slice read instead of
/// a virtual call; the control flow, floating-point operations and
/// their order are exactly the scalar kernel's, so results are
/// **bit-identical** (sweep count, residual bits, iterate bits). Any
/// edit here must be mirrored there (and vice versa) — the bitwise
/// tests below and the template preflights in `gprs_core` enforce the
/// pairing.
///
/// # Errors
///
/// As [`crate::mbd::solve_mbd_projected_inplace_ws`].
pub fn solve_mbd_projected_blocked_inplace_ws(
    b: &BlockedMbd,
    phase_marginal: &[f64],
    opts: &SolveOptions,
    ws: &mut SolveWorkspace,
) -> Result<SolveStats, CtmcError> {
    validate_phase_marginal(b.phases, phase_marginal)?;
    let p_count = b.phases;
    let l_count = b.levels;
    let n = p_count * l_count;
    if n == 0 {
        return Err(CtmcError::EmptyChain);
    }

    ws.init_pi_in_place(n)?;
    let SolveWorkspace {
        pi,
        exit: phase_exit,
        rhs,
        diag,
        cprime,
        xcol,
        inflow,
    } = ws;

    phase_exit.resize(p_count, 0.0);
    phase_exit.copy_from_slice(&b.exit);

    rhs.resize(l_count, 0.0);
    diag.resize(l_count, 0.0);
    cprime.resize(l_count, 0.0);
    xcol.resize(l_count, 0.0);
    // Work on plain slices from here on. Through the `&mut Vec`s the
    // optimizer must reload each buffer's pointer and length after
    // every store to another buffer (it cannot prove they don't
    // alias), which keeps the gather, elimination and back-substitution
    // loops scalar.
    let pi: &mut [f64] = pi;
    let phase_exit: &[f64] = phase_exit;
    let rhs: &mut [f64] = rhs;
    let diag: &mut [f64] = diag;
    let cprime: &mut [f64] = cprime;
    let xcol: &mut [f64] = xcol;
    let mut relax = Relaxation::new(opts);

    let mut guard = HealthGuard::new(opts);
    let mut sweeps = 0usize;
    let mut residual = f64::INFINITY;
    let mut residual_evals = 0usize;
    let mut converged: Option<SolveStats> = None;

    'sweep: while sweeps < opts.max_sweeps {
        let omega = relax.omega();
        let forward = sweeps.is_multiple_of(2);
        for step in 0..p_count {
            let p = if forward { step } else { p_count - 1 - step };
            let d_p = phase_exit[p];
            // Gather inflow from other phases: contiguous source rows,
            // fixed-width level runs — the loop the compiler vectorizes.
            for x in rhs.iter_mut() {
                *x = 0.0;
            }
            for e in b.in_ptr[p]..b.in_ptr[p + 1] {
                let rate = b.in_rate[e];
                let qbase = b.in_src[e] as usize * l_count;
                for (l, x) in rhs.iter_mut().enumerate() {
                    *x += rate * pi[qbase + l];
                }
            }

            if d_p <= 0.0 {
                if p_count > 1 {
                    return Err(CtmcError::InvalidGenerator {
                        reason: format!("phase {p} has zero exit rate in a multi-phase chain"),
                    });
                }
                solve_single_birth_death(b, pi);
                converged = Some(SolveStats {
                    sweeps: 1,
                    residual: 0.0,
                    residual_evals,
                    omega,
                });
                break 'sweep;
            }

            let base = p * l_count;
            let brow = b.birth_of(p);
            let drow = b.death_of(p);
            for l in 0..l_count {
                diag[l] = d_p + brow[l] + drow[l];
            }
            // Thomas forward elimination over the contiguous rows.
            let mut beta = diag[0];
            cprime[0] = -drow[1.min(l_count - 1)] / beta;
            rhs[0] /= beta;
            for l in 1..l_count {
                let a_l = -brow[l - 1]; // sub-diagonal
                beta = diag[l] - a_l * cprime[l - 1];
                let c_l = if l + 1 < l_count { -drow[l + 1] } else { 0.0 };
                cprime[l] = c_l / beta;
                rhs[l] = (rhs[l] - a_l * rhs[l - 1]) / beta;
            }
            // Back substitution, then (block-)SOR blend into pi.
            xcol[l_count - 1] = rhs[l_count - 1].max(0.0);
            for l in (0..l_count - 1).rev() {
                xcol[l] = (rhs[l] - cprime[l] * xcol[l + 1]).max(0.0);
            }
            if omega == 1.0 {
                pi[base..base + l_count].copy_from_slice(xcol);
            } else {
                for l in 0..l_count {
                    let v = (1.0 - omega) * pi[base + l] + omega * xcol[l];
                    pi[base + l] = v.max(0.0);
                }
            }
        }

        project_onto_marginal(pi, phase_marginal, l_count);
        sweeps += 1;

        if sweeps.is_multiple_of(opts.check_every.clamp(1, 4)) || sweeps == opts.max_sweeps {
            residual = b.residual(pi, inflow);
            residual_evals += 1;
            guard.observe(sweeps, residual)?;
            if residual <= opts.tolerance {
                converged = Some(SolveStats {
                    sweeps,
                    residual,
                    residual_evals,
                    omega,
                });
                break 'sweep;
            }
            relax.observe(sweeps, residual);
            if guard.out_of_time() {
                break 'sweep;
            }
        }
    }

    if let Some(stats) = converged {
        ws.normalize_pi();
        return Ok(stats);
    }
    let exact = if residual.is_finite() {
        residual
    } else {
        b.residual(&ws.pi, &mut ws.inflow)
    };
    Err(HealthGuard::budget_error(sweeps, exact, opts.tolerance))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::mbd::mbd_residual_of;
    use crate::mbd::tests::{exact_phase_marginal, solve_staged, TableMbd};

    fn assert_bitwise_eq(a: &[f64], b: &[f64], ctx: &str) {
        assert_eq!(a.len(), b.len(), "{ctx}: length");
        for (i, (x, y)) in a.iter().zip(b).enumerate() {
            assert_eq!(x.to_bits(), y.to_bits(), "{ctx}: state {i} ({x} vs {y})");
        }
    }

    #[test]
    fn capture_reproduces_the_source_tables() {
        let mbd = TableMbd::random(6, 9, 17);
        let mut b = BlockedMbd::new();
        b.capture(&mbd);
        assert_eq!(b.num_phases(), 6);
        assert_eq!(b.num_levels(), 9);
        for p in 0..6 {
            assert_eq!(
                ModulatedBirthDeath::phase_exit_rate(&b, p).to_bits(),
                mbd.phase_exit_rate(p).to_bits()
            );
            for l in 0..9 {
                assert_eq!(b.birth_rate(p, l).to_bits(), mbd.birth_rate(p, l).to_bits());
                assert_eq!(b.death_rate(p, l).to_bits(), mbd.death_rate(p, l).to_bits());
            }
            let mut from_b = Vec::new();
            let mut from_m = Vec::new();
            b.for_each_phase_incoming(p, &mut |q, r| from_b.push((q, r.to_bits())));
            mbd.for_each_phase_incoming(p, &mut |q, r| from_m.push((q, r.to_bits())));
            assert_eq!(from_b, from_m, "incoming edges of phase {p}");
        }
    }

    #[test]
    fn partial_recapture_is_bitwise_equal_to_full_capture() {
        // Moving only the phase-coupling rates (the handover-balance
        // pattern): a recapture_phase_rates refresh must reproduce a
        // fresh full capture bit for bit — tables and solves alike.
        for (seed, phases, levels) in [(3u64, 6, 9), (11, 8, 14), (29, 4, 25)] {
            let base = TableMbd::random(phases, levels, seed);
            let mut partial = BlockedMbd::new();
            partial.capture(&base);
            for factor in [0.25, 1.9, 0.4, 1.0] {
                let moved = base.with_scaled_phase_rates(factor);
                let mut full = BlockedMbd::new();
                full.capture(&moved);
                partial.recapture_phase_rates(&moved);

                for p in 0..phases {
                    assert_eq!(
                        ModulatedBirthDeath::phase_exit_rate(&partial, p).to_bits(),
                        ModulatedBirthDeath::phase_exit_rate(&full, p).to_bits(),
                        "seed {seed} factor {factor} exit {p}"
                    );
                    let mut from_partial = Vec::new();
                    let mut from_full = Vec::new();
                    partial.for_each_phase_incoming(p, &mut |q, r| {
                        from_partial.push((q, r.to_bits()))
                    });
                    full.for_each_phase_incoming(p, &mut |q, r| from_full.push((q, r.to_bits())));
                    assert_eq!(
                        from_partial, from_full,
                        "seed {seed} factor {factor} phase {p}"
                    );
                    for l in 0..levels {
                        assert_eq!(
                            partial.birth_rate(p, l).to_bits(),
                            full.birth_rate(p, l).to_bits()
                        );
                        assert_eq!(
                            partial.death_rate(p, l).to_bits(),
                            full.death_rate(p, l).to_bits()
                        );
                    }
                }

                let marginal = exact_phase_marginal(&moved);
                let opts = SolveOptions::default();
                let mut ws_p = SolveWorkspace::new();
                let mut ws_f = SolveWorkspace::new();
                let sp =
                    solve_mbd_projected_blocked_ws(&partial, &marginal, None, &opts, &mut ws_p)
                        .unwrap();
                let sf = solve_mbd_projected_blocked_ws(&full, &marginal, None, &opts, &mut ws_f)
                    .unwrap();
                assert_eq!(sp.sweeps, sf.sweeps);
                assert_eq!(sp.residual.to_bits(), sf.residual.to_bits());
                assert_bitwise_eq(
                    ws_p.pi(),
                    ws_f.pi(),
                    &format!("seed {seed} factor {factor}"),
                );
            }
        }
    }

    #[test]
    #[should_panic(expected = "phase table shape mismatch")]
    fn partial_recapture_rejects_shape_changes() {
        let mbd = TableMbd::random(5, 8, 17);
        let other = TableMbd::random(6, 8, 17);
        let mut b = BlockedMbd::new();
        b.capture(&mbd);
        b.recapture_phase_rates(&other);
    }

    #[test]
    fn blocked_solves_are_bitwise_equal_to_scalar() {
        let mut switched = 0;
        for (seed, phases, levels, omega) in [
            (1u64, 5, 8, 1.0),
            (7, 8, 30, 1.0),
            (42, 6, 10, 0.8),
            (99, 3, 12, 1.2),
            (3, 6, 60, 1.0),
        ] {
            let mbd = TableMbd::random(phases, levels, seed);
            let marginal = exact_phase_marginal(&mbd);
            let mut b = BlockedMbd::new();
            b.capture(&mbd);
            let opts = SolveOptions::default().with_sor(omega);

            // Cold: the copying blocked entry against the staged
            // scalar oracle.
            let mut ws_b = SolveWorkspace::new();
            let (s, ws_s) = solve_staged(&mbd, &marginal, None, &opts).unwrap();
            let bl = solve_mbd_projected_blocked_ws(&b, &marginal, None, &opts, &mut ws_b).unwrap();
            assert_eq!(s.sweeps, bl.sweeps, "seed {seed}");
            assert_eq!(s.residual.to_bits(), bl.residual.to_bits(), "seed {seed}");
            assert_eq!(s.residual_evals, bl.residual_evals, "seed {seed}");
            assert_eq!(s.omega.to_bits(), bl.omega.to_bits(), "seed {seed}");
            assert_bitwise_eq(ws_s.pi(), ws_b.pi(), &format!("projected cold seed {seed}"));
            if bl.omega != omega {
                switched += 1;
            }

            // Warm from the solution (checks the warm path too), both
            // blocked entries against the scalar oracle staged the same
            // way.
            let warm = ws_s.pi().to_vec();
            let (s2, ws_s) = solve_staged(&mbd, &marginal, Some(&warm), &opts).unwrap();
            let b2 = solve_mbd_projected_blocked_ws(&b, &marginal, Some(&warm), &opts, &mut ws_b)
                .unwrap();
            assert_eq!(s2.sweeps, b2.sweeps);
            assert_eq!(s2.residual.to_bits(), b2.residual.to_bits());
            assert_eq!(s2.omega.to_bits(), b2.omega.to_bits());
            assert_bitwise_eq(ws_s.pi(), ws_b.pi(), &format!("projected warm seed {seed}"));
            ws_b.set_pi(&warm);
            let b3 =
                solve_mbd_projected_blocked_inplace_ws(&b, &marginal, &opts, &mut ws_b).unwrap();
            assert_eq!(s2.sweeps, b3.sweeps);
            assert_eq!(s2.residual.to_bits(), b3.residual.to_bits());
            assert_eq!(s2.omega.to_bits(), b3.omega.to_bits());
            assert_bitwise_eq(ws_s.pi(), ws_b.pi(), &format!("in-place warm seed {seed}"));
        }
        // Some cases exercise a switched factor, not only the starting
        // one.
        assert!(switched > 0, "no case switched relaxation");
    }

    #[test]
    fn blocked_residual_matches_scalar_bitwise() {
        let mbd = TableMbd::random(7, 11, 23);
        let mut b = BlockedMbd::new();
        b.capture(&mbd);
        // An arbitrary (unconverged) iterate: uniform plus a ramp.
        let n = 7 * 11;
        let pi: Vec<f64> = (0..n).map(|i| 1.0 / n as f64 + i as f64 * 1e-4).collect();
        let mut inflow = Vec::new();
        let blocked = b.residual(&pi, &mut inflow);
        let scalar = mbd_residual_of(&mbd, &pi);
        assert_eq!(blocked.to_bits(), scalar.to_bits());
    }

    #[test]
    fn recapture_reuses_allocations_and_tracks_new_rates() {
        let mbd1 = TableMbd::random(5, 8, 3);
        let mbd2 = TableMbd::random(5, 8, 4);
        let mut b = BlockedMbd::new();
        b.capture(&mbd1);
        b.capture(&mbd2);
        for p in 0..5 {
            for l in 0..8 {
                assert_eq!(
                    b.birth_rate(p, l).to_bits(),
                    mbd2.birth_rate(p, l).to_bits()
                );
            }
        }
        let marginal = exact_phase_marginal(&mbd2);
        let opts = SolveOptions::default();
        let mut ws_b = SolveWorkspace::new();
        let (s, ws_s) = solve_staged(&mbd2, &marginal, None, &opts).unwrap();
        let bl = solve_mbd_projected_blocked_ws(&b, &marginal, None, &opts, &mut ws_b).unwrap();
        assert_eq!(s.sweeps, bl.sweeps);
        assert_bitwise_eq(ws_s.pi(), ws_b.pi(), "recapture");
    }

    #[test]
    fn capture_stores_each_distinct_row_once() {
        // Birth rows repeat phases 0–2; death rows repeat phases 0 and
        // 3, and phases 6–7 carry phase 3's row with -0.0 at level 0
        // where phase 3 has +0.0 — a different row by its bits.
        let mut mbd = TableMbd::random(8, 7, 5)
            .with_copied_rows(&[0, 1, 0, 1, 2, 0, 1, 2], &[0, 0, 3, 3, 0, 3, 3, 3]);
        assert_eq!(mbd.death_rate(3, 0).to_bits(), 0.0f64.to_bits());
        mbd.set_death_rate(6, 0, -0.0);
        mbd.set_death_rate(7, 0, -0.0);
        let mut b = BlockedMbd::new();
        b.capture(&mbd);
        assert_eq!(b.distinct_rows(), (3, 3));
        for p in 0..8 {
            for l in 0..7 {
                assert_eq!(b.birth_rate(p, l).to_bits(), mbd.birth_rate(p, l).to_bits());
                assert_eq!(b.death_rate(p, l).to_bits(), mbd.death_rate(p, l).to_bits());
            }
        }

        // A table set that first held more distinct rows (its lookup
        // grown past the initial size) recaptures to the same tables.
        let many = TableMbd::random(50, 7, 9);
        let mut reused = BlockedMbd::new();
        reused.capture(&many);
        assert_eq!(reused.distinct_rows(), (50, 50));
        reused.capture(&mbd);
        assert_eq!(format!("{reused:?}"), format!("{b:?}"));

        let marginal = exact_phase_marginal(&mbd);
        let opts = SolveOptions::default();
        let mut ws_b = SolveWorkspace::new();
        let (s, ws_s) = solve_staged(&mbd, &marginal, None, &opts).unwrap();
        let bl = solve_mbd_projected_blocked_ws(&b, &marginal, None, &opts, &mut ws_b).unwrap();
        assert_eq!(s.sweeps, bl.sweeps);
        assert_eq!(s.residual.to_bits(), bl.residual.to_bits());
        assert_bitwise_eq(ws_s.pi(), ws_b.pi(), "repeated rows, projected");
    }
}
