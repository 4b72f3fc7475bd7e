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
//! Gauss–Seidel / Thomas sweep as the scalar kernel, with every inner
//! loop a contiguous slice scan. The Thomas solve of one phase is a
//! pair of serial recurrences, each level waiting on the previous
//! level's divide, so a phase-by-phase sweep is latency-bound. Phases
//! that share no phase transition, in either direction, can be solved
//! in either order without changing a bit: neither reads the other's
//! column. The capture therefore also orders the phases into groups
//! of up to four pairwise uncoupled phases, a schedule that keeps
//! every coupled pair in its sequential order, and the sweep runs each
//! group's recurrences side by side, one lane per phase. The lanes'
//! Thomas coefficients and iterates are stored interleaved, one row of
//! lanes per level, so a level's elimination step and its
//! back-substitution step are packed operations over all lanes. Each
//! lane still does exactly the scalar kernel's floating-point
//! operations in their order (no fused multiply-add, no reassociation),
//! and the rates read are bit-identical to the source's, so blocked and
//! scalar solves are bit-identical — pinned by the tests below and by
//! `gprs_core`'s template tests. Every production solve runs this
//! kernel; the scalar kernel is kept, phase by phase, only as the
//! oracle of those tests.
//!
//! The scalar kernel projects the iterate onto the phase marginal in a
//! pass of its own after each sweep. The blocked kernel projects each
//! phase column inside the sweep instead, right after the last group
//! that reads the column in that sweep's direction, while the column is
//! still in cache; the capture buckets the columns by that group for
//! both directions along with the schedule. Nothing reads a column
//! between its last reader and the end of the sweep, so the projected
//! values are the bits the separate pass would produce, and a sweep
//! reads and writes the large iterate once instead of twice.
//!
//! Every sweep and every residual check gathers each phase's inflow
//! from its source phases' columns, and both do it through one helper,
//! `gather_inflow`. It keeps the phase's column of sums in registers
//! across all of its incoming edges and stores it once, instead of
//! loading and storing a buffer once per edge. A column of up to
//! sixteen levels, as the campaign cells' 9- and 11-level columns are,
//! gets an accumulator of exactly its length; a longer one, as Fig. 10's
//! 41-level columns are, is summed in blocks of sixteen levels and an
//! exact-length block for the rest. The choice depends only on the
//! column length. Each level sums its edges in CSR order from `0.0`,
//! with no fused multiply-add, as the scalar kernel does, so the sums
//! are bit-identical to its. At 9 and 11 levels this took an 8-sweep
//! solve of a campaign cell from about 40 and 47 to 29 and 35 µs on a
//! 2-core x86-64 VM.
//!
//! Capture costs about one sweep's worth of rate evaluations and is
//! repaid within the first sweep; for repeated same-shape solves the
//! tables are refilled in place.

// Indexed loops mirror the scalar kernel they must match bit-for-bit.
#![allow(clippy::needless_range_loop)]

use crate::error::CtmcError;
use crate::mbd::{
    project_column, solve_single_birth_death, validate_phase_marginal, ModulatedBirthDeath,
};
use crate::solver::{HealthGuard, Relaxation, SolveOptions, SolveStats, SolveWorkspace};
use std::array::from_fn;
use std::cmp::Reverse;
use std::collections::BinaryHeap;

/// Most phases one group of the sweep schedule holds: the sweep runs a
/// group's Thomas recurrences side by side, one lane per phase. Four
/// lanes took Fig. 10's M = 150 sweep from ≈27–32 to ≈17 ns/row on a
/// 2-core x86-64 VM.
const LANES: usize = 4;

/// Most levels the inflow gather sums in one pass over a phase's
/// incoming edges, with its sums held in registers; longer columns are
/// summed in blocks of this many levels.
const GATHER_WIDTH: usize = 16;

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

/// Writes `value` at index `i` of `v`, appending when `i == v.len()`,
/// and reports whether `v` already held it there.
fn store<T: Copy + PartialEq>(v: &mut Vec<T>, i: usize, value: T) -> bool {
    match v.get_mut(i) {
        Some(slot) => std::mem::replace(slot, value) == value,
        None => {
            v.push(value);
            false
        }
    }
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
    /// Sweep schedule: every phase once, in forward solve order, split
    /// into groups of pairwise uncoupled phases. Group sizes (1 to
    /// `LANES`) are in `group_len`; the groups tile `order`.
    order: Vec<u32>,
    group_len: Vec<u8>,
    /// Where the sweep projects each phase column, by direction
    /// (`[forward, backward]`): bucket `g` holds the columns whose last
    /// reader in that direction is group `g`, numbered in forward
    /// order. Built with the schedule.
    project: [Buckets; 2],
}

/// Phase columns bucketed by schedule group: group `g`'s columns are
/// `cols[ptr[g]..ptr[g + 1]]`.
#[derive(Debug, Clone, Default)]
struct Buckets {
    ptr: Vec<u32>,
    cols: Vec<u32>,
}

impl Buckets {
    /// Buckets every column `q` under `bucket_of[q]`, for `groups`
    /// groups; within a bucket columns keep increasing order.
    fn of(bucket_of: &[u32], groups: usize) -> Buckets {
        let mut ptr = vec![0u32; groups + 1];
        for &g in bucket_of {
            ptr[g as usize + 1] += 1;
        }
        for g in 0..groups {
            ptr[g + 1] += ptr[g];
        }
        let mut next = ptr.clone();
        let mut cols = vec![0u32; bucket_of.len()];
        for (q, &g) in bucket_of.iter().enumerate() {
            cols[next[g as usize] as usize] = q as u32;
            next[g as usize] += 1;
        }
        Buckets { ptr, cols }
    }

    /// The columns of group `g`.
    #[inline]
    fn get(&self, g: usize) -> &[u32] {
        &self.cols[self.ptr[g] as usize..self.ptr[g + 1] as usize]
    }
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
    ///
    /// The sweep schedule is rebuilt only when the incoming-edge pattern
    /// differs from the previous capture's, so same-shape refills keep
    /// it. Building it visits every edge three times and holds a few
    /// transient per-phase arrays (a pending count, a ready heap, each
    /// phase's group and its first and last readers), never an
    /// edge-sized one; the schedule itself keeps one `u32` per phase and
    /// one byte per group, and its projection buckets two `u32`s per
    /// phase and per group.
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
        // Overwritten in place, so the previous pattern can be compared
        // entry by entry as the new one is written.
        let mut same_pattern = store(&mut self.in_ptr, 0, 0);
        let mut e = 0usize;
        for p in 0..p_count {
            let (in_src, in_rate) = (&mut self.in_src, &mut self.in_rate);
            gen.for_each_phase_incoming(p, &mut |q, rate| {
                same_pattern &= store(in_src, e, q as u32);
                store(in_rate, e, rate);
                e += 1;
            });
            same_pattern &= store(&mut self.in_ptr, p + 1, e);
        }
        same_pattern &= self.in_ptr.len() == p_count + 1 && self.in_src.len() == e;
        self.in_ptr.truncate(p_count + 1);
        self.in_src.truncate(e);
        self.in_rate.truncate(e);
        if !same_pattern {
            self.build_schedule();
        }
    }

    /// Writes the inflow of phase `p` from the other phases into `out`
    /// (`levels` entries): at each level, the sum over `p`'s incoming
    /// edges in CSR order, from `0.0`, of the edge rate times the
    /// source column's entry.
    ///
    /// The sums stay in registers across all the edges and are stored
    /// once. A column of up to [`GATHER_WIDTH`] levels is summed in one
    /// pass over the edges with an accumulator of exactly its length; a
    /// longer one in blocks of `GATHER_WIDTH` levels, then an
    /// exact-length block for the rest. Each level's sum is the same
    /// sequence of IEEE operations either way.
    #[inline]
    fn gather_inflow(&self, p: usize, pi: &[f64], out: &mut [f64]) {
        let edges = self.in_ptr[p]..self.in_ptr[p + 1];
        let (src, rate) = (&self.in_src[edges.clone()], &self.in_rate[edges]);
        let levels = self.levels;
        let mut off = 0;
        while levels - off > GATHER_WIDTH {
            gather_block::<GATHER_WIDTH>(src, rate, pi, levels, off, out);
            off += GATHER_WIDTH;
        }
        macro_rules! exact_block {
            ($($len:literal)*) => {
                match levels - off {
                    0 => {}
                    $($len => gather_block::<$len>(src, rate, pi, levels, off, out),)*
                    rest => unreachable!("gather block of {rest} levels"),
                }
            };
        }
        exact_block!(1 2 3 4 5 6 7 8 9 10 11 12 13 14 15 16);
    }

    /// Source phases of the incoming transitions of phase `p`.
    fn sources(&self, p: usize) -> impl Iterator<Item = usize> + '_ {
        self.in_src[self.in_ptr[p]..self.in_ptr[p + 1]]
            .iter()
            .map(|&q| q as usize)
    }

    /// Orders the phases into the sweep schedule: smallest-index-first
    /// Kahn over the coupling graph, where phases `p` and `q` are
    /// coupled if either lists the other as an incoming source. Each
    /// group takes up to `LANES` of the lowest-index phases whose
    /// lower-index coupled phases all sit in earlier groups. So no two
    /// phases of a group are coupled, and every coupled pair keeps its
    /// sequential order: a forward sweep over the groups, and a
    /// backward sweep over them reversed, read and write exactly what
    /// the phase-by-phase sweeps do.
    ///
    /// `pending[s]` counts the lower phases that list `s` as a source
    /// and are not yet scheduled; it is found from the edges alone,
    /// with no reverse adjacency. In a structurally symmetric pattern,
    /// as the GPRS chain's is, that is every lower coupled phase. A
    /// lower source of `s` that does not list `s` back is checked when
    /// `s` comes up: while it is unscheduled, `s` is deferred to a later
    /// group, and after `LANES` deferrals the group closes. The lowest
    /// unscheduled phase is always ready, so such one-way edges cost
    /// lanes, never validity.
    ///
    /// The projection buckets come last. A sweep reads column `q` in
    /// `q`'s own group and in the group of every phase that lists `q`
    /// as a source, and writes it only in its own group; after the last
    /// of those reads in the sweep's direction the column holds its
    /// end-of-sweep values and nothing reads it again, so projecting it
    /// there gives the bits a projection pass after the sweep would.
    fn build_schedule(&mut self) {
        const DONE: u32 = u32::MAX;
        let p_count = self.phases;
        let mut pending = vec![0u32; p_count];
        for q in 0..p_count {
            for s in self.sources(q).filter(|&s| s > q) {
                pending[s] += 1;
            }
        }
        let mut ready: BinaryHeap<Reverse<u32>> = (0..p_count)
            .filter(|&p| pending[p] == 0)
            .map(|p| Reverse(p as u32))
            .collect();
        self.order.clear();
        self.order.reserve_exact(p_count);
        self.group_len.clear();
        let mut deferred = Vec::with_capacity(LANES);
        while !ready.is_empty() {
            let start = self.order.len();
            while self.order.len() - start < LANES && deferred.len() < LANES {
                let Some(Reverse(p)) = ready.pop() else {
                    break;
                };
                let p = p as usize;
                if self.sources(p).any(|s| s < p && pending[s] != DONE) {
                    deferred.push(Reverse(p as u32));
                } else {
                    self.order.push(p as u32);
                }
            }
            ready.extend(deferred.drain(..));
            for &q in &self.order[start..] {
                pending[q as usize] = DONE;
            }
            for &q in &self.order[start..] {
                let q = q as usize;
                for s in self.sources(q).filter(|&s| s > q) {
                    pending[s] -= 1;
                    if pending[s] == 0 {
                        ready.push(Reverse(s as u32));
                    }
                }
            }
            self.group_len.push((self.order.len() - start) as u8);
        }
        debug_assert_eq!(self.order.len(), p_count, "schedule misses a phase");

        let groups = self.group_len.len();
        let mut group_of = vec![0u32; p_count];
        let mut start = 0;
        for (g, &len) in self.group_len.iter().enumerate() {
            let end = start + len as usize;
            for &p in &self.order[start..end] {
                group_of[p as usize] = g as u32;
            }
            start = end;
        }
        // The latest reader of each column ends its forward sweep; the
        // earliest ends its backward one.
        let mut latest = group_of.clone();
        let mut earliest = group_of.clone();
        for (p, &g) in group_of.iter().enumerate() {
            for s in self.sources(p) {
                latest[s] = latest[s].max(g);
                earliest[s] = earliest[s].min(g);
            }
        }
        self.project = [Buckets::of(&latest, groups), Buckets::of(&earliest, groups)];
    }

    /// Visits the schedule's groups, each with its forward-order
    /// index, in forward sweep order, or in reverse for a backward
    /// sweep.
    fn for_each_group(&self, forward: bool, mut visit: impl FnMut(usize, &[u32])) {
        if forward {
            let mut start = 0;
            for (g, &len) in self.group_len.iter().enumerate() {
                let end = start + len as usize;
                visit(g, &self.order[start..end]);
                start = end;
            }
        } else {
            let mut end = self.order.len();
            for (g, &len) in self.group_len.iter().enumerate().rev() {
                let start = end - len as usize;
                visit(g, &self.order[start..end]);
                end = start;
            }
        }
    }

    /// Re-evaluates only the **phase-coupling rates** (the incoming
    /// phase-transition CSR values and the per-phase exit rates) from
    /// `gen`, keeping the captured birth/death tables and the CSR
    /// pattern untouched.
    ///
    /// This is the cheap recapture for repeated solves of the *same*
    /// chain under moving phase-transition rates: the cluster handover
    /// balance, whose outer iterations move only the handover arrival
    /// terms, and arrival-rate sweeps, whose points move only the call
    /// and session arrival rates. Those enter exclusively through phase
    /// transitions — births (packet arrivals) and deaths (packet
    /// services) do not depend on them. The birth/death tables are not
    /// re-read, so the caller must only use this when they cannot have
    /// moved; `gprs_core`'s generator template checks that by taking
    /// this path only when the rates the birth/death rows read equal
    /// those of its last full capture bit for bit. Under that contract
    /// the refreshed tables are **bit-identical** to a full
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
    /// [`crate::mbd::mbd_residual_of`] on the source generator. The
    /// blocked solvers' convergence checks run it, and `inflow` is
    /// caller-owned scratch so a check allocates nothing.
    pub fn residual(&self, pi: &[f64], inflow: &mut Vec<f64>) -> f64 {
        let l_count = self.levels;
        inflow.resize(l_count, 0.0);
        // Plain slices, as in the sweep: through the `&mut Vec` every
        // store would reload its pointer and length.
        let inflow: &mut [f64] = inflow;
        let mut num = 0.0f64;
        let mut den = 0.0f64;
        for p in 0..self.phases {
            let col = &pi[p * l_count..(p + 1) * l_count];
            self.gather_inflow(p, pi, inflow);
            let brow = self.birth_of(p);
            let drow = self.death_of(p);
            let d = self.exit[p];
            for l in 0..l_count {
                let exit = d + brow[l] + drow[l];
                let mut inf = inflow[l];
                if l > 0 {
                    inf += col[l - 1] * brow[l - 1];
                }
                if l + 1 < l_count {
                    inf += col[l + 1] * drow[l + 1];
                }
                num += (inf - col[l] * exit).abs();
                den += col[l] * exit;
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
/// a virtual call, and the phases are solved group by group in the
/// captured schedule, a group's uncoupled phases side by side in packed
/// lanes, each phase column projected right after its last reader in
/// the sweep rather than in a pass after it (see the
/// [module docs](self)). Per phase, the gather, Thomas solve, `max(0)`,
/// relaxation blend, projection and residual cadence are exactly the
/// scalar kernel's floating-point operations in their order, so results
/// are **bit-identical** (sweep count, residual bits, iterate bits).
/// Any edit to that arithmetic here must be mirrored there (and vice
/// versa) — the bitwise tests below and the template preflights in
/// `gprs_core` enforce the pairing. The lane scratch lives in `ws`, so
/// repeated solves allocate nothing.
///
/// # Errors
///
/// As [`crate::mbd::solve_mbd_projected_inplace_ws`]; a multi-phase
/// chain with zero-exit phases names the lowest of them, as the
/// scalar kernel's first forward sweep does.
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
    let mut relax = Relaxation::new(opts);
    // A phase with no exit is a degenerate chain unless it is the only
    // phase, which is a plain birth–death chain. The scalar kernel
    // finds it in its first sweep, a forward one; the exit rates are
    // fixed, so checking them up front is the same outcome.
    if opts.max_sweeps > 0 {
        if let Some(p) = b.exit.iter().position(|&d| d <= 0.0) {
            if p_count > 1 {
                return Err(CtmcError::InvalidGenerator {
                    reason: format!("phase {p} has zero exit rate in a multi-phase chain"),
                });
            }
            solve_single_birth_death(b, &mut ws.pi);
            ws.normalize_pi();
            return Ok(SolveStats {
                sweeps: 1,
                residual: 0.0,
                residual_evals: 0,
                omega: relax.omega(),
            });
        }
    }

    let SolveWorkspace {
        pi,
        rhs,
        cprime,
        xcol,
        inflow,
        ..
    } = ws;
    // `rhs` holds one gathered column of `levels` entries per lane;
    // `cprime` and `xcol` hold `levels` rows of one entry per lane.
    rhs.resize(LANES * l_count, 0.0);
    cprime.resize(LANES * l_count, 0.0);
    xcol.resize(LANES * l_count, 0.0);
    // Work on plain slices from here on. Through the `&mut Vec`s the
    // optimizer must reload each buffer's pointer and length after
    // every store to another buffer (it cannot prove they don't
    // alias), which keeps the gather and blend loops scalar.
    let pi: &mut [f64] = pi;
    let rhs: &mut [f64] = rhs;
    let cprime: &mut [f64] = cprime;
    let xcol: &mut [f64] = xcol;

    let mut guard = HealthGuard::new(opts);
    let mut sweeps = 0usize;
    let mut residual = f64::INFINITY;
    let mut residual_evals = 0usize;
    let mut converged: Option<SolveStats> = None;

    while sweeps < opts.max_sweeps {
        let omega = relax.omega();
        let forward = sweeps.is_multiple_of(2);
        let project = &b.project[usize::from(!forward)];
        b.for_each_group(forward, |g, group| {
            match *group {
                [p] => solve_group(b, [p], omega, pi, rhs, cprime, xcol),
                [p, q] => solve_group(b, [p, q], omega, pi, rhs, cprime, xcol),
                [p, q, r] => solve_group(b, [p, q, r], omega, pi, rhs, cprime, xcol),
                [p, q, r, s] => solve_group(b, [p, q, r, s], omega, pi, rhs, cprime, xcol),
                _ => unreachable!("schedule group of {} phases", group.len()),
            }
            // The projection onto the phase marginal, column by column
            // right after the column's last reader in this sweep.
            for &q in project.get(g) {
                let q = q as usize;
                project_column(&mut pi[q * l_count..(q + 1) * l_count], phase_marginal[q]);
            }
        });
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
                break;
            }
            relax.observe(sweeps, residual);
            if guard.out_of_time() {
                break;
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

/// Solves the level columns of `K` pairwise uncoupled phases and blends
/// them into `pi`: the scalar kernel's per-phase step, run for the `K`
/// phases side by side so their serial Thomas recurrences overlap.
///
/// The recurrences keep their coefficients and iterates interleaved,
/// one `[f64; K]` row per level, so each level's step is one packed
/// operation per arithmetic operation of the scalar kernel: the lanes
/// share instructions, never operands, and every lane still does the
/// scalar kernel's IEEE operations in its order. `rhs` holds one
/// gathered inflow column per lane; `cprime` the Thomas coefficients
/// and `xcol` the eliminated right-hand side, then the solution, one
/// row of lanes per level.
fn solve_group<const K: usize>(
    b: &BlockedMbd,
    phases: [u32; K],
    omega: f64,
    pi: &mut [f64],
    rhs: &mut [f64],
    cprime: &mut [f64],
    xcol: &mut [f64],
) {
    let l_count = b.levels;
    let phases = phases.map(|p| p as usize);
    let rhs: [&mut [f64]; K] = lane_columns(rhs, l_count);
    let (cprime, _) = cprime[..K * l_count].as_chunks_mut::<K>();
    let (x, _) = xcol[..K * l_count].as_chunks_mut::<K>();
    let brow: [&[f64]; K] = from_fn(|k| b.birth_of(phases[k]));
    let drow: [&[f64]; K] = from_fn(|k| b.death_of(phases[k]));
    let d: [f64; K] = from_fn(|k| b.exit[phases[k]]);

    // Gather inflow from other phases. No lane's phase is a source of
    // another's, so every lane reads what the phase-by-phase sweep
    // would.
    for k in 0..K {
        b.gather_inflow(phases[k], pi, rhs[k]);
    }

    // Thomas forward elimination, all lanes one level at a time.
    let beta: [f64; K] = from_fn(|k| d[k] + brow[k][0] + drow[k][0]);
    let up = 1.min(l_count - 1);
    cprime[0] = from_fn(|k| -drow[k][up] / beta[k]);
    x[0] = from_fn(|k| rhs[k][0] / beta[k]);
    for l in 1..l_count {
        let a_l: [f64; K] = from_fn(|k| -brow[k][l - 1]); // sub-diagonal
        let (c_prev, x_prev) = (cprime[l - 1], x[l - 1]);
        let beta: [f64; K] = from_fn(|k| (d[k] + brow[k][l] + drow[k][l]) - a_l[k] * c_prev[k]);
        let c_l: [f64; K] = if l + 1 < l_count {
            from_fn(|k| -drow[k][l + 1])
        } else {
            [0.0; K]
        };
        cprime[l] = from_fn(|k| c_l[k] / beta[k]);
        x[l] = from_fn(|k| (rhs[k][l] - a_l[k] * x_prev[k]) / beta[k]);
    }
    // Back substitution in place, then (block-)SOR blend into pi.
    x[l_count - 1] = x[l_count - 1].map(|v| v.max(0.0));
    for l in (0..l_count - 1).rev() {
        let (c_l, x_l, x_next) = (cprime[l], x[l], x[l + 1]);
        x[l] = from_fn(|k| (x_l[k] - c_l[k] * x_next[k]).max(0.0));
    }
    for k in 0..K {
        let base = phases[k] * l_count;
        let col = pi[base..base + l_count].iter_mut().zip(&*x);
        if omega == 1.0 {
            for (v, row) in col {
                *v = row[k];
            }
        } else {
            for (v, row) in col {
                *v = ((1.0 - omega) * *v + omega * row[k]).max(0.0);
            }
        }
    }
}

/// Levels `off..off + N` of [`BlockedMbd::gather_inflow`]: `N`
/// accumulators, one pass over the edges (`src`, `rate`) reading each
/// source column's `N` entries, one store into `out`.
#[inline(always)]
fn gather_block<const N: usize>(
    src: &[u32],
    rate: &[f64],
    pi: &[f64],
    levels: usize,
    off: usize,
    out: &mut [f64],
) {
    let mut acc = [0.0f64; N];
    for (&q, &r) in src.iter().zip(rate) {
        let start = q as usize * levels + off;
        for (a, &v) in acc.iter_mut().zip(&pi[start..start + N]) {
            *a += r * v;
        }
    }
    out[off..off + N].copy_from_slice(&acc);
}

/// The first `K` consecutive columns of `levels` entries of `buf`.
fn lane_columns<const K: usize>(buf: &mut [f64], levels: usize) -> [&mut [f64]; K] {
    let mut rest = buf;
    from_fn(|_| {
        let (column, tail) = std::mem::take(&mut rest).split_at_mut(levels);
        rest = tail;
        column
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::mbd::mbd_residual_of;
    use crate::mbd::tests::{exact_phase_marginal, solve_staged, uniform, TableMbd};

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
        let cases = [
            (1u64, 5, 8, 1.0),
            (7, 8, 30, 1.0),
            (42, 6, 10, 0.8),
            (99, 3, 12, 1.2),
            (3, 6, 60, 1.0),
        ];
        // And every column length the gather dispatches on, at ω = 1
        // and ω ≠ 1 in turn.
        let lengths = gather_lengths().map(|l| (1000 + l as u64, 5, l, [1.0, 1.3][l % 2]));
        for (seed, phases, levels, omega) in cases.into_iter().chain(lengths) {
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

    /// Column lengths the inflow gather dispatches on: every
    /// exact-length accumulator (1 to `GATHER_WIDTH`), one full block
    /// and a one-level tail, and multi-block columns.
    fn gather_lengths() -> impl Iterator<Item = usize> {
        assert_eq!(GATHER_WIDTH, 16, "retune the lengths to the width");
        (1..=17).chain([41, 101])
    }

    #[test]
    fn blocked_residual_matches_scalar_bitwise() {
        // One reused scratch buffer across lengths, as in a solve.
        let mut inflow = Vec::new();
        for levels in gather_lengths() {
            for (name, mbd) in [
                ("random", TableMbd::random(7, levels, 23)),
                ("lattice", lattice(4, 5, levels, 31)),
            ] {
                let mut b = BlockedMbd::new();
                b.capture(&mbd);
                // An arbitrary (unconverged) iterate: uniform plus a ramp.
                let n = mbd.num_phases() * levels;
                let pi: Vec<f64> = (0..n).map(|i| 1.0 / n as f64 + i as f64 * 1e-4).collect();
                let blocked = b.residual(&pi, &mut inflow);
                let scalar = mbd_residual_of(&mbd, &pi);
                assert_eq!(
                    blocked.to_bits(),
                    scalar.to_bits(),
                    "{name}, {levels} levels"
                );
            }
        }
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

    /// A `rows` x `cols` lattice of phases, each coupled both ways to
    /// its four neighbours: a structurally symmetric pattern, like the
    /// GPRS chain's, with room for full schedule groups.
    fn lattice(rows: usize, cols: usize, levels: usize, seed: u64) -> TableMbd {
        let mut next = uniform(seed ^ 0x5eed);
        let phase_rates = (0..rows * cols)
            .map(|p| {
                let (i, j) = (p / cols, p % cols);
                let mut out = Vec::new();
                if i > 0 {
                    out.push((p - cols, 0.01 + 0.05 * next()));
                }
                if i + 1 < rows {
                    out.push((p + cols, 0.01 + 0.05 * next()));
                }
                if j > 0 {
                    out.push((p - 1, 0.01 + 0.05 * next()));
                }
                if j + 1 < cols {
                    out.push((p + 1, 0.01 + 0.05 * next()));
                }
                out
            })
            .collect();
        TableMbd::random(rows * cols, levels, seed).with_phase_rates(phase_rates)
    }

    /// A cycle through the phases in shuffled order, which keeps the
    /// chain irreducible, plus a one-way transition for each other
    /// ordered phase pair with probability `density`: an asymmetric
    /// pattern, as dense as asked.
    fn dense(phases: usize, levels: usize, density: f64, seed: u64) -> TableMbd {
        let mut next = uniform(seed ^ 0xd5e);
        let mut cycle: Vec<usize> = (0..phases).collect();
        for i in (1..phases).rev() {
            cycle.swap(i, (next() * (i + 1) as f64) as usize);
        }
        let mut successor = vec![0; phases];
        for (i, &p) in cycle.iter().enumerate() {
            successor[p] = cycle[(i + 1) % phases];
        }
        let phase_rates = (0..phases)
            .map(|p| {
                let mut out = vec![(successor[p], 0.01 + 0.05 * next())];
                for q in (0..phases).filter(|&q| q != p && q != successor[p]) {
                    if next() < density {
                        out.push((q, 0.02 * next()));
                    }
                }
                out
            })
            .collect();
        TableMbd::random(phases, levels, seed).with_phase_rates(phase_rates)
    }

    /// `dense`'s pattern with every transition into phase `sourceless`
    /// dropped (a phase left without any transition gets one to another
    /// phase instead). Nothing flows into that phase, so its column
    /// gathers zeros, its Thomas solve returns zeros, and at ω = 1 the
    /// projection takes its fill branch every sweep. The chain is no
    /// longer irreducible, so solve it against a uniform marginal.
    fn with_sourceless_phase(phases: usize, levels: usize, sourceless: usize) -> TableMbd {
        let mbd = dense(phases, levels, 0.15, 21);
        let phase_rates = (0..phases)
            .map(|p| {
                let mut out = Vec::new();
                mbd.for_each_phase_outgoing(p, &mut |q, rate| {
                    if q != sourceless {
                        out.push((q, rate));
                    }
                });
                if out.is_empty() {
                    let q = (1..phases)
                        .map(|i| (p + i) % phases)
                        .find(|&q| q != sourceless)
                        .unwrap();
                    out.push((q, 0.03));
                }
                out
            })
            .collect();
        mbd.with_phase_rates(phase_rates)
    }

    /// Runs 1 to 5 sweeps (tolerance 0, so none converges) of the
    /// scalar and blocked kernels from the uniform start and asserts
    /// the same outcome and iterate bits after each count: the first
    /// sweep runs forward, and the later ones alternate direction.
    fn assert_sweeps_match_scalar(mbd: &TableMbd, marginal: &[f64], omega: f64, ctx: &str) {
        let mut b = BlockedMbd::new();
        b.capture(mbd);
        let n = marginal.len() * mbd.num_levels();
        for sweeps in 1..=5 {
            let opts = SolveOptions::default()
                .with_sor(omega)
                .with_max_sweeps(sweeps)
                .with_tolerance(0.0);
            let mut ws_s = SolveWorkspace::new();
            ws_s.stage_pi(n, None);
            let s = crate::mbd::solve_mbd_projected_inplace_ws(mbd, marginal, &opts, &mut ws_s);
            let mut ws_b = SolveWorkspace::new();
            ws_b.stage_pi(n, None);
            let bl = solve_mbd_projected_blocked_inplace_ws(&b, marginal, &opts, &mut ws_b);
            let ctx = format!("{ctx}, omega {omega}, {sweeps} sweeps");
            assert!(
                matches!(bl, Err(CtmcError::NotConverged { .. })),
                "{ctx}: {bl:?}"
            );
            assert_eq!(format!("{s:?}"), format!("{bl:?}"), "{ctx}");
            assert_bitwise_eq(ws_s.pi(), ws_b.pi(), &ctx);
        }
    }

    #[test]
    fn fused_projection_matches_the_scalar_sweep_by_sweep() {
        let (phases, levels, sourceless) = (30, 6, 17);
        let starved = with_sourceless_phase(phases, levels, sourceless);
        let uniform_marginal = vec![1.0 / phases as f64; phases];
        for omega in [1.0, 0.8, 1.4] {
            for (name, mbd) in [
                ("dense 0.1", dense(40, 7, 0.1, 11)),
                ("dense 0.3", dense(24, 6, 0.3, 12)),
                ("lattice 5x7", lattice(5, 7, 6, 13)),
            ] {
                assert_sweeps_match_scalar(&mbd, &exact_phase_marginal(&mbd), omega, name);
            }
            assert_sweeps_match_scalar(&starved, &uniform_marginal, omega, "sourceless phase");
        }

        // The sourceless column really takes the fill branch.
        let mut b = BlockedMbd::new();
        b.capture(&starved);
        assert_eq!(b.sources(sourceless).count(), 0);
        let opts = SolveOptions::default()
            .with_max_sweeps(1)
            .with_tolerance(0.0);
        let mut ws = SolveWorkspace::new();
        ws.stage_pi(phases * levels, None);
        let _ = solve_mbd_projected_blocked_inplace_ws(&b, &uniform_marginal, &opts, &mut ws);
        let fill = uniform_marginal[sourceless] / levels as f64;
        let column = &ws.pi()[sourceless * levels..(sourceless + 1) * levels];
        assert!(
            column.iter().all(|x| x.to_bits() == fill.to_bits()),
            "{column:?}"
        );
    }

    /// Checks the captured schedule: every phase once, groups of 1 to
    /// `LANES` phases, the backward walk the forward one reversed, and
    /// every coupled pair in its sequential order. Returns the number
    /// of groups of each size.
    fn assert_valid_schedule(b: &BlockedMbd) -> [usize; LANES + 1] {
        let mut sizes = [0; LANES + 1];
        let mut group_of = vec![usize::MAX; b.num_phases()];
        let mut forward: Vec<Vec<u32>> = Vec::new();
        b.for_each_group(true, |g, group| {
            assert_eq!(g, forward.len(), "forward group index");
            assert!((1..=LANES).contains(&group.len()), "group {group:?}");
            sizes[group.len()] += 1;
            for &p in group {
                assert_eq!(group_of[p as usize], usize::MAX, "phase {p} twice");
                group_of[p as usize] = forward.len();
            }
            forward.push(group.to_vec());
        });
        assert!(
            group_of.iter().all(|&g| g != usize::MAX),
            "a phase is unscheduled"
        );
        let mut backward: Vec<Vec<u32>> = Vec::new();
        b.for_each_group(false, |g, group| {
            assert_eq!(forward[g], group, "backward group index");
            backward.push(group.to_vec());
        });
        backward.reverse();
        assert_eq!(forward, backward);
        for p in 0..b.num_phases() {
            for q in b.sources(p).filter(|&q| q != p) {
                assert_eq!(
                    q < p,
                    group_of[q] < group_of[p],
                    "edge {q} -> {p}: groups {} and {}",
                    group_of[q],
                    group_of[p]
                );
                assert_ne!(group_of[q], group_of[p], "edge {q} -> {p} inside a group");
            }
        }
        sizes
    }

    #[test]
    fn schedule_groups_uncoupled_phases_in_sequential_order() {
        // A dense pattern first, then a lattice of the same phase count
        // into the same tables: the pattern changed, so the schedule is
        // rebuilt for it.
        let mut b = BlockedMbd::new();
        b.capture(&dense(48, 6, 0.3, 5));
        assert_valid_schedule(&b);
        b.capture(&lattice(6, 8, 6, 5));
        let sizes = assert_valid_schedule(&b);
        assert!(sizes[LANES] > 0, "no full group on the lattice: {sizes:?}");
        // A same-pattern refill and a phase-rate recapture keep it.
        let before = b.order.clone();
        b.capture(&lattice(6, 8, 6, 77));
        b.recapture_phase_rates(&lattice(6, 8, 6, 78));
        assert_eq!(b.order, before);
        assert_valid_schedule(&b);

        // A ring couples each phase to the next, so every group is a
        // single phase; so does a pattern coupling nearly every pair.
        // Sparser one-way patterns fill groups around their deferrals.
        for (name, mbd, full_groups) in [
            ("ring", TableMbd::random(40, 5, 3), false),
            ("dense 0.6", dense(30, 5, 0.6, 9), false),
            ("dense 0.1", dense(40, 5, 0.1, 9), true),
            ("lattice", lattice(9, 13, 5, 1), true),
        ] {
            let mut b = BlockedMbd::new();
            b.capture(&mbd);
            let sizes = assert_valid_schedule(&b);
            assert_eq!(sizes[LANES] > 0, full_groups, "{name}: {sizes:?}");
        }
    }

    /// Solves `mbd` cold and then warm from the solution, scalar and
    /// blocked, and asserts every stat and iterate bit equal. Returns
    /// whether the relaxation controller switched away from `omega`.
    fn assert_blocked_matches_scalar(mbd: &TableMbd, omega: f64, ctx: &str) -> bool {
        let marginal = exact_phase_marginal(mbd);
        let mut b = BlockedMbd::new();
        b.capture(mbd);
        let opts = SolveOptions::default().with_sor(omega);
        let mut ws_b = SolveWorkspace::new();
        let mut warm = None;
        let mut switched = false;
        for pass in ["cold", "warm"] {
            let start = warm.as_deref();
            let (s, ws_s) = solve_staged(mbd, &marginal, start, &opts).unwrap();
            ws_b.stage_pi(marginal.len() * mbd.num_levels(), start);
            let bl =
                solve_mbd_projected_blocked_inplace_ws(&b, &marginal, &opts, &mut ws_b).unwrap();
            let ctx = format!("{ctx} omega {omega} {pass}");
            assert_eq!(s.sweeps, bl.sweeps, "{ctx}");
            assert_eq!(s.residual.to_bits(), bl.residual.to_bits(), "{ctx}");
            assert_eq!(s.residual_evals, bl.residual_evals, "{ctx}");
            assert_eq!(s.omega.to_bits(), bl.omega.to_bits(), "{ctx}");
            assert_bitwise_eq(ws_s.pi(), ws_b.pi(), &ctx);
            switched |= bl.omega != omega;
            warm = Some(ws_s.pi().to_vec());
        }
        switched
    }

    #[test]
    fn grouped_sweeps_are_bitwise_equal_to_scalar() {
        let mut cases = vec![
            ("lattice 6x8".to_string(), lattice(6, 8, 12, 4)),
            ("lattice 3x17".to_string(), lattice(3, 17, 9, 8)),
            ("dense 0.1".to_string(), dense(40, 10, 0.1, 6)),
            ("dense 0.3".to_string(), dense(24, 8, 0.3, 2)),
        ];
        // Every column length the gather dispatches on, on a lattice
        // whose schedule holds groups of every size.
        for levels in gather_lengths() {
            let mbd = lattice(5, 7, levels, levels as u64);
            let mut b = BlockedMbd::new();
            b.capture(&mbd);
            let sizes = assert_valid_schedule(&b);
            assert!(sizes[1..].iter().all(|&n| n > 0), "group sizes {sizes:?}");
            cases.push((format!("lattice 5x7, {levels} levels"), mbd));
        }
        let mut switched = 0;
        for omega in [1.0, 1.2] {
            for (name, mbd) in &cases {
                // Sweep by sweep in both directions, then whole solves.
                assert_sweeps_match_scalar(mbd, &exact_phase_marginal(mbd), omega, name);
                switched += usize::from(assert_blocked_matches_scalar(mbd, omega, name));
            }
        }
        assert!(switched > 0, "no case switched relaxation");
    }

    #[test]
    fn zero_exit_phase_errors_name_the_lowest_one_in_both_kernels() {
        // Phases 2 and 4 of a 5-phase ring keep no outgoing transition.
        let mbd = TableMbd::random(5, 8, 3).with_phase_rates(vec![
            vec![(1, 0.02)],
            vec![(2, 0.03)],
            vec![],
            vec![(4, 0.05)],
            vec![],
        ]);
        let marginal = [0.2; 5];
        let opts = SolveOptions::default();
        let mut b = BlockedMbd::new();
        b.capture(&mbd);
        let mut ws = SolveWorkspace::new();
        let blocked = solve_mbd_projected_blocked_ws(&b, &marginal, None, &opts, &mut ws);
        let scalar = solve_staged(&mbd, &marginal, None, &opts).map(|(stats, _)| stats);
        for (kernel, result) in [("blocked", blocked), ("scalar", scalar)] {
            match result {
                Err(CtmcError::InvalidGenerator { reason }) => assert_eq!(
                    reason, "phase 2 has zero exit rate in a multi-phase chain",
                    "{kernel}"
                ),
                other => panic!("{kernel}: {other:?}"),
            }
        }
    }

    #[test]
    fn one_phase_zero_exit_chain_is_solved_as_a_birth_death_chain() {
        let mbd = TableMbd::random(1, 6, 5).with_phase_rates(vec![vec![]]);
        let opts = SolveOptions::default();
        let mut b = BlockedMbd::new();
        b.capture(&mbd);
        let mut ws_b = SolveWorkspace::new();
        let bl = solve_mbd_projected_blocked_ws(&b, &[1.0], None, &opts, &mut ws_b).unwrap();
        let (s, ws_s) = solve_staged(&mbd, &[1.0], None, &opts).unwrap();
        for stats in [s, bl] {
            assert_eq!(stats.sweeps, 1);
            assert_eq!(stats.residual.to_bits(), 0.0f64.to_bits());
            assert_eq!(stats.residual_evals, 0);
            assert_eq!(stats.omega.to_bits(), opts.sor_omega.to_bits());
        }
        assert_bitwise_eq(ws_s.pi(), ws_b.pi(), "one phase");
        // The product form, normalized once more by the workspace.
        let mut expect = vec![0.0; 6];
        solve_single_birth_death(&mbd, &mut expect);
        for (x, e) in ws_b.pi().iter().zip(&expect) {
            assert!((x - e).abs() <= 1e-15 * e, "{x} vs {e}");
        }
    }
}
