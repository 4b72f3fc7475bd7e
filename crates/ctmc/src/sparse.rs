//! Sparse (CSR) generator matrices and the triplet builder that assembles
//! them.
//!
//! Assembly is a single sequential validation-and-build pass:
//! triplets are validated, sorted, and merged straight into the CSR
//! arrays and their transpose. Models assemble through
//! [`SparseGenerator::from_transitions`], which enumerates rows in
//! order. The CSR is the one input of the flat solvers (point
//! Gauss–Seidel, power iteration, GTH, uniformization and the balance
//! residual); the production sweep kernels run on the block structure
//! instead ([`crate::BlockedMbd`]).

use crate::error::CtmcError;
use crate::transitions::Transitions;

/// Accumulates `(source, target, rate)` triplets and assembles a
/// [`SparseGenerator`].
///
/// Duplicate `(source, target)` entries are summed. Diagonal entries are
/// rejected at [`build`](TripletBuilder::build) time: the diagonal of a
/// generator is implied by its off-diagonal rows.
///
/// # Example
///
/// ```
/// use gprs_ctmc::TripletBuilder;
///
/// let mut b = TripletBuilder::new(3);
/// b.push(0, 1, 2.0);
/// b.push(1, 2, 1.0);
/// b.push(2, 0, 0.5);
/// let gen = b.build()?;
/// assert_eq!(gen.num_nonzeros(), 3);
/// # Ok::<(), gprs_ctmc::CtmcError>(())
/// ```
#[derive(Debug, Clone)]
pub struct TripletBuilder {
    n: usize,
    entries: Vec<(u32, u32, f64)>,
}

impl TripletBuilder {
    /// Creates a builder for a chain with `n` states.
    ///
    /// # Panics
    ///
    /// Panics if `n` exceeds `u32::MAX` (state indices are stored as
    /// `u32`).
    pub fn new(n: usize) -> Self {
        assert!(n <= u32::MAX as usize, "state count {n} exceeds u32 range");
        TripletBuilder {
            n,
            entries: Vec::new(),
        }
    }

    /// Creates a builder with pre-allocated capacity for `cap` triplets.
    ///
    /// # Panics
    ///
    /// As [`new`](TripletBuilder::new).
    pub fn with_capacity(n: usize, cap: usize) -> Self {
        assert!(n <= u32::MAX as usize, "state count {n} exceeds u32 range");
        TripletBuilder {
            n,
            entries: Vec::with_capacity(cap),
        }
    }

    /// Records the transition `source -> target` at `rate`.
    ///
    /// Rates of exactly zero are silently dropped (convenient when a rate
    /// formula can evaluate to zero).
    ///
    /// Bounds are checked here only in debug builds — `push` sits on the
    /// hot path of model enumeration. Release builds validate every
    /// triplet once, at [`build`](TripletBuilder::build) time.
    ///
    /// # Panics
    ///
    /// Panics in debug builds if `source` or `target` is out of bounds.
    #[inline]
    pub fn push(&mut self, source: usize, target: usize, rate: f64) {
        debug_assert!(
            source < self.n,
            "source {source} out of bounds ({})",
            self.n
        );
        debug_assert!(
            target < self.n,
            "target {target} out of bounds ({})",
            self.n
        );
        if rate == 0.0 {
            return;
        }
        // Saturating narrowing: an index beyond u32 becomes u32::MAX,
        // which is always >= n (builders cap n at u32::MAX), so the
        // build-time validation still rejects it — a plain `as` cast
        // could alias a wild index back into bounds.
        let source = source.min(u32::MAX as usize) as u32;
        let target = target.min(u32::MAX as usize) as u32;
        self.entries.push((source, target, rate));
    }

    /// Number of recorded (nonzero) triplets so far.
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// Whether no triplets have been recorded.
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }

    /// Assembles the CSR generator, summing duplicates.
    ///
    /// Validation is fused into assembly: each triplet is checked once,
    /// just before the sort pass, rather than in a separate scan before
    /// a second assembly scan.
    ///
    /// # Errors
    ///
    /// Returns [`CtmcError::EmptyChain`] for `n == 0`, and
    /// [`CtmcError::InvalidGenerator`] if any rate is negative,
    /// non-finite, out of bounds, or sits on the diagonal.
    pub fn build(self) -> Result<SparseGenerator, CtmcError> {
        SparseGenerator::try_from_triplets(self.n, self.entries)
    }
}

/// Checks one triplet slice; returns the first defect found.
fn validate_triplets(n: usize, entries: &[(u32, u32, f64)]) -> Result<(), CtmcError> {
    for &(i, j, rate) in entries {
        if i as usize >= n || j as usize >= n {
            return Err(CtmcError::InvalidGenerator {
                reason: format!("transition {i} -> {j} out of bounds (n = {n})"),
            });
        }
        if i == j {
            return Err(CtmcError::InvalidGenerator {
                reason: format!("diagonal entry at state {i}"),
            });
        }
        if !rate.is_finite() || rate < 0.0 {
            return Err(CtmcError::InvalidGenerator {
                reason: format!("rate {rate} on transition {i} -> {j}"),
            });
        }
    }
    Ok(())
}

/// Sorts triplets by `(row, col)`, validating each entry exactly once
/// first.
fn sort_and_validate(
    n: usize,
    mut entries: Vec<(u32, u32, f64)>,
) -> Result<Vec<(u32, u32, f64)>, CtmcError> {
    validate_triplets(n, &entries)?;
    entries.sort_unstable_by_key(|e| (e.0, e.1));
    Ok(entries)
}

/// Enumerates (and validates) the outgoing triplets of a model, in row
/// order.
fn enumerate_rows<G: Transitions + ?Sized>(gen: &G) -> Result<Vec<(u32, u32, f64)>, CtmcError> {
    let n = gen.num_states();
    let mut out = Vec::new();
    for i in 0..n {
        let mut bad: Option<String> = None;
        gen.for_each_outgoing(i, &mut |j, rate| {
            if j >= n || j == i || !rate.is_finite() || rate < 0.0 {
                bad = Some(format!("transition {i} -> {j} with rate {rate}"));
            } else if rate > 0.0 {
                out.push((i as u32, j as u32, rate));
            }
        });
        if let Some(reason) = bad {
            return Err(CtmcError::InvalidGenerator { reason });
        }
    }
    Ok(out)
}

/// A CTMC generator stored in compressed sparse row form, together with
/// its transpose (for incoming-transition gathers) and per-state exit
/// rates.
///
/// Construct via [`TripletBuilder`] or [`SparseGenerator::from_transitions`].
#[derive(Debug, Clone)]
pub struct SparseGenerator {
    n: usize,
    row_ptr: Vec<usize>,
    col: Vec<u32>,
    val: Vec<f64>,
    trow_ptr: Vec<usize>,
    tcol: Vec<u32>,
    tval: Vec<f64>,
    exit: Vec<f64>,
    /// CSR slot `k` scatters to transpose slot `tperm[k]` — precomputed
    /// so [`refill_values`](Self::refill_values) can rebuild the
    /// transpose without re-deriving the counting sort (and without
    /// allocating a cursor array).
    tperm: Vec<u32>,
}

impl SparseGenerator {
    /// Validates, sorts, deduplicates and assembles triplets into CSR
    /// plus transpose — one logical pass per triplet instead of the
    /// historical validate-scan followed by an assembly re-scan.
    fn try_from_triplets(n: usize, entries: Vec<(u32, u32, f64)>) -> Result<Self, CtmcError> {
        if n == 0 {
            return Err(CtmcError::EmptyChain);
        }
        let sorted = sort_and_validate(n, entries)?;
        Ok(Self::assemble_sorted(n, sorted))
    }

    /// Assembles already-sorted, already-validated triplets.
    fn assemble_sorted(n: usize, sorted: Vec<(u32, u32, f64)>) -> Self {
        // Single merge pass: deduplicate while filling the CSR arrays
        // and the transpose's column counts.
        let mut row_ptr = vec![0usize; n + 1];
        let mut col: Vec<u32> = Vec::with_capacity(sorted.len());
        let mut val: Vec<f64> = Vec::with_capacity(sorted.len());
        let mut trow_ptr = vec![0usize; n + 1];
        let mut last: Option<(u32, u32)> = None;
        for (i, j, r) in sorted {
            if last == Some((i, j)) {
                // Duplicate (row, col): merge into the previous entry,
                // which exists because `last` is set.
                if let Some(prev) = val.last_mut() {
                    *prev += r;
                }
                continue;
            }
            last = Some((i, j));
            row_ptr[i as usize + 1] += 1;
            trow_ptr[j as usize + 1] += 1;
            col.push(j);
            val.push(r);
        }
        for i in 0..n {
            row_ptr[i + 1] += row_ptr[i];
            trow_ptr[i + 1] += trow_ptr[i];
        }

        // Exit rates as row sums over the *merged* values, in column
        // order — the same association refill_values (and its rollback)
        // uses, so a refill reproduces assembly's exit rates bit for
        // bit even when a row holds merged duplicate entries.
        let mut exit = vec![0.0f64; n];
        for (i, e) in exit.iter_mut().enumerate() {
            *e = val[row_ptr[i]..row_ptr[i + 1]].iter().sum();
        }

        // Transpose scatter (counting sort on target), recording the
        // CSR-slot -> transpose-slot permutation for later value
        // refills.
        let nnz = col.len();
        assert!(nnz <= u32::MAX as usize, "nonzero count exceeds u32 range");
        let mut tcol = vec![0u32; nnz];
        let mut tval = vec![0.0f64; nnz];
        let mut tperm = vec![0u32; nnz];
        let mut cursor = trow_ptr.clone();
        for i in 0..n {
            for k in row_ptr[i]..row_ptr[i + 1] {
                let j = col[k] as usize;
                let slot = cursor[j];
                tcol[slot] = i as u32;
                tval[slot] = val[k];
                tperm[k] = slot as u32;
                cursor[j] += 1;
            }
        }

        SparseGenerator {
            n,
            row_ptr,
            col,
            val,
            trow_ptr,
            tcol,
            tval,
            exit,
            tperm,
        }
    }

    /// Assembles a sparse generator by enumerating every row of a model.
    ///
    /// # Errors
    ///
    /// Returns [`CtmcError::EmptyChain`] if the model has no states, or
    /// [`CtmcError::InvalidGenerator`] if the model reports an invalid
    /// transition.
    pub fn from_transitions<G: Transitions + ?Sized>(gen: &G) -> Result<Self, CtmcError> {
        let n = gen.num_states();
        if n == 0 {
            return Err(CtmcError::EmptyChain);
        }
        let entries = enumerate_rows(gen)?;
        // Rows arrive in order and validated; only the in-row column
        // sort remains (pdqsort is adaptive on the nearly-sorted input).
        let mut sorted = entries;
        sorted.sort_unstable_by_key(|e| (e.0, e.1));
        Ok(Self::assemble_sorted(n, sorted))
    }

    /// Overwrites the stored rates in place by re-enumerating a model
    /// with the **same sparsity pattern** — the numeric half of the
    /// symbolic/numeric split behind parameter sweeps.
    ///
    /// The symbolic work of assembly (triplet sort, deduplication,
    /// CSR + transpose layout) depends only on *which* transitions
    /// exist, which for a fixed model shape never changes across a
    /// sweep; only the rates do. `refill_values` re-runs the transition
    /// enumeration and scatters the new rates into the existing
    /// pattern: no sorting, no allocation, and the transpose is rebuilt
    /// through the precomputed slot permutation. Values, transpose
    /// values and exit rates come out bit-identical to a from-scratch
    /// assembly of the same model whenever each `(source, target)` pair
    /// is enumerated at most twice (f64 addition is commutative, so a
    /// duplicate pair sums identically in either order; three or more
    /// duplicates may differ in the last ulp because the association
    /// order changes). Rates of exactly zero stay as explicit zeros in
    /// the pattern.
    ///
    /// In debug builds a transition outside the stored pattern fails a
    /// `debug_assert` immediately; release builds report it as
    /// [`CtmcError::InvalidGenerator`]. A failed refill **rolls back**:
    /// the transpose (only written on success) still holds the previous
    /// values, so they are scattered back and the matrix stays
    /// consistent with its pre-call state (exit rates recomputed as row
    /// sums, which may differ in the last ulp for rows with duplicate
    /// pattern entries).
    ///
    /// # Errors
    ///
    /// * [`CtmcError::DimensionMismatch`] — `gen` has a different state
    ///   count.
    /// * [`CtmcError::InvalidGenerator`] — a transition is invalid
    ///   (negative, non-finite, diagonal, out of bounds) or absent from
    ///   the stored pattern.
    pub fn refill_values<G: Transitions + ?Sized>(&mut self, gen: &G) -> Result<(), CtmcError> {
        if gen.num_states() != self.n {
            return Err(CtmcError::DimensionMismatch {
                expected: self.n,
                actual: gen.num_states(),
            });
        }
        let n = self.n;
        let mut failed: Option<String> = None;
        for i in 0..n {
            let lo = self.row_ptr[i];
            let hi = self.row_ptr[i + 1];
            let (cols, vals) = (&self.col[lo..hi], &mut self.val[lo..hi]);
            vals.fill(0.0);
            let mut bad: Option<String> = None;
            gen.for_each_outgoing(i, &mut |j, rate| {
                if bad.is_some() {
                    return;
                }
                if j >= n || j == i || !rate.is_finite() || rate < 0.0 {
                    bad = Some(format!("transition {i} -> {j} with rate {rate}"));
                    return;
                }
                if rate == 0.0 {
                    // Fresh assembly drops exact zeros, so they cannot
                    // have a slot; skipping keeps the semantics aligned.
                    return;
                }
                match cols.binary_search(&(j as u32)) {
                    Ok(slot) => vals[slot] += rate,
                    Err(_) => {
                        debug_assert!(
                            false,
                            "refill pattern mismatch: transition {i} -> {j} absent from template"
                        );
                        bad = Some(format!(
                            "refill pattern mismatch: transition {i} -> {j} absent from template"
                        ));
                    }
                }
            });
            if bad.is_some() {
                failed = bad;
                break;
            }
            // Exit rate = row sum over the merged values in column
            // order — the same association fresh assembly uses.
            self.exit[i] = vals.iter().sum();
        }

        if let Some(reason) = failed {
            // Roll back the partially refilled rows from the transpose,
            // which still holds the pre-call values.
            for (k, &slot) in self.tperm.iter().enumerate() {
                self.val[k] = self.tval[slot as usize];
            }
            for i in 0..n {
                self.exit[i] = self.val[self.row_ptr[i]..self.row_ptr[i + 1]].iter().sum();
            }
            return Err(CtmcError::InvalidGenerator { reason });
        }

        // Transpose values through the precomputed scatter permutation.
        for (k, &slot) in self.tperm.iter().enumerate() {
            self.tval[slot as usize] = self.val[k];
        }
        Ok(())
    }

    /// Whether `other` stores exactly the same sparsity pattern (rows,
    /// columns and state count; values are ignored). Refilling from a
    /// model is valid precisely when the model's fresh assembly would
    /// have this pattern.
    pub fn same_pattern(&self, other: &SparseGenerator) -> bool {
        self.n == other.n && self.row_ptr == other.row_ptr && self.col == other.col
    }

    /// Number of states.
    pub fn num_states(&self) -> usize {
        self.n
    }

    /// Number of stored off-diagonal nonzeros.
    pub fn num_nonzeros(&self) -> usize {
        self.val.len()
    }

    /// The outgoing row of `state` as parallel `(targets, rates)` slices.
    pub fn row(&self, state: usize) -> (&[u32], &[f64]) {
        let lo = self.row_ptr[state];
        let hi = self.row_ptr[state + 1];
        (&self.col[lo..hi], &self.val[lo..hi])
    }

    /// The incoming column of `state` as parallel `(sources, rates)` slices.
    pub fn column(&self, state: usize) -> (&[u32], &[f64]) {
        let lo = self.trow_ptr[state];
        let hi = self.trow_ptr[state + 1];
        (&self.tcol[lo..hi], &self.tval[lo..hi])
    }

    /// The probability flow into `state`: `Σ_i pi[i] · q_{i, state}`,
    /// accumulated over the stored transpose column in source order —
    /// the gather of a Gauss–Seidel update and of its residual.
    #[inline]
    pub(crate) fn inflow(&self, state: usize, pi: &[f64]) -> f64 {
        let (cols, vals) = self.column(state);
        let mut total = 0.0f64;
        for (&i, &r) in cols.iter().zip(vals) {
            total += pi[i as usize] * r;
        }
        total
    }

    /// Per-state exit rates (negated diagonal of `Q`).
    pub fn exit_rates(&self) -> &[f64] {
        &self.exit
    }

    /// Maximum exit rate over all states (the uniformization constant
    /// before head-room scaling). Returns 0 for a chain with no
    /// transitions.
    pub fn max_exit_rate(&self) -> f64 {
        self.exit.iter().cloned().fold(0.0, f64::max)
    }

    /// Checks that every state can reach every other state (generator
    /// irreducibility) via two breadth-first searches (forward from 0 and
    /// backward from 0 over transposed edges).
    pub fn is_irreducible(&self) -> bool {
        if self.n == 0 {
            return false;
        }
        let reach_fwd = self.bfs(|s, f| {
            let (cols, _) = self.row(s);
            for &c in cols {
                f(c as usize);
            }
        });
        let reach_bwd = self.bfs(|s, f| {
            let (cols, _) = self.column(s);
            for &c in cols {
                f(c as usize);
            }
        });
        reach_fwd && reach_bwd
    }

    fn bfs(&self, neighbors: impl Fn(usize, &mut dyn FnMut(usize))) -> bool {
        let mut seen = vec![false; self.n];
        let mut queue = std::collections::VecDeque::new();
        seen[0] = true;
        queue.push_back(0usize);
        let mut count = 1usize;
        while let Some(s) = queue.pop_front() {
            neighbors(s, &mut |t| {
                if !seen[t] {
                    seen[t] = true;
                    count += 1;
                    queue.push_back(t);
                }
            });
        }
        count == self.n
    }
}

/// Lets an assembled matrix be re-assembled (or refill another with the
/// same pattern) like any other model.
impl Transitions for SparseGenerator {
    fn num_states(&self) -> usize {
        self.n
    }

    fn for_each_outgoing(&self, state: usize, visit: &mut dyn FnMut(usize, f64)) {
        let (cols, vals) = self.row(state);
        for (&j, &r) in cols.iter().zip(vals) {
            visit(j as usize, r);
        }
    }
}

/// A valid CSR whose state 0 has two rates of 1e308, so its exit rate
/// overflows to infinity: every flat solver must fail on it with a
/// typed error, never hang or panic.
#[cfg(test)]
pub(crate) fn overflowing_exit_chain() -> SparseGenerator {
    let mut b = TripletBuilder::new(3);
    b.push(0, 1, 1e308);
    b.push(0, 2, 1e308);
    b.push(1, 0, 1.0);
    b.push(2, 0, 1.0);
    b.build().expect("finite, non-negative rates")
}

#[cfg(test)]
mod tests {
    use super::*;

    fn three_cycle() -> SparseGenerator {
        let mut b = TripletBuilder::new(3);
        b.push(0, 1, 2.0);
        b.push(1, 2, 1.0);
        b.push(2, 0, 0.5);
        b.build().unwrap()
    }

    #[test]
    fn builds_csr_and_transpose() {
        let g = three_cycle();
        assert_eq!(g.num_states(), 3);
        assert_eq!(g.num_nonzeros(), 3);
        assert_eq!(g.row(0), (&[1u32][..], &[2.0][..]));
        assert_eq!(g.column(0), (&[2u32][..], &[0.5][..]));
        assert_eq!(g.exit_rates(), &[2.0, 1.0, 0.5]);
        assert_eq!(g.max_exit_rate(), 2.0);
    }

    #[test]
    fn duplicates_are_summed() {
        let mut b = TripletBuilder::new(2);
        b.push(0, 1, 1.0);
        b.push(0, 1, 2.5);
        b.push(1, 0, 1.0);
        let g = b.build().unwrap();
        assert_eq!(g.num_nonzeros(), 2);
        assert_eq!(g.row(0).1, &[3.5]);
    }

    #[test]
    fn zero_rates_dropped() {
        let mut b = TripletBuilder::new(2);
        b.push(0, 1, 0.0);
        b.push(0, 1, 1.0);
        b.push(1, 0, 1.0);
        assert_eq!(b.len(), 2);
    }

    #[test]
    fn rejects_diagonal() {
        let mut b = TripletBuilder::new(2);
        b.push(0, 0, 1.0);
        assert!(matches!(b.build(), Err(CtmcError::InvalidGenerator { .. })));
    }

    #[test]
    fn rejects_negative_rate() {
        let mut b = TripletBuilder::new(2);
        b.push(0, 1, -1.0);
        assert!(matches!(b.build(), Err(CtmcError::InvalidGenerator { .. })));
    }

    #[test]
    fn rejects_empty_chain() {
        let b = TripletBuilder::new(0);
        assert_eq!(b.build().unwrap_err(), CtmcError::EmptyChain);
    }

    #[test]
    #[cfg(debug_assertions)]
    #[should_panic(expected = "out of bounds")]
    fn push_panics_out_of_bounds_in_debug() {
        let mut b = TripletBuilder::new(2);
        b.push(0, 5, 1.0);
    }

    #[test]
    fn build_rejects_out_of_bounds() {
        // Bypass the debug-only push check to exercise the build-time
        // validation release builds rely on.
        let mut b = TripletBuilder::new(2);
        b.entries.push((0, 5, 1.0));
        assert!(matches!(b.build(), Err(CtmcError::InvalidGenerator { .. })));
    }

    #[test]
    fn irreducibility() {
        assert!(three_cycle().is_irreducible());
        // Two disconnected states.
        let mut b = TripletBuilder::new(4);
        b.push(0, 1, 1.0);
        b.push(1, 0, 1.0);
        b.push(2, 3, 1.0);
        b.push(3, 2, 1.0);
        assert!(!b.build().unwrap().is_irreducible());
        // Absorbing state (reachable but cannot return).
        let mut b = TripletBuilder::new(2);
        b.push(0, 1, 1.0);
        assert!(!b.build().unwrap().is_irreducible());
    }

    /// A parameterized ring whose pattern is rate-independent.
    struct Ring {
        n: usize,
        scale: f64,
    }

    impl Transitions for Ring {
        fn num_states(&self) -> usize {
            self.n
        }
        fn for_each_outgoing(&self, state: usize, visit: &mut dyn FnMut(usize, f64)) {
            visit((state + 1) % self.n, self.scale * (1.0 + state as f64));
            visit(
                (state + self.n - 1) % self.n,
                self.scale / (1.0 + state as f64),
            );
        }
    }

    #[test]
    fn refill_matches_fresh_assembly_bitwise() {
        let mut g = SparseGenerator::from_transitions(&Ring { n: 9, scale: 1.0 }).unwrap();
        for scale in [0.25, 3.5, 1.0e-3] {
            let model = Ring { n: 9, scale };
            g.refill_values(&model).unwrap();
            let fresh = SparseGenerator::from_transitions(&model).unwrap();
            assert!(g.same_pattern(&fresh));
            for s in 0..9 {
                assert_eq!(g.row(s), fresh.row(s), "row {s}");
                assert_eq!(g.column(s), fresh.column(s), "column {s}");
            }
            assert_eq!(g.exit_rates(), fresh.exit_rates());
        }
    }

    #[test]
    fn refill_sums_duplicate_transitions() {
        struct Doubled;
        impl Transitions for Doubled {
            fn num_states(&self) -> usize {
                2
            }
            fn for_each_outgoing(&self, state: usize, visit: &mut dyn FnMut(usize, f64)) {
                visit(1 - state, 1.5);
                visit(1 - state, 2.5);
            }
        }
        let mut g = SparseGenerator::from_transitions(&Doubled).unwrap();
        assert_eq!(g.num_nonzeros(), 2);
        g.refill_values(&Doubled).unwrap();
        assert_eq!(g.row(0).1, &[4.0]);
        assert_eq!(g.exit_rates(), &[4.0, 4.0]);
    }

    #[test]
    fn refill_exit_rates_match_assembly_with_offset_duplicates() {
        // Duplicates on a column that is *not* the row's first entry,
        // with magnitudes chosen so association order is visible at the
        // ulp level: exit must still match fresh assembly bit for bit
        // (both sum the merged values in column order).
        struct Lopsided;
        impl Transitions for Lopsided {
            fn num_states(&self) -> usize {
                3
            }
            fn for_each_outgoing(&self, state: usize, visit: &mut dyn FnMut(usize, f64)) {
                if state == 0 {
                    visit(1, 1e16);
                    visit(2, 1.0);
                    visit(2, 1.0);
                } else {
                    visit(0, 1.0);
                }
            }
        }
        let fresh = SparseGenerator::from_transitions(&Lopsided).unwrap();
        let mut refilled = fresh.clone();
        refilled.refill_values(&Lopsided).unwrap();
        assert_eq!(refilled.exit_rates(), fresh.exit_rates());
        for s in 0..3 {
            assert_eq!(refilled.row(s), fresh.row(s));
        }
    }

    #[test]
    fn refill_rejects_wrong_state_count() {
        let mut g = SparseGenerator::from_transitions(&Ring { n: 5, scale: 1.0 }).unwrap();
        let err = g.refill_values(&Ring { n: 6, scale: 1.0 }).unwrap_err();
        assert!(matches!(err, CtmcError::DimensionMismatch { .. }));
    }

    #[test]
    fn refill_rejects_invalid_rate() {
        let mut g = SparseGenerator::from_transitions(&Ring { n: 5, scale: 1.0 }).unwrap();
        let err = g.refill_values(&Ring { n: 5, scale: -1.0 }).unwrap_err();
        assert!(matches!(err, CtmcError::InvalidGenerator { .. }));
    }

    #[test]
    fn failed_refill_rolls_back_to_previous_values() {
        // Valid on rows 0..3, invalid (negative) rate on row 3: the
        // refill fails after partially rewriting earlier rows and must
        // restore the previous consistent matrix.
        struct HalfBad {
            scale: f64,
        }
        impl Transitions for HalfBad {
            fn num_states(&self) -> usize {
                5
            }
            fn for_each_outgoing(&self, state: usize, visit: &mut dyn FnMut(usize, f64)) {
                let rate = if state == 3 { -1.0 } else { self.scale };
                visit((state + 1) % 5, rate);
                visit((state + 4) % 5, self.scale);
            }
        }
        let good = Ring { n: 5, scale: 2.0 };
        let mut g = SparseGenerator::from_transitions(&good).unwrap();
        let before = g.clone();
        let err = g.refill_values(&HalfBad { scale: 9.0 }).unwrap_err();
        assert!(matches!(err, CtmcError::InvalidGenerator { .. }));
        for s in 0..5 {
            assert_eq!(g.row(s), before.row(s), "row {s} not rolled back");
            assert_eq!(g.column(s), before.column(s), "column {s} not rolled back");
        }
        assert_eq!(g.exit_rates(), before.exit_rates());
        // The rolled-back matrix is still refillable.
        g.refill_values(&Ring { n: 5, scale: 0.5 }).unwrap();
        let fresh = SparseGenerator::from_transitions(&Ring { n: 5, scale: 0.5 }).unwrap();
        assert_eq!(g.row(0), fresh.row(0));
    }

    #[test]
    #[cfg(debug_assertions)]
    #[should_panic(expected = "pattern mismatch")]
    fn refill_mismatched_pattern_debug_asserts() {
        // The three-cycle's pattern has no 0 -> 2 edge; a model that
        // enumerates one must be caught by the debug validation.
        let mut g = three_cycle();
        struct Widened;
        impl Transitions for Widened {
            fn num_states(&self) -> usize {
                3
            }
            fn for_each_outgoing(&self, state: usize, visit: &mut dyn FnMut(usize, f64)) {
                visit((state + 1) % 3, 1.0);
                visit((state + 2) % 3, 1.0);
            }
        }
        let _ = g.refill_values(&Widened);
    }

    #[test]
    fn from_transitions_round_trips() {
        let g = three_cycle();
        let g2 = SparseGenerator::from_transitions(&g).unwrap();
        assert_eq!(g2.num_nonzeros(), g.num_nonzeros());
        for s in 0..3 {
            assert_eq!(g2.row(s), g.row(s));
        }
    }

    #[test]
    fn transitions_trait_impl_matches_storage() {
        let g = three_cycle();
        let mut seen = Vec::new();
        g.for_each_outgoing(2, &mut |j, r| seen.push((j, r)));
        assert_eq!(seen, vec![(0, 0.5)]);
        // The gather reads the same entry through the transpose.
        assert_eq!(g.inflow(0, &[1.0, 1.0, 4.0]), 2.0);
    }
}
