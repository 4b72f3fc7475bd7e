//! The `(n, k, m, r)` state space and its linear indexing.
//!
//! A state of the cell is
//!
//! * `n` — active GSM voice calls, `0..=N_GSM`,
//! * `k` — packets in the BSC buffer, `0..=K`,
//! * `m` — active GPRS sessions, `0..=M`,
//! * `r` — sessions whose IPP is *off*, `0..=m`.
//!
//! The `(m, r)` pair with `r ≤ m` is triangular: it is flattened as
//! `tri(m, r) = m(m+1)/2 + r`, giving the paper's
//! `½(M+1)(M+2)(N_GSM+1)(K+1)` state count. The full linear index is
//! `((n·T + tri(m, r))·(K+1) + k)` with `T = ½(M+1)(M+2)` — the buffer
//! level `k` varies fastest. This makes each *phase* `(n, m, r)` a
//! contiguous column of levels, which is exactly the layout the block
//! tridiagonal solver (`gprs_ctmc::mbd`) works on, and keeps the fast
//! `k ± 1` transitions cache-local for the point solvers too.

/// One state of the cell model.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct CellState {
    /// Active GSM voice calls.
    pub n: usize,
    /// Packets queued in the BSC buffer.
    pub k: usize,
    /// Active GPRS sessions.
    pub m: usize,
    /// GPRS sessions currently in IPP *off* state (`r <= m`).
    pub r: usize,
}

/// Dimensions and index arithmetic of the state space.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct StateSpace {
    n_gsm: usize,
    k_cap: usize,
    m_cap: usize,
    tri: usize,
}

impl StateSpace {
    /// Creates the state space for `N_GSM` voice channels, buffer
    /// capacity `K`, and session limit `M`.
    pub fn new(n_gsm: usize, k_cap: usize, m_cap: usize) -> Self {
        let tri = (m_cap + 1) * (m_cap + 2) / 2;
        StateSpace {
            n_gsm,
            k_cap,
            m_cap,
            tri,
        }
    }

    /// Maximum GSM calls `N_GSM`.
    pub fn n_gsm(&self) -> usize {
        self.n_gsm
    }

    /// Buffer capacity `K`.
    pub fn k_cap(&self) -> usize {
        self.k_cap
    }

    /// Session limit `M`.
    pub fn m_cap(&self) -> usize {
        self.m_cap
    }

    /// Number of `(m, r)` pairs, `T = ½(M+1)(M+2)`.
    pub fn tri_size(&self) -> usize {
        self.tri
    }

    /// Total number of states.
    pub fn num_states(&self) -> usize {
        (self.n_gsm + 1) * (self.k_cap + 1) * self.tri
    }

    /// Flattened index of the `(m, r)` pair.
    #[inline]
    pub fn tri_index(m: usize, r: usize) -> usize {
        debug_assert!(r <= m);
        m * (m + 1) / 2 + r
    }

    /// Number of `(n, m, r)` phases, `(N_GSM + 1)·T`.
    pub fn num_phases(&self) -> usize {
        (self.n_gsm + 1) * self.tri
    }

    /// Phase index of `(n, m, r)`: `n·T + tri(m, r)`.
    #[inline]
    pub fn phase_index(&self, n: usize, m: usize, r: usize) -> usize {
        debug_assert!(n <= self.n_gsm, "n out of range");
        n * self.tri + Self::tri_index(m, r)
    }

    /// Inverse of [`phase_index`](Self::phase_index).
    #[inline]
    pub fn phase_decode(&self, phase: usize) -> (usize, usize, usize) {
        debug_assert!(phase < self.num_phases(), "phase out of range");
        let n = phase / self.tri;
        let (m, r) = Self::tri_decode(phase % self.tri);
        (n, m, r)
    }

    /// Linear index of a state: `phase(n, m, r)·(K+1) + k`.
    ///
    /// # Panics
    ///
    /// Debug-asserts that all components are in range.
    #[inline]
    pub fn index(&self, s: CellState) -> usize {
        debug_assert!(s.n <= self.n_gsm, "n out of range");
        debug_assert!(s.k <= self.k_cap, "k out of range");
        debug_assert!(s.m <= self.m_cap, "m out of range");
        debug_assert!(s.r <= s.m, "r exceeds m");
        (s.n * self.tri + Self::tri_index(s.m, s.r)) * (self.k_cap + 1) + s.k
    }

    /// Inverse of [`index`](Self::index).
    ///
    /// # Panics
    ///
    /// Panics if `idx >= num_states()`.
    #[inline]
    pub fn decode(&self, idx: usize) -> CellState {
        assert!(idx < self.num_states(), "state index out of range");
        let k = idx % (self.k_cap + 1);
        let phase = idx / (self.k_cap + 1);
        let t = phase % self.tri;
        let n = phase / self.tri;
        let (m, r) = Self::tri_decode(t);
        CellState { n, k, m, r }
    }

    /// Inverse of [`tri_index`](Self::tri_index).
    #[inline]
    pub fn tri_decode(t: usize) -> (usize, usize) {
        // m = floor((sqrt(8t + 1) − 1)/2), then correct any f64 rounding.
        let mut m = (((8.0 * t as f64 + 1.0).sqrt() - 1.0) / 2.0) as usize;
        while m * (m + 1) / 2 > t {
            m -= 1;
        }
        while (m + 1) * (m + 2) / 2 <= t {
            m += 1;
        }
        let r = t - m * (m + 1) / 2;
        (m, r)
    }

    /// Iterates over all phases `(n, m, r)` in phase-index order: `n`
    /// outermost, then `m`, then `r`. Phase `p` of the walk is
    /// [`phase_decode(p)`](Self::phase_decode), with no division per
    /// phase; its column of levels is `pi[p·(K+1)..(p+1)·(K+1)]`.
    pub fn phases(&self) -> impl Iterator<Item = (usize, usize, usize)> + '_ {
        let m_cap = self.m_cap;
        (0..=self.n_gsm)
            .flat_map(move |n| (0..=m_cap).flat_map(move |m| (0..=m).map(move |r| (n, m, r))))
    }

    /// Iterates over all states in index order: the
    /// [`phases`](Self::phases) walk with the buffer level `k`
    /// innermost, so state `i` is [`decode(i)`](Self::decode).
    pub fn states(&self) -> impl Iterator<Item = CellState> + '_ {
        let k_cap = self.k_cap;
        self.phases()
            .flat_map(move |(n, m, r)| (0..=k_cap).map(move |k| CellState { n, k, m, r }))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(64))]

        /// The in-order walks visit exactly what the per-state and
        /// per-phase decodes give at each index.
        #[test]
        fn walks_match_the_decodes(n_gsm in 0usize..8, k_cap in 0usize..45, m_cap in 0usize..9) {
            let ss = StateSpace::new(n_gsm, k_cap, m_cap);
            prop_assert_eq!(ss.phases().count(), ss.num_phases());
            for (p, phase) in ss.phases().enumerate() {
                prop_assert_eq!(phase, ss.phase_decode(p));
            }
            prop_assert_eq!(ss.states().count(), ss.num_states());
            for (idx, s) in ss.states().enumerate() {
                prop_assert_eq!(s, ss.decode(idx));
            }
        }
    }

    #[test]
    fn paper_state_count() {
        // Base setting with TM3: N_GSM = 19, K = 100, M = 20.
        let ss = StateSpace::new(19, 100, 20);
        assert_eq!(ss.num_states(), 231 * 20 * 101);
        assert_eq!(ss.tri_size(), 231);
    }

    #[test]
    fn index_decode_round_trip_exhaustive() {
        let ss = StateSpace::new(3, 4, 5);
        let mut seen = vec![false; ss.num_states()];
        for n in 0..=3 {
            for k in 0..=4 {
                for m in 0..=5 {
                    for r in 0..=m {
                        let s = CellState { n, k, m, r };
                        let idx = ss.index(s);
                        assert!(!seen[idx], "index collision at {s:?}");
                        seen[idx] = true;
                        assert_eq!(ss.decode(idx), s);
                    }
                }
            }
        }
        assert!(seen.iter().all(|&b| b), "index space has holes");
    }

    #[test]
    fn phase_index_round_trip() {
        let ss = StateSpace::new(4, 7, 6);
        let mut seen = vec![false; ss.num_phases()];
        for n in 0..=4 {
            for m in 0..=6 {
                for r in 0..=m {
                    let p = ss.phase_index(n, m, r);
                    assert!(!seen[p], "phase collision");
                    seen[p] = true;
                    assert_eq!(ss.phase_decode(p), (n, m, r));
                }
            }
        }
        assert!(seen.iter().all(|&b| b));
    }

    #[test]
    fn index_is_phase_times_levels_plus_k() {
        let ss = StateSpace::new(3, 9, 4);
        let s = CellState {
            n: 2,
            k: 5,
            m: 3,
            r: 1,
        };
        assert_eq!(ss.index(s), ss.phase_index(2, 3, 1) * (ss.k_cap() + 1) + 5);
    }

    #[test]
    fn tri_decode_large_values() {
        for m in [0usize, 1, 7, 100, 150, 1000] {
            for r in [0, m / 2, m] {
                let t = StateSpace::tri_index(m, r);
                assert_eq!(StateSpace::tri_decode(t), (m, r), "m={m} r={r}");
            }
        }
    }

    #[test]
    fn states_iterator_covers_space() {
        let ss = StateSpace::new(1, 2, 2);
        let all: Vec<CellState> = ss.states().collect();
        assert_eq!(all.len(), ss.num_states());
        // First state is the empty cell; last is the fullest.
        assert_eq!(
            all[0],
            CellState {
                n: 0,
                k: 0,
                m: 0,
                r: 0
            }
        );
        assert_eq!(
            all[all.len() - 1],
            CellState {
                n: 1,
                k: 2,
                m: 2,
                r: 2
            }
        );
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn decode_out_of_range_panics() {
        let ss = StateSpace::new(1, 1, 1);
        let _ = ss.decode(ss.num_states());
    }
}
