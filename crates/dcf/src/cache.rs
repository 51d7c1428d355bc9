//! Thread-safe, permutation-canonicalizing cache of fixed-point solutions.
//!
//! The coupled `(τ, p)` system is symmetric under player relabeling: if
//! `σ` permutes the window profile, the solution permutes the same way.
//! Scans, payoff-table builds and tournaments therefore revisit the same
//! *multiset* of windows under many orderings. [`SolveCache`] keys on the
//! canonical [`ClassProfile`] of that multiset — multiplicity merge
//! subsumes the old sorted-profile canonicalization — and stores the
//! class-level solution, expanding it onto the caller's player order on
//! every lookup.
//!
//! Hit and miss both expand the **same** stored class solution, and the
//! class solve is exactly what [`crate::fixedpoint::solve`] runs
//! internally, so a cache lookup is bitwise-identical to a fresh
//! [`crate::fixedpoint::solve`] of the same profile — there is no
//! numerical penalty for going through the cache. The same holds across
//! eviction: an evicted key re-solves through the identical deterministic
//! path, so the replacement entry is bitwise-identical to the original.
//!
//! Profiles that arrive already sorted (the common case in scans) skip
//! the clone-and-argsort canonicalization entirely and collapse by
//! run-length encoding in one pass.
//!
//! Storage, sharding, FIFO eviction and the `dcf.cache.{hits,misses,
//! evictions}` counters are the shared [`Memo`]'s; this module adds the
//! canonicalization and the solve.

use std::sync::Arc;

use macgame_telemetry as telemetry;

use crate::classes::{ClassEquilibrium, ClassProfile};
use crate::error::DcfError;
use crate::fixedpoint::{solve_classes, Equilibrium, SolveOptions};
use crate::memo::{Memo, MemoNames};
use crate::params::DcfParams;

const NAMES: MemoNames = MemoNames {
    hits: Some("dcf.cache.hits"),
    misses: Some("dcf.cache.misses"),
    evictions: Some("dcf.cache.evictions"),
};

/// Stable argsort of a window profile: returns the sorted profile and the
/// permutation `perm` with `sorted[k] == windows[perm[k]]`.
#[must_use]
pub fn canonicalize(windows: &[u32]) -> (Vec<u32>, Vec<usize>) {
    let mut perm: Vec<usize> = (0..windows.len()).collect();
    perm.sort_by_key(|&i| windows[i]);
    let sorted = perm.iter().map(|&i| windows[i]).collect();
    (sorted, perm)
}

/// Maps a solution of the sorted profile back onto the original player
/// order: output index `perm[k]` receives canonical index `k`.
#[must_use]
pub fn remap(canonical: &Equilibrium, perm: &[usize]) -> Equilibrium {
    let n = perm.len();
    let mut taus = vec![0.0; n];
    let mut collision_probs = vec![0.0; n];
    for (k, &original) in perm.iter().enumerate() {
        taus[original] = canonical.taus[k];
        collision_probs[original] = canonical.collision_probs[k];
    }
    Equilibrium { taus, collision_probs, iterations: canonical.iterations }
}

/// Shared profile → class-solution cache for one `(params, options)`
/// pair. Wrap in an [`Arc`] to share across threads; all methods take
/// `&self`.
#[derive(Debug)]
pub struct SolveCache {
    params: DcfParams,
    options: SolveOptions,
    memo: Memo<ClassProfile, Arc<ClassEquilibrium>>,
}

impl SolveCache {
    /// Creates an empty, **unbounded** cache bound to `params` and
    /// `options`: entries are never evicted.
    #[must_use]
    pub fn new(params: DcfParams, options: SolveOptions) -> Self {
        SolveCache { params, options, memo: Memo::unbounded(NAMES) }
    }

    /// Creates a cache holding at most `capacity` resident solutions,
    /// evicting per shard in FIFO insertion order (see [`Memo::bounded`]).
    ///
    /// `with_capacity(0)` is the documented **no-op cache**: every lookup
    /// is a miss that solves afresh, nothing is ever stored, and the
    /// eviction counter stays at zero (no eviction churn). It is useful
    /// for measuring cold-path cost and for callers that want the
    /// canonicalization and telemetry of the cache API without retaining
    /// memory.
    #[must_use]
    pub fn with_capacity(params: DcfParams, options: SolveOptions, capacity: usize) -> Self {
        SolveCache { params, options, memo: Memo::bounded(capacity, NAMES) }
    }

    /// The DCF parameters every cached solution was computed under.
    #[must_use]
    pub fn params(&self) -> &DcfParams {
        &self.params
    }

    /// The solver options every cached solution was computed under.
    #[must_use]
    pub fn options(&self) -> SolveOptions {
        self.options
    }

    /// Solves `windows`, serving permutations (and multiplicity
    /// re-orderings) of previously-seen profiles from the cache. The
    /// result is bitwise-identical to [`crate::fixedpoint::solve`] on the
    /// same profile, whether it was a hit, a miss, or a re-solve of an
    /// evicted key.
    ///
    /// Already-sorted profiles — the common case in scans — skip the
    /// clone-and-argsort canonicalization and collapse by run-length
    /// encoding directly.
    ///
    /// # Errors
    ///
    /// Propagates solver errors (invalid profile, non-convergence).
    pub fn solve(&self, windows: &[u32]) -> Result<Equilibrium, DcfError> {
        if windows.windows(2).all(|pair| pair[0] <= pair[1]) && !windows.is_empty() {
            telemetry::counter("dcf.cache.sorted_fast_path", 1);
            let profile = ClassProfile::from_sorted(windows)?;
            let solved = self.solve_class_profile(&profile)?;
            return Ok(solved.expand_sorted(&profile));
        }
        let (profile, assignment) = ClassProfile::from_windows(windows)?;
        let solved = self.solve_class_profile(&profile)?;
        Ok(solved.expand(&assignment))
    }

    /// Solves a [`ClassProfile`] through the cache, sharing the stored
    /// [`Arc`] — the O(k) entry point for population-scale callers that
    /// never materialize node-level vectors.
    ///
    /// # Errors
    ///
    /// Propagates solver errors (non-convergence, invalid damping).
    pub fn solve_class_profile(
        &self,
        profile: &ClassProfile,
    ) -> Result<Arc<ClassEquilibrium>, DcfError> {
        self.memo.get_or_try_insert_with(profile, || {
            Ok(Arc::new(solve_classes(profile, &self.params, self.options)?))
        })
    }

    /// Number of lookups served from the cache.
    #[must_use]
    pub fn hits(&self) -> u64 {
        self.memo.hits()
    }

    /// Number of lookups that required a fresh solve.
    #[must_use]
    pub fn misses(&self) -> u64 {
        self.memo.misses()
    }

    /// Number of cached solutions dropped to stay under the capacity
    /// bound. Always zero for unbounded and zero-capacity caches.
    #[must_use]
    pub fn evictions(&self) -> u64 {
        self.memo.evictions()
    }

    /// Number of distinct canonical profiles currently resident.
    #[must_use]
    pub fn len(&self) -> usize {
        self.memo.len()
    }

    /// Whether the cache is empty.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.memo.is_empty()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::fixedpoint::solve;

    fn cache() -> SolveCache {
        SolveCache::new(DcfParams::default(), SolveOptions::default())
    }

    fn bounded(capacity: usize) -> SolveCache {
        SolveCache::with_capacity(DcfParams::default(), SolveOptions::default(), capacity)
    }

    #[test]
    fn canonicalize_is_a_stable_sort() {
        let (sorted, perm) = canonicalize(&[64, 16, 64, 8]);
        assert_eq!(sorted, vec![8, 16, 64, 64]);
        // Stable: the two 64s keep their original relative order.
        assert_eq!(perm, vec![3, 1, 0, 2]);
    }

    #[test]
    fn hit_is_bitwise_identical_to_fresh_solve() {
        let c = cache();
        let profile = [256u32, 16, 64, 16];
        let fresh = c.solve(&profile).unwrap();
        assert_eq!(c.misses(), 1);
        let hit = c.solve(&profile).unwrap();
        assert_eq!(c.hits(), 1);
        assert_eq!(fresh.taus, hit.taus);
        assert_eq!(fresh.collision_probs, hit.collision_probs);
    }

    #[test]
    fn permutations_share_one_entry_and_remap_correctly() {
        let c = cache();
        let a = c.solve(&[16, 64, 256]).unwrap();
        let b = c.solve(&[256, 16, 64]).unwrap();
        assert_eq!(c.misses(), 1);
        assert_eq!(c.hits(), 1);
        assert_eq!(c.len(), 1);
        // Player with window 16 gets the same τ in both orderings — and
        // bitwise so, because both paths remap the same canonical solve.
        assert_eq!(a.taus[0], b.taus[1]);
        assert_eq!(a.taus[1], b.taus[2]);
        assert_eq!(a.taus[2], b.taus[0]);
        assert_eq!(a.collision_probs[2], b.collision_probs[0]);
    }

    #[test]
    fn matches_direct_solver_bitwise() {
        // Both sorted (fast path) and unsorted lookups reproduce the
        // public solver exactly — it runs the same collapse internally.
        let c = cache();
        for profile in [vec![128u32, 8, 32], vec![8u32, 32, 128], vec![76u32; 5]] {
            let cached = c.solve(&profile).unwrap();
            let direct = solve(&profile, &DcfParams::default(), SolveOptions::default()).unwrap();
            assert_eq!(cached, direct, "profile {profile:?}");
        }
    }

    #[test]
    fn sorted_fast_path_hit_is_bitwise_identical() {
        // Micro-regression for the no-allocation sorted path: a sorted
        // lookup, a repeated sorted lookup (hit), and a permuted lookup of
        // the same multiset must all agree bitwise on each player's values.
        let c = cache();
        let sorted = [16u32, 16, 64, 256];
        let first = c.solve(&sorted).unwrap();
        assert_eq!((c.hits(), c.misses()), (0, 1));
        let hit = c.solve(&sorted).unwrap();
        assert_eq!((c.hits(), c.misses()), (1, 1));
        assert_eq!(first, hit);
        let permuted = c.solve(&[256u32, 16, 64, 16]).unwrap();
        assert_eq!((c.hits(), c.misses()), (2, 1));
        assert_eq!(permuted.taus[0], first.taus[3]);
        assert_eq!(permuted.taus[1], first.taus[0]);
        assert_eq!(permuted.taus[2], first.taus[2]);
        assert_eq!(permuted.taus[3], first.taus[1]);
        assert_eq!(c.len(), 1);
    }

    #[test]
    fn class_profile_lookups_share_entries_with_node_lookups() {
        let c = cache();
        let profile = ClassProfile::new(vec![16, 64], vec![2, 3]).unwrap();
        let class_solved = c.solve_class_profile(&profile).unwrap();
        assert_eq!(c.misses(), 1);
        let node_solved = c.solve(&[16, 16, 64, 64, 64]).unwrap();
        assert_eq!(c.hits(), 1);
        assert_eq!(class_solved.expand_sorted(&profile), node_solved);
    }

    #[test]
    fn propagates_solver_errors() {
        let c = cache();
        assert!(c.solve(&[]).is_err());
        assert!(c.solve(&[0, 4]).is_err());
        assert_eq!(c.misses(), 0);
    }

    #[test]
    fn shared_across_threads() {
        let c = Arc::new(cache());
        let profiles: Vec<Vec<u32>> = (0..16u32)
            .map(|i| vec![16 + i % 4, 64, 128 + (i / 4) * 8])
            .collect();
        let expect: Vec<_> = profiles.iter().map(|p| c.solve(p).unwrap()).collect();
        let results = std::thread::scope(|scope| {
            let handles: Vec<_> = profiles
                .iter()
                .map(|p| {
                    let c = Arc::clone(&c);
                    scope.spawn(move || c.solve(p).unwrap())
                })
                .collect();
            handles.into_iter().map(|h| h.join().unwrap()).collect::<Vec<_>>()
        });
        for (got, want) in results.iter().zip(&expect) {
            assert_eq!(got.taus, want.taus);
        }
    }

    #[test]
    fn evicted_key_resolves_bitwise_identical() {
        // capacity 1 → a single one-entry shard → strict global FIFO.
        let c = bounded(1);
        let first = ClassProfile::new(vec![16, 64], vec![2, 3]).unwrap();
        let second = ClassProfile::new(vec![32, 128], vec![1, 4]).unwrap();
        let original = c.solve_class_profile(&first).unwrap();
        c.solve_class_profile(&second).unwrap(); // evicts `first`
        assert_eq!(c.evictions(), 1);
        assert_eq!(c.len(), 1);
        let resolved = c.solve_class_profile(&first).unwrap();
        assert_eq!(c.misses(), 3, "evicted key must re-solve, not hit");
        // The re-solve runs the same deterministic class solver, so the
        // replacement entry is bitwise-identical to the evicted one.
        assert_eq!(*original, *resolved);
    }

    #[test]
    fn zero_capacity_solves_match_the_direct_solver() {
        // The no-op cache solves afresh every time, through the same path.
        let c = bounded(0);
        let profile = ClassProfile::new(vec![16, 64], vec![2, 3]).unwrap();
        let a = c.solve_class_profile(&profile).unwrap();
        let b = c.solve_class_profile(&profile).unwrap();
        assert_eq!(*a, *b);
        let via_cache = c.solve(&[16, 16, 64, 64, 64]).unwrap();
        let direct =
            solve(&[16, 16, 64, 64, 64], &DcfParams::default(), SolveOptions::default()).unwrap();
        assert_eq!(via_cache, direct);
        assert!(c.is_empty());
    }
}
