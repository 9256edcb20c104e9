/// Tuning knobs for the SGSelect/STGSelect access-ordering conditions and
/// pruning strategies.
///
/// The paper leaves the initial exponents as free parameters (Example 2
/// "assume θ = 2", Example 3 "assume φ = 2") and adapts them during the
/// search: θ is *reduced* towards 0 when no candidate passes the interior
/// unfamiliarity condition, and φ is *increased* towards a "predetermined
/// threshold t" (Algorithm 4) when no candidate passes the temporal
/// extensibility condition, after which the condition's right-hand side is
/// treated as 0.
///
/// The three `*_pruning` switches exist for **ablation**: disabling a
/// pruning strategy never changes the optimum (each prunes only provably
/// useless subtrees — Lemmas 2, 3 and 5), only the work done to find it.
/// The benchmark harness's ablation table quantifies each strategy's
/// contribution; production callers should leave them on.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct SelectConfig {
    /// Initial θ for the interior unfamiliarity condition
    /// `U(VS ∪ {v}) ≤ k · (|VS ∪ {v}|/p)^θ`; decays by 1 per relaxation.
    pub theta0: u32,
    /// Initial φ (≥ 1) for the temporal extensibility condition
    /// `X(VS ∪ {u}) ≥ (m−1) · ((p − |VS ∪ {u}|)/p)^φ`; grows by 1 per
    /// relaxation.
    pub phi0: u32,
    /// The paper's threshold `t`: once φ reaches this cap the temporal
    /// RHS is treated as 0 (i.e. only hard feasibility `X ≥ 0` remains).
    pub phi_cap: u32,
    /// Lemma 2: abandon frames that cannot beat the incumbent distance.
    pub distance_pruning: bool,
    /// Lemma 3: abandon frames whose remaining candidates lack the
    /// internal connectivity any feasible completion needs.
    pub acquaintance_pruning: bool,
    /// Lemma 5 (STGSelect only): abandon frames whose remaining candidates
    /// cannot keep any `m`-slot window alive around the pivot.
    pub availability_pruning: bool,
    /// Optional *anytime* budget: stop opening new search frames once this
    /// many have been entered and return the incumbent found so far
    /// (flagged by [`SearchStats::truncated`](crate::SearchStats)). `None`
    /// (the default) searches to proven optimality. In the parallel
    /// solvers the budget applies per worker.
    pub frame_budget: Option<u64>,
    /// Greedy restarts used to **seed the incumbent** before exact descent
    /// (`0` disables seeding). A feasible seed activates Lemma-2 distance
    /// pruning from the very first frame; seeding with a non-optimal bound
    /// never cuts a strictly better solution, so exactness is untouched.
    /// The sequential engines seed per pivot (reusing the pivot's prepared
    /// state), the parallel solvers seed once before spawning workers.
    pub seed_restarts: usize,
    /// Process pivot time slots **best-first** (descending initiator run
    /// length) and skip any pivot whose optimistic distance bound — the sum
    /// of the `p − 1` smallest incident distances among its eligible
    /// candidates — can no longer beat the incumbent. This is Lemma 2
    /// applied at pivot granularity; skipped pivots are counted in
    /// [`SearchStats::pivots_skipped`](crate::SearchStats). The skip only
    /// fires when [`distance_pruning`](Self::distance_pruning) is also on.
    pub pivot_promise_order: bool,
    /// Break ties in the total-distance access order by availability
    /// overlap with the pivot's initiator run (descending), so temporally
    /// doomed candidates sink to the back of their tie group and Lemma-5
    /// counters kill subtrees earlier. Ordering is a search heuristic:
    /// it never changes the optimum, only how fast it is found.
    pub availability_ordering: bool,
    /// Sharpen the per-pivot optimistic distance floor by restricting the
    /// `p − 1` smallest-distance sum to **mutually-compatible** candidates:
    /// per-pivot runs are intervals that all contain the pivot, so a group
    /// is temporally feasible iff all members' runs contain one common
    /// `m`-slot window (Helly property of intervals), and the floor
    /// becomes `min` over the ≤ `m` windows of the initiator's run of the
    /// `p − 1` cheapest candidates whose run covers that window. Never
    /// lower than the unrestricted floor, and a pivot where *no* window
    /// has `p − 1` covering candidates is proven infeasible outright. This
    /// targets spread optima (large `m`), where the unrestricted floor is
    /// too loose for [`pivot_promise_order`](Self::pivot_promise_order)'s
    /// skip to fire. Exactness is untouched: the floor only retires
    /// subtrees that provably cannot strictly beat the incumbent.
    pub sharp_pivot_floor: bool,
    /// Peel candidate sets to the **(p, k)-core** before exact descent:
    /// iterate the eligible-degree ≥ `p − 1 − k` filter to a fixpoint
    /// (peel a vertex → decrement its neighbors' eligible degrees →
    /// re-peel), restricted to the eligible candidates plus the
    /// initiator. A peeled vertex has too few acquaintances among the
    /// only people who could ever share a group with it, so it can
    /// belong to **no** feasible group — removing it from `VA` (and so
    /// from the sharp floor's candidate sets) is exact. A pivot whose
    /// surviving core leaves fewer than
    /// `p` people — or leaves the initiator short of `p − 1 − k`
    /// acquaintances — is refused outright
    /// ([`SearchStats::pivots_refused_by_core`]). The SGQ engine peels
    /// its initial candidate set the same way. Peeled vertices are
    /// counted in [`SearchStats::peeled_candidates`].
    ///
    /// [`SearchStats::pivots_refused_by_core`]: crate::SearchStats::pivots_refused_by_core
    /// [`SearchStats::peeled_candidates`]: crate::SearchStats::peeled_candidates
    pub core_peel_fixpoint: bool,
    /// Frame-level **k-plex bound** (a strictly stronger Lemma 3 *and* a
    /// sharper Lemma 2, applied on the SGQ path too), two stacked
    /// conditions on any completion of the frame:
    ///
    /// * **Admissible-completion floor**: a candidate already missing
    ///   more than `k` acquaintances against `VS` can join no
    ///   descendant group, so fewer than `p − |VS|` admissible
    ///   candidates is outright infeasibility, and the sum of the
    ///   `p − |VS|` cheapest *admissible* distances is a completion
    ///   floor that strictly dominates Lemma 2's `need · min_dist` —
    ///   compared against the incumbent (so this half prunes
    ///   *non-improving* frames, exactly like Lemma 2, and only when
    ///   [`distance_pruning`](Self::distance_pruning) is on).
    /// * **Missing-pair matching bound** (frame entry): any size-`p`
    ///   group absorbs at most `⌊k·p/2⌋` missing (non-acquainted) pairs
    ///   in total, and the missing pairs inside `VS`, the cheapest
    ///   `p − |VS|` missing-pair counts against `VS`, and a greedy
    ///   matching over missing pairs among the remaining candidates
    ///   each lower-bound a disjoint share of that budget — a purely
    ///   structural necessary condition.
    ///
    /// Either way the frame dies before `VA` expansion
    /// ([`SearchStats::frames_pruned_by_match`] counts both halves).
    /// Exactness is untouched: pruned frames hold no feasible
    /// completion, or none that strictly beats the incumbent.
    ///
    /// [`SearchStats::frames_pruned_by_match`]: crate::SearchStats::frames_pruned_by_match
    pub kplex_match_bound: bool,
    /// **Parent-side per-candidate completion bound**: before descending
    /// into a child candidate `u`, charge the child frame's own
    /// admissible-completion floor — the `p − |VS| − 1` cheapest
    /// candidates still within their `k` deficiency budget against
    /// `VS ∪ {u}` (the same admissibility the frame-level
    /// [`kplex_match_bound`](Self::kplex_match_bound) uses, sharpened
    /// by `u`'s own adjacency) — against the incumbent at the *parent*
    /// frame. A child that provably cannot beat the incumbent (or has
    /// too few admissible partners at all) is never opened: no push, no
    /// undo-mark, no frame entry
    /// ([`SearchStats::children_pruned_by_parent_bound`]). Sound for
    /// the same reason the child's own entry check is: every group in
    /// the skipped subtree completes `VS ∪ {u}` from the current `VA`,
    /// whose admissible members only lose admissibility deeper down —
    /// the floor is a true lower bound, and only subtrees strictly
    /// worse than the incumbent (or infeasible outright) are skipped.
    /// The incumbent-relative half fires only when
    /// [`distance_pruning`](Self::distance_pruning) is on.
    ///
    /// [`SearchStats::children_pruned_by_parent_bound`]: crate::SearchStats::children_pruned_by_parent_bound
    pub parent_completion_bound: bool,
}

impl SelectConfig {
    /// The exponents used in the paper's worked examples, all prunings on.
    pub const PAPER_EXAMPLE: SelectConfig = SelectConfig {
        theta0: 2,
        phi0: 2,
        phi_cap: 8,
        distance_pruning: true,
        acquaintance_pruning: true,
        availability_pruning: true,
        frame_budget: None,
        seed_restarts: 2,
        pivot_promise_order: true,
        availability_ordering: true,
        sharp_pivot_floor: true,
        core_peel_fixpoint: true,
        kplex_match_bound: true,
        parent_completion_bound: true,
    };

    /// Ablation preset: the previous release's *sequential* search
    /// behavior — no incumbent seeding, pivots in calendar order, pure
    /// distance access order, no sharp floor, no candidate-space
    /// reduction and no parent-side bound. The
    /// search-reduction benchmarks and the stats-regression tests diff
    /// against this. Caveat for parallel ablations: the parallel solvers
    /// historically always seeded (a hard-coded 2-restart greedy), so
    /// with this preset they run *unseeded* — stricter than what ever
    /// shipped; set `seed_restarts: 2` to reproduce their old behavior.
    pub const NO_SEARCH_REDUCTION: SelectConfig = SelectConfig {
        seed_restarts: 0,
        pivot_promise_order: false,
        availability_ordering: false,
        sharp_pivot_floor: false,
        core_peel_fixpoint: false,
        kplex_match_bound: false,
        parent_completion_bound: false,
        ..SelectConfig::PAPER_EXAMPLE
    };

    /// Greedy-est ordering: both conditions start fully relaxed. Useful in
    /// tests to confirm the knobs do not affect optimality.
    pub const RELAXED: SelectConfig = SelectConfig {
        theta0: 0,
        phi0: 1,
        phi_cap: 1,
        ..SelectConfig::PAPER_EXAMPLE
    };

    /// Ablation preset: paper ordering, every pruning strategy off.
    pub const NO_PRUNING: SelectConfig = SelectConfig {
        distance_pruning: false,
        acquaintance_pruning: false,
        availability_pruning: false,
        ..SelectConfig::PAPER_EXAMPLE
    };

    /// Ablation helper: this config with distance pruning toggled.
    pub const fn with_distance_pruning(self, on: bool) -> Self {
        SelectConfig {
            distance_pruning: on,
            ..self
        }
    }

    /// Ablation helper: this config with acquaintance pruning toggled.
    pub const fn with_acquaintance_pruning(self, on: bool) -> Self {
        SelectConfig {
            acquaintance_pruning: on,
            ..self
        }
    }

    /// Ablation helper: this config with availability pruning toggled.
    pub const fn with_availability_pruning(self, on: bool) -> Self {
        SelectConfig {
            availability_pruning: on,
            ..self
        }
    }

    /// Anytime helper: this config with the given frame budget.
    pub const fn with_frame_budget(self, budget: u64) -> Self {
        SelectConfig {
            frame_budget: Some(budget),
            ..self
        }
    }

    /// This config with the given greedy incumbent-seed restart budget
    /// (`0` disables seeding).
    pub const fn with_seed_restarts(self, restarts: usize) -> Self {
        SelectConfig {
            seed_restarts: restarts,
            ..self
        }
    }

    /// This config with promise-ordered pivots (and the pivot-granularity
    /// Lemma-2 skip) toggled.
    pub const fn with_pivot_promise_order(self, on: bool) -> Self {
        SelectConfig {
            pivot_promise_order: on,
            ..self
        }
    }

    /// This config with availability-aware access-order tie-breaking toggled.
    pub const fn with_availability_ordering(self, on: bool) -> Self {
        SelectConfig {
            availability_ordering: on,
            ..self
        }
    }

    /// This config with the compatibility-restricted (sharp) per-pivot
    /// distance floor toggled.
    pub const fn with_sharp_pivot_floor(self, on: bool) -> Self {
        SelectConfig {
            sharp_pivot_floor: on,
            ..self
        }
    }

    /// This config with fixpoint (p, k)-core peeling toggled.
    pub const fn with_core_peel_fixpoint(self, on: bool) -> Self {
        SelectConfig {
            core_peel_fixpoint: on,
            ..self
        }
    }

    /// This config with the frame-level k-plex matching bound toggled.
    pub const fn with_kplex_match_bound(self, on: bool) -> Self {
        SelectConfig {
            kplex_match_bound: on,
            ..self
        }
    }

    /// This config with the parent-side per-candidate completion bound
    /// toggled.
    pub const fn with_parent_completion_bound(self, on: bool) -> Self {
        SelectConfig {
            parent_completion_bound: on,
            ..self
        }
    }

    /// The previous release's all-on behaviour: this config with the
    /// candidate-space reduction layer (fixpoint core peeling and the
    /// k-plex matching bound) switched off. The `probe` scoreboard and
    /// the reduction tests diff the default against this.
    pub const fn without_candidate_reduction(self) -> Self {
        SelectConfig {
            core_peel_fixpoint: false,
            kplex_match_bound: false,
            ..self
        }
    }

    /// Clamp to the invariants (`phi0 ≥ 1`, `phi_cap ≥ phi0`).
    pub fn normalized(self) -> Self {
        let phi0 = self.phi0.max(1);
        SelectConfig {
            phi0,
            phi_cap: self.phi_cap.max(phi0),
            ..self
        }
    }
}

impl Default for SelectConfig {
    fn default() -> Self {
        SelectConfig::PAPER_EXAMPLE
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn default_matches_paper_examples() {
        let c = SelectConfig::default();
        assert_eq!(c.theta0, 2);
        assert_eq!(c.phi0, 2);
        assert!(c.distance_pruning && c.acquaintance_pruning && c.availability_pruning);
    }

    #[test]
    fn normalized_enforces_invariants() {
        let c = SelectConfig {
            phi0: 0,
            phi_cap: 0,
            ..SelectConfig::default()
        }
        .normalized();
        assert_eq!(c.phi0, 1);
        assert!(c.phi_cap >= c.phi0);
        let c2 = SelectConfig {
            phi0: 5,
            phi_cap: 2,
            ..SelectConfig::default()
        }
        .normalized();
        assert_eq!(c2.phi_cap, 5);
    }

    #[test]
    fn ablation_presets_and_toggles() {
        let c = SelectConfig::NO_PRUNING;
        assert!(!c.distance_pruning && !c.acquaintance_pruning && !c.availability_pruning);
        assert_eq!(c.theta0, SelectConfig::PAPER_EXAMPLE.theta0);

        let c = SelectConfig::PAPER_EXAMPLE
            .with_distance_pruning(false)
            .with_acquaintance_pruning(false)
            .with_availability_pruning(true);
        assert!(!c.distance_pruning && !c.acquaintance_pruning && c.availability_pruning);
    }

    #[test]
    fn search_reduction_defaults_and_toggles() {
        let c = SelectConfig::default();
        assert_eq!(c.seed_restarts, 2);
        assert!(c.pivot_promise_order && c.availability_ordering && c.sharp_pivot_floor);
        assert!(c.core_peel_fixpoint && c.kplex_match_bound && c.parent_completion_bound);

        let off = SelectConfig::NO_SEARCH_REDUCTION;
        assert_eq!(off.seed_restarts, 0);
        assert!(!off.pivot_promise_order && !off.availability_ordering && !off.sharp_pivot_floor);
        assert!(!off.core_peel_fixpoint && !off.kplex_match_bound && !off.parent_completion_bound);
        assert!(
            off.distance_pruning && off.acquaintance_pruning,
            "the baseline keeps the paper's pruning; only the PR-2 pieces are off"
        );

        let c = SelectConfig::PAPER_EXAMPLE
            .with_seed_restarts(5)
            .with_pivot_promise_order(false)
            .with_availability_ordering(false)
            .with_sharp_pivot_floor(false);
        assert_eq!(c.seed_restarts, 5);
        assert!(!c.pivot_promise_order && !c.availability_ordering && !c.sharp_pivot_floor);

        let c = SelectConfig::default()
            .with_core_peel_fixpoint(false)
            .with_kplex_match_bound(false);
        assert!(!c.core_peel_fixpoint && !c.kplex_match_bound);
        assert_eq!(c, SelectConfig::default().without_candidate_reduction());
        assert!(c.sharp_pivot_floor, "the PR-4 pieces stay on");

        let c = SelectConfig::default().with_parent_completion_bound(false);
        assert!(!c.parent_completion_bound);
        assert!(
            c.core_peel_fixpoint && c.kplex_match_bound,
            "the PR-5 pieces stay on"
        );
    }
}
