//! Answer checks, run outside the timed sections: every checked answer
//! is validated against the paper's definitions, a seeded sample is
//! compared with the `reference` oracle's objective, and on the cluster
//! a sample is compared with the writer planner at the same epoch.

use stgq_core::reference::{solve_sgq_reference, solve_stgq_reference};
use stgq_core::validate::{validate_sgq, validate_stgq};
use stgq_core::SelectConfig;
use stgq_exec::QuerySpec;
use stgq_graph::SocialGraph;
use stgq_service::Engine;

use crate::stream::Query;
use crate::world::{Answer, Solution, World};

pub struct Checker {
    /// Compare every `reference_every`-th checked answer with the oracle.
    reference_every: u64,
    /// On the cluster, compare every `writer_every`-th checked answer
    /// with the writer planner.
    writer_every: u64,
    checked: u64,
    /// The flat graph at the writer's network version it was exported at.
    graph: Option<(u64, SocialGraph)>,
}

impl Checker {
    pub fn new(reference_every: u64, writer_every: u64) -> Self {
        Checker {
            reference_every,
            writer_every,
            checked: 0,
            graph: None,
        }
    }

    /// Check one answer served at the writer's current epoch.
    pub fn check(&mut self, world: &World, q: &Query, a: &Answer) -> Result<(), String> {
        let version = world.writer().network().version();
        if self.graph.as_ref().map(|(v, _)| *v) != Some(version) {
            self.graph = Some((version, world.check_graph()));
        }
        let (_, graph) = self.graph.as_ref().expect("exported above");
        let calendars = world.writer().calendars().calendars();
        let served = a.solution.objective();
        let invalid = match (&q.spec, &a.solution) {
            (QuerySpec::Sgq(sq), Solution::Sgq(Some(sol))) => {
                validate_sgq(graph, q.initiator, sq, sol).err()
            }
            (QuerySpec::Stgq(tq), Solution::Stgq(Some(sol))) => {
                validate_stgq(graph, q.initiator, calendars, tq, sol).err()
            }
            (QuerySpec::Sgq(_), Solution::Sgq(None))
            | (QuerySpec::Stgq(_), Solution::Stgq(None)) => None,
            _ => return Err(format!("{q:?}: answer of the wrong kind")),
        };
        if let Some(v) = invalid {
            return Err(format!("{q:?}: invalid answer: {v:?}"));
        }
        self.checked += 1;
        if self.checked.is_multiple_of(self.reference_every) {
            let cfg = SelectConfig::default();
            let oracle = match &q.spec {
                QuerySpec::Sgq(sq) => solve_sgq_reference(graph, q.initiator, sq, &cfg)
                    .map(|o| o.solution.map(|s| s.total_distance)),
                QuerySpec::Stgq(tq) => {
                    solve_stgq_reference(graph, q.initiator, calendars, tq, &cfg)
                        .map(|o| o.solution.map(|s| s.total_distance))
                }
            }
            .map_err(|e| format!("{q:?}: oracle refused: {e}"))?;
            if oracle != served {
                return Err(format!("{q:?}: served {served:?}, reference {oracle:?}"));
            }
        }
        if world.is_cluster() && self.checked.is_multiple_of(self.writer_every) {
            let writer = world.writer();
            let direct = match &q.spec {
                QuerySpec::Sgq(sq) => writer
                    .plan_sgq(q.initiator, sq, Engine::Exact)
                    .map(|r| r.solution.map(|s| s.total_distance)),
                QuerySpec::Stgq(tq) => writer
                    .plan_stgq(q.initiator, tq, Engine::Exact)
                    .map(|r| r.solution.map(|s| s.total_distance)),
            }
            .map_err(|e| format!("{q:?}: writer refused: {e}"))?;
            if direct != served {
                return Err(format!(
                    "{q:?}: cluster served {served:?}, writer {direct:?}"
                ));
            }
        }
        Ok(())
    }
}
