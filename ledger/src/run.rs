//! The closed loop: one client thread plays the rounds of its lanes' op
//! streams in turn, timing each call, and checks answers outside the
//! timed sections. The traced variant also replays each query's
//! lower-layer public calls on the epoch it was served from.

use std::collections::BTreeMap;
use std::hint::black_box;
use std::time::{Duration, Instant};

use stgq_core::{solve_sgq_on, solve_stgq_pooled, PivotArena, SearchStats};
use stgq_exec::{ExecMetrics, QuerySpec};
use stgq_graph::FeasibleView;

use crate::check::Checker;
use crate::stats::{remainder, OpCount, Samples};
use crate::stream::{Query, Round, Stream, Write};
use crate::world::{probe_query, Answer, World};

/// Samples a p99 needs under the percentile rule.
const P99_SAMPLES: usize = 1000;
/// Samples a p50 needs.
const P50_SAMPLES: usize = 20;

#[derive(Clone, Copy, PartialEq, Eq)]
pub enum Mode {
    Warmup,
    Measured,
    Traced,
}

/// How a workload's answers are checked.
#[derive(Clone, Copy)]
pub struct CheckPlan {
    /// Check the answers of every `every_rounds`-th round (1: all).
    pub every_rounds: u64,
    pub reference_every: u64,
    pub writer_every: u64,
}

/// One traced query: its end-to-end span and the layer spans replayed
/// for it.
#[derive(Clone, Copy, Debug)]
pub struct TracedQuery {
    pub stgq: bool,
    pub fresh: bool,
    pub root_ns: i64,
    pub feasible_hit: bool,
    pub result_hit: bool,
    pub extract_ns: i64,
    pub solve_ns: i64,
    /// A cached replay of the same request through the cluster (route,
    /// TCP, codec, no solve).
    pub rtt_ns: Option<i64>,
}

impl TracedQuery {
    /// The replayed spans that stand for work this request did itself:
    /// extraction only when both caches missed, the solve when the
    /// result cache missed, the round trip always.
    pub fn children(&self) -> Vec<i64> {
        let mut parts = Vec::new();
        if !self.result_hit {
            if !self.feasible_hit {
                parts.push(self.extract_ns);
            }
            parts.push(self.solve_ns);
        }
        parts.extend(self.rtt_ns);
        parts
    }

    /// The executor's self time: the request minus its child spans, on
    /// steady requests whose caches both missed.
    pub fn exec_self(&self) -> Option<i64> {
        (!self.fresh && !self.feasible_hit && !self.result_hit)
            .then(|| remainder(self.root_ns, &self.children()))
    }

    /// What no layer accounts for: the request minus its child spans,
    /// the executor's typical self time, and the publish it paid if it
    /// was the first read after a write. Defined for requests that
    /// reached the solver.
    pub fn residual(&self, exec_self_p50: i64, publish_p50: i64) -> Option<i64> {
        (!self.result_hit).then(|| {
            let mut parts = self.children();
            parts.push(exec_self_p50);
            if self.fresh {
                parts.push(publish_p50);
            }
            remainder(self.root_ns, &parts)
        })
    }
}

#[derive(Default)]
pub struct Trace {
    /// Whether the lanes serve through the cluster.
    pub cluster: bool,
    pub write: Samples,
    pub replicate: Samples,
    pub publish: Samples,
    /// Probe pairs dropped because a probe missed the result cache.
    pub publish_dropped: u64,
    pub rtt: Samples,
    pub extract: Samples,
    pub candidates: u64,
    pub solve: Samples,
    pub prep: Samples,
    pub descend: Samples,
    pub frames: u64,
    pub pivots: u64,
    pub pivots_skipped: u64,
    pub queries: Vec<TracedQuery>,
}

/// Everything one phase measured.
pub struct Phase {
    pub ops: BTreeMap<&'static str, OpCount>,
    pub sgq: Samples,
    pub stgq: Samples,
    pub fresh: Samples,
    pub batch: Samples,
    /// Queries answered (batch entries included).
    pub queries: u64,
    /// Per round: queries answered and nanoseconds spent serving them.
    pub rounds: Vec<(u64, i64)>,
    pub writes: u64,
    /// Wall time of the phase minus `checking`.
    pub serving: Duration,
    /// Time spent checking answers and, when traced, replaying them.
    pub checking: Duration,
    pub errors: Vec<String>,
    pub exec_before: ExecMetrics,
    pub exec_after: ExecMetrics,
    /// Cluster `(retries, failed_sends)` before and after.
    pub faults: ((u64, u64), (u64, u64)),
    pub trace: Option<Trace>,
}

impl Phase {
    pub fn failed(&self) -> u64 {
        self.ops.values().map(|c| c.failed).sum()
    }

    pub fn attempted(&self) -> u64 {
        self.ops.values().map(|c| c.sent).sum()
    }

    fn note(&mut self, kind: &'static str, result: Result<(), String>) {
        if let Err(e) = &result {
            if self.errors.len() < 8 {
                self.errors.push(format!("{kind}: {e}"));
            }
        }
        self.ops.entry(kind).or_default().note(result.is_ok());
    }

    /// Whether every percentile the phase reports has its samples.
    fn enough(&self) -> bool {
        match &self.trace {
            None => [&self.sgq, &self.stgq, &self.fresh, &self.batch]
                .iter()
                .all(|s| s.len() >= P50_SAMPLES),
            Some(t) => {
                t.extract.len() >= P99_SAMPLES
                    && t.solve.len() >= P99_SAMPLES
                    && t.publish.len() >= P50_SAMPLES
                    && t.queries.iter().filter(|q| q.exec_self().is_some()).count() >= P50_SAMPLES
                    && (!t.cluster || t.replicate.len() >= P99_SAMPLES)
            }
        }
    }
}

/// Sum executor counters over every serving executor.
fn summed(all: Vec<ExecMetrics>) -> ExecMetrics {
    let mut t = ExecMetrics::default();
    for m in all {
        t.batched_entries += m.batched_entries;
        t.collapsed_entries += m.collapsed_entries;
        t.feasible_cache_hits += m.feasible_cache_hits;
        t.feasible_cache_misses += m.feasible_cache_misses;
        t.result_cache_hits += m.result_cache_hits;
        t.result_cache_misses += m.result_cache_misses;
        t.result_cache_evicted_stale_shard += m.result_cache_evicted_stale_shard;
        t.snapshot_shards_rebuilt += m.snapshot_shards_rebuilt;
    }
    t
}

/// One world with its own op stream. A run interleaves the rounds of
/// several lanes, each on a world generated from its own seed, so one
/// run's figures average over worlds and over the same stretch of time.
pub struct Lane {
    world: World,
    stream: Stream,
    checker: Checker,
    plan: CheckPlan,
    arena: PivotArena,
    round: u64,
}

fn totals(lanes: &[Lane]) -> (ExecMetrics, (u64, u64)) {
    let exec = summed(lanes.iter().flat_map(|l| l.world.exec_metrics()).collect());
    let faults = lanes
        .iter()
        .map(|l| l.world.cluster_faults())
        .fold((0, 0), |a, b| (a.0 + b.0, a.1 + b.1));
    (exec, faults)
}

/// The closed loop for one phase: rounds go to the lanes in turn for
/// `seconds`; a measured phase then plays on until every percentile it
/// reports has its samples (at most three times as long). A warm-up
/// reports nothing.
pub fn phase(lanes: &mut [Lane], seconds: f64, mode: Mode) -> Phase {
    let (exec_before, faults_before) = totals(lanes);
    let mut phase = Phase {
        ops: BTreeMap::new(),
        sgq: Samples::default(),
        stgq: Samples::default(),
        fresh: Samples::default(),
        batch: Samples::default(),
        queries: 0,
        rounds: Vec::new(),
        writes: 0,
        serving: Duration::ZERO,
        checking: Duration::ZERO,
        errors: Vec::new(),
        exec_before,
        exec_after: ExecMetrics::default(),
        faults: (faults_before, (0, 0)),
        trace: (mode == Mode::Traced).then(|| Trace {
            cluster: lanes[0].world.is_cluster(),
            ..Trace::default()
        }),
    };
    let budget = Duration::from_secs_f64(seconds);
    let start = Instant::now();
    let mut checking = Duration::ZERO;
    for turn in 0.. {
        let elapsed = start.elapsed();
        if (elapsed >= budget && (mode == Mode::Warmup || phase.enough())) || elapsed >= 3 * budget
        {
            break;
        }
        let lane = &mut lanes[turn % lanes.len()];
        let round = lane.stream.next_round();
        let (t, queries) = (Instant::now(), phase.queries);
        let checked = lane.play(&round, &mut phase);
        phase
            .rounds
            .push((phase.queries - queries, nanos(t.elapsed() - checked)));
        checking += checked;
    }
    phase.serving = start.elapsed() - checking;
    phase.checking = checking;
    (phase.exec_after, phase.faults.1) = totals(lanes);
    phase
}

impl Lane {
    pub fn new(world: World, stream: Stream, plan: CheckPlan) -> Self {
        Lane {
            world,
            stream,
            checker: Checker::new(plan.reference_every, plan.writer_every),
            plan,
            arena: PivotArena::new(),
            round: 0,
        }
    }

    /// One round; returns the time spent checking answers.
    fn play(&mut self, round: &Round, phase: &mut Phase) -> Duration {
        let check = self.round.is_multiple_of(self.plan.every_rounds);
        self.round += 1;
        let mut checking = Duration::ZERO;

        self.write(&round.batch_write, phase);
        if phase.trace.is_some() {
            self.probe_publish(phase);
        }
        let t = Instant::now();
        let replies = self.world.batch(&round.batch);
        phase.batch.push(nanos(t.elapsed()));
        phase.queries += replies.len() as u64;
        let t = Instant::now();
        for (entry, reply) in round.batch.iter().zip(replies) {
            let q = Query {
                initiator: entry.initiator,
                spec: entry.spec,
            };
            let result = reply.and_then(|a| self.check(check, &q, &a));
            phase.note("batch_entry", result);
        }
        checking += t.elapsed();

        self.write(&round.fresh_write, phase);
        checking += self.query(&round.fresh, true, check, phase);
        for q in &round.steady {
            checking += self.query(q, false, check, phase);
        }
        checking
    }

    fn check(&mut self, check: bool, q: &Query, a: &Answer) -> Result<(), String> {
        if check {
            self.checker.check(&self.world, q, a)
        } else {
            Ok(())
        }
    }

    fn write(&mut self, w: &Write, phase: &mut Phase) {
        let t = Instant::now();
        let result = self.world.write(w);
        let d = nanos(t.elapsed());
        phase.writes += 1;
        phase.note("write", result);
        if let Some(trace) = &mut phase.trace {
            trace.write.push(d);
            let t = Instant::now();
            if let Some(result) = self.world.replicate() {
                trace.replicate.push(nanos(t.elapsed()));
                phase.note("replicate", result);
            }
        }
    }

    /// The publish probe: the same cached one-person query right after a
    /// write (it pays the republish) and again (it does not).
    fn probe_publish(&mut self, phase: &mut Phase) {
        let probe = Query {
            initiator: self.world.probe,
            spec: probe_query(),
        };
        let timed = || {
            let t = Instant::now();
            let a = self.world.query(&probe);
            (a, nanos(t.elapsed()))
        };
        let (first, after_write) = timed();
        let (second, unchanged) = timed();
        let hits = matches!((&first, &second), (Ok(a), Ok(b)) if a.result_hit && b.result_hit);
        phase.note("probe", first.map(|_| ()));
        phase.note("probe", second.map(|_| ()));
        let trace = phase.trace.as_mut().expect("traced phase");
        if hits {
            trace.publish.push(after_write - unchanged);
        } else {
            trace.publish_dropped += 1;
        }
    }

    /// One single query; returns the time spent checking it.
    fn query(&mut self, q: &Query, fresh: bool, check: bool, phase: &mut Phase) -> Duration {
        let t = Instant::now();
        let reply = self.world.query(q);
        let root_ns = nanos(t.elapsed());
        phase.queries += 1;
        match (fresh, q.spec) {
            (true, _) => phase.fresh.push(root_ns),
            (false, QuerySpec::Sgq(_)) => phase.sgq.push(root_ns),
            (false, QuerySpec::Stgq(_)) => phase.stgq.push(root_ns),
        }
        let t = Instant::now();
        let result = reply.and_then(|a| {
            self.check(check, q, &a)?;
            if phase.trace.is_some() {
                self.replay(q, &a, root_ns, fresh, phase)?;
            }
            Ok(())
        });
        phase.note("query", result);
        t.elapsed()
    }

    /// Replay the request's graph and core calls on the epoch it was
    /// served from, and on the cluster the cached round trip.
    fn replay(
        &mut self,
        q: &Query,
        a: &Answer,
        root_ns: i64,
        fresh: bool,
        phase: &mut Phase,
    ) -> Result<(), String> {
        let snap = self.world.serving_snapshot();
        let cfg = self.world.select_config();
        let t = Instant::now();
        let view = black_box(FeasibleView::extract(snap.graph(), q.initiator, q.spec.s()));
        let extract_ns = nanos(t.elapsed());
        let trace = phase.trace.as_mut().expect("traced phase");
        trace.extract.push(extract_ns);
        trace.candidates += view.len() as u64;

        let t = Instant::now();
        let (objective, stats): (Option<u64>, SearchStats) = match &q.spec {
            QuerySpec::Sgq(sq) => {
                let out = black_box(solve_sgq_on(&view, sq, &cfg, None));
                (out.solution.map(|s| s.total_distance), out.stats)
            }
            QuerySpec::Stgq(tq) => {
                self.arena
                    .install_world_versions(snap.calendar_shard_versions());
                self.arena.timings = Default::default();
                let out = black_box(solve_stgq_pooled(
                    &view,
                    snap.calendars(),
                    tq,
                    &cfg,
                    &mut self.arena,
                ));
                (out.solution.map(|s| s.total_distance), out.stats)
            }
        };
        let solve_ns = nanos(t.elapsed());
        trace.solve.push(solve_ns);
        if q.spec.is_stgq() {
            trace.prep.push(self.arena.timings.prep_ns() as i64);
            trace.descend.push(self.arena.timings.descend_ns as i64);
        }
        trace.frames += stats.frames;
        trace.pivots += stats.pivots_processed;
        trace.pivots_skipped += stats.pivots_skipped;

        let mut rtt_ns = None;
        if self.world.is_cluster() && !fresh {
            let t = Instant::now();
            let again = self.world.query(q);
            let d = nanos(t.elapsed());
            if matches!(&again, Ok(b) if b.result_hit) {
                trace.rtt.push(d);
                rtt_ns = Some(d);
            }
            phase.note("rtt", again.map(|_| ()));
        }
        let trace = phase.trace.as_mut().expect("traced phase");
        trace.queries.push(TracedQuery {
            stgq: q.spec.is_stgq(),
            fresh,
            root_ns,
            feasible_hit: a.feasible_hit,
            result_hit: a.result_hit,
            extract_ns,
            solve_ns,
            rtt_ns,
        });
        let served = a.solution.objective();
        if objective != served {
            return Err(format!(
                "{q:?}: served {served:?}, replayed solve {objective:?}"
            ));
        }
        Ok(())
    }
}

pub fn nanos(d: Duration) -> i64 {
    i64::try_from(d.as_nanos()).expect("a span shorter than 292 years")
}

#[cfg(test)]
mod tests {
    use super::*;

    fn traced(feasible_hit: bool, result_hit: bool, fresh: bool) -> TracedQuery {
        TracedQuery {
            stgq: true,
            fresh,
            root_ns: 1000,
            feasible_hit,
            result_hit,
            extract_ns: 200,
            solve_ns: 500,
            rtt_ns: None,
        }
    }

    #[test]
    fn self_time_is_the_request_minus_the_spans_it_contained() {
        assert_eq!(traced(false, false, false).exec_self(), Some(300));
        // A feasible-cache hit did not extract, so extraction is not its
        // child; and its self time is not the executor's typical one.
        assert_eq!(traced(true, false, false).children(), vec![500]);
        assert_eq!(traced(true, false, false).exec_self(), None);
        assert_eq!(traced(false, true, false).children(), Vec::<i64>::new());
        assert_eq!(
            traced(false, false, true).exec_self(),
            None,
            "fresh reads publish"
        );
        let mut cluster = traced(false, false, false);
        cluster.rtt_ns = Some(250);
        assert_eq!(cluster.exec_self(), Some(50));
    }

    #[test]
    fn residual_subtracts_every_attributed_layer() {
        // 1000 − extract 200 − solve 500 − exec 250 = 50.
        assert_eq!(traced(false, false, false).residual(250, 400), Some(50));
        // A fresh read also paid the publish.
        assert_eq!(traced(false, false, true).residual(250, 400), Some(-350));
        // A feasible-cache hit paid no extraction.
        assert_eq!(traced(true, false, false).residual(250, 400), Some(250));
        // A replayed answer never reached the solver.
        assert_eq!(traced(true, true, false).residual(250, 400), None);
    }
}
