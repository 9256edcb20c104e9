//! Seeded op streams. A stream is a sequence of rounds; every round is
//!
//! 1. a write, then a batch (its latency is `batch_*`),
//! 2. a second write, then one query (the fresh read: `fresh_read_*`),
//! 3. `steady` more single queries (`sgq_*` / `stgq_*`).
//!
//! The same seed gives the same rounds, so the untraced and the traced
//! phase replay one stream. Writes never touch the shards the publish
//! probe reads (see [`World`](crate::world::World)), so the probe's
//! cached answer survives them and the probe times only the republish.

use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};
use stgq_core::{SgqQuery, StgqQuery};
use stgq_exec::QuerySpec;
use stgq_graph::{Dist, NodeId};
use stgq_schedule::SlotRange;
use stgq_service::{BatchQuery, Engine};

use crate::world::World;

#[derive(Clone, Copy, Debug)]
pub enum Write {
    /// Re-weight an existing friendship.
    Reweight {
        a: NodeId,
        b: NodeId,
        distance: Dist,
    },
    /// Mark a slot range (un)available.
    Calendar {
        person: NodeId,
        range: SlotRange,
        available: bool,
    },
}

#[derive(Clone, Copy, Debug)]
pub struct Query {
    pub initiator: NodeId,
    pub spec: QuerySpec,
}

impl Query {
    pub fn batch_entry(&self) -> BatchQuery {
        BatchQuery {
            initiator: self.initiator,
            spec: self.spec,
            engine: Engine::Exact,
        }
    }
}

pub struct Round {
    pub batch_write: Write,
    pub batch: Vec<BatchQuery>,
    pub fresh_write: Write,
    pub fresh: Query,
    pub steady: Vec<Query>,
}

/// Where a workload's queries come from.
enum Source {
    /// Every (initiator, spec) pair of a world, each SGQ and STGQ list
    /// walked in a fresh seeded order before any pair comes back.
    Distinct {
        sgq: Vec<Query>,
        stgq: Vec<Query>,
        at: [usize; 2],
        next_stgq: bool,
    },
    /// Zipf initiator popularity, alternating one SGQ and one STGQ spec.
    Zipf {
        cdf: Vec<f64>,
        member_of_rank: Vec<u32>,
        sgq: SgqQuery,
        stgq: StgqQuery,
        next_stgq: bool,
    },
}

/// How batches are drawn.
pub enum BatchShape {
    /// The next `n` queries of the source.
    FromSource(usize),
    /// The same fixed batch every round.
    Fixed(Vec<BatchQuery>),
}

pub struct Stream {
    rng: SmallRng,
    source: Source,
    batch: BatchShape,
    steady: usize,
    writes: WriteGen,
    calendar_next: bool,
}

/// Write targets: edges and people outside the probe's shards.
#[derive(Clone)]
pub struct WriteGen {
    /// Existing friendships writes may re-weight.
    pub edges: Vec<(NodeId, NodeId)>,
    /// Distances a re-weight draws from (the world's own, so repeated
    /// writes keep the weight distribution the world was built with).
    pub distances: Vec<Dist>,
    /// People whose calendars writes may edit.
    pub people: Vec<NodeId>,
    pub horizon: usize,
}

impl Stream {
    /// Distinct exact SGQ/STGQ over every initiator of `world`
    /// (p 4–5, s 2, k 1–2, m 4–12).
    pub fn distinct(world: &World, seed: u64, batch: BatchShape, steady: usize) -> Self {
        let n = world.people() as u32;
        let mut sgq = Vec::new();
        let mut stgq = Vec::new();
        for v in 0..n {
            for p in 4..=5 {
                for k in 1..=2 {
                    let social = SgqQuery::new(p, 2, k).expect("valid query");
                    sgq.push(Query {
                        initiator: NodeId(v),
                        spec: QuerySpec::Sgq(social),
                    });
                    for m in 4..=12 {
                        stgq.push(Query {
                            initiator: NodeId(v),
                            spec: QuerySpec::Stgq(StgqQuery::new(p, 2, k, m).expect("valid")),
                        });
                    }
                }
            }
        }
        let mut rng = SmallRng::seed_from_u64(seed);
        shuffle(&mut sgq, &mut rng);
        shuffle(&mut stgq, &mut rng);
        Stream {
            writes: world.write_targets(),
            rng,
            source: Source::Distinct {
                sgq,
                stgq,
                at: [0, 0],
                next_stgq: false,
            },
            batch,
            steady,
            calendar_next: false,
        }
    }

    /// Zipf(`exponent`) initiators over every member of `world`, queries
    /// SGQ(4,1,1) and STGQ(3,1,1,2).
    pub fn zipf(world: &World, seed: u64, exponent: f64, batch: usize, steady: usize) -> Self {
        let n = world.people();
        let mut rng = SmallRng::seed_from_u64(seed);
        let mut member_of_rank: Vec<u32> = (0..n as u32).collect();
        shuffle(&mut member_of_rank, &mut rng);
        let mut cdf = Vec::with_capacity(n);
        let mut acc = 0.0;
        for rank in 1..=n {
            acc += (rank as f64).powf(-exponent);
            cdf.push(acc);
        }
        Stream {
            writes: world.write_targets(),
            rng,
            source: Source::Zipf {
                cdf,
                member_of_rank,
                sgq: SgqQuery::new(4, 1, 1).expect("valid"),
                stgq: StgqQuery::new(3, 1, 1, 2).expect("valid"),
                next_stgq: false,
            },
            batch: BatchShape::FromSource(batch),
            steady,
            calendar_next: false,
        }
    }

    fn next_query(&mut self) -> Query {
        match &mut self.source {
            Source::Distinct {
                sgq,
                stgq,
                at,
                next_stgq,
            } => {
                let kind = usize::from(*next_stgq);
                *next_stgq = !*next_stgq;
                let list = if kind == 1 { stgq } else { sgq };
                if at[kind] == list.len() {
                    shuffle(list, &mut self.rng);
                    at[kind] = 0;
                }
                at[kind] += 1;
                list[at[kind] - 1]
            }
            Source::Zipf {
                cdf,
                member_of_rank,
                sgq,
                stgq,
                next_stgq,
            } => {
                let total = *cdf.last().expect("non-empty world");
                let u = self.rng.gen_range(0.0..total);
                let rank = cdf.partition_point(|&c| c <= u).min(cdf.len() - 1);
                let spec = if *next_stgq {
                    QuerySpec::Stgq(*stgq)
                } else {
                    QuerySpec::Sgq(*sgq)
                };
                *next_stgq = !*next_stgq;
                Query {
                    initiator: NodeId(member_of_rank[rank]),
                    spec,
                }
            }
        }
    }

    /// Alternately an edge re-weight and a calendar edit.
    fn next_write(&mut self) -> Write {
        self.calendar_next = !self.calendar_next;
        let w = &self.writes;
        if self.calendar_next {
            let person = w.people[self.rng.gen_range(0..w.people.len())];
            let len = self.rng.gen_range(1..=8usize).min(w.horizon);
            let lo = self.rng.gen_range(0..=w.horizon - len);
            Write::Calendar {
                person,
                range: SlotRange::new(lo, lo + len - 1),
                available: self.rng.gen_range(0..2u32) == 1,
            }
        } else {
            let (a, b) = w.edges[self.rng.gen_range(0..w.edges.len())];
            let distance = w.distances[self.rng.gen_range(0..w.distances.len())];
            Write::Reweight { a, b, distance }
        }
    }

    pub fn next_round(&mut self) -> Round {
        let batch_write = self.next_write();
        let batch = match &self.batch {
            BatchShape::Fixed(b) => b.clone(),
            BatchShape::FromSource(n) => {
                let n = *n;
                (0..n).map(|_| self.next_query().batch_entry()).collect()
            }
        };
        let fresh_write = self.next_write();
        let fresh = self.next_query();
        let steady = (0..self.steady).map(|_| self.next_query()).collect();
        // Swap which write kind leads, so batches and fresh reads both
        // follow re-weights and calendar edits.
        self.calendar_next = !self.calendar_next;
        Round {
            batch_write,
            batch,
            fresh_write,
            fresh,
            steady,
        }
    }
}

fn shuffle<T>(items: &mut [T], rng: &mut SmallRng) {
    for i in (1..items.len()).rev() {
        items.swap(i, rng.gen_range(0..=i));
    }
}
