//! Serving ledger: drives the STGQ serving stack through its public
//! entry points on three workloads and reports end-to-end metrics
//! (`--trace 0`) or a per-layer split (`--trace 1`).
//!
//! ```text
//! cargo run --release --manifest-path ledger/Cargo.toml -- \
//!     --workload paper194 --seed 1 --seconds 10 --trace 0
//! ```
//!
//! Load is a closed loop from one client thread: every entry point
//! blocks until it replies. Each workload is a stream of rounds (see
//! [`stream`]): a write then a batch, a second write then a fresh read,
//! then steady single queries. The workloads differ in world, query mix
//! and entry point, so that each layer does most of the work on one
//! workload and little on another:
//!
//! * `paper194` — the 194-person analog, distinct exact queries with a
//!   reuse distance far beyond the result cache: the core solve
//!   dominates.
//! * `metropolis-writes` — 10^5 members, Zipf initiators and a write
//!   every ~15 queries: graph extraction, the executor caches and the
//!   shard republish dominate.
//! * `cluster-tcp` — the 194-person analog behind a two-node loopback
//!   TCP cluster: replication, routing and round trips, plus collapsing
//!   of the hot batch's duplicates.
//!
//! The last stdout line is one JSON object: `correct`, `attempted`,
//! `failed` and `metrics`. A wrong answer makes the exit code non-zero.

mod check;
mod run;
mod stats;
mod stream;
mod world;

use std::fmt::Write as _;
use std::time::Instant;

use run::{CheckPlan, Lane, Mode, Phase};
use stats::{error_rate, throughput, OpCount, Samples};
use stream::{BatchShape, Stream};
use world::World;

struct Args {
    workload: String,
    seed: u64,
    seconds: f64,
    trace: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut args = std::env::args().skip(1);
    let (mut workload, mut seed, mut seconds, mut trace) = (None, None, None, None);
    while let Some(flag) = args.next() {
        let value = args.next().ok_or(format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" => workload = Some(value),
            "--seed" => seed = Some(value.parse().map_err(|e| format!("--seed: {e}"))?),
            "--seconds" => {
                let s: f64 = value.parse().map_err(|e| format!("--seconds: {e}"))?;
                if !(s > 0.0 && s <= 600.0) {
                    return Err(format!("--seconds {s} outside (0, 600]"));
                }
                seconds = Some(s);
            }
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(format!("--trace takes 0 or 1, got {value}")),
                })
            }
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed: seed.ok_or("--seed is required")?,
        seconds: seconds.ok_or("--seconds is required")?,
        trace: trace.unwrap_or(false),
    })
}

/// One workload: its world, its op stream and how its answers are
/// checked.
struct Workload {
    build: fn(u64) -> World,
    stream: fn(&World, u64) -> Stream,
    checks: CheckPlan,
    /// Worlds served side by side in one run.
    lanes: usize,
    /// Worlds built per run (at least `lanes`); `setup_s` is the median
    /// of their build times.
    setups: usize,
}

fn workload(name: &str) -> Option<Workload> {
    Some(match name {
        "paper194" => Workload {
            build: World::paper194,
            // Distinct queries, 24 of them batched after each write.
            stream: |w, seed| Stream::distinct(w, seed, BatchShape::FromSource(24), 30),
            checks: CheckPlan {
                every_rounds: 1,
                reference_every: 64,
                writer_every: 1,
            },
            lanes: 8,
            setups: 24,
        },
        "metropolis-writes" => Workload {
            build: World::metropolis,
            stream: |w, seed| Stream::zipf(w, seed, 1.0, 16, 14),
            // Exporting a 10^5-member graph for the checks is costly, so
            // a seeded sample of rounds is checked.
            checks: CheckPlan {
                every_rounds: 512,
                reference_every: 4,
                writer_every: 1,
            },
            lanes: 3,
            setups: 6,
        },
        "cluster-tcp" => Workload {
            build: World::cluster,
            stream: |w, seed| Stream::distinct(w, seed, BatchShape::Fixed(w.hot_batch.clone()), 6),
            checks: CheckPlan {
                every_rounds: 1,
                reference_every: 64,
                writer_every: 16,
            },
            lanes: 4,
            setups: 12,
        },
        _ => return None,
    })
}

fn main() {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("error: {e}");
            eprintln!("usage: stgq-ledger --workload <paper194|metropolis-writes|cluster-tcp> --seed <n> --seconds <s> --trace <0|1>");
            std::process::exit(2);
        }
    };
    let Some(wl) = workload(&args.workload) else {
        eprintln!("error: unknown workload {}", args.workload);
        std::process::exit(2);
    };
    println!(
        "ledger workload={} seed={} seconds={} trace={} nproc={}",
        args.workload,
        args.seed,
        args.seconds,
        u8::from(args.trace),
        std::thread::available_parallelism().map_or(1, |n| n.get())
    );

    // Set-up: generate, load through the mutation API, first publish.
    // Every build is timed; the last `lanes` worlds are kept.
    let lane_seed = |i: usize| args.seed.wrapping_mul(64).wrapping_add(i as u64);
    assert_eq!(
        wl.setups % wl.lanes,
        0,
        "the kept builds are lanes 0..K in order"
    );
    let build_lanes = |setup: &mut Samples| -> Vec<Lane> {
        let mut worlds = Vec::new();
        for i in 0..wl.setups {
            let t = Instant::now();
            worlds.push((wl.build)(lane_seed(i % wl.lanes)));
            setup.push(run::nanos(t.elapsed()));
            if worlds.len() > wl.lanes {
                drop(worlds.remove(0));
            }
        }
        worlds
            .into_iter()
            .enumerate()
            .map(|(i, w)| {
                let stream = (wl.stream)(&w, lane_seed(i) ^ 0x5EED_1ED6);
                Lane::new(w, stream, wl.checks)
            })
            .collect()
    };
    let mut setup = Samples::default();
    let mut lanes = build_lanes(&mut setup);
    let setup_s = setup.median() as f64 / 1e9;
    println!(
        "setup: {} builds for {} lanes, median {setup_s} s",
        wl.setups, wl.lanes
    );

    let warmup = (args.seconds * 0.2).max(0.5);
    let mut phases = vec![("warmup", run::phase(&mut lanes, warmup, Mode::Warmup))];
    phases.push((
        "measured",
        run::phase(&mut lanes, args.seconds, Mode::Measured),
    ));
    if args.trace {
        // The traced phase replays the same streams on fresh worlds.
        drop(lanes);
        let mut lanes = build_lanes(&mut Samples::default());
        phases.push((
            "traced-warmup",
            run::phase(&mut lanes, warmup, Mode::Warmup),
        ));
        phases.push(("traced", run::phase(&mut lanes, args.seconds, Mode::Traced)));
    }

    let mut total = OpCount::default();
    for (name, phase) in &phases {
        print_accounting(name, phase);
        total.add(OpCount {
            sent: phase.attempted(),
            failed: phase.failed(),
        });
    }
    println!(
        "error_rate = {} ({} failed of {} attempted)",
        error_rate(total.sent, total.failed),
        total.failed,
        total.sent
    );

    let mut metrics = Metrics::default();
    let mut e2e = end_to_end(&phases[1].1, setup_s, &mut metrics);
    if args.trace {
        // The traced run reports the per-layer metrics; the end-to-end
        // lines above stay for comparison.
        e2e = Ok(());
        metrics = Metrics::default();
        per_layer(&phases[1].1, &phases[3].1, &mut metrics);
    }
    if let Err(e) = &e2e {
        println!("error: {e}");
    }
    for m in &metrics.missing {
        println!("error: too few samples for {m}");
    }
    if e2e.is_err() || !metrics.missing.is_empty() {
        // Without every metric there is no result to print.
        std::process::exit(3);
    }
    let correct = total.failed == 0;
    println!(
        "{{\"correct\": {correct}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
        total.sent, total.failed, metrics.json
    );
    if !correct {
        std::process::exit(1);
    }
}

/// Metric lines and the JSON body being built.
#[derive(Default)]
struct Metrics {
    json: String,
    missing: Vec<String>,
}

impl Metrics {
    fn put(&mut self, name: &str, value: f64, unit: &str, note: &str) {
        assert!(value.is_finite(), "{name} = {value}");
        println!("{name:<34} {value:>16} {unit:<6} {note}");
        if !self.json.is_empty() {
            self.json.push_str(", ");
        }
        let _ = write!(
            self.json,
            "\"{name}\": {{\"value\": {value}, \"unit\": \"{unit}\"}}"
        );
    }

    /// A percentile in `unit` (ns divided by `scale`), with its sample
    /// count; recorded as missing when the rule forbids reporting it.
    fn pct(&mut self, name: &str, s: &Samples, q: f64, unit: &str, scale: f64) {
        let n = s.len();
        match s.percentile(q) {
            Some(v) => self.put(name, v as f64 / scale, unit, &format!("(n={n})")),
            None => self.missing.push(format!("{name} (n={n})")),
        }
    }
}

fn end_to_end(p: &Phase, setup_s: f64, m: &mut Metrics) -> Result<(), String> {
    m.put("setup_s", setup_s, "s", "(median of the set-ups)");
    m.put(
        "qps",
        throughput(&p.rounds),
        "1/s",
        &format!(
            "(median over {}-round windows; {} queries in {} s)",
            stats::WINDOW,
            p.queries,
            p.serving.as_secs_f64()
        ),
    );
    m.pct("sgq_p50_us", &p.sgq, 0.5, "us", 1e3);
    m.pct("stgq_p50_us", &p.stgq, 0.5, "us", 1e3);
    m.pct("fresh_read_p50_us", &p.fresh, 0.5, "us", 1e3);
    m.pct("batch_p50_ms", &p.batch, 0.5, "ms", 1e6);
    m.put("peak_rss_mib", peak_rss_mib()?, "MiB", "(VmHWM)");
    // The tails are printed but not gated: on a VM whose vCPUs are
    // taken away for a few percent of the time they do not repeat from
    // run to run (see README.md).
    for (name, s, unit, scale) in [
        ("sgq", &p.sgq, "us", 1e3),
        ("stgq", &p.stgq, "us", 1e3),
        ("fresh_read", &p.fresh, "us", 1e3),
        ("batch", &p.batch, "ms", 1e6),
    ] {
        for (label, q) in [("p90", 0.9), ("p99", 0.99)] {
            if let Some(v) = s.percentile(q) {
                let v = v as f64 / scale;
                println!(
                    "{name}_{label}_{unit} = {v} {unit} (n={}, not gated)",
                    s.len()
                );
            }
        }
    }
    Ok(())
}

fn peak_rss_mib() -> Result<f64, String> {
    let status = std::fs::read_to_string("/proc/self/status").map_err(|e| e.to_string())?;
    let kb: f64 = status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse().ok())
        .ok_or("no VmHWM in /proc/self/status")?;
    Ok(kb / 1024.0)
}

fn print_accounting(name: &str, p: &Phase) {
    let mut line = format!(
        "phase {name}: serving {} s, checking {} s;",
        p.serving.as_secs_f64(),
        p.checking.as_secs_f64()
    );
    for (kind, c) in &p.ops {
        let _ = write!(
            line,
            " {kind} sent={} ok={} failed={};",
            c.sent,
            c.succeeded(),
            c.failed
        );
    }
    println!("{line}");
    for e in &p.errors {
        println!("  failure: {e}");
    }
}

fn ratio(num: u64, den: u64) -> f64 {
    if den == 0 {
        0.0
    } else {
        num as f64 / den as f64
    }
}

fn per_layer(untraced: &Phase, traced: &Phase, m: &mut Metrics) {
    let t = traced.trace.as_ref().expect("traced phase");
    let (b, a) = (traced.exec_before, traced.exec_after);
    let writes = traced.writes;
    let replays = t.solve.len() as u64;
    m.pct("graph.extract_p50_us", &t.extract, 0.5, "us", 1e3);
    m.pct("graph.extract_p99_us", &t.extract, 0.99, "us", 1e3);
    m.put(
        "graph.candidates_mean",
        ratio(t.candidates, replays),
        "count",
        "",
    );
    m.pct("core.solve_p50_us", &t.solve, 0.5, "us", 1e3);
    m.pct("core.solve_p99_us", &t.solve, 0.99, "us", 1e3);
    m.pct("core.prep_p50_us", &t.prep, 0.5, "us", 1e3);
    m.pct("core.descend_p50_us", &t.descend, 0.5, "us", 1e3);
    m.put("core.frames_mean", ratio(t.frames, replays), "count", "");
    m.put(
        "core.pivot_skip_ratio",
        ratio(t.pivots_skipped, t.pivots),
        "ratio",
        &format!("({} pivots)", t.pivots),
    );
    let mut exec_self = Samples::default();
    for q in &t.queries {
        if let Some(s) = q.exec_self() {
            exec_self.push(s);
        }
    }
    m.pct("exec.self_p50_us", &exec_self, 0.5, "us", 1e3);
    let hits = a.result_cache_hits - b.result_cache_hits;
    let lookups = hits + a.result_cache_misses - b.result_cache_misses;
    m.put(
        "exec.result_hit_ratio",
        ratio(hits, lookups),
        "ratio",
        &format!("({lookups} lookups)"),
    );
    let hits = a.feasible_cache_hits - b.feasible_cache_hits;
    let lookups = hits + a.feasible_cache_misses - b.feasible_cache_misses;
    m.put(
        "exec.feasible_hit_ratio",
        ratio(hits, lookups),
        "ratio",
        &format!("({lookups} lookups)"),
    );
    let stale = a.result_cache_evicted_stale_shard - b.result_cache_evicted_stale_shard;
    m.put(
        "exec.stale_evictions_per_write",
        ratio(stale, writes),
        "count",
        &format!("({writes} writes)"),
    );
    let batched = a.batched_entries - b.batched_entries;
    m.put(
        "exec.collapse_ratio",
        ratio(a.collapsed_entries - b.collapsed_entries, batched),
        "ratio",
        &format!("({batched} batched)"),
    );
    m.pct("service.write_p50_us", &t.write, 0.5, "us", 1e3);
    let note = format!(
        "(n={}, {} probe pairs dropped on a cache miss)",
        t.publish.len(),
        t.publish_dropped
    );
    match t.publish.percentile(0.5) {
        Some(v) => m.put("service.publish_p50_us", v as f64 / 1e3, "us", &note),
        None => m.missing.push(format!("service.publish_p50_us {note}")),
    }
    let rebuilt = a.snapshot_shards_rebuilt - b.snapshot_shards_rebuilt;
    m.put(
        "service.shards_rebuilt_per_write",
        ratio(rebuilt, writes),
        "count",
        "",
    );
    // The cluster layer is on the path of `cluster-tcp` only; inline
    // workloads report zero for it.
    if !t.cluster {
        for name in [
            "cluster.replicate_p50_us",
            "cluster.replicate_p99_us",
            "cluster.rtt_p50_us",
        ] {
            m.put(name, 0.0, "us", "(no cluster on this workload)");
        }
    } else {
        m.pct("cluster.replicate_p50_us", &t.replicate, 0.5, "us", 1e3);
        m.pct("cluster.replicate_p99_us", &t.replicate, 0.99, "us", 1e3);
        m.pct("cluster.rtt_p50_us", &t.rtt, 0.5, "us", 1e3);
    }
    let ((r0, f0), (r1, f1)) = traced.faults;
    m.put("cluster.retries", (r1 - r0) as f64, "count", "");
    m.put("cluster.failed_sends", (f1 - f0) as f64, "count", "");

    // Residual and tracing overhead.
    let exec_p50 = exec_self.percentile(0.5).unwrap_or(0);
    let publish_p50 = t.publish.percentile(0.5).unwrap_or(0);
    let mut residual = Samples::default();
    let (mut res_sum, mut root_sum) = (0i64, 0i64);
    for q in &t.queries {
        if let Some(r) = q.residual(exec_p50, publish_p50) {
            residual.push(r);
            res_sum += r;
            root_sum += q.root_ns;
        }
    }
    m.pct("trace.residual_p50_us", &residual, 0.5, "us", 1e3);
    m.put(
        "trace.residual_share",
        if root_sum == 0 {
            0.0
        } else {
            res_sum as f64 / root_sum as f64
        },
        "ratio",
        "(of solved requests' time)",
    );
    let u = pooled(untraced);
    let v = pooled(traced);
    match (u.percentile(0.5), v.percentile(0.5)) {
        (Some(x), Some(y)) => m.put(
            "trace.overhead_p50_us",
            (y - x) as f64 / 1e3,
            "us",
            "(traced minus untraced steady p50)",
        ),
        _ => m.missing.push("trace.overhead_p50_us".into()),
    }
    split(untraced, traced);
}

/// Steady queries of both kinds.
fn pooled(p: &Phase) -> Samples {
    let mut s = Samples::default();
    for &x in p.sgq.values().iter().chain(p.stgq.values()) {
        s.push(x);
    }
    s
}

/// The per-type split the dominance checks read: p50 of each span over
/// steady requests, a span counting zero where a cache hit skipped it.
fn split(untraced: &Phase, traced: &Phase) {
    let t = traced.trace.as_ref().expect("traced phase");
    for (label, stgq, e2e) in [
        ("sgq", false, &untraced.sgq),
        ("stgq", true, &untraced.stgq),
    ] {
        let mut root = Samples::default();
        let mut extract = Samples::default();
        let mut solve = Samples::default();
        for q in t.queries.iter().filter(|q| q.stgq == stgq && !q.fresh) {
            root.push(q.root_ns);
            extract.push(if q.feasible_hit || q.result_hit {
                0
            } else {
                q.extract_ns
            });
            solve.push(if q.result_hit { 0 } else { q.solve_ns });
        }
        let us = |s: &Samples| s.percentile(0.5).map_or(f64::NAN, |v| v as f64 / 1e3);
        println!(
            "split {label}: untraced p50 {} us, traced p50 {} us, attributed extract p50 {} us, solve p50 {} us (n={})",
            us(e2e),
            us(&root),
            us(&extract),
            us(&solve),
            root.len()
        );
    }
}
