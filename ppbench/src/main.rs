//! End-to-end benchmark of the PP-ANNS loopback service.
//!
//! ```text
//! ppbench --workload <sift-read|deep-churn> --seed <n> --seconds <s> --trace <0|1>
//! ```
//!
//! Runs one workload against the real service on 127.0.0.1, checks every
//! answer apart from the program, and prints one JSON object as the last
//! line of standard output. `--trace 0` reports the end-to-end metrics;
//! `--trace 1` runs a traced pass and reports the per-layer ledger. Scratch
//! data and span files go under `.bench_out/` in the working directory.
//! See README.md beside this file.

mod host;
mod inputs;
mod layers;
mod run;
mod stack;
mod stats;
mod trace;
mod workloads;

use ppann_core::catalog::Catalog;
use ppann_core::QueryScratch;
use run::{micros, same_bits, Tally};
use stack::{Stack, COLLECTION, SETUPS};
use stats::{mean, median, quantile};
use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::path::{Path, PathBuf};
use std::time::Instant;
use trace::{Layer, Tracer};
use workloads::{Ctx, Workload};

struct Opts {
    workload: Workload,
    seed: u64,
    seconds: f64,
    trace: bool,
}

fn parse_args() -> Result<Opts, String> {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let (mut workload, mut seed, mut seconds, mut trace) = (None, None, None, None);
    for pair in args.chunks(2) {
        let [flag, value] = pair else {
            return Err(format!("flag `{}` has no value", pair[0]));
        };
        match flag.as_str() {
            "--workload" => {
                workload =
                    Some(Workload::parse(value).ok_or(format!("unknown workload `{value}`"))?)
            }
            "--seed" => seed = Some(value.parse().map_err(|_| format!("bad seed `{value}`"))?),
            "--seconds" => {
                seconds = Some(value.parse::<f64>().map_err(|_| format!("bad seconds `{value}`"))?)
            }
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(format!("bad trace `{value}` (want 0 or 1)")),
                })
            }
            _ => return Err(format!("unknown flag `{flag}`")),
        }
    }
    Ok(Opts {
        workload: workload.ok_or("--workload is required")?,
        seed: seed.ok_or("--seed is required")?,
        seconds: seconds.filter(|s| *s > 0.0).ok_or("--seconds must be positive")?,
        trace: trace.unwrap_or(false),
    })
}

/// One metric as printed: name, value, unit.
type Metric = (&'static str, f64, &'static str);

struct Report {
    correct: bool,
    attempted: u64,
    failed: u64,
    metrics: Vec<Metric>,
}

fn main() {
    let opts = match parse_args() {
        Ok(opts) => opts,
        Err(e) => {
            eprintln!("ppbench: {e}");
            eprintln!(
                "usage: ppbench --workload <sift-read|deep-churn> --seed <n> --seconds <s> --trace <0|1>"
            );
            std::process::exit(2);
        }
    };
    let out = PathBuf::from(".bench_out");
    let root = out.join(format!("{}-{}-{}", opts.workload.name(), opts.seed, std::process::id()));
    std::fs::create_dir_all(&root).expect("create the scratch directory");
    let steal = host::Steal::start();
    let report = if opts.trace { traced(&opts, &root, &out) } else { end_to_end(&opts, &root) };
    let _ = std::fs::remove_dir_all(&root);

    println!(
        "host: nproc {} | kernels {} | cpu steal {:.2}% | fsync {} | service workers {}",
        host::nproc(),
        ppann_linalg::kernels::active().name,
        steal.pct(),
        ppann_core::FsyncPolicy::Always,
        host::nproc(),
    );
    for (name, value, unit) in &report.metrics {
        println!("metric {name:<24} {value:>16.4} {unit}");
    }
    let mut json = String::new();
    for (i, (name, value, unit)) in report.metrics.iter().enumerate() {
        let sep = if i == 0 { "" } else { ", " };
        let _ = write!(
            json,
            "{sep}\"{name}\": {{\"value\": {}, \"unit\": \"{unit}\"}}",
            finite(*value)
        );
    }
    println!(
        "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{json}}}}}",
        report.correct, report.attempted, report.failed
    );
}

/// JSON has no NaN or infinity; a metric with no samples reads 0.
fn finite(v: f64) -> f64 {
    if v.is_finite() {
        v
    } else {
        0.0
    }
}

/// The data dir reopened from disk after the service stopped.
struct Reopened {
    catalog: Catalog,
    check: Result<(), String>,
}

/// Stops the service, reopens the data dir with `load_dir_durable` and
/// checks it holds the writer's live set and gives the same answers. The
/// reopened collection replaces the served one in `stack`.
fn reopen(ctx: &Ctx, stack: &mut Stack) -> Reopened {
    stack.stop();
    let (catalog, _) = Catalog::load_dir_durable(&stack.dir, stack.config.durability())
        .expect("reopen the data dir");
    let coll = catalog.get(COLLECTION).expect("the benchmark collection survives a restart");
    let check = (|| {
        let want = ctx.book.is_live.iter().filter(|l| **l).count();
        if coll.live_len() != want {
            return Err(format!(
                "reopened {} live vectors, the writer left {want}",
                coll.live_len()
            ));
        }
        let ids = 0..ctx.book.is_live.len() as u32;
        if let Some(id) =
            ids.into_iter().find(|&id| coll.is_live(id) != ctx.book.is_live[id as usize])
        {
            return Err(format!("id {id} is live after reopening: {}", coll.is_live(id)));
        }
        let mut scratch = QueryScratch::default();
        for (eq, out) in &ctx.answers {
            same_bits(out, &coll.search_in(&mut scratch, eq, &ctx.params))
                .map_err(|e| format!("after reopening: {e}"))?;
        }
        Ok(())
    })();
    if let Err(e) = &check {
        eprintln!("ppbench: FAILED reopen check: {e}");
    }
    stack.coll = coll;
    Reopened { catalog, check }
}

/// The end-to-end run: [`SETUPS`] set-ups, each followed by one measured
/// segment of `seconds / SETUPS`. Spreading the measured time over the
/// whole run keeps one burst of host contention from deciding it.
fn end_to_end(opts: &Opts, root: &Path) -> Report {
    let mut ctx = Ctx::new(opts.workload, opts.seed);
    let mut untraced = Tracer::new(false, Instant::now());
    let mut tally = Tally::default();
    let mut setup_secs = Vec::with_capacity(SETUPS);
    let mut last = None;
    for i in 0..SETUPS {
        if let Some(stack) = last.take() {
            Stack::tear_down(stack);
        }
        let (stack, secs) = ctx.bring_up(&root.join(format!("setup-{i}")), &mut untraced);
        eprintln!("ppbench: set-up {} of {SETUPS}: {secs:.3} s", i + 1);
        setup_secs.push(secs);
        tally.absorb(ctx.measure(&stack, opts.seconds / SETUPS as f64, &mut untraced));
        last = Some(stack);
    }
    let mut stack = last.expect("SETUPS > 0");
    let peak_rss_mb = host::peak_rss_mb();
    let disk = host::dir_bytes(&stack.dir) as f64 / stack.coll.live_len().max(1) as f64;
    let reopened = reopen(&ctx, &mut stack);
    print_reference(&tally);
    let recall = tally.recall_sum / tally.recall_n.max(1) as f64;
    Report {
        correct: reopened.check.is_ok(),
        attempted: tally.attempted,
        failed: tally.failed,
        metrics: vec![
            ("query_p50_us", median(&tally.query_us), "us"),
            (
                "server_cpu_us_per_op",
                micros(tally.server_cpu) / tally.completed().max(1) as f64,
                "us",
            ),
            ("recall_at_10", recall, "ratio"),
            ("bytes_per_query", mean(&tally.frame_bytes), "B"),
            ("insert_p50_us", median(&tally.insert_us), "us"),
            ("delete_p50_us", median(&tally.delete_us), "us"),
            ("write_amp", tally.write_amp(), "ratio"),
            ("disk_bytes_per_live", disk, "B"),
            ("peak_rss_mb", peak_rss_mb, "MB"),
            ("setup_s", median(&setup_secs), "s"),
        ],
    }
}

/// Unbounded figures, for reading a run: tails with their sample counts
/// and closed-loop rates move with host stalls, so they carry no bound.
fn print_reference(t: &Tally) {
    let tail = |xs: &[f64]| {
        format!(
            "p50 {:.1} us, p90 {:.1} us, p99 {:.1} us over {} samples",
            median(xs),
            quantile(xs, 0.9),
            quantile(xs, 0.99),
            xs.len()
        )
    };
    println!("queries: {}", tail(&t.query_us));
    // A host stall shows as one fifth of the run standing out.
    let fifths: Vec<String> = t
        .query_us
        .chunks(t.query_us.len().div_ceil(5).max(1))
        .map(|c| format!("{:.1}", median(c)))
        .collect();
    println!("query p50 per fifth of the run: {} us", fifths.join(" "));
    if !t.idle_query_us.is_empty() {
        println!("queries with the writer idle: {}", tail(&t.idle_query_us));
    }
    println!("inserts: {}", tail(&t.insert_us));
    println!("deletes: {}", tail(&t.delete_us));
    let secs = t.wall.as_secs_f64().max(1e-9);
    println!(
        "closed loop: {:.0} ops/s, {:.0} queries/s over {secs:.2} s; {} compactions; {:.0} WAL bytes per record",
        t.completed() as f64 / secs,
        (t.query_us.len() + t.idle_query_us.len()) as f64 / secs,
        t.compactions,
        t.record_bytes()
    );
    if !t.round_recall.is_empty() {
        let rounds: Vec<String> = t.round_recall.iter().map(|r| format!("{r:.4}")).collect();
        println!("recall@10 after each churn round: {}", rounds.join(" "));
    }
    if let Some(why) = &t.first_failure {
        println!("first failed op: {why}");
    }
}

/// Mean self time in µs of the spans named `name`.
fn self_us(layers: &BTreeMap<&str, Layer>, name: &str) -> f64 {
    layers.get(name).map_or(f64::NAN, Layer::mean_self_us)
}

/// Mean query latency without a concurrent writer: deep-churn's idle
/// phase, all of sift-read.
fn uncontended(t: &Tally) -> f64 {
    mean(if t.idle_query_us.is_empty() { &t.query_us } else { &t.idle_query_us })
}

/// The traced run: one set-up, half the time untraced and half traced
/// (their difference is the tracing overhead), then the layer replays.
fn traced(opts: &Opts, root: &Path, out: &Path) -> Report {
    let epoch = Instant::now();
    let mut setup_tr = Tracer::new(true, epoch);
    let mut ctx = Ctx::new(opts.workload, opts.seed);
    let (mut stack, _) = ctx.bring_up(&root.join("setup-0"), &mut setup_tr);
    let half = opts.seconds / 2.0;
    let plain = ctx.measure(&stack, half, &mut Tracer::new(false, epoch));
    // Before the traced half, whose answers the reopen check replays.
    let (read_wait, probe) = ctx.read_wait(&stack);
    let mut tr = Tracer::new(true, epoch);
    let tally = ctx.measure(&stack, half, &mut tr);
    let snapshot_bytes = std::fs::metadata(stack.snapshot_path()).map_or(0, |m| m.len());
    let reopened = reopen(&ctx, &mut stack);
    let mut replay_tr = Tracer::new(true, epoch);
    layers::Replay {
        workload: ctx.workload,
        owner: &stack.owner,
        user: &mut stack.owner.authorize_user(),
        coll: &stack.coll,
        dir: &stack.dir,
        params: ctx.params,
        queries: &ctx.queries,
        inserts: &mut ctx.book.inserts,
        live: &mut ctx.book.live,
        base_len: ctx.workload.n(),
    }
    .run(&mut replay_tr);
    drop(reopened.catalog);

    let (setup, run, rep) = (setup_tr.layers(), tr.layers(), replay_tr.layers());
    let replayed = rep.get("server.search").map_or(1, |l| l.count) as f64;
    let per_query =
        |name: &str| rep.get(name).map_or(f64::NAN, |l| l.self_ns as f64 / 1e3 / replayed);
    let count = |name: &str| replay_tr.count_mean(name).unwrap_or(f64::NAN);
    let roundtrip = self_us(&run, "service.roundtrip");
    let catalog_search = self_us(&run, "catalog.search");
    let server_search = per_query("server.search");
    let hnsw_search = per_query("hnsw.search");
    let heap_offer = per_query("heap.offer");
    let metrics: Vec<Metric> = vec![
        ("hnsw.search_us", hnsw_search, "us"),
        ("hnsw.dist_comps", count("hnsw.dist_comps"), "count"),
        ("heap.offer_us", heap_offer, "us"),
        ("heap.comparisons", count("heap.comparisons"), "count"),
        ("server.search_us", server_search, "us"),
        ("server.residual_us", server_search - hnsw_search - heap_offer, "us"),
        ("service.roundtrip_us", roundtrip, "us"),
        ("service.overhead_us", roundtrip - catalog_search, "us"),
        ("catalog.search_us", catalog_search, "us"),
        ("wire.encode_us", per_query("wire.encode"), "us"),
        ("wire.decode_us", per_query("wire.decode"), "us"),
        ("user.encrypt_us", self_us(&run, "user.encrypt"), "us"),
        ("wire.request_bytes", count("wire.request_bytes"), "B"),
        ("wire.reply_bytes", count("wire.reply_bytes"), "B"),
        ("catalog.insert_us", self_us(&rep, "catalog.insert"), "us"),
        ("catalog.delete_us", self_us(&rep, "catalog.delete"), "us"),
        ("wal.append_us", self_us(&rep, "wal.append"), "us"),
        ("wal.sync_us", self_us(&rep, "wal.sync"), "us"),
        ("owner.encrypt_insert_us", self_us(&run, "owner.encrypt_insert"), "us"),
        ("hnsw.insert_us", self_us(&rep, "hnsw.insert"), "us"),
        ("hnsw.delete_us", self_us(&rep, "hnsw.delete"), "us"),
        ("hnsw.delete_repairs", count("hnsw.delete_repairs"), "count"),
        ("catalog.read_wait_us", read_wait, "us"),
        ("wal.record_bytes", tally.record_bytes(), "B"),
        ("catalog.compactions", tally.compactions as f64, "count"),
        ("catalog.compact_ms", self_us(&rep, "catalog.compact") / 1e3, "ms"),
        ("persist.snapshot_bytes", snapshot_bytes as f64, "B"),
        ("owner.outsource_s", self_us(&setup, "owner.outsource") / 1e6, "s"),
        ("hnsw.build_s", self_us(&rep, "hnsw.build") / 1e6, "s"),
        ("trace.overhead_us", uncontended(&tally) - uncontended(&plain), "us"),
    ];

    println!("span ledger (self time excludes child spans):");
    println!(
        "{:>6} {:<24} {:>8} {:>14} {:>14}",
        "pass", "span", "count", "mean self us", "mean total us"
    );
    for (pass, layers) in [("setup", &setup), ("run", &run), ("replay", &rep)] {
        for (name, l) in layers {
            let total = l.total_ns as f64 / l.count.max(1) as f64 / 1e3;
            println!(
                "{pass:>6} {name:<24} {:>8} {:>14.2} {total:>14.2}",
                l.count,
                l.mean_self_us()
            );
        }
    }
    println!(
        "residual server.residual_us  = server.search - hnsw.search - heap.offer = {:.2} us",
        server_search - hnsw_search - heap_offer
    );
    println!(
        "residual service.overhead_us = service.roundtrip - catalog.search = {:.2} us",
        roundtrip - catalog_search
    );
    println!(
        "tracing overhead: uncontended query mean {:.2} us traced, {:.2} us untraced",
        uncontended(&tally),
        uncontended(&plain)
    );
    print_reference(&tally);

    let mut spans = setup_tr;
    spans.absorb(tr);
    spans.absorb(replay_tr);
    let path = out.join(format!("trace-{}-{}.tsv", opts.workload.name(), opts.seed));
    match spans.write_tsv(&path) {
        Ok(()) => println!("spans written to {}", path.display()),
        Err(e) => eprintln!("ppbench: could not write {}: {e}", path.display()),
    }
    let mut both = plain;
    both.absorb(probe);
    both.absorb(tally);
    Report {
        correct: reopened.check.is_ok(),
        attempted: both.attempted,
        failed: both.failed,
        metrics,
    }
}
