//! The two workloads: their inputs, their set-up and their measured loops.

use crate::host;
use crate::inputs::{brute_force, recall, Profile, Source, Streams};
use crate::run::{check_answer, frame_bytes, same_bits, Querier, Tally, Writer, K};
use crate::stack::Stack;
use crate::stats::mean;
use crate::trace::Tracer;
use ppann_core::{EncryptedQuery, QueryScratch, SearchOutcome, SearchParams};
use std::collections::VecDeque;
use std::path::Path;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::time::Instant;

/// Distinct query vectors per workload; runs cycle through them.
const QUERY_SET: usize = 400;
/// sift-read: queries per round, before the round's one insert + delete.
const QUERIES_PER_ROUND: usize = 64;
/// sift-read: every n-th query is also answered in-process for parity.
const PARITY_EVERY: usize = 8;
/// sift-read: nominal length of one round on a 2-vCPU host.
const SIFT_ROUND_SECONDS: f64 = 0.05;
/// deep-churn: nominal length of one round (one compaction cycle).
const DEEP_ROUND_SECONDS: f64 = 5.0;
/// Minimum untimed warm-up before the measured loops.
const WARM_UP_SECONDS: f64 = 1.0;
/// Queries per side of the read-wait probe.
const PROBE_QUERIES: usize = 1000;
/// Answers kept for the check after reopening the data dir.
const KEEP_ANSWERS: usize = 16;

#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Workload {
    /// SIFT-like 128-d, n = 20k, one closed-loop connection; one owner
    /// insert + delete of a fresh vector per 64 queries.
    SiftRead,
    /// Deep-like 96-d, n = 10k; a writer keeps the live count at n by
    /// inserting fresh vectors and deleting the oldest, beside a reader.
    DeepChurn,
}

impl Workload {
    pub fn parse(name: &str) -> Option<Self> {
        match name {
            "sift-read" => Some(Workload::SiftRead),
            "deep-churn" => Some(Workload::DeepChurn),
            _ => None,
        }
    }

    pub fn name(self) -> &'static str {
        match self {
            Workload::SiftRead => "sift-read",
            Workload::DeepChurn => "deep-churn",
        }
    }

    fn profile(self) -> Profile {
        match self {
            Workload::SiftRead => Profile::Sift,
            Workload::DeepChurn => Profile::Deep,
        }
    }

    pub fn n(self) -> usize {
        match self {
            Workload::SiftRead => 20_000,
            Workload::DeepChurn => 10_000,
        }
    }

    /// k′ = Ratio_k · k and efSearch, fixed once per workload so recall@10
    /// sits inside 0.9–0.99 rather than at the 1.0 ceiling.
    fn params(self) -> SearchParams {
        match self {
            Workload::SiftRead => SearchParams::from_ratio(K, 3, 40),
            Workload::DeepChurn => SearchParams::from_ratio(K, 3, 64),
        }
    }
}

/// A workload's inputs and the benchmark's plaintext view of what the
/// served collection holds.
pub struct Ctx {
    pub workload: Workload,
    seed: u64,
    pub params: SearchParams,
    pub queries: Vec<Vec<f64>>,
    /// sift-read: exact answers over the base set, per query.
    truth: Vec<Vec<u32>>,
    pub book: Book,
    /// deep-churn: the next mutation sequence number.
    seq: u64,
    /// The insert stream as a fresh stack starts it.
    first_inserts: Source,
    next_query: usize,
    nonce: u64,
    /// Answers checked against the in-process collection, kept for the
    /// check after reopening the data dir.
    pub answers: VecDeque<(EncryptedQuery, SearchOutcome)>,
}

impl Ctx {
    /// Generates the inputs from `seed`, and the exact answers sift-read
    /// checks recall against.
    pub fn new(workload: Workload, seed: u64) -> Self {
        let mut streams = Streams::new(workload.profile(), seed);
        let n = workload.n();
        let base = streams.base.take(n);
        let queries = streams.queries.take(QUERY_SET);
        let truth = match workload {
            Workload::SiftRead => queries
                .iter()
                .map(|q| {
                    brute_force(
                        base.iter().enumerate().map(|(i, v)| (i as u32, v.as_slice())),
                        q,
                        K,
                    )
                })
                .collect(),
            Workload::DeepChurn => Vec::new(),
        };
        Ctx {
            workload,
            seed,
            params: workload.params(),
            queries,
            truth,
            book: Book {
                plain: base,
                is_live: Vec::new(),
                live: VecDeque::new(),
                born: Vec::new(),
                died: Vec::new(),
                inserts: streams.inserts.clone(),
            },
            seq: 1,
            first_inserts: streams.inserts,
            next_query: 0,
            nonce: 0,
            answers: VecDeque::new(),
        }
    }

    /// Brings a fresh stack up on `dir` (timed into `tr`), warms it up
    /// and resets the plaintext view to the base set. Every stack of one
    /// seed holds the same data and sees the same operations. Returns the
    /// stack and its set-up time in seconds.
    pub fn bring_up(&mut self, dir: &Path, tr: &mut Tracer) -> (Stack, f64) {
        let n = self.workload.n();
        let book = &mut self.book;
        book.plain.truncate(n);
        book.is_live = vec![true; n];
        book.live = (0..n as u32).collect();
        book.born = vec![0; n];
        book.died = vec![u64::MAX; n];
        book.inserts = self.first_inserts.clone();
        self.seq = 1;
        self.next_query = 0;
        self.nonce = self.seed << 32;
        self.answers.clear();
        let (stack, secs) = Stack::bring_up(&self.book.plain, self.seed, dir, tr);
        warm_up(&stack, &self.queries, self.params);
        (stack, secs)
    }

    fn keep_answer(&mut self, eq: EncryptedQuery, out: SearchOutcome) {
        if self.answers.len() == KEEP_ANSWERS {
            self.answers.pop_front();
        }
        self.answers.push_back((eq, out));
    }

    /// Runs the workload's loop for at least `seconds`, in whole rounds.
    pub fn measure(&mut self, stack: &Stack, seconds: f64, tr: &mut Tracer) -> Tally {
        match self.workload {
            Workload::SiftRead => self.sift_read(stack, seconds, tr),
            Workload::DeepChurn => self.deep_churn(stack, seconds, tr),
        }
    }

    /// Mean query latency with the owner's writer inserting and deleting
    /// beside the reader, in the workload's own pattern, minus the same
    /// queries with the writer idle. Returns it in µs, with the writer's
    /// tally; the probe's queries are timed, not checked.
    pub fn read_wait(&mut self, stack: &Stack) -> (f64, Tally) {
        let addr = stack.addr();
        let mut querier = Querier::connect(addr, stack.owner.authorize_user(), self.params);
        let snapshot = stack.snapshot_path();
        let mut writer = Writer::connect(addr, &stack.owner, &stack.coll, &snapshot, self.nonce);
        let queries = &self.queries;
        let reads = |querier: &mut Querier| {
            let mut untraced = Tracer::new(false, Instant::now());
            let lat: Vec<f64> = queries
                .iter()
                .cycle()
                .take(PROBE_QUERIES)
                .map(|q| querier.query(q, &mut untraced, "service.roundtrip").2)
                .collect();
            mean(&lat)
        };
        let idle = reads(&mut querier);
        let (done, seq) = (AtomicBool::new(false), AtomicU64::new(self.seq));
        let retract = self.workload == Workload::SiftRead;
        let (busy, tally) = std::thread::scope(|s| {
            let (writer, book, seq, done) = (&mut writer, &mut self.book, &seq, &done);
            let w = s.spawn(move || {
                let (mut tally, mut untraced) =
                    (Tally::default(), Tracer::new(false, Instant::now()));
                while !done.load(Ordering::SeqCst) {
                    book.pair(writer, seq, retract, &mut tally, &mut untraced);
                }
                tally
            });
            let busy = reads(&mut querier);
            done.store(true, Ordering::SeqCst);
            (busy, w.join().expect("probe writer thread"))
        });
        self.seq = seq.into_inner();
        self.nonce = writer.nonce();
        (busy - idle, tally)
    }

    /// One closed-loop connection. A round is 64 queries, then one owner
    /// correction: insert a fresh vector and delete it again, so the live
    /// set stays the base set and its exact answers stay valid.
    ///
    /// The round count is fixed from `seconds` (rounds take about
    /// [`SIFT_ROUND_SECONDS`]), so every run writes the same log: up to
    /// about 20 s it stays below the compaction threshold, and sift-read
    /// never compacts.
    fn sift_read(&mut self, stack: &Stack, seconds: f64, tr: &mut Tracer) -> Tally {
        let rounds = (seconds / SIFT_ROUND_SECONDS).round().max(1.0) as usize;
        let addr = stack.addr();
        let mut querier = Querier::connect(addr, stack.owner.authorize_user(), self.params);
        let snapshot = stack.snapshot_path();
        let owner = &stack.owner;
        let coll = &stack.coll;
        let mut writer = Writer::connect(addr, owner, coll, &snapshot, self.nonce);
        let seq = AtomicU64::new(self.seq);
        let mut scratch = QueryScratch::default();
        let mut tally = Tally::default();
        let mut answers = Vec::new();
        let (cpu0, own0, started) = (host::process_cpu(), host::thread_cpu(), Instant::now());
        for _ in 0..rounds {
            for _ in 0..QUERIES_PER_ROUND {
                let qi = self.next_query % QUERY_SET;
                self.next_query += 1;
                let q = &self.queries[qi];
                let (eq, out, us) = querier.query(q, tr, "service.roundtrip");
                let checked = out.and_then(|out| {
                    tally.query_us.push(us);
                    check_answer(&out, q, &self.book.plain, |id| self.book.is_live[id as usize])?;
                    tally.recall_sum += recall(&self.truth[qi], &out.ids);
                    tally.recall_n += 1;
                    if self.next_query.is_multiple_of(PARITY_EVERY) {
                        let local = tr.span("catalog.search", None, || {
                            coll.search_in(&mut scratch, &eq, &self.params)
                        });
                        same_bits(&out, &local)?;
                        let (request, reply) = frame_bytes(&eq, &self.params, &out);
                        tally.frame_bytes.push((request + reply) as f64);
                        answers.push((eq, out));
                    }
                    Ok(())
                });
                tally.check(checked);
            }
            self.book.pair(&mut writer, &seq, true, &mut tally, tr);
        }
        tally.wall = started.elapsed();
        tally.server_cpu = (host::process_cpu() - cpu0).saturating_sub(host::thread_cpu() - own0);
        writer.settle(&mut tally);
        self.nonce = writer.nonce();
        self.seq = seq.into_inner();
        for (eq, out) in answers {
            self.keep_answer(eq, out);
        }
        tally
    }

    /// A writer and a reader on two connections. A round is a busy phase —
    /// the writer inserts a fresh vector and deletes the oldest live one
    /// until the collection has compacted once, while the reader queries
    /// closed-loop — then an idle phase of one query per query-set vector
    /// with the writer stopped, whose answers are checked against brute
    /// force over the exact live set and against the in-process collection.
    ///
    /// A round takes about [`DEEP_ROUND_SECONDS`] on a 2-vCPU host. The
    /// round count is fixed from `seconds` rather than from the clock, so
    /// that what the run leaves on disk does not depend on host speed.
    fn deep_churn(&mut self, stack: &Stack, seconds: f64, tr: &mut Tracer) -> Tally {
        let rounds = (seconds / DEEP_ROUND_SECONDS).round().max(1.0) as usize;
        let addr = stack.addr();
        let mut querier = Querier::connect(addr, stack.owner.authorize_user(), self.params);
        let snapshot = stack.snapshot_path();
        let mut tally = Tally::default();
        let seq = AtomicU64::new(self.seq);
        let mut scratch = QueryScratch::default();
        let mut answers = Vec::new();
        let mut writer = Writer::connect(addr, &stack.owner, &stack.coll, &snapshot, self.nonce);
        let started = Instant::now();
        for _ in 0..rounds {
            // Busy phase.
            let done = AtomicBool::new(false);
            let (cpu0, own0) = (host::process_cpu(), host::thread_cpu());
            let (busy, (w_tally, w_cpu, w_tr), (r_cpu, r_tr)) = std::thread::scope(|s| {
                let (writer, book, seq, done) = (&mut writer, &mut self.book, &seq, &done);
                let mut w_tr = tr.fork(1);
                let w = s.spawn(move || {
                    let cpu0 = host::thread_cpu();
                    let mut tally = Tally::default();
                    let compactions = writer.compactions_seen;
                    while writer.compactions_seen == compactions {
                        book.pair(writer, seq, false, &mut tally, &mut w_tr);
                    }
                    done.store(true, Ordering::SeqCst);
                    (tally, host::thread_cpu() - cpu0, w_tr)
                });
                let querier = &mut querier;
                let queries = &self.queries;
                let next_query = &mut self.next_query;
                let mut r_tr = tr.fork(2);
                let r = s.spawn(move || {
                    let cpu0 = host::thread_cpu();
                    let mut busy = Vec::new();
                    while !done.load(Ordering::SeqCst) {
                        let qi = *next_query % QUERY_SET;
                        *next_query += 1;
                        let s0 = seq.load(Ordering::SeqCst);
                        let (_, out, us) =
                            querier.query(&queries[qi], &mut r_tr, "service.roundtrip_busy");
                        busy.push((qi, s0, seq.load(Ordering::SeqCst), out, us));
                    }
                    (busy, (host::thread_cpu() - cpu0, r_tr))
                });
                let (busy, r_rest) = r.join().expect("reader thread");
                (busy, w.join().expect("writer thread"), r_rest)
            });
            let cpu = (host::process_cpu() - cpu0).saturating_sub(host::thread_cpu() - own0);
            tally.server_cpu += cpu.saturating_sub(w_cpu + r_cpu);
            tr.absorb(w_tr);
            tr.absorb(r_tr);
            tally.absorb(w_tally);
            // A busy-phase id must have been inserted before the reply
            // came back and not deleted before the query went out.
            for (qi, s0, s1, out, us) in busy {
                let q = &self.queries[qi];
                let checked = out.and_then(|out| {
                    tally.query_us.push(us);
                    let (born, died) = (&self.book.born, &self.book.died);
                    check_answer(&out, q, &self.book.plain, |id| {
                        born[id as usize] < s1 && died[id as usize] >= s0
                    })
                });
                tally.check(checked);
            }

            // Idle phase. Each answer is also computed in-process right
            // away, on the main thread, whose CPU time is not the server's.
            let (cpu0, own0) = (host::process_cpu(), host::thread_cpu());
            let coll = &stack.coll;
            let idle: Vec<_> = (0..QUERY_SET)
                .map(|_| {
                    let qi = self.next_query % QUERY_SET;
                    self.next_query += 1;
                    let (eq, out, us) = querier.query(&self.queries[qi], tr, "service.roundtrip");
                    let local = tr.span("catalog.search", None, || {
                        coll.search_in(&mut scratch, &eq, &self.params)
                    });
                    (qi, eq, out, us, local)
                })
                .collect();
            tally.server_cpu +=
                (host::process_cpu() - cpu0).saturating_sub(host::thread_cpu() - own0);
            let recall_before = (tally.recall_sum, tally.recall_n);
            for (qi, eq, out, us, local) in idle {
                let q = &self.queries[qi];
                let checked = out.and_then(|out| {
                    tally.idle_query_us.push(us);
                    check_answer(&out, q, &self.book.plain, |id| self.book.is_live[id as usize])?;
                    let book = &self.book;
                    let live = book.live.iter().map(|&id| (id, book.plain[id as usize].as_slice()));
                    tally.recall_sum += recall(&brute_force(live, q, K), &out.ids);
                    tally.recall_n += 1;
                    same_bits(&out, &local)?;
                    let (request, reply) = frame_bytes(&eq, &self.params, &out);
                    tally.frame_bytes.push((request + reply) as f64);
                    Ok((eq, out))
                });
                match checked {
                    Ok(answer) => {
                        tally.check(Ok(()));
                        answers.push(answer);
                    }
                    Err(e) => tally.check(Err(e)),
                }
            }
            let (sum, n) = (tally.recall_sum - recall_before.0, tally.recall_n - recall_before.1);
            tally.round_recall.push(sum / n.max(1) as f64);
        }
        tally.wall = started.elapsed();
        writer.settle(&mut tally);
        self.nonce = writer.nonce();
        self.seq = seq.into_inner();
        for (eq, out) in answers {
            self.keep_answer(eq, out);
        }
        tally
    }
}

/// The benchmark's plaintext view of what the collection holds: what the
/// writer changes, kept apart so a writer thread can own it while a
/// reader thread borrows the queries.
pub struct Book {
    /// Plaintext of every id the collection ever assigned.
    pub plain: Vec<Vec<f64>>,
    pub is_live: Vec<bool>,
    /// Live ids, oldest first.
    pub live: VecDeque<u32>,
    /// Per id, the mutation sequence number at which its insert was sent
    /// and at which its delete was acknowledged.
    born: Vec<u64>,
    died: Vec<u64>,
    pub inserts: Source,
}

impl Book {
    /// One owner insert of a fresh vector, then one delete: of that same
    /// vector when `retract` (sift-read), else of the oldest live one
    /// (deep-churn). `seq` is bumped around every mutation, for the
    /// busy-phase liveness check.
    fn pair(
        &mut self,
        writer: &mut Writer,
        seq: &AtomicU64,
        retract: bool,
        tally: &mut Tally,
        tr: &mut Tracer,
    ) {
        let id = self.plain.len() as u32;
        self.plain.push(self.inserts.take(1).remove(0));
        self.is_live.push(false);
        self.died.push(u64::MAX);
        self.born.push(seq.fetch_add(1, Ordering::SeqCst));
        let (ack, us) = writer.insert(&self.plain[id as usize], id, tr);
        seq.fetch_add(1, Ordering::SeqCst);
        if ack.is_ok() {
            tally.insert_us.push(us);
            self.is_live[id as usize] = true;
            if !retract {
                self.live.push_back(id);
            }
        }
        tally.check(ack.map(drop));
        let victim = if !retract {
            self.live.pop_front().expect("live set never empties")
        } else if self.is_live[id as usize] {
            id
        } else {
            return tally.check(Err("delete skipped: its insert failed".into()));
        };
        seq.fetch_add(1, Ordering::SeqCst);
        let (ack, us) = writer.delete(victim, tr);
        let acked = seq.fetch_add(1, Ordering::SeqCst);
        match ack {
            Ok(()) => {
                tally.delete_us.push(us);
                self.died[victim as usize] = acked;
                self.is_live[victim as usize] = false;
                tally.check(Ok(()));
            }
            Err(e) => {
                if !retract {
                    self.live.push_front(victim);
                }
                tally.check(Err(e));
            }
        }
    }
}

/// Untimed passes of the query set, remote and in-process, for at least
/// [`WARM_UP_SECONDS`], so the measured loops start with the index paged
/// in and the service's per-worker buffers grown. Queries change nothing.
fn warm_up(stack: &Stack, queries: &[Vec<f64>], params: SearchParams) {
    let mut querier = Querier::connect(stack.addr(), stack.owner.authorize_user(), params);
    let mut scratch = QueryScratch::default();
    let mut tr = Tracer::new(false, Instant::now());
    let started = Instant::now();
    while started.elapsed().as_secs_f64() < WARM_UP_SECONDS {
        for q in queries {
            let (eq, out, _) = querier.query(q, &mut tr, "service.roundtrip");
            out.expect("warm-up query");
            stack.coll.search_in(&mut scratch, &eq, &params);
        }
    }
}
