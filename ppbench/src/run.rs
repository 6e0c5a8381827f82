//! What both workloads share: the timed client operations, the output
//! checks made apart from the program, and the per-run tallies.

use crate::inputs::sq_dist;
use crate::stack::{COLLECTION, TOKEN};
use crate::trace::Tracer;
use ppann_core::{Collection, DataOwner, EncryptedQuery, QueryUser, SearchOutcome, SearchParams};
use ppann_service::{Frame, ServiceClient};
use std::net::SocketAddr;
use std::path::Path;
use std::time::{Duration, Instant};

/// Neighbours asked for per query.
pub const K: usize = 10;

/// Everything one measured run counted.
#[derive(Default)]
pub struct Tally {
    pub attempted: u64,
    pub failed: u64,
    pub first_failure: Option<String>,
    /// Latency of the queries `query_p50_us` is taken over, in µs.
    pub query_us: Vec<f64>,
    /// Deep-churn only: latency of the queries run with the writer idle.
    pub idle_query_us: Vec<f64>,
    pub insert_us: Vec<f64>,
    pub delete_us: Vec<f64>,
    pub recall_sum: f64,
    pub recall_n: u64,
    /// deep-churn: recall@10 of each round's idle phase, in order.
    pub round_recall: Vec<f64>,
    /// Request plus reply frame bytes of sampled queries.
    pub frame_bytes: Vec<f64>,
    /// Process CPU time minus the load generator's own threads.
    pub server_cpu: Duration,
    /// Wall time of the measured loops.
    pub wall: Duration,
    pub compactions: u64,
    /// Log bytes appended by acknowledged mutations, and their count.
    pub appended: u64,
    pub records: u64,
    /// Snapshot and fresh-log bytes written by compactions.
    pub rewritten: u64,
}

impl Tally {
    /// Counts one attempted operation, failed if its checks did not pass;
    /// the first failure's reason is kept for the log.
    pub fn check(&mut self, result: Result<(), String>) {
        self.attempted += 1;
        if let Err(why) = result {
            self.failed += 1;
            self.first_failure.get_or_insert(why);
        }
    }

    pub fn completed(&self) -> u64 {
        self.attempted - self.failed
    }

    pub fn absorb(&mut self, other: Tally) {
        self.attempted += other.attempted;
        self.failed += other.failed;
        if self.first_failure.is_none() {
            self.first_failure = other.first_failure;
        }
        self.query_us.extend(other.query_us);
        self.idle_query_us.extend(other.idle_query_us);
        self.insert_us.extend(other.insert_us);
        self.delete_us.extend(other.delete_us);
        self.recall_sum += other.recall_sum;
        self.recall_n += other.recall_n;
        self.round_recall.extend(other.round_recall);
        self.frame_bytes.extend(other.frame_bytes);
        self.server_cpu += other.server_cpu;
        self.wall += other.wall;
        self.compactions += other.compactions;
        self.appended += other.appended;
        self.records += other.records;
        self.rewritten += other.rewritten;
    }

    /// Bytes written under the data dir per byte of mutation records.
    pub fn write_amp(&self) -> f64 {
        (self.appended + self.rewritten) as f64 / self.appended.max(1) as f64
    }

    /// Mean log bytes per mutation record.
    pub fn record_bytes(&self) -> f64 {
        self.appended as f64 / self.records.max(1) as f64
    }
}

/// Checks one answer against the benchmark's own plaintexts: `k`
/// distinct ids, each live by `alive`, in non-decreasing plaintext
/// distance from the query (refine is exact over its candidates).
pub fn check_answer(
    out: &SearchOutcome,
    q: &[f64],
    plain: &[Vec<f64>],
    alive: impl Fn(u32) -> bool,
) -> Result<(), String> {
    if out.ids.len() != K || out.sap_dists.len() != K {
        return Err(format!(
            "{} ids and {} distances, want {K}",
            out.ids.len(),
            out.sap_dists.len()
        ));
    }
    let mut sorted = out.ids.clone();
    sorted.sort_unstable();
    sorted.dedup();
    if sorted.len() != K {
        return Err(format!("duplicate ids in {:?}", out.ids));
    }
    let mut prev = 0.0f64;
    for &id in &out.ids {
        let Some(v) = plain.get(id as usize) else {
            return Err(format!("id {id} was never inserted"));
        };
        if !alive(id) {
            return Err(format!("id {id} was not live"));
        }
        let d = sq_dist(q, v);
        if d < prev * (1.0 - 1e-9) {
            return Err(format!("ids {:?} not in non-decreasing plaintext distance", out.ids));
        }
        prev = d;
    }
    Ok(())
}

/// Remote and in-process answers agree bit for bit: ids and SAP distances.
pub fn same_bits(remote: &SearchOutcome, local: &SearchOutcome) -> Result<(), String> {
    let bits = |o: &SearchOutcome| o.sap_dists.iter().map(|d| d.to_bits()).collect::<Vec<_>>();
    if remote.ids != local.ids || bits(remote) != bits(local) {
        return Err(format!("remote {:?} differs from in-process {:?}", remote.ids, local.ids));
    }
    Ok(())
}

/// Wire bytes of one query: its `Search` request frame plus the reply.
pub fn frame_bytes(
    eq: &EncryptedQuery,
    params: &SearchParams,
    out: &SearchOutcome,
) -> (usize, usize) {
    let request = Frame::Search {
        collection: Some(COLLECTION.as_bytes().to_vec()),
        params: *params,
        query: eq.clone(),
    };
    (request.encode().len(), Frame::SearchResult(out.clone()).encode().len())
}

pub fn micros(d: Duration) -> f64 {
    d.as_secs_f64() * 1e6
}

/// A closed-loop query client: one connection, one query in flight.
pub struct Querier {
    client: ServiceClient,
    user: QueryUser,
    params: SearchParams,
    addr: SocketAddr,
}

impl Querier {
    pub fn connect(addr: SocketAddr, user: QueryUser, params: SearchParams) -> Self {
        let client = ServiceClient::connect(addr, None).expect("connect to the loopback service");
        Self { client, user, params, addr }
    }

    /// One query from plaintext to decoded ids: `encrypt_query` plus one
    /// `Search` round trip. Returns the encrypted query, the answer and
    /// the latency in µs. A failed call reconnects, so the next one
    /// starts on a clean stream.
    pub fn query(
        &mut self,
        q: &[f64],
        tr: &mut Tracer,
        span: &'static str,
    ) -> (EncryptedQuery, Result<SearchOutcome, String>, f64) {
        tr.next_op();
        let root = tr.begin("op.query", None);
        let started = Instant::now();
        let eq = tr.span("user.encrypt", Some(root), || self.user.encrypt_query(q, K));
        let out =
            tr.span(span, Some(root), || self.client.search_in(COLLECTION, &eq, &self.params));
        let us = micros(started.elapsed());
        tr.end(root);
        let out = out.map_err(|e| {
            self.reconnect();
            format!("search failed: {e}")
        });
        (eq, out, us)
    }

    fn reconnect(&mut self) {
        self.client =
            ServiceClient::connect(self.addr, None).expect("reconnect to the loopback service");
    }
}

/// The owner's mutation client: encrypts and sends `Insert`/`Delete`
/// frames, and accounts what each one wrote under the data dir.
pub struct Writer<'a> {
    client: ServiceClient,
    owner: &'a DataOwner,
    coll: &'a Collection,
    snapshot: &'a Path,
    addr: SocketAddr,
    nonce: u64,
    /// Log length and compaction count after the previous mutation.
    log: u64,
    compactions: u64,
    /// Last seen log growth of an insert and a delete record.
    record: [u64; 2],
    appended: u64,
    records: u64,
    rewritten: u64,
    pub compactions_seen: u64,
}

impl<'a> Writer<'a> {
    pub fn connect(
        addr: SocketAddr,
        owner: &'a DataOwner,
        coll: &'a Collection,
        snapshot: &'a Path,
        nonce: u64,
    ) -> Self {
        let client = ServiceClient::connect(addr, None).expect("connect to the loopback service");
        let status = coll.wal_status().expect("the benchmark collection is durable");
        Self {
            client,
            owner,
            coll,
            snapshot,
            addr,
            nonce,
            log: status.log_bytes,
            compactions: status.compactions,
            record: [0; 2],
            appended: 0,
            records: 0,
            rewritten: 0,
            compactions_seen: 0,
        }
    }

    /// `encrypt_for_insert` plus the `Insert` round trip; the ack must
    /// name `expected`, the next slot. Returns the assigned id and µs.
    pub fn insert(
        &mut self,
        v: &[f64],
        expected: u32,
        tr: &mut Tracer,
    ) -> (Result<u32, String>, f64) {
        tr.next_op();
        let root = tr.begin("op.insert", None);
        let started = Instant::now();
        self.nonce += 1;
        let (c_sap, c_dce) = tr.span("owner.encrypt_insert", Some(root), || {
            self.owner.encrypt_for_insert(v, self.nonce)
        });
        let ack = tr.span("service.insert", Some(root), || {
            self.client.insert_in(COLLECTION, TOKEN, c_sap, c_dce)
        });
        let us = micros(started.elapsed());
        tr.end(root);
        let out = match ack {
            Ok(id) if id == expected => Ok(id),
            Ok(id) => Err(format!("insert acked id {id}, want the next slot {expected}")),
            Err(e) => Err(self.failed(format!("insert failed: {e}"))),
        };
        if out.is_ok() {
            self.account(0);
        }
        (out, us)
    }

    /// The `Delete` round trip. Returns µs.
    pub fn delete(&mut self, id: u32, tr: &mut Tracer) -> (Result<(), String>, f64) {
        tr.next_op();
        let root = tr.begin("op.delete", None);
        let started = Instant::now();
        let ack =
            tr.span("service.delete", Some(root), || self.client.delete_in(COLLECTION, TOKEN, id));
        let us = micros(started.elapsed());
        tr.end(root);
        let out = match ack {
            Ok(()) => {
                self.account(1);
                Ok(())
            }
            Err(e) => Err(self.failed(format!("delete of {id} failed: {e}"))),
        };
        (out, us)
    }

    /// The nonce of the last insert, so a later run's inserts stay fresh.
    pub fn nonce(&self) -> u64 {
        self.nonce
    }

    fn failed(&mut self, why: String) -> String {
        self.client =
            ServiceClient::connect(self.addr, None).expect("reconnect to the loopback service");
        why
    }

    /// Accounts the bytes one acknowledged mutation wrote under the data
    /// dir: its log record, plus the snapshot and fresh log when it
    /// crossed the compaction threshold.
    fn account(&mut self, kind: usize) {
        let status = self.coll.wal_status().expect("the benchmark collection is durable");
        if status.compactions == self.compactions {
            self.record[kind] = status.log_bytes - self.log;
        } else {
            let snapshot = std::fs::metadata(self.snapshot).map(|m| m.len()).unwrap_or(0);
            self.rewritten += snapshot + status.log_bytes;
            self.compactions_seen += status.compactions - self.compactions;
        }
        self.appended += self.record[kind];
        self.records += 1;
        self.log = status.log_bytes;
        self.compactions = status.compactions;
    }

    /// Moves the write accounting into the tally.
    pub fn settle(&self, tally: &mut Tally) {
        tally.compactions += self.compactions_seen;
        tally.appended += self.appended;
        tally.records += self.records;
        tally.rewritten += self.rewritten;
    }
}
