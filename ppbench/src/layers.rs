//! The traced run's per-layer ledger. The service answers a remote call on
//! its own threads, so the layers below the round trip are timed by
//! calling each one's public API from here, on the workload's own data:
//! the reopened durable collection, and a replica of the index loaded
//! from its snapshot.

use crate::inputs::Source;
use crate::run::K;
use crate::stack::COLLECTION;
use crate::trace::Tracer;
use crate::workloads::Workload;
use ppann_core::wal::{snapshot_id, WalWriter};
use ppann_core::{
    load_snapshot, CloudServer, Collection, DataOwner, FsyncPolicy, QueryScratch, QueryUser,
    SearchParams, SecureTopK, SNAPSHOT_EXT,
};
use ppann_dce::DceCiphertext;
use ppann_hnsw::{Hnsw, SearchScratch};
use ppann_service::wire::decode_frame;
use ppann_service::{Frame, DEFAULT_MAX_FRAME};
use std::collections::VecDeque;
use std::hint::black_box;
use std::path::Path;

/// Queries replayed through the query-path layers.
const QUERY_REPLAYS: usize = 200;
/// Insert + delete pairs replayed through the mutation-path layers.
const MUTATION_REPLAYS: usize = 40;
/// Explicit compactions timed.
const COMPACTIONS: usize = 3;

/// What the replays need from the workload.
pub struct Replay<'a> {
    pub workload: Workload,
    pub owner: &'a DataOwner,
    pub user: &'a mut QueryUser,
    pub coll: &'a Collection,
    pub dir: &'a Path,
    pub params: SearchParams,
    pub queries: &'a [Vec<f64>],
    pub inserts: &'a mut Source,
    /// Live ids, oldest first: deep-churn deletes from the front.
    pub live: &'a mut VecDeque<u32>,
    pub base_len: usize,
}

impl Replay<'_> {
    /// Runs every replay into `tr`.
    pub fn run(mut self, tr: &mut Tracer) {
        for _ in 0..COMPACTIONS {
            tr.next_op();
            tr.span("catalog.compact", None, || self.coll.compact()).expect("compaction");
        }
        let snapshot = self.dir.join(format!("{COLLECTION}.{SNAPSHOT_EXT}"));
        let (_, db) = load_snapshot(&snapshot).expect("load the snapshot replica");
        let server = CloudServer::new(db);
        self.query_path(&server, tr);
        let rows = self.catalog_path(tr);
        self.wal_path(&rows, tr);
        let (hnsw, _) = server.into_database().into_parts();
        self.hnsw_path(hnsw, &rows, tr);
    }

    /// Wire codec, in-process server, HNSW filter and secure top-k refine.
    /// Each layer runs as its own pass over every query, so no layer
    /// finds the query's data in cache because another just touched it.
    fn query_path(&mut self, server: &CloudServer, tr: &mut Tracer) {
        let db = server.database();
        let hnsw = db.hnsw();
        let k_prime = self.params.k_prime.max(K);
        let ef = self.params.ef_search.max(k_prime);
        let eqs: Vec<_> = self
            .queries
            .iter()
            .cycle()
            .take(QUERY_REPLAYS)
            .map(|q| self.user.encrypt_query(q, K))
            .collect();
        let frames = eqs.iter().map(|eq| Frame::Search {
            collection: Some(COLLECTION.as_bytes().to_vec()),
            params: self.params,
            query: eq.clone(),
        });
        codec(frames.collect(), "wire.request_bytes", tr);
        let mut scratch = QueryScratch::default();
        let outs: Vec<_> = eqs
            .iter()
            .map(|eq| {
                tr.next_op();
                tr.span("server.search", None, || server.search_in(&mut scratch, eq, &self.params))
            })
            .collect();
        let mut scratch = SearchScratch::default();
        let candidates: Vec<Vec<u32>> = eqs
            .iter()
            .map(|eq| {
                tr.next_op();
                let before = hnsw.distance_computations();
                let ids = tr.span("hnsw.search", None, || {
                    hnsw.search_in(&mut scratch, &eq.c_sap, k_prime, ef)
                        .iter()
                        .map(|n| n.id)
                        .collect()
                });
                tr.count(
                    "hnsw.dist_comps",
                    hnsw.distance_computations().saturating_sub(before) as f64,
                );
                ids
            })
            .collect();
        for (eq, ids) in eqs.iter().zip(&candidates) {
            tr.next_op();
            let comparisons = tr.span("heap.offer", None, || {
                let mut heap = SecureTopK::new(&eq.trapdoor, db.dce_ciphertexts(), K);
                heap.offer_many(ids);
                let comparisons = heap.comparisons();
                black_box(heap.into_sorted_ids());
                comparisons
            });
            tr.count("heap.comparisons", comparisons as f64);
        }
        codec(outs.into_iter().map(Frame::SearchResult).collect(), "wire.reply_bytes", tr);
    }

    /// The id a replayed pair deletes after inserting `id`: sift-read
    /// retracts the fresh vector, deep-churn deletes the oldest live one.
    fn victim(&mut self, id: u32) -> u32 {
        match self.workload {
            Workload::SiftRead => id,
            Workload::DeepChurn => {
                self.live.push_back(id);
                self.live.pop_front().expect("live set never empties")
            }
        }
    }

    /// Durable collection insert and delete (WAL append + fsync + index).
    /// Returns the encrypted rows it inserted, for the lower layers.
    fn catalog_path(&mut self, tr: &mut Tracer) -> Vec<(Vec<f64>, DceCiphertext)> {
        let mut rows = Vec::with_capacity(MUTATION_REPLAYS);
        for i in 0..MUTATION_REPLAYS {
            let v = self.inserts.take(1).remove(0);
            let (c_sap, c_dce) = self.owner.encrypt_for_insert(&v, u64::MAX - i as u64);
            rows.push((c_sap.clone(), c_dce.clone()));
            tr.next_op();
            let id =
                tr.span("catalog.insert", None, || self.coll.insert(c_sap, c_dce)).expect("insert");
            let victim = self.victim(id);
            let deleted = tr.span("catalog.delete", None, || self.coll.try_delete(victim));
            assert!(deleted.expect("delete"), "replayed delete of {victim} found it dead");
        }
        rows
    }

    /// Log appends and fsyncs on a scratch log, timed apart.
    fn wal_path(&self, rows: &[(Vec<f64>, DceCiphertext)], tr: &mut Tracer) {
        let path = self.dir.join("replay.wal");
        let mut wal = WalWriter::create_sealed(&path, snapshot_id(b"ppbench"), FsyncPolicy::Never)
            .expect("create the scratch log");
        for (id, (c_sap, c_dce)) in rows.iter().enumerate() {
            tr.next_op();
            tr.span("wal.append", None, || wal.append_insert(id as u32, c_sap, c_dce))
                .expect("append");
            tr.span("wal.sync", None, || wal.sync()).expect("sync");
            tr.span("wal.append", None, || wal.append_delete(id as u32)).expect("append");
            tr.span("wal.sync", None, || wal.sync()).expect("sync");
        }
        drop(wal);
        let _ = std::fs::remove_file(path);
    }

    /// Index insert and delete on the replica, counting each deleted
    /// node's in-neighbours beforehand; then a full rebuild of the base.
    fn hnsw_path(&mut self, mut hnsw: Hnsw, rows: &[(Vec<f64>, DceCiphertext)], tr: &mut Tracer) {
        let mut oldest: VecDeque<u32> =
            (0..hnsw.capacity_slots() as u32).filter(|&id| !hnsw.is_deleted(id)).collect();
        for (c_sap, _) in rows {
            tr.next_op();
            let id = tr.span("hnsw.insert", None, || hnsw.insert(c_sap));
            let victim = match self.workload {
                Workload::SiftRead => id,
                Workload::DeepChurn => {
                    oldest.push_back(id);
                    oldest.pop_front().expect("live set never empties")
                }
            };
            tr.count("hnsw.delete_repairs", in_neighbours(&hnsw, victim) as f64);
            tr.span("hnsw.delete", None, || hnsw.delete(victim));
        }
        let base: Vec<Vec<f64>> =
            (0..self.base_len as u32).map(|id| hnsw.store().get(id).to_vec()).collect();
        let params = *hnsw.params();
        drop(hnsw);
        tr.next_op();
        black_box(tr.span("hnsw.build", None, || Hnsw::build(base[0].len(), params, &base)));
    }
}

/// Encodes and then decodes each frame, recording its wire size.
fn codec(frames: Vec<Frame>, bytes_name: &'static str, tr: &mut Tracer) {
    let encoded: Vec<_> = frames
        .iter()
        .map(|frame| {
            tr.next_op();
            let bytes = tr.span("wire.encode", None, || frame.encode());
            tr.count(bytes_name, bytes.len() as f64);
            bytes
        })
        .collect();
    for bytes in &encoded {
        tr.next_op();
        let frame = tr.span("wire.decode", None, || decode_frame(bytes, DEFAULT_MAX_FRAME));
        black_box(frame.expect("decode a frame the program encoded"));
    }
}

/// Nodes that link to `id` on any layer: the nodes a delete must repair.
fn in_neighbours(hnsw: &Hnsw, id: u32) -> usize {
    (0..hnsw.capacity_slots() as u32)
        .filter(|&u| u != id && !hnsw.is_deleted(u))
        .map(|u| {
            (0..=hnsw.node_level(u)).filter(|&layer| hnsw.links(u, layer).contains(&id)).count()
        })
        .sum()
}
