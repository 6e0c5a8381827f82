//! Bringing up the served system: owner key setup, outsourcing, a durable
//! collection in a data dir and the loopback service in front of it.

use crate::host;
use crate::trace::Tracer;
use ppann_core::catalog::Catalog;
use ppann_core::{Collection, DataOwner, PpAnnParams, SNAPSHOT_EXT};
use ppann_service::{serve_catalog, ServiceConfig, ServiceHandle};
use std::net::SocketAddr;
use std::path::{Path, PathBuf};
use std::sync::Arc;
use std::time::Instant;

/// Owner token the benchmark's service accepts for mutations.
pub const TOKEN: u64 = 0x0B5E_55ED;
/// The one collection every workload serves.
pub const COLLECTION: &str = "bench";
/// Set-ups per end-to-end run: one measured segment runs on each, and
/// `setup_s` is their median.
pub const SETUPS: usize = 3;

pub struct Stack {
    pub owner: DataOwner,
    pub coll: Arc<Collection>,
    handle: Option<ServiceHandle>,
    pub config: ServiceConfig,
    pub dir: PathBuf,
}

impl Stack {
    /// The service as a deployment runs it: one worker per CPU, the
    /// default `fsync always` and compaction threshold, owner mutations on.
    fn config(dir: &Path) -> ServiceConfig {
        ServiceConfig::loopback()
            .with_workers(host::nproc())
            .with_owner_token(TOKEN)
            .with_data_dir(dir)
    }

    /// Owner set-up, outsourcing, durable collection creation and service
    /// start on a fresh `dir`. Returns the stack and its wall time in
    /// seconds; input synthesis is the caller's and is not included.
    pub fn bring_up(base: &[Vec<f64>], seed: u64, dir: &Path, tr: &mut Tracer) -> (Stack, f64) {
        let _ = std::fs::remove_dir_all(dir);
        std::fs::create_dir_all(dir).expect("create data dir");
        let config = Self::config(dir);
        let dim = base[0].len();
        let started = Instant::now();
        tr.next_op();
        let root = tr.begin("op.setup", None);
        let owner = tr.span("owner.setup", Some(root), || {
            DataOwner::setup(PpAnnParams::new(dim).with_seed(seed), base)
        });
        let db = tr.span("owner.outsource", Some(root), || owner.outsource(base));
        let catalog = Arc::new(Catalog::new());
        let coll = tr.span("catalog.create", Some(root), || {
            catalog.create_durable(COLLECTION, db, 1, dir, config.durability())
        });
        let coll = coll.expect("create durable collection");
        let handle = tr.span("service.start", Some(root), || {
            serve_catalog(Arc::clone(&catalog), config.clone())
        });
        let handle = handle.expect("bind loopback service");
        tr.end(root);
        let secs = started.elapsed().as_secs_f64();
        (Stack { owner, coll, handle: Some(handle), config, dir: dir.to_path_buf() }, secs)
    }

    pub fn snapshot_path(&self) -> PathBuf {
        self.dir.join(format!("{COLLECTION}.{SNAPSHOT_EXT}"))
    }

    pub fn addr(&self) -> SocketAddr {
        self.handle.as_ref().expect("the service is running").local_addr()
    }

    /// Stops the service and waits for its threads; the data dir goes too.
    pub fn tear_down(mut stack: Stack) {
        stack.stop();
        let dir = stack.dir.clone();
        drop(stack);
        let _ = std::fs::remove_dir_all(dir);
    }

    /// Stops the service and waits for its threads, keeping the data dir.
    pub fn stop(&mut self) {
        if let Some(handle) = self.handle.take() {
            handle.request_stop();
            handle.join();
        }
    }
}
