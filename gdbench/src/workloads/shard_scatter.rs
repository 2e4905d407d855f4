//! `shard-scatter`: the `Router` is the front door, over two one-thread
//! `ShardWorker`s on in-process threads behind real loopback TCP.

use super::{build_from_records, served_of};
use crate::corpus::Corpus;
use crate::door::{Checked, Door, Schedule, SetupClock};
use crate::ops::{check_against, run_bundle, Bundle, DASH, REPORT};
use crate::trace::Tracer;
use gdelt_columnar::binfmt::{save_with_partitions, DEFAULT_STORE_PARTITIONS};
use gdelt_engine::{ExecContext, Query};
use gdelt_serve::DegradedPolicy;
use gdelt_shard::{
    split_store, Frame, Router, RouterConfig, ShardManifest, ShardWorker, WorkerConfig,
};
use std::net::{TcpListener, TcpStream};
use std::path::Path;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, RwLock};
use std::thread::JoinHandle;

pub const SHARDS: u32 = 2;

/// The worker a listener currently serves; a roll-over swaps it.
type Current = Arc<RwLock<Arc<ShardWorker>>>;

/// One worker endpoint. `ShardWorker::serve` never returns and detaches
/// its connection threads, and this benchmark must join every thread it
/// starts, so the accept loop lives here and answers through
/// `ShardWorker::handle`, as the product's own socket tests do.
pub struct Endpoint {
    pub addr: String,
    pub current: Current,
    stop: Arc<AtomicBool>,
    accept: JoinHandle<()>,
}

fn serve_conn(mut stream: TcpStream, current: &Current) {
    let _ = stream.set_nodelay(true);
    let worker = || Arc::clone(&current.read().expect("no writer panics while holding the lock"));
    if Frame::Hello(worker().hello()).write_to(&mut stream).is_err() {
        return;
    }
    // Until the router hangs up.
    while let Ok(frame) = Frame::read_from(&mut stream) {
        if worker().handle(frame).write_to(&mut stream).is_err() {
            return;
        }
    }
}

impl Endpoint {
    pub fn start(worker: Arc<ShardWorker>) -> Result<Endpoint, String> {
        let listener = TcpListener::bind("127.0.0.1:0").map_err(|e| format!("bind: {e}"))?;
        let addr = listener.local_addr().map_err(|e| format!("local_addr: {e}"))?.to_string();
        let current: Current = Arc::new(RwLock::new(worker));
        let stop = Arc::new(AtomicBool::new(false));
        let (conn_current, conn_stop) = (Arc::clone(&current), Arc::clone(&stop));
        let accept = std::thread::spawn(move || {
            let mut conns = Vec::new();
            for stream in listener.incoming() {
                if conn_stop.load(Ordering::SeqCst) {
                    break;
                }
                let Ok(stream) = stream else { continue };
                let current = Arc::clone(&conn_current);
                conns.push(std::thread::spawn(move || serve_conn(stream, &current)));
            }
            for c in conns {
                c.join().expect("connection thread panicked");
            }
        });
        Ok(Endpoint { addr, current, stop, accept })
    }

    /// Close the listener and join every thread. The router must have
    /// been dropped first: its pooled connections keep their threads
    /// reading.
    pub fn stop(self) {
        self.stop.store(true, Ordering::SeqCst);
        // Wake the accept loop so it sees the flag.
        let _ = TcpStream::connect(&self.addr);
        self.accept.join().expect("accept thread panicked");
    }
}

/// A router with no result cache over `endpoints`: every query scatters.
pub fn router_over(manifest: ShardManifest, endpoints: &[Endpoint]) -> Router {
    Router::new(
        manifest,
        RouterConfig {
            addrs: endpoints.iter().map(|e| e.addr.clone()).collect(),
            cache_enabled: false,
            policy: DegradedPolicy::Fail,
            ..RouterConfig::default()
        },
    )
}

pub fn worker_config(manifest: &ShardManifest, dir: &Path, shard: usize) -> WorkerConfig {
    let entry = &manifest.shards[shard];
    let mut cfg = WorkerConfig::new(
        manifest.shard_path(dir, shard),
        shard as u32,
        entry.partitions,
        entry.ev_row_base,
    );
    cfg.threads = 1;
    cfg
}

/// One bundle through the router; a partial-coverage answer is refused
/// by the router's `Fail` policy and comes back as an error.
pub fn router_bundle(
    tr: &mut Tracer,
    router: &Router,
    op: &'static str,
    queries: &[Query],
) -> Result<Bundle, String> {
    let open = tr.begin(op, "harness");
    let out = queries
        .iter()
        .map(|q| tr.call("Router::query", "shard", || router.query(q)).map(|a| a.result))
        .collect::<Result<Bundle, _>>();
    tr.end(open);
    out.map_err(|e| format!("{op}: {e}"))
}

pub struct ShardScatter {
    router: Router,
    endpoints: Vec<Endpoint>,
    shard0: WorkerConfig,
    /// Answers of `run_query` on the unsplit dataset.
    want_report: Bundle,
    want_dash: Bundle,
    served: (usize, usize, usize),
    retired: Vec<Arc<ShardWorker>>,
}

impl ShardScatter {
    pub fn set_up(
        corpus: &mut Corpus,
        threads: usize,
        dir: &Path,
        clock: &mut SetupClock,
    ) -> Result<Self, String> {
        let data = build_from_records(corpus, clock);
        let store = dir.join("unsplit.gdhpc");
        let shard_dir = dir.join("shards");
        let manifest = clock
            .time(|| {
                save_with_partitions(&store, &data, DEFAULT_STORE_PARTITIONS)?;
                split_store(&store, &shard_dir, SHARDS)
            })
            .map_err(|e| format!("split {}: {e}", store.display()))?;
        let mut endpoints = Vec::new();
        for shard in 0..manifest.shards.len() {
            let cfg = worker_config(&manifest, &shard_dir, shard);
            let worker = clock
                .time(|| ShardWorker::load(cfg))
                .map_err(|e| format!("load shard {shard}: {e}"))?;
            endpoints.push(Endpoint::start(worker)?);
        }
        let shard0 = worker_config(&manifest, &shard_dir, 0);
        let router = clock.time(|| router_over(manifest, &endpoints));
        let ctx = ExecContext::builder().threads(threads).build();
        Ok(ShardScatter {
            router,
            endpoints,
            shard0,
            want_report: run_bundle(&ctx, &data, &REPORT),
            want_dash: run_bundle(&ctx, &data, &DASH),
            served: served_of(&data),
            retired: Vec::new(),
        })
    }
}

impl Door for ShardScatter {
    fn schedule(&self) -> Schedule {
        Schedule { reads_per_round: 1, write_every: 2, write_first: false }
    }

    fn report(&mut self, tr: &mut Tracer) -> Result<Bundle, String> {
        router_bundle(tr, &self.router, "report", &REPORT)
    }

    fn dash(&mut self, tr: &mut Tracer) -> Result<Bundle, String> {
        router_bundle(tr, &self.router, "dash", &DASH)
    }

    /// A shard restart / store roll-over: the time until a fresh worker
    /// can serve shard 0's store, which then replaces the old worker
    /// behind the same listener.
    fn write(&mut self, tr: &mut Tracer) -> Result<bool, String> {
        let open = tr.begin("write", "harness");
        let loaded =
            tr.call("ShardWorker::load", "shard", || ShardWorker::load(self.shard0.clone()));
        tr.end(open);
        let fresh = loaded.map_err(|e| format!("load shard 0: {e}"))?;
        let mut current =
            self.endpoints[0].current.write().expect("no writer panics while holding the lock");
        self.retired.push(std::mem::replace(&mut *current, fresh));
        Ok(true)
    }

    fn verify(&mut self, _round: usize, reports: &[Bundle], dashes: &[Bundle]) -> Checked {
        check_against(&self.want_report, &self.want_dash, reports, dashes)
    }

    fn end_round(&mut self) {
        self.retired.clear();
        // Workers and router share this process's flight ring; emptied
        // here, in-process forwarding cannot grow the reply frames.
        gdelt_obs::flight_take();
    }

    fn served(&self) -> (usize, usize, usize) {
        self.served
    }

    fn shutdown(self: Box<Self>) {
        let ShardScatter { router, endpoints, .. } = *self;
        drop(router);
        endpoints.into_iter().for_each(Endpoint::stop);
    }
}
