//! In-process fleets keep a bounded flight ring and bounded replies.
//!
//! Router and workers here share one process, hence one flight ring —
//! as in `gdbench` and any library user. A worker forwards the ring's
//! tail on every reply and the router re-records what it has not seen;
//! if a worker also forwarded those re-records, each would come back
//! under a fresh `seq`, be re-recorded again, and the ring would fill
//! with nested `[shard i seq …] [shard i seq …] …` details that every
//! reply then carries. This drives 500 scatters with no `flight_take`
//! and holds both sizes flat. It lives in its own test binary so no
//! other test's router shares the ring.

use gdelt_engine::{Query, SeriesKind};
use gdelt_shard::router::{Router, RouterConfig};
use gdelt_shard::split_store;
use gdelt_shard::wire::Frame;
use gdelt_shard::worker::{ShardWorker, WorkerConfig};
use std::io::Write;
use std::net::TcpListener;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Arc;
use std::time::Duration;

const SHARDS: u32 = 2;
const SCATTERS: usize = 500;

/// An in-process worker loop that records the byte size of its largest
/// reply frame in `reply_bytes`.
fn spawn_worker(worker: Arc<ShardWorker>, reply_bytes: Arc<AtomicUsize>) -> String {
    let listener = TcpListener::bind("127.0.0.1:0").expect("bind");
    let addr = listener.local_addr().expect("addr").to_string();
    std::thread::spawn(move || {
        for stream in listener.incoming() {
            let Ok(mut stream) = stream else { continue };
            let w = Arc::clone(&worker);
            let bytes = Arc::clone(&reply_bytes);
            std::thread::spawn(move || {
                if Frame::Hello(w.hello()).write_to(&mut stream).is_err() {
                    return;
                }
                while let Ok(frame) = Frame::read_from(&mut stream) {
                    let reply = w.handle(frame).encode();
                    bytes.fetch_max(reply.len(), Ordering::Relaxed);
                    if stream.write_all(&reply).is_err() {
                        return;
                    }
                }
            });
        }
    });
    addr
}

/// Bytes of detail the flight ring holds right now.
fn ring_bytes() -> usize {
    gdelt_obs::flight_snapshot().iter().map(|ev| ev.detail.len()).sum()
}

#[test]
fn repeated_scatters_keep_ring_and_replies_bounded() {
    let dir = std::env::temp_dir().join(format!("shard-flightbound-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).expect("create temp dir");
    let dataset = gdelt_synth::generate_dataset(&gdelt_synth::scenario::tiny(5)).0;
    let store = dir.join("store.gdhpc");
    gdelt_columnar::binfmt::save_with_partitions(&store, &dataset, 8).expect("save");
    let shard_dir = dir.join("shards");
    let manifest = split_store(&store, &shard_dir, SHARDS).expect("split");
    let reply_bytes: Vec<Arc<AtomicUsize>> =
        (0..SHARDS).map(|_| Arc::new(AtomicUsize::new(0))).collect();
    let addrs: Vec<String> = (0..SHARDS)
        .zip(&manifest.shards)
        .zip(&reply_bytes)
        .map(|((i, e), bytes)| {
            let path = manifest.shard_path(&shard_dir, i as usize);
            let cfg = WorkerConfig::new(path, i, e.partitions, e.ev_row_base);
            spawn_worker(ShardWorker::load(cfg).expect("load shard"), Arc::clone(bytes))
        })
        .collect();
    let router = Router::new(
        manifest,
        RouterConfig {
            addrs,
            cache_enabled: false,
            read_timeout: Duration::from_secs(5),
            ..RouterConfig::default()
        },
    );
    let query = Query::TimeSeries(SeriesKind::Events);
    let largest_reply = || reply_bytes.iter().map(|b| b.load(Ordering::Relaxed)).max();

    // Warm-up: the workers' load events are forwarded and re-recorded.
    for _ in 0..10 {
        router.query(&query).expect("scatter answer");
    }
    let (warm_reply, warm_ring) = (largest_reply(), ring_bytes());
    for _ in 10..SCATTERS {
        router.query(&query).expect("scatter answer");
    }
    let (reply, ring) = (largest_reply(), ring_bytes());

    assert_eq!(reply, warm_reply, "reply frames grew over {SCATTERS} scatters");
    assert_eq!(ring, warm_ring, "flight ring grew over {SCATTERS} scatters");
    let nested: Vec<String> = gdelt_obs::flight_snapshot()
        .into_iter()
        .map(|ev| ev.detail)
        .filter(|d| d.matches("[shard ").count() > 1)
        .collect();
    assert!(nested.is_empty(), "re-records were forwarded again: {nested:?}");
    let _ = std::fs::remove_dir_all(&dir);
}
