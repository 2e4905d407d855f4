//! Cross-process flight forwarding, pinned end-to-end over real TCP:
//! workers piggyback their recent flight-recorder events on replies
//! and metrics scrapes; the router re-records them **at most once**
//! via per-shard monotone sequence cursors.
//!
//! This lives in its own integration-test binary (own process, own
//! flight ring): the assertions below count ring events by exact
//! re-record prefix, and any other test's router absorbing replies
//! concurrently would inflate the count.

use gdelt_shard::router::{Router, RouterConfig};
use gdelt_shard::split_store;
use gdelt_shard::wire::Frame;
use gdelt_shard::worker::{ShardWorker, WorkerConfig};
use std::net::TcpListener;
use std::path::PathBuf;
use std::sync::Arc;
use std::time::Duration;

const PARTS: u32 = 8;

/// Minimal in-process worker loop: hello, then request/reply until EOF.
fn spawn_worker(worker: Arc<ShardWorker>) -> String {
    let listener = TcpListener::bind("127.0.0.1:0").expect("bind");
    let addr = listener.local_addr().expect("addr").to_string();
    std::thread::spawn(move || {
        for stream in listener.incoming() {
            let Ok(mut stream) = stream else { continue };
            let w = Arc::clone(&worker);
            std::thread::spawn(move || {
                if Frame::Hello(w.hello()).write_to(&mut stream).is_err() {
                    return;
                }
                while let Ok(frame) = Frame::read_from(&mut stream) {
                    if w.handle(frame).write_to(&mut stream).is_err() {
                        return;
                    }
                }
            });
        }
    });
    addr
}

#[test]
fn flight_forwarding_is_at_most_once() {
    // Single-shard fleet so the cursor arithmetic below has exactly one
    // forwarding path to reason about.
    let dir = std::env::temp_dir().join(format!("shard-flightfwd-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).expect("create temp dir");
    let dataset = gdelt_synth::generate_dataset(&gdelt_synth::scenario::tiny(11)).0;
    let store = dir.join("store.gdhpc");
    gdelt_columnar::binfmt::save_with_partitions(&store, &dataset, PARTS).expect("save");
    let shard_dir: PathBuf = dir.join("shards");
    let manifest = split_store(&store, &shard_dir, 1).expect("split");
    let e = &manifest.shards[0];
    let cfg = WorkerConfig::new(manifest.shard_path(&shard_dir, 0), 0, e.partitions, e.ev_row_base);
    let addr = spawn_worker(ShardWorker::load(cfg).expect("load shard"));

    // Record a distinctive event and learn its ring sequence number.
    gdelt_obs::flight_warn("test", "synthetic_fault", "forwarding probe".to_string());
    let s0 = gdelt_obs::flight_snapshot()
        .iter()
        .rev()
        .find(|ev| ev.code == "synthetic_fault")
        .expect("probe event recorded")
        .seq;

    // Worker side: the piggyback is stateless — two scrapes forward the
    // probe with the SAME sequence number, which is what lets the
    // router's cursor make re-recording at-most-once.
    let mut stream = std::net::TcpStream::connect(&addr).expect("connect");
    let _ = Frame::read_from(&mut stream).expect("hello");
    for round in 0..2 {
        Frame::MetricsRequest.write_to(&mut stream).expect("scrape");
        match Frame::read_from(&mut stream).expect("reply") {
            Frame::MetricsReply { snapshot_json, flight } => {
                gdelt_obs::RegistrySnapshot::from_json(&snapshot_json)
                    .expect("snapshot round-trips");
                let probe = flight
                    .iter()
                    .find(|ev| ev.code == "synthetic_fault")
                    .unwrap_or_else(|| panic!("round {round}: probe not piggybacked"));
                assert_eq!(probe.seq, s0, "round {round}: forwarded seq must be stable");
            }
            other => panic!("expected metrics reply, got {other:?}"),
        }
    }
    drop(stream);

    // Router side: scrape twice through the real router; the per-shard
    // cursor must re-record the probe exactly once. The worker shares
    // this test process's ring, so the re-record sits in the ring the
    // worker forwards from — and must never be forwarded itself: a
    // second hop would come back under a fresh sequence number and be
    // re-recorded as `[shard 0 seq N …] [shard 0 seq s0 …]`, and so on
    // once per reply.
    let r = Router::new(
        manifest.clone(),
        RouterConfig {
            addrs: vec![addr.clone()],
            cache_enabled: false,
            read_timeout: Duration::from_secs(5),
            ..RouterConfig::default()
        },
    );
    for s in r.scrape_metrics() {
        s.expect("healthy scrape");
    }
    for s in r.scrape_metrics() {
        s.expect("healthy scrape");
    }
    let prefix = format!("[shard 0 seq {s0} ");
    let rerecorded =
        gdelt_obs::flight_snapshot().iter().filter(|ev| ev.detail.starts_with(&prefix)).count();
    assert_eq!(rerecorded, 1, "probe must be re-recorded exactly once across two scrapes");

    // Query replies piggyback too, through the same cursor: still one
    // re-record of the probe, and no re-record of a re-record.
    let _ = r.query(&gdelt_engine::Query::CoReport).expect("scatter answer");
    let ring = gdelt_obs::flight_snapshot();
    let after_query = ring.iter().filter(|ev| ev.detail.starts_with(&prefix)).count();
    assert_eq!(after_query, 1, "reply-path forwarding must respect the same cursor");
    let second_hops: Vec<&str> = ring
        .iter()
        .map(|ev| ev.detail.as_str())
        .filter(|d| d.matches("[shard ").count() > 1)
        .collect();
    assert!(second_hops.is_empty(), "re-records were forwarded again: {second_hops:?}");
}
